"""Box-sum histogram, fiber bucketing, and the enumeration that checks them."""

import itertools
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import (
    BoxTooLargeError,
    Fiber,
    box_sum_histogram,
    build_fiber_index,
    congruence,
    fiber,
    frobenius_general,
    list_fibers,
    make_instance,
    p,
    p_oracle,
    p_oracle_upto,
    p_product,
    p_quasipoly,
    quasipoly,
)

weights = st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3).map(tuple)


class TestMakeInstance:
    def test_lcm_and_product(self):
        assert make_instance((2, 3), "lcm").D == 6
        assert make_instance((2, 3), "product").D == 6
        inst = make_instance((4, 6), "lcm")
        assert (inst.D, inst.g) == (12, 2)
        assert make_instance((4, 6), "product").D == 24

    def test_explicit(self):
        assert make_instance((2, 3), 12).D == 12
        with pytest.raises(ValueError):
            make_instance((2, 3), 8)

    @pytest.mark.parametrize("bad", [(), (0,), (-1, 2), (2.5, 3), ("3", 5)])
    def test_rejects_bad_weights(self, bad):
        with pytest.raises(ValueError):
            make_instance(bad)

    def test_rejects_bad_choice(self):
        with pytest.raises(ValueError):
            make_instance((2, 3), "smallest")

    def test_box_size(self):
        assert make_instance((2, 3)).box_size == 6  # 3 * 2
        assert make_instance((1, 1)).box_size == 1


class TestBuildFiberIndex:
    def test_2_3_is_six_singletons(self):
        index = build_fiber_index(make_instance((2, 3)))
        assert index.residues() == (0, 1, 2, 3, 4, 5)
        assert all(len(index.fiber(v)) == 1 for v in range(6))
        assert {v: index.fiber(v).sums[0] for v in range(6)} == {
            0: 0, 1: 7, 2: 2, 3: 3, 4: 4, 5: 5,
        }

    def test_point_box(self):
        inst = make_instance((1, 1))
        index = build_fiber_index(inst)
        assert index.residues() == (0,)
        assert index.fiber(0) == Fiber(0, (0,), (1,))
        assert list_fibers(inst) == {0: [(0, 0)]}

    def test_3_5_residue_7(self):
        index = build_fiber_index(make_instance((3, 5)))
        assert index.total_tuples == 15
        assert all(len(f) == 1 for f in index.fibers.values())
        assert index.fiber(7).sums == (22,)

    def test_guard_reports_cardinality(self):
        # the guard bounds the histogram, (6 - 2) + (6 - 3) + 1 = 8 entries
        inst = make_instance((2, 3))
        assert inst.histogram_length == len(box_sum_histogram(inst)) == 8
        with pytest.raises(BoxTooLargeError) as err:
            build_fiber_index(inst, max_box=7)
        assert err.value.size == 8
        assert "8" in str(err.value)

    def test_large_gcd_is_divided_out(self):
        # D = 1.5e13 but the reduced instance (3, 5) has period 15: a histogram
        # built without dividing out g would need about 1.6e13 entries
        a = (3 * 10**12, 5 * 10**12)
        g = 10**12
        inst = make_instance(a)
        assert len(box_sum_histogram(inst)) == 23  # (15 - 3) + (15 - 5) + 1
        index = build_fiber_index(inst)
        assert index.total_tuples == inst.box_size == 15
        assert len(index.fibers) == 15
        for n in range(6):
            assert p(a, n) == p_product(a, n, index=index) == p_oracle(a, n)
        for m in range(40):
            want = p_oracle((3, 5), m)
            assert p(a, g * m) == p_product(a, g * m, index=index) == want, m
            assert index.fiber(g * m) == fiber(inst, g * m)

    @settings(max_examples=40, deadline=None)
    @given(weights)
    def test_cardinality_law(self, a):
        inst = make_instance(a)
        index = build_fiber_index(inst)
        expect = inst.g * inst.D ** (inst.r - 1) // prod(inst.a)
        for v in range(inst.D):
            want = expect if v % inst.g == 0 else 0
            assert len(index.fiber(v)) == want

    @settings(max_examples=40, deadline=None)
    @given(weights)
    def test_index_reads_agree_with_point_query(self, a):
        inst = make_instance(a)
        index = build_fiber_index(inst)
        fibers = index.fibers
        assert tuple(fibers) == index.residues()
        for v in range(inst.D):
            got = index.fiber(v)
            assert got == fiber(inst, v)
            if v % inst.g == 0:
                assert fibers[v] == got
            else:
                assert v not in fibers and got.is_empty

    def test_build_makes_no_fiber(self, monkeypatch):
        # the index is the histogram; a fiber is built only when one is read
        def boom(*args, **kwargs):
            raise AssertionError("build_fiber_index built a fiber")

        inst = make_instance((4, 6, 9))
        with monkeypatch.context() as patch:
            patch.setattr(Fiber, "__init__", boom)
            index = build_fiber_index(inst)
        assert index.histogram == tuple(box_sum_histogram(inst))
        assert index.total_tuples == inst.box_size

    def test_fibers_view_reads_columns_on_lookup(self, monkeypatch):
        index = build_fiber_index(make_instance((4, 6, 9)))  # D = 36, g = 1
        want = {v: index.fiber(v) for v in index.residues()}
        reads = []
        column = congruence._column
        monkeypatch.setattr(congruence, "_column", lambda *args: reads.append(args) or column(*args))
        assert len(index.fibers) == 36 and reads == []
        assert index.fibers[7] == want[7] and len(reads) == 1
        assert dict(index.fibers) == want

    def test_fibers_view_keys_are_the_residues(self):
        index = build_fiber_index(make_instance((4, 6, 10)))  # D = 60, g = 2
        fibers = index.fibers
        assert list(fibers) == list(range(0, 60, 2)) and len(fibers) == 30
        for v in (1, 60, -2, "0"):
            assert v not in fibers
            with pytest.raises(KeyError):
                fibers[v]

    @settings(max_examples=40, deadline=None)
    @given(weights)
    def test_partition_law(self, a):
        inst = make_instance(a)
        seen = sorted(t for ts in list_fibers(inst).values() for t in ts)
        box = sorted(itertools.product(*[range(n) for n in inst.axis_lengths]))
        assert seen == box

    @settings(max_examples=40, deadline=None)
    @given(weights)
    def test_fiber_invariants(self, a):
        inst = make_instance(a)
        index = build_fiber_index(inst)
        listing = list_fibers(inst)
        assert tuple(listing) == index.residues()
        bound = inst.r * inst.D
        for v, tuples in listing.items():
            assert tuples == sorted(tuples)
            sums = [sum(ai * ji for ai, ji in zip(inst.a, t)) for t in tuples]
            assert all(s % inst.D == v and s < bound for s in sums)
            tally = Counter(sums)
            f = index.fiber(v)
            assert f.sums == tuple(sorted(tally))
            assert f.counts == tuple(tally[s] for s in f.sums)
            assert len(f.sums) <= inst.r


class TestSingleFiber:
    def test_examples(self):
        inst = make_instance((2, 3))
        f = fiber(inst, 12)
        assert (f.residue, f.sums, f.counts) == (0, (0,), (1,))
        assert list_fibers(inst)[0] == [(0, 0)]
        assert fiber(make_instance((4, 6)), 5).is_empty
        assert 5 not in list_fibers(make_instance((4, 6)))
        inst = make_instance((3, 5))
        f = fiber(inst, 8)
        assert (f.sums, f.counts) == ((8,), (1,))
        assert list_fibers(inst)[8] == [(1, 1)]

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            fiber(make_instance((2, 3)), -1)

    def test_rejects_non_integer_n(self):
        # 2.5 used to come back as the fiber of "residue 2.5"
        with pytest.raises(ValueError):
            fiber(make_instance((3, 5, 7)), 2.5)

    def test_index_rejects_negative_n(self):
        # -1 used to come back as the fiber of residue 14 = -1 mod 15
        with pytest.raises(ValueError):
            build_fiber_index(make_instance((3, 5))).fiber(-1)

    def test_guard(self):
        with pytest.raises(BoxTooLargeError):
            fiber(make_instance((2, 3)), 1, max_box=5)

    @settings(max_examples=40, deadline=None)
    @given(weights, st.integers(min_value=0, max_value=60))
    def test_matches_enumeration(self, a, n):
        # the histogram column against a walk of the box, not against the
        # index, which reads the same histogram
        inst = make_instance(a)
        tally = Counter(
            sum(ai * ji for ai, ji in zip(inst.a, t))
            for t in list_fibers(inst).get(n % inst.D, [])
        )
        f = fiber(inst, n)
        assert f.residue == n % inst.D
        assert f.sums == tuple(sorted(tally))
        assert f.counts == tuple(tally[s] for s in f.sums)


class TestBoxSumHistogram:
    @settings(max_examples=30, deadline=None)
    @given(weights, st.integers(min_value=1, max_value=2))
    def test_matches_product_enumeration(self, a, multiple):
        inst = make_instance(a, multiple * make_instance(a).D)
        want = Counter(
            sum(ai * ji for ai, ji in zip(inst.a, j))
            for j in itertools.product(*[range(n) for n in inst.axis_lengths])
        )
        h = box_sum_histogram(inst)
        assert Counter({inst.g * k: c for k, c in enumerate(h) if c}) == want
        assert len(h) == sum(inst.D - ai for ai in inst.a) // inst.g + 1
        assert len(h) == inst.histogram_length
        if inst.r > 1:
            assert len(h) < inst.r * inst.D // inst.g

    def test_guard(self):
        with pytest.raises(BoxTooLargeError):
            box_sum_histogram(make_instance((2, 3)), max_box=7)
        assert len(box_sum_histogram(make_instance((2, 3)), max_box=8)) == 8

    def test_guard_bounds_the_histogram_not_the_box(self):
        # (2,3,5,7): 824 histogram entries, a box of 9 261 000 tuples
        a = (2, 3, 5, 7)
        inst = make_instance(a)
        assert inst.histogram_length == 824
        table = p_oracle_upto(a, 400)
        qp = quasipoly(a, max_box=10**4)
        for n in (0, 1, 17, 209, 210, 400):
            assert p_product(a, n, max_box=10**4) == p_quasipoly(qp, n) == table[n]
        assert frobenius_general(a, max_box=10**4).value == 1
        with pytest.raises(BoxTooLargeError):
            list_fibers(inst, max_box=10**4)


class TestImmutability:
    def test_fibers_mapping_rejects_writes(self):
        index = build_fiber_index(make_instance((2, 3)))
        with pytest.raises(TypeError):
            index.fibers[0] = None

    def test_dataclasses_are_frozen(self):
        inst = make_instance((2, 3))
        with pytest.raises(AttributeError):
            inst.D = 12
        f = fiber(inst, 0)
        with pytest.raises(AttributeError):
            f.sums = ()
