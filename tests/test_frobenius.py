"""Frobenius numbers: closed form, fiber minima, and the scan oracle."""

from math import gcd

import pytest

from denumerant import congruence, frobenius
from denumerant import (
    frobenius_general,
    frobenius_pair,
    make_instance,
    p_oracle_upto,
    representability_scan,
    sample_instances,
)


def coprime_pairs(limit):
    return [
        (a1, a2)
        for a1 in range(1, limit + 1)
        for a2 in range(a1 + 1, limit + 1)
        if gcd(a1, a2) == 1
    ]


class TestPairFormula:
    @pytest.mark.parametrize("a1,a2,expected", [(3, 5, 7), (2, 3, 1), (1, 9, -1)])
    def test_examples(self, a1, a2, expected):
        assert frobenius_pair(a1, a2).value == expected

    def test_boundary_behavior_3_5(self):
        table = p_oracle_upto((3, 5), 23)
        assert table[7] == 0
        assert all(table[n] > 0 for n in range(8, 24))

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            frobenius_pair(4, 6)


class TestGeneral:
    def test_examples(self):
        got = frobenius_general((3, 5))
        assert (got.value, got.witness_residue) == (7, 7)
        assert frobenius_general((3, 4, 5)).value == 2
        assert frobenius_general((1, 11)).value == -1

    def test_rejects_gcd_above_one(self):
        with pytest.raises(ValueError):
            frobenius_general((4, 6))

    def test_reads_minima_without_building_fibers(self, monkeypatch):
        # the minima are first nonzero entries of the histogram's columns
        def boom(*args, **kwargs):
            raise AssertionError("frobenius_general built a fiber")

        monkeypatch.setattr(congruence, "build_fiber_index", boom)
        monkeypatch.setattr(congruence.Fiber, "__init__", boom)
        monkeypatch.setattr(congruence.FiberIndex, "__init__", boom)
        got = frobenius_general((3, 4, 5))
        assert (got.value, got.witness_residue) == (2, 2)

    def test_empty_column_is_an_internal_error(self, monkeypatch):
        real = frobenius.box_sum_histogram

        def without_ones(inst, max_box):
            h = real(inst, max_box)
            return [c if s % inst.D != 1 else 0 for s, c in enumerate(h)]

        monkeypatch.setattr(frobenius, "box_sum_histogram", without_ones)
        with pytest.raises(AssertionError, match="empty fiber at 1"):
            frobenius_general((3, 4, 5))

    def test_witness_class_holds_the_max(self):
        for a in [(3, 5), (3, 4, 5), (4, 9, 11)]:
            inst = make_instance(a)
            got = frobenius_general(a)
            assert got.value % inst.D == got.witness_residue
            # one period above the value, the class becomes representable
            table = p_oracle_upto(a, got.value + inst.D + 1)
            if got.value >= 0:
                assert table[got.value] == 0
            assert table[got.value + inst.D] > 0


class TestScan:
    @pytest.mark.parametrize(
        "a,n_max,expected",
        [((3, 5), 10, [1, 2, 4, 7]), ((2, 3), 5, [1]), ((1,), 5, [])],
    )
    def test_examples(self, a, n_max, expected):
        assert representability_scan(a, n_max) == expected


class TestAgreement:
    def test_pairs(self):
        for a1, a2 in coprime_pairs(15):
            closed = frobenius_pair(a1, a2).value
            assert frobenius_general((a1, a2)).value == closed
            gaps = representability_scan((a1, a2), a1 * a2)
            assert (max(gaps) if gaps else -1) == closed

    def test_sylvester_gap_count(self):
        for a1, a2 in coprime_pairs(15):
            horizon = max(frobenius_pair(a1, a2).value, 0)
            gaps = representability_scan((a1, a2), horizon)
            assert len(gaps) == (a1 - 1) * (a2 - 1) // 2

    def test_triples(self):
        pool = sample_instances(
            12, min_r=3, max_r=3, max_entry=12, seed=5, box_budget=50_000, require_gcd1=True
        )
        for a in pool:
            general = frobenius_general(a)
            horizon = max(general.value, 0) + make_instance(a).D
            gaps = representability_scan(a, horizon)
            assert (max(gaps) if gaps else -1) == general.value

    def test_zero_after_frobenius(self):
        for a in [(3, 5), (3, 4, 5), (5, 7, 9), (2, 3, 5, 7), (6, 10, 15)]:
            inst = make_instance(a)
            value = frobenius_general(a).value
            table = p_oracle_upto(a, value + inst.D)
            if value >= 0:
                assert table[value] == 0
            assert all(table[value + t] > 0 for t in range(1, inst.D + 1))
