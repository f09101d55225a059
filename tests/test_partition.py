"""Counting routes for p_a(n) against each other and the brute-force count."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import permutations
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import congruence, partition
from denumerant import (
    DEFAULT_MAX_BOX,
    BoxTooLargeError,
    Instance,
    QuasiPolynomial,
    build_fiber_index,
    is_zero,
    make_instance,
    p,
    p_floorsum,
    p_oracle,
    p_oracle_upto,
    p_popoviciu,
    p_product,
    p_quasipoly,
    p_stirling,
    p_unrestricted,
    polypart_box_average,
    quasipoly,
    route_for,
    sample_instances,
)


def brute_force_count(a, n):
    """Count solutions of a.x = n, x >= 0, by bounded nested enumeration."""
    if not a:
        return 1 if n == 0 else 0
    head, tail = a[0], a[1:]
    return sum(brute_force_count(tail, n - head * x) for x in range(n // head + 1))


class TestOracle:
    @pytest.mark.parametrize(
        "a,n,expected",
        [((1, 2, 3, 4, 5), 5, 7), ((2, 3), 1, 0), ((7,), 0, 1), ((1, 1), 7, 8)],
    )
    def test_examples(self, a, n, expected):
        assert p_oracle(a, n) == expected

    def test_against_brute_force(self):
        for a in [(1,), (2,), (2, 3), (3, 4), (1, 2, 3), (2, 3, 4), (5, 3, 2)]:
            table = p_oracle_upto(a, 24)
            for n in range(25):
                assert table[n] == brute_force_count(a, n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            p_oracle((2, 3), -1)


class TestProductRoute:
    @pytest.mark.parametrize(
        "a,n,expected",
        [((2, 3), 6, 2), ((3, 5), 8, 1), ((1, 1), 7, 8)],
    )
    def test_examples(self, a, n, expected):
        assert p_product(a, n) == expected

    def test_index_reuse(self):
        index = build_fiber_index(make_instance((4, 6, 9)))
        for n in range(40):
            assert p_product((4, 6, 9), n, index=index) == p_product((4, 6, 9), n)

    @pytest.mark.parametrize(
        "route",
        [
            p_product,
            p_stirling,
            is_zero,
            lambda a, n, index: quasipoly(a, index=index),
            lambda a, n, index: polypart_box_average(a, index=index),
        ],
        ids=["p_product", "p_stirling", "is_zero", "quasipoly", "polypart_box_average"],
    )
    def test_rejects_foreign_index(self, route):
        index = build_fiber_index(make_instance((2, 3)))
        with pytest.raises(ValueError, match="index was built for"):
            route((3, 5), 4, index=index)


class TestStirlingRoute:
    @pytest.mark.parametrize(
        "a,n,expected",
        [((2, 3), 6, 2), ((3, 5), 7, 0), ((5,), 15, 1), ((5,), 14, 0)],
    )
    def test_examples(self, a, n, expected):
        assert p_stirling(a, n) == expected

    def test_kernel_is_shared_and_immutable(self):
        # point queries on one (r, D) reuse one cached kernel, so no caller
        # may change it
        kernel = partition._stirling_kernel(3, 12)
        assert partition._stirling_kernel(3, 12) is kernel
        assert all(isinstance(row, tuple) for row in (kernel, *kernel))


class TestQuasiPolynomial:
    def test_coefficients_1_2(self):
        qp = quasipoly((1, 2))
        half = Fraction(1, 2)
        assert qp.coeffs[1] == (half, half)
        assert qp.coeffs[0] == (Fraction(1), half)

    def test_r1_tables(self):
        assert quasipoly((1,)).coeffs == ((Fraction(1),),)
        assert quasipoly((2,)).coeffs == ((Fraction(1), Fraction(0)),)

    def test_evaluation_examples(self):
        qp = quasipoly((1, 2))
        assert p_quasipoly(qp, 4) == 3
        assert p_quasipoly(qp, 5) == 3
        assert p_quasipoly(quasipoly((1,)), 100) == 1

    def test_leading_column_constant(self):
        for a in [(2, 3), (4, 6), (2, 4, 6), (3, 4, 6)]:
            inst = make_instance(a)
            qp = quasipoly(a)
            lead = Fraction(inst.g, factorial(inst.r - 1) * prod(a))
            for v in range(inst.D):
                want = lead if v % inst.g == 0 else 0
                assert qp.coeffs[inst.r - 1][v] == want

    def test_gcd_law_columns_vanish(self):
        qp = quasipoly((4, 6))
        for v in range(12):
            if v % 2:
                assert all(qp.coeffs[m][v] == 0 for m in range(2))

    def test_integrality_window(self):
        for a in [(2, 3), (4, 6), (2, 3, 5)]:
            qp = quasipoly(a)
            top = 3 * qp.instance.D
            for n in range(top + 1):
                p_quasipoly(qp, n)  # raises ArithmeticError on any non-integer

    def test_coefficient_checks_degree(self):
        qp = quasipoly((2, 3))
        assert qp.coefficient(1, 7) == qp.coeffs[1][1]
        for m in (-1, 2):
            with pytest.raises(ValueError, match=rf"m must be in 0\.\.1, got {m}"):
                qp.coefficient(m, 0)

    def test_evaluation_equals_rational_sum(self):
        rng = random.Random(2016)
        tables = [quasipoly((4, 6)), quasipoly((6, 10, 15))]  # zero columns where g does not divide v
        for a, d, g in [((2, 3, 5), 30, 1), ((4, 6, 8, 9), 72, 1), ((6, 10, 14), 210, 2), ((7,), 7, 7)]:
            inst = Instance(a=a, D=d, g=g)
            cols = [_integer_valued_column(v, d, len(a), rng) if v % g == 0 else [Fraction(0)] * len(a)
                    for v in range(d)]
            tables.append(QuasiPolynomial(instance=inst, coeffs=tuple(zip(*cols))))
        # (n^3 - n)/3 on even n, (n^2 - 1)/8 on odd n: the common denominator 24 is no coefficient's
        third, eighth = Fraction(1, 3), Fraction(1, 8)
        cols = [(0, -third, 0, third), (-eighth, 0, eighth, 0)]
        tables.append(QuasiPolynomial(instance=Instance(a=(1, 1, 2, 2), D=2, g=1), coeffs=tuple(zip(*cols))))
        for qp in tables:
            d = qp.instance.D
            ns = [0, 1, d - 1, d, 10**40, 10**40 + 1] + [rng.randrange(10 ** rng.randrange(1, 41)) for _ in range(40)]
            for twin in (qp, pickle.loads(pickle.dumps(qp)), copy.deepcopy(qp)):
                for n in ns:
                    want = sum(twin.coeffs[m][n % d] * n**m for m in range(len(twin.coeffs)))
                    assert want.denominator == 1
                    assert p_quasipoly(twin, n) == want, (qp.instance, n)

    def test_non_integral_value_raises(self):
        inst = Instance(a=(2, 3), D=6, g=1)
        half = Fraction(1, 2)
        qp = QuasiPolynomial(instance=inst, coeffs=((half,) * 6, (half,) * 6))  # (n + 1)/2
        with pytest.raises(ArithmeticError, match=r"at 6 is not integral: 7/2"):
            p_quasipoly(qp, 6)
        assert p_quasipoly(qp, 7) == 4

    def test_evaluation_does_no_fraction_arithmetic(self, monkeypatch):
        a = (3, 4, 9, 10)
        qp = quasipoly(a)
        oracle = p_oracle_upto(a, 400)

        def refuse(*args):
            raise AssertionError("Fraction arithmetic during evaluation")

        monkeypatch.setattr(Fraction, "__add__", refuse)
        monkeypatch.setattr(Fraction, "__mul__", refuse)
        for n in (0, 1, 179, 180, 397, 400):
            assert p_quasipoly(qp, n) == oracle[n]


def _integer_valued_column(v, d, r, rng):
    """Ascending coefficients in n of sum_k b_k C((n - v)/d, k) for k < r and
    random integers b_k: integral at every n congruent to v mod d, with
    denominators dividing d^k k!."""
    col = [Fraction(0)] * r
    binom = [Fraction(1)]  # C(x, k) in powers of n, where x = (n - v)/d
    for k in range(r):
        b = rng.randrange(-50, 51)
        for j, c in enumerate(binom):
            col[j] += b * c
        # C(x, k+1) = (x - k) C(x, k) / (k+1), and x - k = n/d - (v/d + k)
        shifted = [Fraction(0)] + [c / d for c in binom]
        binom = [(s - c * (Fraction(v, d) + k)) / (k + 1) for s, c in zip(shifted, binom + [Fraction(0)])]
    return col


class TestRouteAgreement:
    def test_all_routes_match_oracle(self):
        pool = sample_instances(25, max_r=4, max_entry=10, seed=7, box_budget=5000)
        for a in pool:
            index = build_fiber_index(make_instance(a))
            qp = quasipoly(a, index=index)
            oracle = p_oracle_upto(a, 120)
            for n in range(121):
                assert p_product(a, n, index=index) == oracle[n]
                assert p_stirling(a, n, index=index) == oracle[n]
                assert p_quasipoly(qp, n) == oracle[n]

    def test_index_routes_on_a_large_box(self):
        # 9 261 000 box tuples, split into 210 fibers of 44 100 tuples each
        a = (2, 3, 5, 7)
        index = build_fiber_index(make_instance(a))
        assert index.total_tuples == 9_261_000
        assert {len(f) for f in index.fibers.values()} == {44_100}
        qp = quasipoly(a, index=index)
        oracle = p_oracle_upto(a, 700)
        for n in range(701):
            assert p_quasipoly(qp, n) == oracle[n]
            assert p_product(a, n, index=index) == oracle[n]
            assert p_stirling(a, n, index=index) == oracle[n]
            assert is_zero(a, n, index=index) == (oracle[n] == 0)

    def test_d_invariance(self):
        for a in [(2, 3), (4, 6), (2, 3, 4)]:
            d0 = make_instance(a).D
            for n in range(0, 50):
                want = p_product(a, n, "lcm")
                for dv in ("product", 2 * d0):
                    assert p_product(a, n, dv) == want
                    assert p_stirling(a, n, dv) == want

    def test_quasipoly_under_other_periods(self):
        # the coefficient table is period-dependent but its values are not
        for a in [(2, 3), (4, 6), (2, 3, 4)]:
            d0 = make_instance(a).D
            oracle = p_oracle_upto(a, 60)
            for d_choice in ("product", 2 * d0):
                qp = quasipoly(a, d_choice)
                for n in range(61):
                    assert p_quasipoly(qp, n) == oracle[n], (a, d_choice, n)


small_instances = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(small_instances, st.integers(min_value=0, max_value=80))
def test_route_agreement_property(a, n):
    want = p_oracle(a, n)
    assert want >= 0
    assert p_product(a, n) == want
    assert p_stirling(a, n) == want


class TestPopoviciu:
    @pytest.mark.parametrize("a1,a2,n,expected", [(3, 5, 8, 1), (2, 3, 1, 0), (1, 1, 7, 8)])
    def test_examples(self, a1, a2, n, expected):
        assert p_popoviciu(a1, a2, n) == expected

    def test_against_oracle(self):
        for a1 in range(1, 13):
            for a2 in range(a1 + 1, 13):
                if gcd(a1, a2) != 1:
                    continue
                table = p_oracle_upto((a1, a2), 100)
                for n in range(101):
                    assert p_popoviciu(a1, a2, n) == table[n]

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            p_popoviciu(4, 6, 10)

    def test_large_n_is_fast(self):
        # O(log) route: no enumeration anywhere near n
        assert p_popoviciu(3, 5, 10**9) == p_popoviciu(3, 5, 10**9 % 15) + 10**9 // 15


_entry = st.integers(1, 40)
# weights <= 40: arbitrary; gcd(a) > 1; only gcd(a1, a2) > 1; a repeat; a 1
_triples = st.one_of(
    st.tuples(_entry, _entry, _entry),
    st.tuples(st.integers(2, 6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)).map(
        lambda t: (t[0] * t[1], t[0] * t[2], t[0] * t[3])
    ),
    st.tuples(st.integers(2, 6), st.integers(1, 6), st.integers(1, 6), _entry).map(
        lambda t: (t[0] * t[1], t[0] * t[2], t[3])
    ),
    st.tuples(_entry, _entry).map(lambda t: (t[0], t[0], t[1])),
    st.tuples(_entry, _entry).map(lambda t: (1, t[0], t[1])),
).flatmap(st.permutations).map(tuple)


class TestFloorSum:
    @settings(max_examples=150, deadline=None)
    @given(_triples)
    def test_matches_oracle(self, a):
        table = p_oracle_upto(a, 300)
        assert [p_floorsum(a, n) for n in range(301)] == table

    @settings(max_examples=60, deadline=None)
    @given(_triples, st.integers(0, 10**30))
    def test_permutation_invariant(self, a, n):
        assert len({p_floorsum(b, n) for b in permutations(a)}) == 1

    @settings(max_examples=100, deadline=None)
    @given(_triples, st.integers(10**20, 10**30))
    def test_deletion_identity(self, a, n):
        # p_a(n) - p_a(n - a3) counts the solutions with x3 = 0; Popoviciu
        # answers the pair, and shares no step with the floor sums
        assert p_floorsum(a, n) - p_floorsum(a, n - a[2]) == p(a[:2], n)

    @pytest.mark.parametrize("a", [(6, 10, 15), (8, 9, 12), (4, 6, 9), (2, 3, 7), (1, 1, 1)])
    def test_matches_product_on_an_index(self, a):
        index = build_fiber_index(make_instance(a))
        ns = [10**12 + k for k in range(2 * index.instance.D + 1)]
        assert [p_floorsum(a, n) for n in ns] == [p_product(a, n, index=index) for n in ns]

    def test_needs_no_table(self):
        # the skewed triple whose histogram (2.0e8 entries) the guard refused,
        # and a triple far past every table, both at the smallest guard
        a = (9973, 10007, 9973 * 10007)
        assert [p_floorsum(a, n) for n in (10**7, 10**8, 10**12)] == [0, 1, 50205210]
        assert p(a, 10**12, max_box=1) == 50205210
        assert route_for(make_instance((1001, 1003, 1007)), 10**30, max_box=1) == "floorsum"

    def test_independent_of_other_routes(self, monkeypatch):
        a = (6, 10, 15)
        want = p_oracle_upto(a, 200)

        def refuse(*args, **kwargs):
            raise AssertionError("floorsum used another route")

        monkeypatch.setattr(congruence, "box_sum_histogram", refuse)
        for name in ("_stirling_row", "p_oracle_upto", "p_popoviciu"):
            monkeypatch.setattr(partition, name, refuse)
        assert [p_floorsum(a, n) for n in range(201)] == want
        assert [p(a, n) for n in range(201)] == want
        assert [is_zero(a, n) for n in range(201)] == [w == 0 for w in want]

    def test_rejects_other_lengths(self):
        for a in [(3, 5), (2, 3, 5, 7)]:
            with pytest.raises(ValueError, match="three weights"):
                p_floorsum(a, 10)
        with pytest.raises(ValueError):
            p_floorsum((2, 3, 5), -1)


class TestIsZero:
    def test_examples(self):
        assert is_zero((3, 5), 7) is True
        assert is_zero((3, 5), 8) is False
        assert all(is_zero((1, 4), n) is False for n in range(30))

    def test_matches_oracle(self):
        for a in [(2, 3), (3, 5), (4, 6), (3, 4, 5), (4, 6, 9)]:
            inst = make_instance(a)
            index = build_fiber_index(inst)
            horizon = 3 * inst.D
            table = p_oracle_upto(a, horizon)
            for n in range(horizon + 1):
                assert is_zero(a, n, index=index) == (table[n] == 0)

    def test_routes_without_an_index(self):
        # the histogram of (2,3,5,7) has 824 entries, over the guard; the
        # oracle's n + 1 cells fit
        assert is_zero((2, 3, 5, 7), 1, max_box=60) is True
        assert is_zero((2, 3, 5, 7), 50, max_box=60) is False


class TestUnrestricted:
    def test_small_values(self):
        assert [p_unrestricted(n) for n in range(1, 6)] == [1, 2, 3, 5, 7]

    def test_guard_counts_the_histogram(self):
        # D = 2520: 25 146 histogram entries where the box holds ~1.2e23 tuples
        assert p_unrestricted(10) == 42

    def test_guard_blocks_infeasible_n(self):
        with pytest.raises(BoxTooLargeError):
            p_unrestricted(30)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            p_unrestricted(0)


class TestBigCounts:
    def test_beyond_64_bits_stays_exact(self):
        # the count at n = 10^6 with five weights tops 2^64; both routes agree
        a = (1, 2, 3, 4, 5)
        value = p_product(a, 10**6)
        assert value > 2**64
        assert value == p_oracle(a, 10**6)

    def test_quasipoly_at_large_n(self):
        a = (2, 3, 7)
        qp = quasipoly(a)
        n = 10**9
        want = p_popoviciu_free_form(a, n)
        assert p_quasipoly(qp, n) == want


def p_popoviciu_free_form(a, n):
    """Independent large-n value: evaluate the quasi-polynomial the slow way,
    from counts one period below (finite differences of degree r-1 are exact
    for a polynomial restricted to one residue class)."""
    from denumerant import make_instance

    inst = make_instance(a)
    d, r = inst.D, inst.r
    # sample p on r points of the class of n, far enough up to be cheap
    xs = [n % d + k * d for k in range(r)]
    ys = [p_oracle(a, x) for x in xs]
    # Lagrange interpolation at n, exact in rationals
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = Fraction(yi)
        for j, xj in enumerate(xs):
            if i != j:
                term *= Fraction(n - xj, xi - xj)
        total += term
    assert total.denominator == 1
    return int(total)


class TestRouter:
    def test_matches_oracle(self):
        for a in [(5,), (3, 5), (4, 6), (2, 3, 4), (4, 6, 9)]:
            table = p_oracle_upto(a, 60)
            for n in range(61):
                assert p(a, n) == table[n]

    def test_falls_back_to_oracle_past_guard(self):
        # the histogram of (4,6,9,10) has 692 entries, over the guard; the
        # oracle's 51 cells fit
        assert route_for(make_instance((4, 6, 9, 10)), 50, max_box=60) == "oracle"
        assert p((4, 6, 9, 10), 50, max_box=60) == p_oracle((4, 6, 9, 10), 50)

    def test_route_for_picks_the_shorter_table(self):
        heavy = make_instance((2, 3, 5, 7))  # 824 histogram entries
        assert route_for(heavy, 50) == "oracle"
        assert route_for(heavy, 823) == "product"  # a tie goes to the histogram
        assert route_for(heavy, 2000) == "product"
        assert route_for(make_instance((3, 5)), 10**30) == "popoviciu"
        assert route_for(make_instance((4,)), 10**30) == "product"
        # r = 1 whatever D: its one-tuple fiber builds nothing
        assert route_for(make_instance((3,), 3 * 10**12), 3 * 10**7) == "product"
        assert p((3,), 3 * 10**7, 3 * 10**12) == 1
        assert p((3,), 3 * 10**7 + 1, 3 * 10**12) == 0
        with pytest.raises(BoxTooLargeError):
            route_for(heavy, 10**6, max_box=800)
        with pytest.raises(BoxTooLargeError):
            p((2, 3, 5, 7), 10**6, max_box=800)

    def test_gcd_pair_divides_out(self):
        # p_a(n) = p_(a/g)(n/g) if g | n, else 0; the histogram of this pair
        # would hold 2e8 entries and the oracle 10^8 + 1 cells
        a = (2 * 9973, 2 * 10007)
        assert route_for(make_instance(a), 10**8) == "popoviciu"
        m = 5 * 10**7  # count 9973 x + 10007 y = m over x
        want = sum((m - 9973 * x) % 10007 == 0 for x in range(m // 9973 + 1))
        assert p(a, 10**8) == want == 1
        assert p(a, 10**8 + 1) == 0
        assert is_zero(a, 10**8) is False
        assert is_zero(a, 10**8 + 1) is True

    def test_oracle_is_guarded(self):
        assert p_oracle((2, 3), 4, max_box=5) == 1  # 2 + 2
        with pytest.raises(BoxTooLargeError):
            p_oracle((2, 3), 5, max_box=5)

    def test_every_route_matches_oracle_across_the_switch(self):
        a = (2, 3, 5, 7)
        table = p_oracle_upto(a, 3000)
        assert [p(a, n) for n in range(3001)] == table

    def test_divisibility_shortcut(self):
        assert [p((4,), n) for n in range(9)] == [1, 0, 0, 0, 1, 0, 0, 0, 1]

    @pytest.mark.parametrize("n", [-5, 2.5, True])
    def test_rejects_invalid_n(self, n):
        with pytest.raises(ValueError):
            route_for(make_instance((2, 3, 5, 7)), n)


# (a, d_choice, n, max_box, the route picked or the BoxTooLargeError size);
# (2,3,5,7) and (4,6,10,14) have 824 histogram entries, (4,6,9,10) 692, and
# (2,4,6,8) 39 with D = lcm = 24 but 759 with D = product = 384
ROUTER_LADDER = [
    ((2, 3, 5, 7), "lcm", 10**6, 824, "product"),  # H length equal to the guard fits
    ((2, 3, 5, 7), "lcm", 10**6, 823, 824),  # one past it does not
    ((2, 3, 5, 7), "lcm", 823, 824, "product"),  # H ties the oracle's n + 1 at the guard
    ((2, 3, 5, 7), "lcm", 823, 823, 824),
    ((2, 3, 5, 7), "lcm", 822, 823, "oracle"),
    ((4, 6, 10, 14), "lcm", 2000, DEFAULT_MAX_BOX, "product"),  # gcd 2
    ((4, 6, 10, 14), "lcm", 100, DEFAULT_MAX_BOX, "oracle"),
    ((4, 6, 10, 14), "lcm", 10**6, 800, 824),
    ((2, 4, 6, 8), "lcm", 100, DEFAULT_MAX_BOX, "product"),
    ((2, 4, 6, 8), "product", 100, DEFAULT_MAX_BOX, "oracle"),  # the period changes the pick
    ((2, 4, 6, 8), "product", 100, 50, 101),
    ((4, 6, 9, 10), "lcm", 500, 400, 501),  # the error names the smaller table: the oracle
    ((4, 6, 9, 10), "lcm", 10**6, 400, 692),  # or the histogram
    ((5,), "lcm", 10**30, 1, "product"),  # up to three weights nothing is built,
    ((5,), "lcm", 10, -1, "product"),  # so even a guard below 1 is never read
    ((4, 6), "lcm", 10, 0, "popoviciu"),
    ((2, 3, 5), "lcm", 10, -1, "floorsum"),
    ((3,), 3 * 10**12, 3 * 10**7, 1, "product"),
    ((3, 5), "lcm", 10**30, 1, "popoviciu"),
    ((4, 6), "lcm", 10**30, 1, "popoviciu"),
    ((1001, 1003, 1007), "lcm", 10**30, 1, "floorsum"),
    ((4, 6, 9), "product", 10**30, 1, "floorsum"),
]


@pytest.mark.parametrize("a,d_choice,n,max_box,want", ROUTER_LADDER)
def test_router_ladder(a, d_choice, n, max_box, want):
    inst = make_instance(a, d_choice)
    if isinstance(want, str):
        assert route_for(inst, n, max_box) == want
    else:
        with pytest.raises(BoxTooLargeError) as info:
            route_for(inst, n, max_box)
        assert (info.value.size, info.value.max_box) == (want, max_box)


# the curated instances of acceptance criterion 6, and pairs (one with gcd 2)
EVALUATED = [(3, 4, 9, 10), (2, 3, 4, 5), (6, 10, 15), (8, 9, 12), (2, 2, 2, 2), (3, 5), (4, 6), (1, 7)]


@pytest.mark.parametrize("several", [False, True])
@pytest.mark.parametrize(
    "route,a",
    [
        pytest.param(route, a, id=f"{route}-{','.join(map(str, a))}")
        for route, (_, size, _) in partition._ROUTES.items()
        for a in EVALUATED
        if size is None or size(make_instance(a), 0) is not None
    ],
)
def test_evaluator_matches_oracle(route, a, several, monkeypatch):
    # every route name p(), eval and bench can resolve to, on every instance
    # its row serves (a gcd pair too, for popoviciu), with and without the
    # shared set-up for several n; after that set-up no n builds a histogram
    inst = make_instance(a)
    n_max = 2 * inst.D + 7
    want = p_oracle_upto(a, n_max)
    value_at = partition._evaluator(route, inst, n_max, DEFAULT_MAX_BOX, several)
    if several:
        monkeypatch.setattr(congruence, "box_sum_histogram", None)
    assert [value_at(n) for n in range(n_max + 1)] == want


def test_evaluator_refuses_what_it_cannot_answer():
    # no name falls through to another route, popoviciu reads no third weight
    # and floorsum no fourth
    with pytest.raises(KeyError):
        partition._evaluator("magic", make_instance((2, 3, 5)), 10, 100)
    for a in [(5,), (2, 3, 5)]:
        with pytest.raises(ValueError):
            partition._evaluator("popoviciu", make_instance(a), 10, 100)
    for a in [(5,), (2, 3), (2, 3, 5, 7)]:
        with pytest.raises(ValueError):
            partition._evaluator("floorsum", make_instance(a), 10, 100)
