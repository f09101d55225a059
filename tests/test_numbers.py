"""Special-number sequences against independent oracles.

Oracles here avoid the library's code paths: power sums by direct loops,
box power sums by direct box enumeration, Bernoulli-Barnes numbers by the
product of Bernoulli-number series (the library exponentiates a series in
the power sums of the weights and uses no Bernoulli numbers), and both
Bernoulli-Barnes numbers and box power sums by the multinomial sums over
compositions that the library's power series replace.
"""

import itertools
import tracemalloc
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import (
    alpha,
    bernoulli,
    bernoulli_barnes,
    numbers,
    polypart_bernoulli,
    rising_factorial_coeffs,
    rising_factorial_eval,
)

# classical values, B_1 = -1/2 convention
BERNOULLI_TABLE = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
]


def compositions(total: int, parts: int):
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def bernoulli_barnes_composition_oracle(j: int, a: tuple[int, ...]) -> Fraction:
    """B_j(a) as the multinomial sum over compositions i_1+...+i_r = j of
    C(j; i) * B_{i_1}...B_{i_r} * a_1^{i_1-1}...a_r^{i_r-1}."""
    total = Fraction(0)
    for comp in compositions(j, len(a)):
        term = Fraction(factorial(j))
        for ai, i in zip(a, comp):
            term *= bernoulli(i) * Fraction(ai) ** (i - 1) / factorial(i)
        total += term
    return total


def bernoulli_barnes_series_oracle(j: int, a: tuple[int, ...]) -> Fraction:
    """B_j(a) from the product of the Bernoulli-number series
    sum_k B_k a_i^{k-1} z^k / k!, one per weight."""
    prod_series = [Fraction(1)] + [Fraction(0)] * j
    for ai in a:
        f = [bernoulli(k) * Fraction(ai) ** (k - 1) / factorial(k) for k in range(j + 1)]
        prod_series = [sum(prod_series[p] * f[n - p] for p in range(n + 1)) for n in range(j + 1)]
    return factorial(j) * prod_series[j]


def alpha_composition_oracle(t: int, a: tuple[int, ...], d: int) -> Fraction:
    """alpha(t, a, d) as t! times the sum over compositions i_1+...+i_r = t
    of the per-axis factors sum_{j < d/a_k} (a_k j)^{i_k} / i_k!, each summed
    directly along its axis."""
    factors = [
        [Fraction(sum((ai * j) ** i for j in range(d // ai)), factorial(i)) for i in range(t + 1)]
        for ai in a
    ]
    total = Fraction(0)
    for comp in compositions(t, len(a)):
        term = Fraction(1)
        for axis, i in enumerate(comp):
            term *= factors[axis][i]
        total += term
    return factorial(t) * total


# r <= 5, with repeated, coprime and non-coprime weights
SMALL_TUPLES = [
    (1,), (3,), (1, 2), (2, 3), (4, 6), (1, 1, 1), (2, 3, 4), (3, 5, 7),
    (1, 2, 3, 4), (2, 2, 3, 5), (1, 2, 3, 4, 5), (2, 3, 4, 6, 9),
]


class TestRisingFactorial:
    @pytest.mark.parametrize(
        "r,expected",
        [(1, (1,)), (2, (1, 1)), (3, (2, 3, 1)), (4, (6, 11, 6, 1))],
    )
    def test_small_expansions(self, r, expected):
        assert rising_factorial_coeffs(r) == expected

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            rising_factorial_coeffs(0)

    @pytest.mark.parametrize("x,r,expected", [(0, 4, 6), (-2, 4, 0), (5, 1, 1), (3, 0, 1)])
    def test_eval_examples(self, x, r, expected):
        assert rising_factorial_eval(x, r) == expected

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=-30, max_value=30))
    def test_coeffs_match_eval(self, r, x):
        coeffs = rising_factorial_coeffs(r)
        assert sum(c * x**k for k, c in enumerate(coeffs)) == rising_factorial_eval(x, r)

    def test_structure(self):
        for r in range(1, 10):
            coeffs = rising_factorial_coeffs(r)
            assert len(coeffs) == r
            assert coeffs[-1] == 1
            if r >= 2:
                assert all(c > 0 for c in coeffs)

    def test_vanishes_inside_negative_band(self):
        # (-c + 1)...(-c + r - 1) contains a zero factor for 1 <= c <= r-1
        for r in range(2, 7):
            for c in range(1, r):
                assert rising_factorial_eval(-c, r) == 0


class TestBernoulli:
    def test_table(self):
        for j, want in enumerate(BERNOULLI_TABLE):
            assert bernoulli(j) == want

    def test_odd_vanish(self):
        assert all(bernoulli(j) == 0 for j in range(3, 32, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestBernoulliBarnes:
    @pytest.mark.parametrize(
        "j,a,expected",
        [
            (0, (2, 3), Fraction(1, 6)),
            (1, (1, 1), Fraction(-1)),
            (1, (1, 2), Fraction(-3, 4)),
        ],
    )
    def test_examples(self, j, a, expected):
        assert bernoulli_barnes(j, a) == expected

    def test_degenerates_to_bernoulli(self):
        for j in range(11):
            assert bernoulli_barnes(j, (1,)) == bernoulli(j)

    def test_b0_is_reciprocal_product(self):
        assert bernoulli_barnes(0, (3, 4, 5)) == Fraction(1, 60)

    @pytest.mark.parametrize("a", [(1,), (2,), (1, 2), (2, 3), (1, 1, 1), (2, 3, 4)])
    def test_against_series_oracle(self, a):
        for j in range(6):
            assert bernoulli_barnes(j, a) == bernoulli_barnes_series_oracle(j, a)

    @pytest.mark.parametrize("a", SMALL_TUPLES)
    def test_against_composition_oracle(self, a):
        for j in range(9):
            assert bernoulli_barnes(j, a) == bernoulli_barnes_composition_oracle(j, a)

    @pytest.mark.parametrize("a", [(1, 2), (2, 3, 4), (2, 2, 3, 5), (3, 5, 7, 11, 13, 17)])
    def test_matches_polypart_bernoulli(self, a):
        # the n^{r-1-u} coefficient of P_a is (-1)^u B_u(a) / (u! (r-1-u)!)
        r = len(a)
        coeffs = polypart_bernoulli(a).coeffs
        for u in range(r):
            want = (-1) ** u * bernoulli_barnes(u, a) / (factorial(u) * factorial(r - 1 - u))
            assert coeffs[r - 1 - u] == want

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_against_composition_oracle_random(self, data):
        # few distinct small weights, so repeats and 1s are common
        a = tuple(data.draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)))
        j = data.draw(st.integers(min_value=0, max_value=len(a) + 6))
        assert bernoulli_barnes(j, a) == bernoulli_barnes_composition_oracle(j, a)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=14),
    )
    def test_scaling(self, a, c, j):
        # z -> c z in prod_i z/(e^{a_i z} - 1): B_j(c a) = c^{j-r} B_j(a)
        a = tuple(a)
        scaled = tuple(c * x for x in a)
        assert bernoulli_barnes(j, scaled) == Fraction(c) ** (j - len(a)) * bernoulli_barnes(j, a)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8).flatmap(
            lambda a: st.tuples(st.just(tuple(a)), st.permutations(a))
        ),
        st.integers(min_value=0, max_value=14),
    )
    def test_permutation_invariant(self, pair, j):
        a, shuffled = pair
        assert bernoulli_barnes(j, tuple(shuffled)) == bernoulli_barnes(j, a)

    def test_caches_stay_bounded(self):
        # 32 degrees, twice the log tables kept: what stays behind must not
        # grow with the number of degrees asked for (one Pascal table per
        # degree held about 9 MB here and 219 MB for j = 0..300)
        numbers._barnes_log_table.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for j in range(100, 132):
                bernoulli_barnes(j, (1, 2))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert numbers._barnes_log_table.cache_info().currsize <= 16
        assert held < 2 * 10**6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            bernoulli_barnes(1, ())


class TestAlpha:
    @pytest.mark.parametrize(
        "t,a,d,expected",
        [(0, (2, 3), 6, 6), (1, (1, 2), 2, 1), (2, (1, 2), 2, 1)],
    )
    def test_examples(self, t, a, d, expected):
        assert alpha(t, a, d) == expected

    @staticmethod
    def direct_box_sum(t, a, d):
        ranges = [range(d // ai) for ai in a]
        return sum(
            sum(ai * ji for ai, ji in zip(a, j)) ** t
            for j in itertools.product(*ranges)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
        st.integers(min_value=0, max_value=5),
    )
    def test_matches_direct_box_sum(self, a, t):
        a = tuple(a)
        d = lcm(*a)
        assert alpha(t, a, d) == self.direct_box_sum(t, a, d)

    def test_d_invariance_not_expected_here(self):
        # alpha depends on D (the box changes); only the residues built from it
        # are D-invariant.  Double the period and the box quadruples per axis.
        assert alpha(0, (1, 2), 2) == 2
        assert alpha(0, (1, 2), 4) == 8

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            alpha(1, (2, 3), 8)

    @pytest.mark.parametrize("a", SMALL_TUPLES)
    def test_against_composition_oracle(self, a):
        d = lcm(*a)
        for t in range(9):
            assert alpha(t, a, d) == alpha_composition_oracle(t, a, d)
