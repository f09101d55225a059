"""Special-number sequences against independent oracles.

Oracles here avoid the library's code paths: power sums by direct loops,
box power sums by direct box enumeration, Bernoulli-Barnes numbers by the
product of Bernoulli-number series (the library exponentiates a series in
the power sums of the weights and uses no Bernoulli numbers), both
Bernoulli-Barnes numbers and box power sums by the multinomial sums over
compositions that the library's power series replace, and the two integer
series kernels by plain loops over the binomial convolution.
"""

import itertools
import tracemalloc
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import (
    alpha,
    bernoulli,
    bernoulli_barnes,
    numbers,
    polypart,
    polypart_bernoulli,
    residues_bernoulli_barnes,
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
        # the two series routes keep a per-r cache each, and the Bernoulli
        # route a flat binomial term table that holds whole rows 0..K-1 of
        # Pascal's triangle for the largest size asked for, K = 40 here
        # unless an earlier test asked for more
        before = len(numbers._EGF_TERMS)
        for r in range(1, 41):
            a = tuple(range(1, r + 1))
            assert polypart_bernoulli(a).coeffs == residues_bernoulli_barnes(a).values
        for cache in (polypart._bernoulli_series, polypart._barnes_denominators, numbers._barnes_log_table):
            assert cache.cache_info().currsize <= 16
        terms = numbers._EGF_TERMS
        rows = terms[-1][0] + 1
        assert len(terms) == max(before, 40 * 41 // 2) == rows * (rows + 1) // 2
        assert terms == [(k, i, comb(k, i)) for k in range(rows) for i in range(k + 1)]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            bernoulli_barnes(1, ())


def egf_product_reference(factors, n):
    """out_k = sum_i C(k, i) out_i f_{k-i}, one factor at a time from [1, 0, ...]."""
    out = [1] + [0] * (n - 1)
    for f in factors:
        new = [0] * n
        for k in range(n):
            for i in range(k + 1):
                new[k] += comb(k, i) * out[i] * f[k - i]
        out = new
    return out


def egf_exp_reference(h, den, g0):
    """g0 times exp(h/den) as sum_m (h/den)^m / m!, each power an EGF product
    in rationals; h_0 = 0, so powers m >= len(h) add nothing."""
    n = len(h)
    x = [Fraction(c, den) for c in h]
    power, total = [Fraction(1)] + [Fraction(0)] * (n - 1), [Fraction(0)] * n
    for m in range(n):
        total = [t + p / factorial(m) for t, p in zip(total, power)]
        power = [sum(comb(k, i) * power[i] * x[k - i] for i in range(k + 1)) for k in range(n)]
    return [g0 * t for t in total]


class TestSeriesKernels:
    """`_egf_product` and `_egf_exp` against plain loops over the binomial
    convolution, on signed integer series with many zeros."""

    coefficient = st.one_of(st.just(0), st.integers(-10, 10), st.integers(-(10**30), 10**30))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_product_matches_reference(self, data):
        n = data.draw(st.integers(1, 12))
        factors = data.draw(st.lists(st.lists(self.coefficient, min_size=n, max_size=n + 3), max_size=6))
        assert numbers._egf_product(factors, n) == egf_product_reference(factors, n)
        assert numbers._egf_product(iter(factors), n) == egf_product_reference(factors, n)

    def test_product_edge_cases(self):
        assert numbers._egf_product([], 4) == [1, 0, 0, 0]
        assert numbers._egf_product([[5, 6, 7, 8, 9]], 3) == [5, 6, 7]  # truncated to n
        # e^z e^z = e^{2z}
        assert numbers._egf_product([[1] * 6, [1] * 6], 6) == [2**k for k in range(6)]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_exp_matches_reference(self, data):
        n = data.draw(st.integers(1, 12))
        h = [0] + data.draw(st.lists(self.coefficient, min_size=n - 1, max_size=n - 1))
        den = data.draw(st.integers(1, 50))
        g0 = den ** (n - 1) * data.draw(st.integers(-5, 5))  # makes every coefficient integral
        assert numbers._egf_exp(h, den, g0) == egf_exp_reference(h, den, g0)

    def test_exp_refuses_inexact_division(self):
        assert numbers._egf_exp([0, 1, 0, 0], 1, 1) == [1, 1, 1, 1]  # e^z
        with pytest.raises(ArithmeticError):
            numbers._egf_exp([0, 1], 2, 1)


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
