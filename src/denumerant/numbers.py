"""Exact special-number sequences used by the counting formulas.

No floating point appears anywhere in this package's math.  Bernoulli-Barnes
numbers up to degree j are the exponential of a series in the r power sums
sum_i a_i^k, O(r j + j^2) integer operations (`_barnes_log_table`,
`_egf_exp`); box power sums are read off a product of r ``fractions.Fraction``
power series (`_truncated_product`), O(r j^2) operations.  `_egf_product`
multiplies integer exponential generating functions for the polynomial
part's Bernoulli route, which the tests compare with the Bernoulli-Barnes
numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from operator import add, mul
from typing import Iterable, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "rising_factorial_coeffs",
    "rising_factorial_eval",
    "bernoulli",
    "bernoulli_barnes",
    "alpha",
]


@lru_cache(maxsize=16)
def rising_factorial_coeffs(r: int) -> tuple[int, ...]:
    """Coefficients c[k] of x^k in the expansion of (x+1)(x+2)...(x+r-1).

    These are unsigned Stirling-style numbers in the shifted convention where
    the product starts at x+1 rather than x.  The degenerate r=1 case (empty
    product) gives (1,).  The returned tuple always has length r with c[r-1]=1.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    coeffs = [1]
    for ell in range(1, r):
        nxt = [0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * ell
            nxt[k + 1] += c
        coeffs = nxt
    return tuple(coeffs)


def rising_factorial_eval(x: int, r: int) -> int:
    """Evaluate (x+1)(x+2)...(x+r-1); the empty product (r <= 1) is 1."""
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    out = 1
    for ell in range(1, r):
        out *= x + ell
    return out


# Bernoulli numbers in the B_1 = -1/2 convention (generating function
# z/(e^z - 1)), filled on demand.
_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(j: int) -> Fraction:
    """The j-th Bernoulli number, B_1 = -1/2 convention.

    Computed once by the recurrence sum_{i=0}^{m} C(m+1,i) B_i = 0 and cached.
    """
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    while len(_BERNOULLI) <= j:
        m = len(_BERNOULLI)
        acc = sum(comb(m + 1, i) * _BERNOULLI[i] for i in range(m))
        _BERNOULLI.append(Fraction(-acc, m + 1))
    return _BERNOULLI[j]


def _truncated_product(factors: Iterable[Sequence[Fraction]], n: int) -> list[Fraction]:
    """The coefficients of z^0..z^(n-1) in a product of power series, each
    given by (at least) its first n coefficients; zero terms are skipped."""
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for f in factors:
        out = [
            sum((out[i] * f[k - i] for i in range(k + 1) if out[i] and f[k - i]), Fraction(0))
            for k in range(n)
        ]
    return out


# Pascal's triangle, rows 0.. as far as any call has needed; a longer table
# replaces it whole, so a reader never sees a half-built one.
_PASCAL: list[tuple[int, ...]] = [(1,)]


def _binomial_rows(n: int) -> list[tuple[int, ...]]:
    """Rows 0..n-1 of Pascal's triangle."""
    global _PASCAL
    rows = _PASCAL
    if len(rows) < n:
        rows = rows.copy()
        while len(rows) < n:
            rows.append((1, *map(add, rows[-1], rows[-1][1:]), 1))
        _PASCAL = rows
    return rows[:n]


def _egf_product(factors: Iterable[Sequence[int]], n: int) -> list[int]:
    """Coefficients 0..n-1 of a product of exponential generating functions,
    each given by its first n integer coefficients: out_k = sum_i C(k,i) out_i f_{k-i}."""
    rows = _binomial_rows(n)
    out = [1] + [0] * (n - 1)
    for f in factors:
        out = [sum(map(mul, map(mul, rows[k], out), f[k::-1])) for k in range(n)]
    return out


def _validate_weights(a: Sequence[int]) -> tuple[int, ...]:
    a = tuple(a)
    if not a:
        raise ValueError("weight tuple must be nonempty")
    for x in a:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"weights must be positive integers, got {a!r}")
    return a


def _exact_div(total: int, den: int, what: str) -> int:
    q, rem = divmod(total, den)
    if rem:
        raise ArithmeticError(f"{what}: {total} is not divisible by {den}")
    return q


@lru_cache(maxsize=16)
def _barnes_log_table(n: int) -> tuple[int, tuple[int, ...]]:
    """s = lcm(1..n)^2 and s lambda_0..s lambda_{n-1}, where lambda_0 = 0,
    lambda_1 = 1/2 and lambda_k = B_k/k are the EGF coefficients of
    log((e^t - 1)/t); s clears each denominator, which divides k denom(B_k),
    and k and denom(B_k) both divide lcm(1..n).

    With l = lcm(1..n) the series (e^t - 1)/t is (1/l) sum_k c_k t^k/k!,
    c_k = l/(k+1), and F' = F lambda' gives, one exact division each,
    l s lambda_k = s c_k - sum_{j<k} C(k-1, j-1) s lambda_j c_{k-j}.
    Integers only; no Bernoulli numbers."""
    ell = lcm(*range(1, n + 1))
    s, c = ell * ell, [ell // (k + 1) for k in range(n)]
    rows, log = _binomial_rows(n), [0] * n
    for k in range(1, n):
        num = s * c[k] - sum(map(mul, map(mul, rows[k - 1], log[1:k]), c[k - 1:0:-1]))
        log[k] = _exact_div(num, ell, f"log table {n}, coefficient {k}")
    return s, tuple(log)


def _egf_exp(h: Sequence[int], den: int, g0: int) -> list[int]:
    """g0 times the EGF coefficients 0..len(h)-1 of exp(h/den), for an integer
    EGF h with h_0 = 0 whose exponential g0 makes integral: g_k is
    sum_{j=1..k} C(k-1, j-1) h_j g_{k-j} / den (from g' = h' g/den)."""
    n = len(h)
    rows, g = _binomial_rows(n), [g0]
    for k in range(1, n):
        num = sum(map(mul, map(mul, rows[k - 1], h[1:k + 1]), g[k - 1::-1]))
        g.append(_exact_div(num, den, f"exponential, coefficient {k}"))
    return g


def _bernoulli_barnes_upto(n: int, a: Sequence[int]) -> tuple[list[int], int]:
    """B_0(a)..B_{n-1}(a) as numerators v_0..v_{n-1} over one denominator.

    prod_i a_i z/(e^{a_i z} - 1) = exp(-sum_k lambda_k p_k z^k/k!) with the
    power sums p_k = sum_i a_i^k and lambda_k from `_barnes_log_table`, so
    the weights enter only through p_1..p_{n-1}.  Its z^j EGF coefficient
    is B_j(a) prod a, a sum of products of at most min(r, j) Bernoulli
    numbers B_m, m < n, whose denominators divide l = lcm(1..n); so
    v_j = l^min(r, n-1) B_j(a) prod a is an integer.  Cost O(r n + n^2)
    operations on integers of O(n (min(r, n) + log(n max a))) bits."""
    a = _validate_weights(a)
    s, log = _barnes_log_table(n)
    powers, h = list(a), [0] * n
    for k in range(1, n):
        h[k] = -log[k] * sum(powers)
        powers = list(map(mul, powers, a))
    scale = lcm(*range(1, n + 1)) ** min(len(a), n - 1)
    return _egf_exp(h, s, scale), scale * prod(a)


def bernoulli_barnes(j: int, a: Sequence[int]) -> Fraction:
    """Bernoulli-Barnes number B_j(a_1,...,a_r): j! times the z^j coefficient
    of prod_i z/(e^{a_i z} - 1) = exp(-sum_k lambda_k p_k z^k/k!)/(a_1...a_r),
    where p_k = a_1^k + ... + a_r^k and lambda_k = B_k/k (lambda_1 = 1/2) are
    the EGF coefficients of log((e^t - 1)/t).

    Equal to the multinomial sum over compositions i_1+...+i_r = j of
    C(j; i_1,...,i_r) * B_{i_1}...B_{i_r} * a_1^{i_1-1}...a_r^{i_r-1};
    B_0(a) = 1/(a_1...a_r).  Cost O(r j + j^2) integer operations.
    """
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    v, w = _bernoulli_barnes_upto(j + 1, a)
    return Fraction(v[j], w)


def _alpha_factor(i: int, ai: int, d: int) -> Fraction:
    # sum_{l=0}^{i} B_l * D^{i+1-l} * a^{l-1} / ((i+1-l)! l!)
    acc = Fraction(0)
    for ell in range(i + 1):
        b = bernoulli(ell)
        if b:
            acc += (
                b
                * d ** (i + 1 - ell)
                * Fraction(ai) ** (ell - 1)
                / (factorial(i + 1 - ell) * factorial(ell))
            )
    return acc


def _alpha_upto(n: int, a: Sequence[int], d: int) -> list[Fraction]:
    """[alpha(0, a, d), ..., alpha(n-1, a, d)] from one truncated product of
    the per-axis series sum_i _alpha_factor(i, a_k, d) z^i."""
    a = _validate_weights(a)
    if d < 1 or any(d % ai for ai in a):
        raise ValueError(f"{d} is not a common multiple of {a}")
    series = _truncated_product(([_alpha_factor(i, ai, d) for i in range(n)] for ai in a), n)
    out = [factorial(t) * c for t, c in enumerate(series)]
    for t, value in enumerate(out):
        if value.denominator != 1:
            raise ArithmeticError(f"alpha({t}, {a}, {d}) came out non-integral: {value}")
    return out


def alpha(t: int, a: Sequence[int], d: int) -> Fraction:
    """Power sum of a.j over the box 0 <= j_i <= D/a_i - 1, degree t.

    Returns sum over the box of (a_1 j_1 + ... + a_r j_r)^t, evaluated by a
    Bernoulli closed form (no box enumeration): t! times the z^t coefficient
    of the product over the axes of the series whose z^i coefficient is
    sum_l B_l D^{i+1-l} a^{l-1} / ((i+1-l)! l!), that is of
    prod_i (e^{Dz} - 1)/(e^{a_i z} - 1).  Cost O(r t^2) rational operations.
    The result is always an integer-valued Fraction.
    """
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    return _alpha_upto(t + 1, a, d)[t]
