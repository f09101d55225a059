"""Exact special-number sequences used by the counting formulas.

No floating point appears anywhere in this package's math.  Bernoulli-Barnes
numbers and box power sums are read off products of r power series truncated
at the degree asked for, O(r j^2) exact operations for degree j: integer
exponential generating functions (`_egf_product`) for the Bernoulli series,
``fractions.Fraction`` series (`_truncated_product`) for the power sums.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _binomial_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n-1 of Pascal's triangle."""
    return tuple(tuple(comb(k, i) for i in range(k + 1)) for k in range(n))


def _egf_product(factors: Iterable[Sequence[int]], n: int) -> list[int]:
    """Coefficients 0..n-1 of a product of exponential generating functions,
    each given by its first n integer coefficients: out_k = sum_i C(k,i) out_i f_{k-i}."""
    rows = _binomial_rows(n)
    out = [1] + [0] * (n - 1)
    for f in factors:
        out = [sum(c * x * y for c, x, y in zip(rows[k], out, f[k::-1])) for k in range(n)]
    return out


def _validate_weights(a: Sequence[int]) -> tuple[int, ...]:
    a = tuple(a)
    if not a:
        raise ValueError("weight tuple must be nonempty")
    for x in a:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"weights must be positive integers, got {a!r}")
    return a


def _bernoulli_barnes_upto(n: int, a: Sequence[int]) -> tuple[list[int], int]:
    """B_0(a)..B_{n-1}(a) as numerators v_0..v_{n-1} over one denominator.

    Scaled by l = lcm(1..n), the EGF coefficients a_i^k/(k+1) of
    (e^{a_i z} - 1)/(a_i z) are integers; p is their product, s = p_0 = l^r.
    v_k is s times the z^k EGF coefficient of 1/p, an integer by von
    Staudt-Clausen, so B_j(a) = v_j / (s prod a).  No Bernoulli numbers."""
    a = _validate_weights(a)
    ell = lcm(*range(1, n + 1))
    p = _egf_product(([ai**k * ell // (k + 1) for k in range(n)] for ai in a), n)
    rows, s, v = _binomial_rows(n), p[0], [p[0]]
    for k in range(1, n):  # v_k = -(sum_{i=1..k} C(k,i) p_i v_{k-i}) / s
        num, rem = divmod(-sum(c * x * y for c, x, y in zip(rows[k][1:], p[1:], v[::-1])), s)
        if rem:
            raise ArithmeticError(f"Bernoulli-Barnes numerator {k} of {a} is not integral")
        v.append(num)
    return v, s * prod(a)


def bernoulli_barnes(j: int, a: Sequence[int]) -> Fraction:
    """Bernoulli-Barnes number B_j(a_1,...,a_r): j! times the z^j coefficient
    of prod_i z/(e^{a_i z} - 1), that is of the reciprocal of the product of
    the r series sum_k a_i^k z^k/(k+1)!, over a_1...a_r.

    Equal to the multinomial sum over compositions i_1+...+i_r = j of
    C(j; i_1,...,i_r) * B_{i_1}...B_{i_r} * a_1^{i_1-1}...a_r^{i_r-1};
    B_0(a) = 1/(a_1...a_r).  Cost O(r j^2) integer operations.
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
