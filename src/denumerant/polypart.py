"""Polynomial part P_a(n) and Dirichlet-series residues R_m.

P_a is the polynomial component of the quasi-polynomial p_a (the part left
after averaging the periodic coefficients over a period), and R_m is the
residue at s = m of the Dirichlet series sum p_a(n)/n^s.  The two are tied
together by P_a(n) = R_r n^{r-1} + ... + R_2 n + R_1, and each side is
computable by two independent formulas, giving four cross-checkable routes
to the same polynomial.  The box-average route sums over the box-sum
histogram of :mod:`denumerant.congruence`, one term per distinct weighted
sum, with the Stirling kernel that also builds the quasi-polynomial table.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod
from typing import Sequence

from .congruence import (
    DEFAULT_MAX_BOX,
    DChoice,
    FiberIndex,
    _Value,
    build_fiber_index,
    make_instance,
)
from .numbers import _alpha_upto, _bernoulli_barnes_upto, _egf_product, bernoulli
from .partition import _check_index, _stirling_kernel, _stirling_row

__all__ = [
    "RationalPolynomial",
    "ResidueVector",
    "polypart_box_average",
    "polypart_bernoulli",
    "residues_powersum",
    "residues_bernoulli_barnes",
    "polypart_from_residues",
    "format_polynomial",
]


class RationalPolynomial(_Value):
    """Dense exact-rational polynomial; coeffs[k] multiplies n^k."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, n: int) -> Fraction:
        total = Fraction(0)
        npow = 1
        for c in self.coeffs:
            total += c * npow
            npow *= n
        return total

    def __str__(self) -> str:
        return format_polynomial(self)


class ResidueVector(_Value):
    """Residues of the Dirichlet series at s = 1..r; values[m-1] is R_m."""

    _fields = ("values",)

    def __init__(self, values: tuple[Fraction, ...]):
        object.__setattr__(self, "values", values)

    @property
    def r(self) -> int:
        return len(self.values)

    def residue_at(self, m: int) -> Fraction:
        if not 1 <= m <= self.r:
            raise ValueError(f"m must be in 1..{self.r}, got {m}")
        return self.values[m - 1]


def _leading_check(coeffs: Sequence[Fraction], a: Sequence[int], what: str) -> None:
    expect = Fraction(1, factorial(len(a) - 1) * prod(a))
    if coeffs[-1] != expect:
        raise ArithmeticError(
            f"{what}: leading coefficient {coeffs[-1]} != {expect} for {tuple(a)}"
        )


def polypart_box_average(
    a: Sequence[int],
    d_choice: DChoice = "lcm",
    *,
    index: FiberIndex | None = None,
    max_box: int = DEFAULT_MAX_BOX,
) -> RationalPolynomial:
    """P_a(n) as the box average: (1/(D(r-1)!)) times the sum over the WHOLE
    box of the rising factorial of (n - a.j)/D, expanded symbolically in n.

    The sum runs over the box-sum histogram, one Stirling-kernel term per
    distinct weighted sum times its tuple count (the same kernel as
    :func:`quasipoly`, whose column means this average equals), so the
    result is exact; no interpolation happens.
    """
    if index is None:
        index = build_fiber_index(make_instance(a, d_choice), max_box)
    inst = _check_index(index, a)
    r, d, g = inst.r, inst.D, inst.g
    acc = _stirling_row(_stirling_kernel(r, d), ((g * k, c) for k, c in enumerate(index.histogram) if c))
    scale = d**r * factorial(r - 1)
    coeffs = tuple(Fraction(c, scale) for c in acc)
    _leading_check(coeffs, inst.a, "polypart_box_average")
    return RationalPolynomial(coeffs=coeffs)


def polypart_bernoulli(a: Sequence[int]) -> RationalPolynomial:
    """P_a(n) from Bernoulli numbers alone; no box.

    With M the lcm of the denominators of B_0..B_{r-1} and h the product of
    the r integer EGFs sum_k M B_k a_i^k z^k/k! truncated at degree r - 1
    (O(r^3) integer operations), the n^{r-1-u} coefficient is
    (-1)^u h_u / (u! (r-1-u)! M^r prod a).
    """
    inst = make_instance(a)
    r = inst.r
    bs = [bernoulli(k) for k in range(r)]
    m = lcm(*(b.denominator for b in bs))
    bs = [b.numerator * (m // b.denominator) for b in bs]
    h = _egf_product(([b * ai**k for k, b in enumerate(bs)] for ai in inst.a), r)
    den = m**r * prod(inst.a)
    coeffs = tuple(
        Fraction(-h[u] if u & 1 else h[u], factorial(u) * factorial(r - 1 - u) * den)
        for u in range(r - 1, -1, -1)
    )
    _leading_check(coeffs, inst.a, "polypart_bernoulli")
    return RationalPolynomial(coeffs=coeffs)


def residues_powersum(a: Sequence[int], d_choice: DChoice = "lcm") -> ResidueVector:
    """R_m (m = 1..r) via the Stirling kernel applied to the box power sums
    alpha_0..alpha_{r-1}, the coefficients of one product of the r per-axis
    series (e^{Dz} - 1)/(e^{a_i z} - 1) (see :func:`alpha`): the box average
    of :func:`polypart_box_average` with each s^j summed over the box
    replaced by alpha_j.  The alpha values depend on the chosen D, the
    residues do not."""
    inst = make_instance(a, d_choice)
    r, d = inst.r, inst.D
    alphas = [x.numerator for x in _alpha_upto(r, inst.a, d)]
    scale = d**r * factorial(r - 1)
    return ResidueVector(values=tuple(
        Fraction(sum(c * x for c, x in zip(reversed(coeffs), alphas)), scale)
        for coeffs in _stirling_kernel(r, d)
    ))


def residues_bernoulli_barnes(a: Sequence[int]) -> ResidueVector:
    """R_m = ((-1)^{r-m}/((m-1)!(r-m)!)) * B_{r-m}(a_1,...,a_r), reading
    B_0(a)..B_{r-1}(a) off the exponential of one series in the power sums
    a_1^k + ... + a_r^k, O(r^2) integer operations and no Bernoulli numbers
    (see :func:`bernoulli_barnes`).

    The (r-m)! undoes the multinomial normalization baked into the
    Bernoulli-Barnes numbers; dropping it inflates R_m by exactly that
    factor for r - m >= 2 (easily seen on a = (1,1,1), whose residues can be
    read straight off p(n) = (n^2+3n+2)/2)."""
    inst = make_instance(a)
    r = inst.r
    barnes, w = _bernoulli_barnes_upto(r, inst.a)
    return ResidueVector(values=tuple(  # R_m for m = r - j
        Fraction((-1) ** j * barnes[j], w * factorial(r - 1 - j) * factorial(j)) for j in range(r - 1, -1, -1)
    ))


def polypart_from_residues(res: ResidueVector) -> RationalPolynomial:
    """Assemble P(n) = R_r n^{r-1} + ... + R_2 n + R_1."""
    return RationalPolynomial(coeffs=tuple(res.values))


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_polynomial(poly: RationalPolynomial, var: str = "n") -> str:
    """Human rendering like '1/2·n + 3/4', highest power first."""
    parts: list[str] = []
    for k in range(len(poly.coeffs) - 1, -1, -1):
        c = poly.coeffs[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = _format_coeff(mag)
        else:
            power = var if k == 1 else f"{var}^{k}"
            body = power if mag == 1 else f"{_format_coeff(mag)}·{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"
