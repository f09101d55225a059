"""Counting routes for the restricted partition function p_a(n).

p_a(n) is the number of solutions of a_1 x_1 + ... + a_r x_r = n in
nonnegative integers.  It is a quasi-polynomial of degree r-1 whose
coefficients have period D (any common multiple of the a_i), and this module
computes it by several independent routes that must agree exactly:

* :func:`p_oracle`       -- definitional dynamic programming (coefficient of
                            z^n in prod 1/(1-z^{a_i})); the ground truth.
* :func:`p_product`      -- rising-factorial product summed over one fiber.
* :func:`p_stirling`     -- degree-by-degree Stirling-coefficient sum over
                            the same fiber.
* :func:`quasipoly`      -- the full degree-by-residue coefficient table,
                            evaluated by :func:`p_quasipoly`.
* :func:`p_popoviciu`    -- the O(log) two-weight closed form.
* :func:`p_floorsum`     -- the O(log) three-weight route: Popoviciu's count
                            summed over the third weight's multiplier as two
                            floor sums; no table.

A fiber enters every fiber route as at most r (weighted sum, tuple count)
pairs, so a term is computed once per distinct sum and scaled by its count.
Every fiber is a residue column of the box-sum histogram H, read by a point
query (:func:`denumerant.congruence.fiber`) or from a fiber index, which is
H itself.
The private table ``_ROUTES`` holds each route's usage rule, guard size
and evaluator factory.  :func:`route_for`, the only router, takes its row of
smallest guard size, and the private ``_evaluator`` calls a row's factory:
:func:`p` and the CLI's ``eval`` and ``bench`` all evaluate through it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, gcd, inf, lcm
from typing import Iterable, Sequence

from .congruence import (
    DEFAULT_MAX_BOX,
    DChoice,
    Fiber,
    FiberIndex,
    Instance,
    _check_n,
    _guard,
    _Value,
    build_fiber_index,
    fiber,
    make_instance,
)
from .numbers import _exact_div, rising_factorial_coeffs, rising_factorial_eval

__all__ = [
    "QuasiPolynomial",
    "p_oracle",
    "p_oracle_upto",
    "p_product",
    "p_stirling",
    "quasipoly",
    "p_quasipoly",
    "p_popoviciu",
    "p_floorsum",
    "is_zero",
    "p_unrestricted",
    "route_for",
    "p",
]


class QuasiPolynomial(_Value):
    """Periodic-coefficient representation of p_a: coeffs[m][v] multiplies n^m
    for n congruent to v mod D.  Every column is stored, including the
    identically-zero ones at residues not divisible by gcd(a).

    ``__init__`` also derives the integer form that :func:`p_quasipoly`
    reads: a common denominator den, the lcm of every coefficient's
    denominator, and for each residue v the integer numerators
    coeffs[m][v] * den, highest degree first.  It is not a field, so
    equality, hash and repr see only `instance` and `coeffs`, and a pickle
    or copy carries the fields alone and derives it again."""

    _fields = ("instance", "coeffs")

    def __init__(self, instance: Instance, coeffs: tuple[tuple[Fraction, ...], ...]):
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "coeffs", coeffs)
        den = lcm(*(c.denominator for row in coeffs for c in row))
        nums = (tuple(c.numerator * (den // c.denominator) for c in row) for row in reversed(coeffs))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_columns", tuple(zip(*nums)))

    def __reduce__(self):
        return self.__class__, (self.instance, self.coeffs)

    def coefficient(self, m: int, v: int) -> Fraction:
        r = len(self.coeffs)
        if not 0 <= m < r:
            raise ValueError(f"m must be in 0..{r - 1}, got {m}")
        return self.coeffs[m][v % self.instance.D]


def _check_index(index: FiberIndex, a: Sequence[int]) -> Instance:
    if index.instance.a != tuple(a):
        raise ValueError(f"index was built for {index.instance.a}, not {tuple(a)}")
    return index.instance


def _resolve_fiber(
    a: Sequence[int],
    n: int,
    d_choice: DChoice,
    index: FiberIndex | None,
    max_box: int,
) -> tuple[Instance, Fiber]:
    if index is not None:
        return _check_index(index, a), index.fiber(n)
    inst = make_instance(a, d_choice)
    return inst, fiber(inst, n, max_box)


def p_oracle(a: Sequence[int], n: int, *, max_box: int = DEFAULT_MAX_BOX) -> int:
    """p_a(n) by dynamic programming over the weights; the definitional count."""
    return p_oracle_upto(a, n, max_box=max_box)[n]


def p_oracle_upto(a: Sequence[int], n_max: int, *, max_box: int = DEFAULT_MAX_BOX) -> list[int]:
    """All of p_a(0..n_max) in one DP sweep; the guard bounds its n_max + 1 cells."""
    _check_n(n_max)
    inst = make_instance(a)  # validates the weights
    _guard(n_max + 1, max_box, "oracle table length")
    ways = [0] * (n_max + 1)
    ways[0] = 1
    for ai in inst.a:
        for v in range(ai, n_max + 1):
            ways[v] += ways[v - ai]
    return ways


def p_product(
    a: Sequence[int],
    n: int,
    d_choice: DChoice = "lcm",
    *,
    index: FiberIndex | None = None,
    max_box: int = DEFAULT_MAX_BOX,
) -> int:
    """p_a(n) as (1/(r-1)!) * sum over the fiber of n of the rising factorial
    of (n - a.j)/D, one term per distinct weighted sum times its tuple count.
    Pass a prebuilt `index` to amortize fiber construction."""
    inst, fib = _resolve_fiber(a, n, d_choice, index, max_box)
    r, d = inst.r, inst.D
    total = 0
    for s, count in zip(fib.sums, fib.counts):
        total += count * rising_factorial_eval((n - s) // d, r)
    return _exact_div(total, factorial(r - 1), f"p_product{tuple(a), n}")


@lru_cache(maxsize=16)
def _stirling_kernel(r: int, d: int) -> tuple[tuple[int, ...], ...]:
    """kernel[m] holds the coefficients of the degree-m Stirling polynomial in
    a weighted sum s, highest power first: sum_{k=m}^{r-1} bracket[k]
    (-1)^{k-m} C(k,m) D^{r-1-k} s^{k-m}.  Pass it to :func:`_stirling_row`
    for every fiber.  Cached, as tuples, so that repeated point queries on
    one (r, D) do not rebuild it."""
    bracket = rising_factorial_coeffs(r)
    return tuple(
        tuple((-1) ** j * bracket[m + j] * comb(m + j, m) * d ** (r - 1 - m - j) for j in range(r - m - 1, -1, -1))
        for m in range(r)
    )


def _stirling_row(kernel: tuple[tuple[int, ...], ...], pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Integer accumulators c[m] = sum over (sum s, count) pairs of count *
    kernel[m](s), for a kernel from :func:`_stirling_kernel`.

    Over one fiber, c[m] / (D^{r-1} (r-1)!) is the degree-m quasi-polynomial
    coefficient of that fiber's residue class; over the whole box,
    c[m] / (D^r (r-1)!) is the degree-m coefficient of the polynomial part."""
    row = [0] * len(kernel)
    for s, count in pairs:
        for m, coeffs in enumerate(kernel):
            acc = 0
            for c in coeffs:
                acc = acc * s + c
            row[m] += count * acc
    return row


def p_stirling(
    a: Sequence[int],
    n: int,
    d_choice: DChoice = "lcm",
    *,
    index: FiberIndex | None = None,
    max_box: int = DEFAULT_MAX_BOX,
) -> int:
    """p_a(n) by the degree-wise Stirling-coefficient sum over the fiber of n.

    Algebraically identical to :func:`p_product` but follows the power-basis
    form: for each degree m it sums the alternating Stirling kernel over the
    fiber, then evaluates sum_m c_m n^m / ((r-1)! D^{r-1})."""
    inst, fib = _resolve_fiber(a, n, d_choice, index, max_box)
    r, d = inst.r, inst.D
    row = _stirling_row(_stirling_kernel(r, d), zip(fib.sums, fib.counts))
    total = 0
    npow = 1
    for m in range(r):
        total += row[m] * npow
        npow *= n
    scale = d ** (r - 1) * factorial(r - 1)
    return _exact_div(total, scale, f"p_stirling{tuple(a), n}")


def quasipoly(
    a: Sequence[int],
    d_choice: DChoice = "lcm",
    *,
    index: FiberIndex | None = None,
    max_box: int = DEFAULT_MAX_BOX,
) -> QuasiPolynomial:
    """The full coefficient table d[m][v] of the quasi-polynomial p_a."""
    if index is None:
        index = build_fiber_index(make_instance(a, d_choice), max_box)
    inst = _check_index(index, a)
    r, d = inst.r, inst.D
    scale = d ** (r - 1) * factorial(r - 1)
    kernel = _stirling_kernel(r, d)
    table = [[0] * d for _ in range(r)]
    for v in index.residues():
        fib = index.fiber(v)
        row = _stirling_row(kernel, zip(fib.sums, fib.counts))
        for m in range(r):
            table[m][v] = row[m]
    coeffs = tuple(
        tuple(Fraction(num, scale) for num in table[m]) for m in range(r)
    )
    return QuasiPolynomial(instance=inst, coeffs=coeffs)


def p_quasipoly(qp: QuasiPolynomial, n: int) -> int:
    """Evaluate a quasi-polynomial table at n from its integer form: Horner's
    rule over the numerators of column n mod D, O(r) integer multiply-adds,
    then one exact division by the common denominator.  A remainder means
    the table is corrupt and raises ArithmeticError with the rational value."""
    _check_n(n)
    total = 0
    for c in qp._columns[n % qp.instance.D]:
        total = total * n + c
    value, rem = divmod(total, qp._den)
    if rem:
        raise ArithmeticError(
            f"quasi-polynomial evaluation at {n} is not integral: {Fraction(total, qp._den)}"
        )
    return value


def p_popoviciu(a1: int, a2: int, n: int) -> int:
    """p_(a1,a2)(n) for coprime a1, a2 by the closed form
    (n + a1*a1'(n) + a2*a2'(n)) / (a1*a2) - 1, where a1'(n) is the unique
    representative in 1..a2 of -n/a1 mod a2 (symmetrically for a2'(n)).
    Runs in O(log) time; no enumeration."""
    if a1 < 1 or a2 < 1:
        raise ValueError(f"weights must be positive, got {(a1, a2)}")
    _check_n(n)
    if gcd(a1, a2) != 1:
        raise ValueError(f"p_popoviciu needs coprime weights, got {(a1, a2)}")
    a1p = (-n * pow(a1, -1, a2)) % a2 or a2
    a2p = (-n * pow(a2, -1, a1)) % a1 or a1
    return _exact_div(n + a1 * a1p + a2 * a2p, a1 * a2, f"p_popoviciu{(a1, a2, n)}") - 1


def _floor_sum(A: int, B: int, M: int, Z: int) -> int:
    """sum_{z=0}^{Z-1} floor((A z + B) / M) for M > 0, Z >= 0 and A, B of
    any sign, in O(log M) steps (Graham-Knuth-Patashnik, Concrete
    Mathematics, section 3.5): take the whole parts of A/M and B/M out of
    the sum, then count the same lattice points with the axes swapped."""
    total = 0
    while True:
        q, A = divmod(A, M)
        total += q * (Z * (Z - 1) // 2)
        q, B = divmod(B, M)
        total += q * Z
        top = A * Z + B
        if top < M:
            return total
        Z, B = divmod(top, M)
        A, M = M, A


def p_floorsum(a: Sequence[int], n: int) -> int:
    """p_a(n) for three weights in O(log) steps; no table and no D.

    After dividing out g = gcd(a) (p_a(n) = 0 unless g | n), h = gcd(a1, a2)
    is coprime to c = a3, so the multiplier z of c runs over one class
    z0 = n c^{-1} mod h (z0 = 0 when h = 1), and p_a(n) = p_(a1/h, a2/h, c)((n - c z0)/h), or 0
    if n < c z0.  With a1, a2 now coprime, beta = a2^{-1} mod a1 and
    t = (a2 beta - 1)/a1, Popoviciu's count is p_(a1,a2)(m) =
    floor(m beta/a1) + floor(-m t/a2) + 1, and summing it over
    m = n - c z for z < Z = floor(n/c) + 1 gives Z plus two floor sums."""
    _check_n(n)
    inst = make_instance(a)
    if inst.r != 3:
        raise ValueError(f"p_floorsum needs exactly three weights, got {inst.a}")
    g = inst.g
    if n % g:
        return 0
    a1, a2, c = (x // g for x in inst.a)
    n //= g
    h = gcd(a1, a2)
    n -= c * (n * pow(c, -1, h) % h)
    if n < 0:
        return 0
    a1, a2, n = a1 // h, a2 // h, n // h
    beta = pow(a2, -1, a1)
    t = (a2 * beta - 1) // a1
    z = n // c + 1
    return z + _floor_sum(-c * beta, n * beta, a1, z) + _floor_sum(c * t, -n * t, a2, z)


def is_zero(
    a: Sequence[int],
    n: int,
    d_choice: DChoice = "lcm",
    *,
    index: FiberIndex | None = None,
    max_box: int = DEFAULT_MAX_BOX,
) -> bool:
    """True iff p_a(n) = 0, by :func:`p`; given an `index`, iff every weighted
    sum in the fiber of n exceeds n (vacuously so for an empty fiber)."""
    if index is None:
        return p(a, n, d_choice, max_box=max_box) == 0
    _, fib = _resolve_fiber(a, n, d_choice, index, max_box)
    return all(s > n for s in fib.sums)


def p_unrestricted(n: int, max_box: int = DEFAULT_MAX_BOX) -> int:
    """The unrestricted partition number p(n), computed as p_(1,2,...,n)(n)
    through the fiber machinery with D = lcm(1..n).

    The histogram has about n*lcm(1..n) entries (5.4e6 at n = 15, past the
    default guard at n = 16), so this route is a demonstration for small n;
    use p_oracle(range(1, n+1), n) for anything larger."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"need a positive integer, got {n!r}")
    a = tuple(range(1, n + 1))
    return p_product(a, n, lcm(*a), max_box=max_box)


def _fiber_route(fn, inst: Instance, n_max: int, max_box: int, several: bool):
    """Route `fn` on one fiber per n, from the fiber index if `several` n share it."""
    index = build_fiber_index(inst, max_box) if several else None
    return lambda n: fn(inst.a, n, inst.D, index=index, max_box=max_box)


def _popoviciu_route(inst: Instance, n_max: int, max_box: int, several: bool):
    """p_(a/g)(n/g) when g = gcd(a) divides n, else 0, for any pair."""
    if inst.r != 2:
        raise ValueError(f"popoviciu needs exactly two weights, got {inst.a}")
    g = inst.g
    return lambda n: 0 if n % g else p_popoviciu(inst.a[0] // g, inst.a[1] // g, n // g)


# One row (rule, size, factory) per eval method.  rule: None, or (predicate, wording
# with {a} and {g}) that a named method needs.  size(inst, n): what the guard bounds;
# 0 builds nothing, None does not serve inst.  factory(inst, n_max, max_box, several):
# n -> p_a(n).  Rows that build nothing come first, where route_for mostly stops.
_ROUTES = {
    "popoviciu": ((lambda inst: (inst.r, inst.g) == (2, 1), "exactly two coprime weights; got a={a} with gcd {g}"),
                  lambda inst, n: 0 if inst.r == 2 else None, _popoviciu_route),
    "floorsum": ((lambda inst: inst.r == 3, "exactly three weights; got a={a}"),
                 lambda inst, n: 0 if inst.r == 3 else None, lambda inst, *_: partial(p_floorsum, inst.a)),
    "product": (None, lambda inst, n: 0 if inst.r == 1 else inst.histogram_length,
                partial(_fiber_route, p_product)),
    "stirling": (None, None, partial(_fiber_route, p_stirling)),
    "quasipoly": (None, None, lambda inst, n_max, max_box, _: partial(
        p_quasipoly, quasipoly(inst.a, inst.D, max_box=max_box))),
    "oracle": (None, lambda inst, n: n + 1, lambda inst, n_max, max_box, _: p_oracle_upto(
        inst.a, n_max, max_box=max_box).__getitem__),
}


def route_for(inst: Instance, n: int, max_box: int = DEFAULT_MAX_BOX) -> str:
    """The eval method for p_a(n): the ``_ROUTES`` row with the smallest guard
    size, the first on a tie; BoxTooLargeError if that size exceeds max_box."""
    _check_n(n)
    route, size = None, inf
    for name, (_, size_of, _) in _ROUTES.items():
        s = size_of and size_of(inst, n)
        if s == 0:  # builds nothing (r <= 3), so picked whatever max_box is
            return name
        if s is not None and s < size:
            route, size = name, s
    _guard(size, max_box, "shorter table (histogram or oracle) length")
    return route


def p(
    a: Sequence[int],
    n: int,
    d_choice: DChoice = "lcm",
    *,
    max_box: int = DEFAULT_MAX_BOX,
) -> int:
    """p_a(n) by the route :func:`route_for` picks, through :func:`_evaluator`."""
    inst = make_instance(a, d_choice)
    return _evaluator(route_for(inst, n, max_box), inst, n, max_box)(n)


def _evaluator(route: str, inst: Instance, n_max: int, max_box: int, several: bool = False):
    """n -> p_a(n) after the set-up of ``_ROUTES`` row `route` (KeyError if none)
    for n <= n_max, shared by `several` n; :func:`p`, ``eval`` and ``bench`` use it."""
    return _ROUTES[route][2](inst, n_max, max_box, several)
