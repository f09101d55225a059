"""Independent reference answers for the benchmark's correctness checks.

Standard library only.  Nothing here imports `denumerant`: every value the
benchmark checks is recomputed from definitions, never by calling the code
under test.

* `dp_counts`      -- coefficient DP for prod 1/(1 - z^a_i).
* `pair_count`     -- direct count of a1 x + a2 y = n for a coprime pair,
                      one arithmetic progression, no closed form.
* `p_ref`          -- p_a(n) for any n: DP when n is small, otherwise exact
                      Lagrange interpolation of the DP on the residue class
                      of n mod lcm(a) (p_a is a polynomial of degree r-1 on
                      each class for every n >= 0, because the generating
                      function's numerator has degree 0).
* `frobenius_ref`  -- DP scan for the largest non-representable integer.
* `polypart_leading` -- closed forms of the two leading coefficients of P_a:
                      1/((r-1)! prod a) and sum(a)/(2 (r-2)! prod a).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod

# Above this n, p_ref interpolates instead of running the DP up to n.
DP_LIMIT = 20_000


def dp_counts(a, n_max: int) -> list[int]:
    """p_a(0..n_max) by the coefficient recurrence."""
    ways = [0] * (n_max + 1)
    ways[0] = 1
    for ai in a:
        for v in range(ai, n_max + 1):
            ways[v] += ways[v - ai]
    return ways


def pair_count(a1: int, a2: int, n: int) -> int:
    """#{(x, y) >= 0 : a1 x + a2 y = n} for coprime a1, a2.

    y is pinned mod a1 (a2 y = n mod a1), so the solutions are
    y0, y0 + a1, ... up to n / a2.
    """
    y0 = n * pow(a2, -1, a1) % a1
    if a2 * y0 > n:
        return 0
    return (n - a2 * y0) // (a1 * a2) + 1


def _lagrange_eval(xs, ys, x) -> Fraction:
    total = Fraction(0)
    for k, (xk, yk) in enumerate(zip(xs, ys)):
        num, den = 1, 1
        for j, xj in enumerate(xs):
            if j != k:
                num *= x - xj
                den *= xk - xj
        total += Fraction(yk * num, den)
    return total


def interp_coeffs(xs, ys) -> list[Fraction]:
    """Coefficients (ascending powers) of the polynomial through (xs, ys)."""
    n = len(xs)
    out = [Fraction(0)] * n
    for k, (xk, yk) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        den = 1
        for j, xj in enumerate(xs):
            if j == k:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for i, c in enumerate(basis):
                nxt[i] -= c * xj
                nxt[i + 1] += c
            basis = nxt
            den *= xk - xj
        for i, c in enumerate(basis):
            out[i] += c * yk / den
    return out


def _reduce(a, n):
    """Divide out g = gcd(a); None when g does not divide n (then p = 0)."""
    g = gcd(*a)
    if n % g:
        return None
    return tuple(x // g for x in a), n // g


def p_ref(a, n: int) -> int:
    """p_a(n), exact, for any n >= 0."""
    red = _reduce(a, n)
    if red is None:
        return 0
    a, n = red
    r = len(a)
    if r == 1:
        return 1 if n % a[0] == 0 else 0
    if r == 2:
        return pair_count(a[0], a[1], n)
    d = lcm(*a)
    v = n % d
    top = v + (r - 1) * d
    if n <= max(DP_LIMIT, top):
        return dp_counts(a, n)[n]
    table = dp_counts(a, top)
    xs = [v + k * d for k in range(r)]
    val = _lagrange_eval(xs, [table[x] for x in xs], n)
    if val.denominator != 1:
        raise ArithmeticError(f"interpolation of p_{a} at {n} is not integral")
    return int(val)


class QuasiColumns:
    """Reference quasi-polynomial columns of p_a for D = lcm(a).

    `column(v)` is the coefficient list (ascending powers of n) of the
    polynomial that equals p_a(n) for every n = v mod D; it is interpolated
    from the DP at v, v + D, ..., v + (r-1) D.
    """

    def __init__(self, a):
        self.a = tuple(a)
        self.r = len(self.a)
        self.d = lcm(*self.a)
        self.table = dp_counts(self.a, self.r * self.d)

    def column(self, v: int) -> list[Fraction]:
        v %= self.d
        xs = [v + k * self.d for k in range(self.r)]
        return interp_coeffs(xs, [self.table[x] for x in xs])

    def leading(self, v: int) -> Fraction:
        """Degree r-1 coefficient of column v: g/((r-1)! prod a) when g | v."""
        g = gcd(*self.a)
        if v % g:
            return Fraction(0)
        return Fraction(g, factorial(self.r - 1) * prod(self.a))


def frobenius_ref(a) -> int:
    """Largest n with p_a(n) = 0 (gcd(a) = 1); -1 when 1 is a weight."""
    if gcd(*a) != 1:
        raise ValueError(f"Frobenius number needs gcd 1, got {a}")
    smallest = min(a)
    rep = [True]
    last_gap = -1
    streak = 1
    n = 0
    while streak < smallest:
        n += 1
        ok = any(n >= ai and rep[n - ai] for ai in a)
        rep.append(ok)
        if ok:
            streak += 1
        else:
            streak = 0
            last_gap = n
    return last_gap


def polypart_leading(a) -> tuple[Fraction, Fraction | None]:
    """(coefficient of n^{r-1}, coefficient of n^{r-2}) of P_a; the second
    is None for r = 1."""
    r = len(a)
    pa = prod(a)
    lead = Fraction(1, factorial(r - 1) * pa)
    if r < 2:
        return lead, None
    return lead, Fraction(sum(a), 2 * factorial(r - 2) * pa)


def self_test() -> list[str]:
    """Known values; returns the list of failures (empty when all pass)."""
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: got {str(got)[:80]}, want {str(want)[:80]}")

    expect("p_(3,5)(8)", p_ref((3, 5), 8), 1)
    expect("p_(3,5)(7)", p_ref((3, 5), 7), 0)
    expect("F(3,4,5)", frobenius_ref((3, 4, 5)), 2)
    expect("F(6,10,15)", frobenius_ref((6, 10, 15)), 29)
    expect("F(1,7)", frobenius_ref((1, 7)), -1)
    expect("p(50) via a = 1..50", dp_counts(range(1, 51), 50)[50], 204226)
    expect("p(5) via a = 1..5", dp_counts(range(1, 6), 5)[5], 7)
    # The pair count and the interpolation agree with the plain DP.
    table = dp_counts((4, 9), 400)
    expect("pair_count (4,9)", [pair_count(4, 9, n) for n in range(401)], table)
    top = DP_LIMIT + 100
    table = dp_counts((6, 10, 15), top)
    expect(
        "interpolated p_(6,10,15)",
        [p_ref((6, 10, 15), n) for n in range(DP_LIMIT + 1, top + 1)],
        table[DP_LIMIT + 1 :],
    )
    cols = QuasiColumns((6, 10, 15))
    expect(
        "columns of (6,10,15)",
        [sum(c * n**m for m, c in enumerate(cols.column(n))) for n in range(top - 40, top + 1)],
        table[top - 40 :],
    )
    # p_(1,2)(n) = floor(n/2) + 1: quasi-polynomial n/2 + 1 or n/2 + 1/2.
    cols = QuasiColumns((1, 2))
    expect("column 0 of (1,2)", cols.column(0), [Fraction(1), Fraction(1, 2)])
    expect("column 1 of (1,2)", cols.column(1), [Fraction(1, 2), Fraction(1, 2)])
    # P_(1,2)(n) = n/2 + 3/4 and P_(1,1,1)(n) = n^2/2 + 3n/2 + 1.
    expect("leading of (1,2)", polypart_leading((1, 2)), (Fraction(1, 2), Fraction(3, 4)))
    expect("leading of (1,1,1)", polypart_leading((1, 1, 1)), (Fraction(1, 2), Fraction(3, 2)))
    return failures
