"""Frobenius numbers: the largest n with p_a(n) = 0, for gcd(a) = 1.

The general computation works per residue class mod D: within the class of
v, the integers n with p_a(n) > 0 are exactly those >= the smallest weighted
sum occurring in the fiber of v, so the largest non-representable member of
the class is (minimum fiber sum) - D.  That minimum is read straight off the
box-sum histogram H: as g = 1, column v of H (entries v, v + D, v + 2D, ...)
holds the fiber of v, and its first nonzero entry is the minimum, so no
fiber is built.  Taking the maximum over classes gives the Frobenius number;
a value of -1 means every n >= 0 is representable (the tuple contains 1).
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .congruence import DEFAULT_MAX_BOX, DChoice, _Value, box_sum_histogram, make_instance
from .partition import p_oracle_upto

__all__ = [
    "FrobeniusResult",
    "frobenius_pair",
    "frobenius_general",
    "representability_scan",
]


class FrobeniusResult(_Value):
    """value is the Frobenius number (-1 when everything is representable);
    witness_residue, when known, is the class mod D achieving it."""

    _fields = ("value", "witness_residue")

    def __init__(self, value: int, witness_residue: int | None = None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "witness_residue", witness_residue)


def frobenius_pair(a1: int, a2: int) -> FrobeniusResult:
    """Closed form a1*a2 - a1 - a2 for a coprime pair; O(1)."""
    if a1 < 1 or a2 < 1:
        raise ValueError(f"weights must be positive, got {(a1, a2)}")
    if gcd(a1, a2) != 1:
        raise ValueError(f"Frobenius number needs coprime weights, got {(a1, a2)}")
    value = a1 * a2 - a1 - a2
    return FrobeniusResult(value=value, witness_residue=value % (a1 * a2))


def frobenius_general(
    a: Sequence[int],
    d_choice: DChoice = "lcm",
    max_box: int = DEFAULT_MAX_BOX,
) -> FrobeniusResult:
    """Frobenius number from fiber minima: max over residue classes v of
    (minimum fiber sum) - D, the minimum being the first nonzero entry of
    column v of the box-sum histogram, with the arg-max class as witness."""
    inst = make_instance(a, d_choice)
    if inst.g != 1:
        raise ValueError(f"Frobenius number undefined for gcd {inst.g} > 1: {inst.a}")
    h = box_sum_histogram(inst, max_box)
    d = inst.D
    best = best_v = None
    for v in range(d):
        ms = next((s for s in range(v, len(h), d) if h[s]), None)
        if ms is None:
            raise AssertionError(f"gcd-1 instance {inst.a} has an empty fiber at {v}")
        if best is None or ms > best:
            best, best_v = ms, v
    return FrobeniusResult(value=best - d, witness_residue=best_v)


def representability_scan(a: Sequence[int], n_max: int) -> list[int]:
    """All n <= n_max with p_a(n) = 0, via the DP oracle; test-oracle helper."""
    counts = p_oracle_upto(a, n_max)
    return [n for n, c in enumerate(counts) if c == 0]
