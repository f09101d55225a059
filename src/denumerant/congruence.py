"""Residue-class bucketing of the lattice box 0 <= j_i <= D/a_i - 1.

An :class:`Instance` fixes a weight tuple ``a`` together with a common
multiple ``D`` of its entries.  The box of all integer tuples
``(j_1, ..., j_r)`` with ``0 <= j_i <= D/a_i - 1`` is partitioned into
*fibers*: one bucket per residue of ``a_1 j_1 + ... + a_r j_r`` modulo D.
Every counting formula downstream needs only the weighted sums in a fiber
and how many tuples share each, so the core structure is the box-sum
histogram H(z) = prod_i (1 - z^D)/(1 - z^{a_i}): its coefficient at z^s
counts the box tuples of weighted sum s, and every sum is below r*D, so a
fiber is at most r (sum, count) pairs, one residue column of H.  This
module builds H, reads each fiber as a column of it on demand (H is the
fiber index), and owns the size guard, which bounds the length of H (only
:func:`list_fibers`, which walks the box, bounds tuples).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from math import gcd, lcm, prod
from operator import sub
from typing import Sequence, Union

from .numbers import _validate_weights

DEFAULT_MAX_BOX = 10**7  # entries of H (about 40 B each), or tuples listed

DChoice = Union[str, int]  # "lcm", "product", or an explicit common multiple

__all__ = [
    "DEFAULT_MAX_BOX",
    "DChoice",
    "BoxTooLargeError",
    "Instance",
    "Fiber",
    "FiberIndex",
    "make_instance",
    "box_sum_histogram",
    "build_fiber_index",
    "fiber",
    "list_fibers",
]


class BoxTooLargeError(Exception):
    """A table or an enumeration would exceed the size guard."""

    def __init__(self, size: int, max_box: int, what: str = "box-sum histogram length"):
        self.size = size
        self.max_box = max_box
        super().__init__(
            f"{what} {size} exceeds the guard of {max_box};"
            " raise max_box (or DENUMERANT_MAX_BOX for the CLI) to force it"
        )


class _Value:
    """Immutable value: a subclass names its fields in `_fields` and its
    ``__init__`` sets each with ``object.__setattr__``.  Equal when class and
    fields are, hashed by its fields, printed as ``Name(field=value, ...)``.
    Plain classes keep ``inspect`` out of every process start."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {self.__class__.__name__}")


def _check_n(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    return n


class Instance(_Value):
    """A weight tuple a = (a_1,...,a_r) with a chosen common multiple D."""

    _fields = ("a", "D", "g")  # g is the gcd of the a_i

    def __init__(self, a: tuple[int, ...], D: int, g: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "g", g)

    @property
    def r(self) -> int:
        return len(self.a)

    @property
    def axis_lengths(self) -> tuple[int, ...]:
        return tuple(self.D // ai for ai in self.a)

    @property
    def box_size(self) -> int:
        return prod(self.axis_lengths)

    @property
    def histogram_length(self) -> int:
        """len(box_sum_histogram(self)), known without building it."""
        return sum(self.D - ai for ai in self.a) // self.g + 1


class Fiber(_Value):
    """The box tuples whose weighted sum is congruent to `residue` mod D,
    grouped by sum: `counts[i]` tuples have weighted sum `sums[i]`.

    `sums` is strictly ascending and every count is positive.  Each sum is
    < r*D, so a fiber holds at most r pairs; `len()` is the tuple count.
    """

    _fields = ("residue", "sums", "counts")

    def __init__(self, residue: int, sums: tuple[int, ...], counts: tuple[int, ...]):
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return sum(self.counts)

    @property
    def is_empty(self) -> bool:
        return not self.sums


class FiberIndex(_Value):
    """The fiber index of an instance: its box-sum histogram H, as a tuple.

    Every fiber is one residue column of H, read on demand: :meth:`fiber`
    reads any residue, `fibers` is a read-only view that maps each residue
    divisible by gcd(a) (exactly the nonempty fibers) to its fiber.
    """

    _fields = ("instance", "histogram")

    def __init__(self, instance: Instance, histogram: Sequence[int]):
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "histogram", tuple(histogram))

    def fiber(self, n: int) -> Fiber:
        v = _check_n(n) % self.instance.D
        if v % self.instance.g:
            return Fiber(v, (), ())
        return _column(self.instance, self.histogram, v // self.instance.g)

    @property
    def fibers(self) -> Mapping[int, Fiber]:
        return _FiberView(self)

    def residues(self) -> tuple[int, ...]:
        return tuple(range(0, self.instance.D, self.instance.g))

    @property
    def total_tuples(self) -> int:
        return sum(self.histogram)


class _FiberView(Mapping):
    """`FiberIndex.fibers`: residues 0, g, 2g, ... < D, each fiber read from H on lookup."""

    def __init__(self, index: FiberIndex):
        self._index, self._keys = index, range(0, index.instance.D, index.instance.g)

    def __getitem__(self, v: int) -> Fiber:
        if type(v) is not int or v not in self._keys:
            raise KeyError(v)
        return self._index.fiber(v)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self._keys)


def make_instance(a: Sequence[int], d_choice: DChoice = "lcm") -> Instance:
    """Build an Instance, selecting D per `d_choice`.

    d_choice is "lcm" (default, smallest valid box), "product", or an
    explicit integer that every a_i must divide.
    """
    a = _validate_weights(a)
    if d_choice == "lcm":
        d = lcm(*a)
    elif d_choice == "product":
        d = prod(a)
    elif isinstance(d_choice, int) and not isinstance(d_choice, bool):
        d = d_choice
        if d < 1 or any(d % ai for ai in a):
            raise ValueError(f"{d} is not a common multiple of {a}")
    else:
        raise ValueError(f"d_choice must be 'lcm', 'product', or an int, got {d_choice!r}")
    return Instance(a, d, gcd(*a))


def _guard(size: int, max_box: int, what: str = "box-sum histogram length") -> None:
    if size > max_box:
        raise BoxTooLargeError(size, max_box, what)


def box_sum_histogram(inst: Instance, max_box: int = DEFAULT_MAX_BOX) -> list[int]:
    """Coefficients h of H(z) = prod_i (1 - z^{D/g})/(1 - z^{a_i/g}), the
    box-sum histogram of the gcd-reduced instance: h[k] box tuples have
    weighted sum g*k.

    Dividing out g = gcd(a) keeps every axis length D/a_i, so the box and its
    tuple counts are unchanged while len(h) = inst.histogram_length, below
    r*D/g for r >= 2 and so below r times the box size (box >= D/g).  Each
    factor is one running sum with stride a_i/g, windowed to the axis length.
    The guard bounds len(h).
    """
    _guard(inst.histogram_length, max_box)
    g = inst.g
    h = [1]
    for ai, length in zip(inst.a, inst.axis_lengths):
        if length == 1:  # a_i = D: the factor is 1, and its stride would be D/g
            continue
        step = ai // g
        h.extend([0] * (step * (length - 1)))
        for start in range(step):
            run = list(itertools.accumulate(h[start::step]))
            h[start::step] = map(sub, run, itertools.chain(itertools.repeat(0, length), run))
    return h


def _column(inst: Instance, h: Sequence[int], v: int) -> Fiber:
    """The fiber of residue g*v: column v of the histogram h of `inst`."""
    g = inst.g
    period = inst.D // g
    column = h[v::period]
    return Fiber(
        residue=g * v,
        sums=tuple(g * (v + i * period) for i, c in enumerate(column) if c),
        counts=tuple(c for c in column if c),
    )


def build_fiber_index(inst: Instance, max_box: int = DEFAULT_MAX_BOX) -> FiberIndex:
    """The fiber index: the box-sum histogram, whose residue columns are the
    fibers; no fiber is built until one is read.  The guard bounds len(H)."""
    return FiberIndex(inst, box_sum_histogram(inst, max_box))


def fiber(inst: Instance, n: int, max_box: int = DEFAULT_MAX_BOX) -> Fiber:
    """The single fiber of residue n mod D, read from the box-sum histogram.

    Two fibers build nothing: a residue not divisible by gcd(a) has an empty
    fiber, and for r = 1 H is 1 + z^a + ... + z^(D-a), one tuple per sum.
    """
    target = _check_n(n) % inst.D
    if target % inst.g:
        return Fiber(target, (), ())
    if inst.r == 1:
        return Fiber(target, (target,), (1,))
    return _column(inst, box_sum_histogram(inst, max_box), target // inst.g)


def list_fibers(inst: Instance, max_box: int = DEFAULT_MAX_BOX) -> dict[int, list[tuple[int, ...]]]:
    """Every box tuple, bucketed by the residue of its weighted sum mod D.

    Residues ascend and each bucket lists its tuples lexicographically.  This
    walks the whole box, so the guard bounds the box size; counting needs
    only :func:`build_fiber_index`.
    """
    _guard(inst.box_size, max_box, "enumeration box size")
    a, d = inst.a, inst.D
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for t in itertools.product(*[range(n) for n in inst.axis_lengths]):
        s = 0
        for ai, ji in zip(a, t):
            s += ai * ji
        buckets.setdefault(s % d, []).append(t)
    return dict(sorted(buckets.items()))
