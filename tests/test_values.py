"""Value semantics of the package's nine result classes: equality and hash by
class and fields, the ``Name(field=value, ...)`` repr, immutability (the
self-check report excepted), and pickle and copy round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from denumerant import (
    Fiber,
    FiberIndex,
    FrobeniusResult,
    Instance,
    QuasiPolynomial,
    RationalPolynomial,
    ResidueVector,
    SelfCheckReport,
)
from denumerant.selfcheck import CheckFailure


def _fields(cls, k):
    """Keyword arguments, in field order, for one instance of cls; k varies
    every field, and each call builds fresh (equal, not identical) values."""
    inst = Instance(a=(2, 3 + k), D=6 + 2 * k, g=1)
    return {
        Instance: lambda: {"a": (2, 3 + k), "D": 6 + 2 * k, "g": 1},
        Fiber: lambda: {"residue": k, "sums": (k, 6 + k), "counts": (1, 2 + k)},
        FiberIndex: lambda: {"instance": inst, "histogram": (1, 0, 1 + k, 2)},
        QuasiPolynomial: lambda: {"instance": inst, "coeffs": ((Fraction(1, 2 + k),), (Fraction(k),))},
        FrobeniusResult: lambda: {"value": 7 + k, "witness_residue": k},
        RationalPolynomial: lambda: {"coeffs": (Fraction(1, 3 + k), Fraction(k))},
        ResidueVector: lambda: {"values": (Fraction(3, 4 + k), Fraction(k, 2))},
        CheckFailure: lambda: {"check": "oracle", "a": (2, 3 + k), "n": k, "routes": "p/q", "detail": str(k)},
        SelfCheckReport: lambda: {
            "seed": k,
            "checks": [("oracle", 3 + k)],
            "ms": [0.5 + k],
            "failure": CheckFailure("oracle", (2, 3), k, "p/q", "x"),
        },
    }[cls]()


CLASSES = [
    Instance, Fiber, FiberIndex, QuasiPolynomial, FrobeniusResult,
    RationalPolynomial, ResidueVector, CheckFailure, SelfCheckReport,
]
UNHASHABLE = {SelfCheckReport}  # a mutable report


def _make(cls, k=0):
    return cls(**_fields(cls, k))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestValueSemantics:
    def test_equality_and_hash(self, cls):
        x, y = _make(cls), _make(cls)
        assert x is not y and x == y and not x != y
        assert x != _make(cls, 1)
        other = type("Other", (cls,), {})(**_fields(cls, 0))
        assert x != other and other != x
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(y)
            assert len({x, y, _make(cls, 1)}) == 2

    def test_repr(self, cls):
        x = _make(cls)
        shown = ", ".join(f"{name}={getattr(x, name)!r}" for name in _fields(cls, 0))
        assert repr(x) == f"{cls.__name__}({shown})"

    def test_fields_are_read_only(self, cls):
        x = _make(cls)
        changed = _fields(cls, 1)
        for name, value in changed.items():
            if cls is SelfCheckReport:
                setattr(x, name, value)
                assert getattr(x, name) == value
                continue
            with pytest.raises(AttributeError):
                setattr(x, name, value)
            with pytest.raises(AttributeError):
                delattr(x, name)
        if cls is SelfCheckReport:
            assert x == _make(cls, 1)
        else:
            assert x == _make(cls)
            with pytest.raises(AttributeError):
                x.extra = 1

    def test_pickle_and_copy_round_trip(self, cls):
        x = _make(cls)
        assert copy.copy(x) == x
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert y == x and y is not x and type(y) is cls
