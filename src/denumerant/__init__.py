"""Exact-arithmetic toolkit for restricted partition counting.

Computes the restricted partition function p_a(n) (the denumerant), its
quasi-polynomial coefficient table, its polynomial part, the residues of its
Dirichlet series, and Frobenius numbers, each by at least two independent
routes that are cross-validated against a definitional dynamic-programming
oracle.  All arithmetic is exact.
"""

from time import perf_counter as _perf_counter

_STARTED = _perf_counter()  # the CLI's process_ms counts from the package's first statement

from .congruence import (
    DEFAULT_MAX_BOX,
    BoxTooLargeError,
    Fiber,
    FiberIndex,
    Instance,
    box_sum_histogram,
    build_fiber_index,
    fiber,
    list_fibers,
    make_instance,
)
from .frobenius import (
    FrobeniusResult,
    frobenius_general,
    frobenius_pair,
    representability_scan,
)
from .numbers import (
    Rational,
    alpha,
    bernoulli,
    bernoulli_barnes,
    rising_factorial_coeffs,
    rising_factorial_eval,
)
from .partition import (
    QuasiPolynomial,
    is_zero,
    p,
    p_floorsum,
    p_oracle,
    p_oracle_upto,
    p_popoviciu,
    p_product,
    p_quasipoly,
    p_stirling,
    p_unrestricted,
    quasipoly,
    route_for,
)
from .polypart import (
    RationalPolynomial,
    ResidueVector,
    format_polynomial,
    polypart_bernoulli,
    polypart_box_average,
    polypart_from_residues,
    residues_bernoulli_barnes,
    residues_powersum,
)
from .selfcheck import SelfCheckReport, run_selfcheck, sample_instances

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_BOX",
    "BoxTooLargeError",
    "Fiber",
    "FiberIndex",
    "FrobeniusResult",
    "Instance",
    "QuasiPolynomial",
    "Rational",
    "RationalPolynomial",
    "ResidueVector",
    "SelfCheckReport",
    "alpha",
    "bernoulli",
    "bernoulli_barnes",
    "box_sum_histogram",
    "build_fiber_index",
    "fiber",
    "format_polynomial",
    "frobenius_general",
    "frobenius_pair",
    "is_zero",
    "list_fibers",
    "make_instance",
    "p",
    "p_floorsum",
    "p_oracle",
    "p_oracle_upto",
    "p_popoviciu",
    "p_product",
    "p_quasipoly",
    "p_stirling",
    "p_unrestricted",
    "polypart_bernoulli",
    "polypart_box_average",
    "polypart_from_residues",
    "quasipoly",
    "representability_scan",
    "residues_bernoulli_barnes",
    "residues_powersum",
    "rising_factorial_coeffs",
    "rising_factorial_eval",
    "route_for",
    "run_selfcheck",
    "sample_instances",
]
