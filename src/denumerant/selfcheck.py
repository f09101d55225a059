"""Randomized cross-route verification.

Draws seeded instances (rejecting any whose enumeration box would blow the
budget, so runs stay fast and deterministic) and checks that every
independent computation route agrees exactly: counting routes against the DP
oracle, the triple route also against Popoviciu at n >= 10^20 by the deletion
identity, polynomial parts and residues against each other (the two series
routes also at r = 20..40), fiber cardinality against its closed form, and
Frobenius values against a representability scan.  The first mismatch is
reported with the minimal failing (a, n, route-pair).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .congruence import _Value, build_fiber_index, make_instance
from .frobenius import frobenius_general, frobenius_pair, representability_scan
from .partition import (
    is_zero,
    p,
    p_floorsum,
    p_oracle_upto,
    p_popoviciu,
    p_product,
    p_quasipoly,
    p_stirling,
    quasipoly,
)
from .polypart import (
    polypart_bernoulli,
    polypart_box_average,
    polypart_from_residues,
    residues_bernoulli_barnes,
    residues_powersum,
)

__all__ = ["CheckFailure", "SelfCheckReport", "sample_instances", "run_selfcheck"]

_D_CHOICES = ("lcm", "product", "2lcm")


def _resolve_d(a: Sequence[int], name: str) -> int | str:
    if name == "2lcm":
        return 2 * lcm(*a)
    return name


def sample_instances(
    count: int,
    *,
    max_r: int = 4,
    max_entry: int = 12,
    seed: int = 0,
    box_budget: int = 20_000,
    min_r: int = 1,
    require_gcd1: bool = False,
    d_choices: Sequence[str] = ("lcm",),
) -> list[tuple[int, ...]]:
    """Seeded instance draws with rejection on box size.

    Every returned tuple has, for each requested D policy, an enumeration box
    of at most `box_budget` tuples.  Rejection keeps the randomized suites
    within their time budgets; the draw sequence is fully determined by the
    seed.
    """
    rng = random.Random(seed)
    out: list[tuple[int, ...]] = []
    attempts = 0
    max_attempts = max(10_000, 10_000 * count)
    while len(out) < count:
        attempts += 1
        if attempts > max_attempts:
            raise ValueError(
                f"drew {attempts - 1} candidates but only {len(out)}/{count} fit "
                f"box_budget={box_budget}; the constraints look unsatisfiable"
            )
        r = rng.randint(min_r, max_r)
        a = tuple(rng.randint(1, max_entry) for _ in range(r))
        if require_gcd1 and gcd(*a) != 1:
            continue
        if all(
            make_instance(a, _resolve_d(a, dc)).box_size <= box_budget
            for dc in d_choices
        ):
            out.append(a)
    return out


class CheckFailure(_Value):
    _fields = ("check", "a", "n", "routes", "detail")

    def __init__(self, check: str, a: tuple[int, ...], n: int | None, routes: str, detail: str):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "routes", routes)
        object.__setattr__(self, "detail", detail)


class SelfCheckReport(_Value):
    _fields = ("seed", "checks", "ms", "failure")
    __setattr__ = object.__setattr__  # a report fills in as the checks run
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, seed: int, checks: list[tuple[str, int]] | None = None,
                 ms: list[float] | None = None, failure: CheckFailure | None = None):
        self.seed = seed
        self.checks = [] if checks is None else checks
        self.ms = [] if ms is None else ms  # wall time of each entry of checks
        self.failure = failure

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_json(self) -> dict:
        out = {
            "seed": str(self.seed),
            "ok": self.ok,
            "checks": [
                {"name": name, "cases": str(cases), "ms": ms}
                for (name, cases), ms in zip(self.checks, self.ms)
            ],
        }
        if self.failure is not None:
            f = self.failure
            out["failure"] = {
                "check": f.check,
                "a": [str(x) for x in f.a],
                "n": None if f.n is None else str(f.n),
                "routes": f.routes,
                "detail": f.detail,
            }
        return out


def run_selfcheck(
    *,
    max_r: int = 4,
    max_entry: int = 12,
    max_n: int = 200,
    seed: int = 2026,
    instances: int = 40,
    box_budget: int = 20_000,
) -> SelfCheckReport:
    """Run every cross-route suite on seeded instances; stop at first mismatch.

    instances, max_r, max_entry and box_budget must each be at least 1, so
    that no suite passes by checking nothing, and max_n at least 0
    (ValueError otherwise)."""
    for name, value, low in (("instances", instances, 1), ("max_r", max_r, 1), ("max_n", max_n, 0),
                             ("max_entry", max_entry, 1), ("box_budget", box_budget, 1)):
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    report = SelfCheckReport(seed=seed)

    def fail(check, a, n, routes, detail):
        report.failure = CheckFailure(check, tuple(a), n, routes, detail)
        return report

    pool = sample_instances(
        instances, max_r=max_r, max_entry=max_entry, seed=seed, box_budget=box_budget
    )
    started = time.perf_counter()

    def passed(name, cases):
        nonlocal started
        now = time.perf_counter()
        report.checks.append((name, cases))
        report.ms.append(round((now - started) * 1000.0, 3))
        started = now

    # Route agreement: product, stirling and quasipoly evaluation vs the oracle.
    cases = 0
    for a in pool:
        inst = make_instance(a)
        index = build_fiber_index(inst)
        qp = quasipoly(a, index=index)
        oracle = p_oracle_upto(a, max_n)
        for n in range(max_n + 1):
            want = oracle[n]
            for name, got in (
                ("product", p_product(a, n, index=index)),
                ("stirling", p_stirling(a, n, index=index)),
                ("quasipoly", p_quasipoly(qp, n)),
            ):
                if got != want:
                    return fail(
                        "route-agreement", a, n, f"{name} vs oracle",
                        f"{name}={got}, oracle={want}",
                    )
                cases += 1
    passed("route-agreement", cases)

    # Popoviciu vs oracle on coprime pairs drawn from the pool entries.
    cases = 0
    rng = random.Random(seed + 1)
    for _ in range(max(10, instances)):
        a1 = rng.randint(1, max_entry)
        a2 = rng.randint(1, max_entry)
        if gcd(a1, a2) != 1:
            continue
        oracle = p_oracle_upto((a1, a2), max_n)
        for n in range(max_n + 1):
            got = p_popoviciu(a1, a2, n)
            if got != oracle[n]:
                return fail(
                    "popoviciu", (a1, a2), n, "popoviciu vs oracle",
                    f"popoviciu={got}, oracle={oracle[n]}",
                )
            cases += 1
    passed("popoviciu", cases)

    # Floor sums vs oracle on random triples; small entries make gcds and
    # repeated weights common.
    cases = 0
    rng = random.Random(seed + 4)
    for _ in range(max(10, instances)):
        a = tuple(rng.randint(1, max_entry) for _ in range(3))
        oracle = p_oracle_upto(a, max_n)
        for n in range(max_n + 1):
            got = p_floorsum(a, n)
            if got != oracle[n]:
                return fail(
                    "floorsum", a, n, "floorsum vs oracle",
                    f"floorsum={got}, oracle={oracle[n]}",
                )
            cases += 1
    passed("floorsum", cases)

    # Deletion identity p_a(n) - p_a(n - a3) = p_(a1,a2)(n) at n >= 10^20, far
    # past any oracle; p() sends the pair to Popoviciu.  Its own sample, so
    # max_n bounds only the oracle.
    cases = 0
    rng = random.Random(seed + 5)
    for _ in range(max(10, instances)):
        a = tuple(rng.randint(1, max_entry) for _ in range(3))
        n = rng.randint(10**20, 10**30)
        left = p_floorsum(a, n) - p_floorsum(a, n - a[2])
        right = p(a[:2], n)
        if left != right:
            return fail(
                "deletion", a, n, "floorsum difference vs popoviciu",
                f"p(n) - p(n - {a[2]})={left}, pair={right}",
            )
        cases += 1
    passed("deletion", cases)

    # D-invariance: values and box-average polynomial under lcm/product/2*lcm.
    cases = 0
    d_pool = sample_instances(
        max(10, instances // 2), max_r=max_r, max_entry=max_entry,
        seed=seed + 2, box_budget=box_budget, d_choices=_D_CHOICES,
    )
    for a in d_pool:
        vals = []
        polys = []
        for dc in _D_CHOICES:
            d = _resolve_d(a, dc)
            vals.append([p_product(a, n, d) for n in range(0, 41)])
            polys.append(polypart_box_average(a, d).coeffs)
        if not (vals[0] == vals[1] == vals[2]):
            n = next(i for i in range(41) if len({v[i] for v in vals}) > 1)
            return fail(
                "d-invariance", a, n, "lcm vs product vs 2lcm",
                f"values {[v[n] for v in vals]}",
            )
        if not (polys[0] == polys[1] == polys[2]):
            return fail(
                "d-invariance", a, None, "polypart_box_average over D choices",
                f"coefficients {polys}",
            )
        cases += 1
    passed("d-invariance", cases)

    # Polynomial part: four routes, coefficientwise.
    cases = 0
    for a in pool:
        routes = {
            "box": polypart_box_average(a).coeffs,
            "bernoulli": polypart_bernoulli(a).coeffs,
            "powersum": polypart_from_residues(residues_powersum(a)).coeffs,
            "barnes": polypart_from_residues(residues_bernoulli_barnes(a)).coeffs,
        }
        if len(set(routes.values())) != 1:
            return fail(
                "polypart-agreement", a, None, " vs ".join(routes),
                f"{ {k: [str(c) for c in v] for k, v in routes.items()} }",
            )
        cases += 1
    passed("polypart-agreement", cases)

    # Residues: the mean of the degree-(m-1) quasi-polynomial column equals
    # R_m.  The table and the power sums share the Stirling kernel, so the
    # mean is also held against Bernoulli-Barnes, which uses no kernel.
    cases = 0
    for a in pool:
        qp = quasipoly(a)
        d = qp.instance.D
        powersum, barnes = residues_powersum(a), residues_bernoulli_barnes(a)
        for m in range(1, len(a) + 1):
            mean = sum(qp.coeffs[m - 1], Fraction(0)) / d
            for name, res in (("powersum", powersum), ("barnes", barnes)):
                if mean != res.residue_at(m):
                    return fail(
                        "residue-mean", a, None, f"column mean vs {name} R_{m}",
                        f"mean={mean}, R_{m}={res.residue_at(m)}",
                    )
            cases += 1
    passed("residue-mean", cases)

    # The two series routes at r = 20..40, where the box is out of reach: the
    # Bernoulli route multiplies r series of Bernoulli numbers, the
    # Bernoulli-Barnes route exponentiates the power sums of the weights.
    cases = 0
    rng = random.Random(seed + 6)
    for _ in range(3):
        a = tuple(rng.randint(1, max_entry) for _ in range(rng.randint(20, 40)))
        bern, barnes = polypart_bernoulli(a).coeffs, residues_bernoulli_barnes(a).values
        if bern != barnes:
            m = next(m for m in range(1, len(a) + 1) if bern[m - 1] != barnes[m - 1])
            return fail(
                "series-high-r", a, None, f"bernoulli vs barnes R_{m}",
                f"bernoulli={bern[m - 1]}, barnes={barnes[m - 1]}",
            )
        cases += 1
    passed("series-high-r", cases)

    # Fiber cardinality: #fiber(v) = g*D^{r-1}/prod(a) when g | v, else 0.
    cases = 0
    for a in pool:
        inst = make_instance(a)
        index = build_fiber_index(inst)
        expect = inst.g * inst.D ** (inst.r - 1) // prod(inst.a)
        for v in range(inst.D):
            size = len(index.fiber(v))
            want = expect if v % inst.g == 0 else 0
            if size != want:
                return fail(
                    "fiber-cardinality", a, v, "enumeration vs closed form",
                    f"counted {size}, formula {want}",
                )
            cases += 1
    passed("fiber-cardinality", cases)

    # Zero characterization against the oracle.
    cases = 0
    for a in pool:
        inst = make_instance(a)
        index = build_fiber_index(inst)
        horizon = 3 * inst.D
        oracle = p_oracle_upto(a, horizon)
        for n in range(horizon + 1):
            if is_zero(a, n, index=index) != (oracle[n] == 0):
                return fail(
                    "zero-characterization", a, n, "is_zero vs oracle",
                    f"is_zero={is_zero(a, n, index=index)}, oracle={oracle[n]}",
                )
            cases += 1
    passed("zero-characterization", cases)

    # Frobenius: fiber-minima method vs representability scan (and pair formula).
    cases = 0
    f_pool = sample_instances(
        max(10, instances // 2), max_r=max_r, max_entry=max_entry,
        seed=seed + 3, box_budget=box_budget, require_gcd1=True,
    )
    for a in f_pool:
        general = frobenius_general(a)
        horizon = max(general.value, 0) + 2 * make_instance(a).D
        gaps = representability_scan(a, horizon)
        scan_value = max(gaps) if gaps else -1
        if general.value != scan_value:
            return fail(
                "frobenius", a, None, "fiber minima vs scan",
                f"general={general.value}, scan={scan_value}",
            )
        if len(a) == 2 and frobenius_pair(*a).value != general.value:
            return fail(
                "frobenius", a, None, "pair formula vs fiber minima",
                f"pair={frobenius_pair(*a).value}, general={general.value}",
            )
        cases += 1
    passed("frobenius", cases)

    return report
