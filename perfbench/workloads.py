"""Seeded inputs, operations and correctness checks of the four workloads.

A workload turns a seed into an endless, deterministic stream of rounds.
A round is a list of groups and a group is a list of operations that share
state (an index built by one operation is used by the next ones); the
runner drops that state between groups.  Every operation is one public call
of the package, or one CLI process for `cli_session`.  Checks compare each
result with `reference`, which never calls the package; the runner runs
them outside the timed interval.

Why each workload exists, and which layers it stresses, is in
perfbench/README.md.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import reference as ref
from child import cli_command

# The package's default size guard (DEFAULT_MAX_BOX).  Used only to label
# traffic with the route p() is documented to take and to pick instances on
# each side of the guard; the package is always called with its defaults.
GUARD = 10**8


class Op:
    """One timed operation: `call(state)` is timed, `check(result, state)`
    is not and returns None or a failure message."""

    __slots__ = ("kind", "a", "call", "check", "key", "route", "wall")

    def __init__(self, kind, a, call, check, key=None, route=None):
        self.wall = None  # seconds, set by the runner before the check
        self.kind = kind
        self.a = a
        self.call = call
        self.check = check
        self.key = key
        self.route = route


def facts(a) -> dict:
    """Size counters of an instance with D = lcm(a)."""
    d = lcm(*a)
    box = prod(d // x for x in a)
    return {"a": list(a), "r": len(a), "D": d, "box": box, "fiber_len": box * gcd(*a) // d}


def route_rule(a) -> str:
    """The route p() documents for a with default arguments."""
    f = facts(a)
    if f["r"] == 1:
        return "divisibility"
    if f["r"] == 2 and gcd(*a) == 1:
        return "popoviciu"
    return "product" if f["box"] <= GUARD else "oracle"


def _expect(what, got, want):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


class References:
    """Memoised reference values, shared by all rounds of one run."""

    def __init__(self):
        self._p = {}
        self._cols = {}
        self._colv = {}
        self._frob = {}

    def p(self, a, n):
        key = (a, n)
        if key not in self._p:
            self._p[key] = ref.p_ref(a, n)
        return self._p[key]

    def p_table(self, a, n):
        """p_a(n) from the reference quasi-polynomial columns of a; cheaper
        than `p` when many n share one instance."""
        key = (a, n)
        if key not in self._p:
            cols = self.columns(a)
            if n < len(cols.table):
                self._p[key] = cols.table[n]
            else:
                coeffs = self._column(a, n % cols.d)
                val = sum(c * n**m for m, c in enumerate(coeffs))
                if val.denominator != 1:
                    raise ArithmeticError(f"reference column of {a} is not integral at {n}")
                self._p[key] = int(val)
        return self._p[key]

    def _column(self, a, v):
        key = (a, v)
        if key not in self._colv:
            self._colv[key] = self.columns(a).column(v)
        return self._colv[key]

    def columns(self, a):
        if a not in self._cols:
            self._cols[a] = ref.QuasiColumns(a)
        return self._cols[a]

    def frobenius(self, a):
        if a not in self._frob:
            self._frob[a] = ref.frobenius_ref(a)
        return self._frob[a]

    def check_table(self, a, rows, residues):
        """rows[m][v] is the coefficient of n^m on class v mod lcm(a)."""
        cols = self.columns(a)
        if len(rows) != cols.r or any(len(row) != cols.d for row in rows):
            return f"table of {a} has shape {len(rows)}x{len(rows[0])}"
        for v in range(cols.d):
            if rows[-1][v] != cols.leading(v):
                return f"leading coefficient of {a} at residue {v}: {rows[-1][v]}"
        for v in residues:
            got = [rows[m][v % cols.d] for m in range(cols.r)]
            want = self._column(a, v % cols.d)
            if got != want:
                return f"column {v % cols.d} of {a}: got {got}, want {want}"
        return None


def check_leading(a, coeffs, what):
    """The two leading coefficients of a polynomial part (ascending list)."""
    lead, second = ref.polypart_leading(a)
    if len(coeffs) != len(a):
        return f"{what}{a}: degree {len(coeffs) - 1}"
    err = _expect(f"{what}{a} leading", coeffs[-1], lead)
    if err is None and second is not None:
        err = _expect(f"{what}{a} second", coeffs[-2], second)
    return err


class Workload:
    name = ""
    trace_rounds = 1
    deferred: list = []

    def __init__(self, dn, ctx):
        self.dn = dn
        self.ctx = ctx
        self.refs = References()

    def rounds(self, seed):
        raise NotImplementedError

    def absorb(self, tracer, frame):
        """Collect trace data that the operation of root span `frame` left
        outside this process."""


# ---------------------------------------------------------------------------


# The instance ladders are fixed (drawn once with this seed) so that a
# round's cost does not depend on the run's seed; the run's seed draws every
# query point and the order.  Drawing instances, or even permuting their
# weights, from the run's seed moved a run's cost by tens of percent.
LADDER_SEED = 2016


def _pools(rungs, max_weight):
    """For each (r, target) rung: all tuples of r distinct weights in
    2..max_weight[r] whose lcm box is within 10% of target."""
    out = []
    for r, target in rungs:
        lo, hi = 0.9 * target, 1.1 * target
        out.append([a for a in combinations(range(2, max_weight[r] + 1), r) if lo <= facts(a)["box"] <= hi])
    return out


class FiberBatch(Workload):
    """Every per-instance route over one index, on a ladder of boxes."""

    name = "fiber_batch"
    # (r, lcm box size); the ladder holds one instance per rung.
    RUNGS = (
        (3, 1_000), (3, 10_000), (3, 100_000), (3, 300_000),
        (4, 3_000), (4, 30_000), (5, 10_000), (5, 50_000),
    )
    MAX_WEIGHT = {3: 60, 4: 30, 5: 20}
    deferred = [
        {
            "a": [2, 3, 5, 7],
            "box": 9_261_000,
            "why": "index build takes ~150 s and ~1.75 GB; deferred until the "
            "box-sum histogram (ROADMAP item 2) lands",
        },
        {
            "a": [2, 3, 4, 5, 6],
            "box": 1_080_000,
            "why": "one visit (index 2.1 s, quasipoly 7.1 s, frobenius rebuild, "
            "box average) exceeds a run's time budget; rungs stop at 3e5",
        },
    ]

    def __init__(self, dn, ctx):
        super().__init__(dn, ctx)
        ladder_rng = random.Random(LADDER_SEED)
        self.ladder = [ladder_rng.choice(pool) for pool in _pools(self.RUNGS, self.MAX_WEIGHT)]

    def rounds(self, seed):
        rng = random.Random(seed)
        while True:
            groups = [self._instance(a, rng) for a in self.ladder]
            rng.shuffle(groups)
            yield groups

    def _instance(self, a, rng):
        dn, refs = self.dn, self.refs
        f = facts(a)
        d, g = f["D"], gcd(*a)
        ns = [
            rng.randrange(0, 1_000),
            rng.randrange(10**5, 10**6),
            rng.randrange(10**11, 10**12),
            rng.randrange(10**29, 10**30),
        ]
        # the table is built to be evaluated often: 16 more points for it
        qs = ns + [rng.randrange(0, 10**12) for _ in range(16)]
        zs = [rng.randrange(0, 3 * max(a)) for _ in range(2)]

        def check_index(idx, state):
            return (
                _expect("index D", idx.instance.D, d)
                or _expect(f"index tuples of {a}", idx.total_tuples, f["box"])
                or _expect(f"fiber count of {a}", len(idx.fibers), d // g)
                or _expect(f"fiber lengths of {a}", {len(x) for x in idx.fibers.values()}, {f["fiber_len"]})
            )

        def check_p(n):
            return lambda got, state: _expect(f"p_{a}({n})", got, refs.p_table(a, n))

        ops = [Op("build_fiber_index", a, lambda s: dn.build_fiber_index(dn.make_instance(a)), check_index, "index")]
        for n in ns:
            ops.append(Op("p_product", a, lambda s, n=n: dn.p_product(a, n, index=s["index"]), check_p(n)))
        for n in ns:
            ops.append(Op("p_stirling", a, lambda s, n=n: dn.p_stirling(a, n, index=s["index"]), check_p(n)))
        ops.append(
            Op(
                "quasipoly", a,
                lambda s: dn.quasipoly(a, index=s["index"]),
                lambda qp, s: refs.check_table(a, qp.coeffs, ns),
                "qp",
            )
        )
        for n in qs:
            ops.append(Op("p_quasipoly", a, lambda s, n=n: dn.p_quasipoly(s["qp"], n), check_p(n)))
        ops.append(
            Op(
                "polypart_box_average", a,
                lambda s: dn.polypart_box_average(a, index=s["index"]),
                lambda poly, s: check_leading(a, poly.coeffs, "polypart_box_average"),
            )
        )
        for n in zs:
            ops.append(
                Op(
                    "is_zero", a,
                    lambda s, n=n: dn.is_zero(a, n, index=s["index"]),
                    lambda got, s, n=n: _expect(f"is_zero{a, n}", got, refs.p_table(a, n) == 0),
                )
            )
        if g == 1:
            def check_frob(res, state):
                want = refs.frobenius(a)
                return _expect(f"F{a}", res.value, want) or _expect(f"witness of {a}", res.witness_residue, want % d)

            ops.append(Op("frobenius_general", a, lambda s: dn.frobenius_general(a), check_frob))
        return ops


# ---------------------------------------------------------------------------


class PointQueries(Workload):
    """Independent p() and is_zero() calls; nothing is shared between them."""

    name = "point_queries"
    trace_rounds = 8
    HEAVY = (2, 3, 5, 7)  # box 9.3e6 fits the guard: a 88 200-tuple fiber scan per call
    # One block of 20 operations.  Costs form four tiers that do not
    # overlap: microseconds (r = 1, pairs), one fiber scan of 2e3..4e3
    # tuples (a few ms), one oracle DP of about 2e5 cells (about 20 ms), and
    # HEAVY.  The tiers hold 6, 8, 5 and 1 operations, so the median falls
    # inside the fiber-scan tier and p90 inside the oracle tier instead of on
    # a boundary between tiers.
    BLOCK = (
        ("r1", 1), ("coprime_pair", 2), ("gcd_pair", 2), ("zero_pair", 1),
        ("under_guard", 6), ("zero_under", 2),
        ("over_guard", 5),
        ("heavy", 1),
    )

    def __init__(self, dn, ctx):
        super().__init__(dn, ctx)
        under = []
        for r, top in ((3, 40), (4, 24)):
            for a in combinations(range(2, top + 1), r):
                f = facts(a)
                # gcd 1, so that every n really scans (fiber() returns at
                # once when gcd(a) does not divide n)
                if gcd(*a) == 1 and 2_000 <= f["box"] // max(f["D"] // x for x in a) <= 4_000:
                    under.append(a)
        self.under = under

    def rounds(self, seed):
        rng = random.Random(seed)
        seen = set()
        while True:
            block = []
            for kind, count in self.BLOCK:
                for _ in range(count):
                    while True:
                        func, a, n = self._draw(kind, rng)
                        if (func, a, n) not in seen:
                            seen.add((func, a, n))
                            break
                    block.append([self._op(func, a, n)])
            rng.shuffle(block)
            yield block

    def _draw(self, kind, rng):
        if kind == "r1":
            return "p", (rng.randrange(1, 100),), rng.randrange(0, 10**12)
        if kind in ("coprime_pair", "zero_pair"):
            top = 500 if kind == "coprime_pair" else 60
            while True:
                a = tuple(sorted(rng.sample(range(2, top), 2)))
                if gcd(*a) == 1:
                    break
            if kind == "zero_pair":
                return "is_zero", a, rng.randrange(0, a[0] * a[1])
            return "p", a, rng.randrange(10**6, 10**12)
        if kind == "gcd_pair":
            g = rng.randrange(2, 7)
            while True:
                b = rng.sample(range(1, 60), 2)
                if gcd(*b) == 1:
                    break
            return "p", tuple(sorted(g * x for x in b)), rng.randrange(10**6, 10**12)
        if kind == "heavy":
            return "p", self.HEAVY, rng.randrange(0, 3_000)
        if kind in ("under_guard", "zero_under"):
            a = rng.choice(self.under)
            if kind == "zero_under":
                return "is_zero", a, rng.randrange(0, 3 * max(a))
            return "p", a, rng.randrange(0, 3_000)
        while True:  # over_guard: n chosen so that the DP has about 2e5 cells
            r = rng.choice((3, 4, 5))
            a = tuple(sorted(rng.sample(range(3, 60), r)))
            if facts(a)["box"] > GUARD:
                return "p", a, rng.randrange(180_000, 220_000) // r

    def _op(self, func, a, n):
        dn, refs = self.dn, self.refs
        if func == "p":
            return Op(
                "p", a, lambda s: dn.p(a, n),
                lambda got, s: _expect(f"p_{a}({n})", got, refs.p(a, n)),
                route=route_rule(a),
            )
        return Op(
            "is_zero", a, lambda s: dn.is_zero(a, n),
            lambda got, s: _expect(f"is_zero{a, n}", got, refs.p(a, n) == 0),
        )


# ---------------------------------------------------------------------------


class PolypartHighR(Workload):
    """Polynomial part and residues by three routes, r = 4..9."""

    name = "polypart_high_r"
    # tuples per round for each r; r >= 10 waits for truncated power series
    PER_R = {4: 14, 5: 10, 6: 6, 7: 3, 8: 1, 9: 1}
    deferred = [
        {
            "r": 10,
            "why": "one call takes ~5.4 s (r = 11: ~17 s); deferred until the "
            "truncated power series (ROADMAP item 3) lands",
        }
    ]

    def __init__(self, dn, ctx):
        super().__init__(dn, ctx)
        ladder_rng = random.Random(LADDER_SEED)
        self.ladder = [
            tuple(sorted(ladder_rng.sample(range(1, 3 * r + 1), r)))
            for r, count in self.PER_R.items()
            for _ in range(count)
        ]

    def rounds(self, seed):
        rng = random.Random(seed)
        while True:
            groups = [self._tuple(a) for a in self.ladder]
            rng.shuffle(groups)
            yield groups

    def _tuple(self, a):
        dn = self.dn

        def agree(res, state):
            err = check_leading(a, res.values, "residues_powersum")
            if err is None and not (state["pb"].coeffs == state["rb"].values == res.values):
                err = f"polypart routes of {a} disagree"
            return err

        return [
            Op("polypart_bernoulli", a, lambda s: dn.polypart_bernoulli(a),
               lambda res, s: check_leading(a, res.coeffs, "polypart_bernoulli"), "pb"),
            Op("residues_bernoulli_barnes", a, lambda s: dn.residues_bernoulli_barnes(a),
               lambda res, s: check_leading(a, res.values, "residues_bernoulli_barnes"), "rb"),
            Op("residues_powersum", a, lambda s: dn.residues_powersum(a), agree),
        ]


# ---------------------------------------------------------------------------


def _frac(obj) -> Fraction:
    num, den = obj["frac"]
    return Fraction(int(num), int(den))


class CliSession(Workload):
    """Sequential `python -m denumerant.cli` processes, as typed at a shell."""

    name = "cli_session"
    trace_rounds = 4
    MAX_BOX = 10_000

    def __init__(self, dn, ctx):
        super().__init__(dn, ctx)
        import jsonschema

        with open(os.path.join(ctx.src, "denumerant", "schema.json")) as fh:
            schema = json.load(fh)
        self.validator = jsonschema.Draft202012Validator(schema)
        self.small = [
            a
            for r, top in ((2, 30), (3, 20), (4, 12))
            for a in combinations(range(1, top + 1), r)
            if facts(a)["box"] <= self.MAX_BOX
        ]
        self.coprime = [a for a in self.small if gcd(*a) == 1]
        self.trace_file = os.path.join(ctx.out_dir, "cli-trace.json")
        # (wall ms, envelope timing_ms, stdout bytes) of every valid envelope
        self.envelopes = []

    def rounds(self, seed):
        rng = random.Random(seed)
        while True:
            block = []
            for cmd in ("eval", "eval_range", "polypart", "residues", "frobenius", "quasipoly"):
                a = rng.choice(self.coprime if cmd == "frobenius" else self.small)
                block.append([self._op(cmd, a, rng)])
            rng.shuffle(block)
            yield block

    def _argv(self, args):
        if self.ctx.tracer is not None:
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
            env = dict(os.environ, PYTHONPATH=self.ctx.src)
            return [sys.executable, child, "cli", self.trace_file, *args], env
        return cli_command(self.ctx.src, args)

    def _op(self, cmd, a, rng):
        refs = self.refs
        spec = ",".join(map(str, a))
        if cmd == "eval":
            ns = [rng.randrange(0, 10**9)]
            args = ["eval", "-a", spec, "-n", str(ns[0])]
        elif cmd == "eval_range":
            lo = rng.randrange(0, 2_000)
            ns = list(range(lo, lo + 30))
            args = ["eval", "-a", spec, "-n", f"{lo}..{lo + 29}"]
        elif cmd in ("polypart", "residues"):
            args = [cmd, "-a", spec, "--check"]
        else:
            args = [cmd, "-a", spec]

        rng_residue = rng.randrange(0, 10**6)

        def check(proc, state):
            if proc.returncode != 0:
                return f"{args}: exit {proc.returncode}: {proc.stderr.decode()[-200:]}"
            env = json.loads(proc.stdout)
            errors = [e.message for e in self.validator.iter_errors(env)]
            if errors:
                return f"{args}: schema: {errors[0]}"
            self.envelopes.append((op.wall * 1e3, env["timing_ms"], len(proc.stdout)))
            res = env["result"]
            err = _expect(f"{args} instance", env["instance"]["a"], [str(x) for x in a])
            if err:
                return err
            if cmd.startswith("eval"):
                got = [(int(v["n"]), int(v["p"])) for v in res["values"]]
                return _expect(f"{args} values", got, [(n, refs.p(a, n)) for n in ns])
            if cmd == "polypart":
                coeffs = [_frac(c) for c in res["polynomial"]["coeffs"]]
                return _expect(f"{args} check", res["check"], "pass") or check_leading(a, coeffs, "polypart")
            if cmd == "residues":
                values = [_frac(res["residues"][f"R_{m}"]) for m in range(1, len(a) + 1)]
                return _expect(f"{args} check", res["check"], "pass") or check_leading(a, values, "residues")
            if cmd == "frobenius":
                return _expect(f"{args} value", int(res["value"]), refs.frobenius(a))
            d = int(res["D"])
            flat = [_frac(c) for c in res["coeffs"]]
            rows = [flat[m * d : (m + 1) * d] for m in range(len(a))]
            return refs.check_table(a, rows, [0, d - 1, rng_residue])

        def call(state):
            argv, env = self._argv(args)
            return subprocess.run(argv, env=env, capture_output=True, timeout=120)

        op = Op(cmd, a, call, check, route=route_rule(a) if cmd.startswith("eval") else None)
        return op

    def absorb(self, tracer, frame):
        if os.path.exists(self.trace_file):
            with open(self.trace_file) as fh:
                tracer.merge(json.load(fh), frame)
            os.remove(self.trace_file)


WORKLOADS = {w.name: w for w in (FiberBatch, PointQueries, PolypartHighR, CliSession)}
