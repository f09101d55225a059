"""Benchmark of the denumerant package: four workloads, end to end and per layer.

    python3 perfbench/run.py                       # every workload, summary table
    python3 perfbench/run.py --workload fiber_batch --seed 7 --seconds 12 --trace 0

Run from anywhere; the package is taken from `src/` next to this directory.
Each workload is a closed loop with one client in one process: the next
operation starts when the previous one returns.  With `--trace 0` the run
measures the end-to-end metrics; with `--trace 1` it runs a fixed, seeded
operation sequence once untraced and once traced, and reports per-layer
metrics.  End-to-end timings are reported at a reference host speed (see
`calibrate`).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A full record (stamps,
traffic, failures, spans) goes to perfbench_out/.  Exit codes: 0 ok,
2 package sources missing, 3 reference self-test failed, 1 a workload run
failed.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")

import child  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_PROBES = 10  # one set-up probe per tenth of --seconds
CLI_PROBES = 5
CAL_INTERVAL_S = 1.0  # wall seconds between two calibration samples
# Median of calibrate() on the reference machine (2 vCPUs of a shared
# x86-64 host, CPython 3.11).  Timings are reported at that speed.
CAL_REFERENCE_S = 0.020


class Context:
    def __init__(self):
        self.src = SRC
        self.out_dir = OUT
        self.tracer = None  # set during a traced pass


# ---------------------------------------------------------------------------
# stamps


def git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def warm_bytecode() -> str:
    """Compile the package's bytecode; report whether it was already fresh."""
    pkg = os.path.join(SRC, "denumerant")
    state = "warm"
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        source = os.path.join(pkg, name)
        cached = importlib.util.cache_from_source(source)
        if not os.path.exists(cached) or os.path.getmtime(cached) < os.path.getmtime(source):
            state = "cold"
    compileall.compile_dir(pkg, quiet=1)
    return state


def stamps(args, cache_state) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "bytecode_cache_at_start": cache_state,
    }


# ---------------------------------------------------------------------------
# measurement


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel of the kinds of work the
    package does: small-integer loops, Fraction arithmetic, list DP and dict
    updates.  The host's speed drifts by tens of percent over minutes; the
    kernel drifts with it, so timings divided by it do not."""
    t0 = time.perf_counter()
    s = 0
    for i in range(75_000):
        s += i * i
    x = Fraction(1, 3)
    for i in range(1, 750):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    table = [1] + [0] * 3000
    for a in (3, 5, 7, 11, 13):
        for n in range(a, 3001):
            table[n] += table[n - a]
    counts = {}
    for i in range(20_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - t0


def spawn_ms(argv, env=None) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=170)
    return (time.perf_counter() - t0) * 1e3, proc


def setup_probe(workload: str) -> float:
    """Seconds from spawn to exit of a fresh interpreter that imports the
    package and runs the workload's warm-up operation."""
    ms, proc = spawn_ms([sys.executable, os.path.join(HERE, "child.py"), "setup", workload, SRC])
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-400:]}")
    return ms / 1e3


class Sampler:
    """Untimed samples of `take()` taken between operations: one after the
    first operation, then one whenever `every` wall seconds have passed.
    Spreading samples over the run lets their median see the host's speed
    over the whole run, not over one moment of it."""

    def __init__(self, take, every: float):
        self.take = take
        self.every = every
        self.samples: list[float] = []
        self.due = 0.0

    def poll(self):
        if time.perf_counter() >= self.due:
            self.samples.append(self.take())
            self.due = time.perf_counter() + self.every


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def harrell_davis(ordered: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted samples: a
    Beta-weighted mean of the order statistics near rank q*n.  A mixed
    workload has gaps between its operation kinds; the plain nearest-rank
    quantile jumps across such a gap when two neighbours trade places, this
    estimate does not."""
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    total, prev = 0.0, 0.0
    for i, x in enumerate(ordered, 1):
        cur = beta_cdf(a, b, i / n)
        total += (cur - prev) * x
        prev = cur
    return total


class Pass:
    """Samples of one pass over a workload's rounds."""

    def __init__(self):
        self.kinds: list[str] = []
        self.latency: list[float] = []  # seconds
        self.errors: list[str] = []
        self.failed = 0
        self.routes: Counter = Counter()
        self.instances: dict = {}
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return len(self.latency)

    @property
    def timed_s(self) -> float:
        return sum(self.latency)

    def throughput(self) -> float:
        return (self.attempted - self.failed) / self.timed_s

    def percentile_ms(self, q: float) -> float:
        return harrell_davis(sorted(self.latency), q) * 1e3

    def traffic(self, facts) -> dict:
        n = self.attempted
        kinds = Counter(self.kinds)
        routed = sum(self.routes.values())
        return {
            "rounds": self.rounds,
            "op_share": {k: v / n for k, v in sorted(kinds.items())},
            "op_count": dict(sorted(kinds.items())),
            "route_share": {k: v / routed for k, v in sorted(self.routes.items())},
            "route_rule": "r = 1 divisibility; coprime pair popoviciu; box <= 1e8 product; else oracle",
            "instances": [facts(a) for a in sorted(self.instances, key=lambda a: (len(a), a))],
        }


def run_pass(workload, seed, *, budget_s=None, n_rounds=None, tracer=None, samplers=()) -> Pass:
    """Run rounds of `workload` until `n_rounds` are done, or until the timed
    total is nearest to `budget_s` at a round boundary with at least MIN_OPS
    operations.  With a tracer, each operation is a root span and trace data
    left by a child process is collected after it, outside the timing.  The
    `samplers` are polled after each operation, outside the timing."""
    out = Pass()
    for groups in workload.rounds(seed):
        gc.collect()
        for group in groups:
            state = {}
            for op in group:
                frame = None
                t0 = time.perf_counter()
                if tracer is not None:
                    frame = tracer.begin_op(out.attempted)
                try:
                    result = op.call(state)
                    err = None
                except Exception as exc:  # a failed operation is counted, not fatal
                    result, err = None, f"{op.kind}{op.a}: {type(exc).__name__}: {exc}"
                finally:
                    if frame is not None:
                        tracer.end_op(frame)
                dt = time.perf_counter() - t0
                op.wall = dt
                if tracer is not None:
                    workload.absorb(tracer, frame)
                if err is None:
                    try:
                        err = op.check(result, state)
                    except Exception as exc:
                        err = f"{op.kind}{op.a}: check raised {type(exc).__name__}: {exc}"
                if op.key is not None:
                    state[op.key] = result
                out.kinds.append(op.kind)
                out.latency.append(dt)
                out.instances[op.a] = True
                if op.route is not None:
                    out.routes[op.route] += 1
                if err is not None:
                    out.failed += 1
                    if len(out.errors) < 20:
                        out.errors.append(err)
                for sampler in samplers:
                    sampler.poll()
        out.rounds += 1
        if n_rounds is not None:
            if out.rounds >= n_rounds:
                break
        elif out.attempted >= MIN_OPS and out.timed_s + out.timed_s / out.rounds / 2 >= budget_s:
            break
    return out


def median_spawn(argv, env, parse=None) -> float:
    vals = []
    for _ in range(CLI_PROBES):
        ms, proc = spawn_ms(argv, env)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} failed: {proc.stderr.decode()[-400:]}")
        vals.append(parse(proc.stdout) if parse else ms)
    return statistics.median(vals)


CLI_METRICS = (
    ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.handler_ms", "ms"),
    ("cli.overhead_ms", "ms"), ("cli.stdout_bytes", "bytes"),
)


def cli_layer_metrics(workload) -> dict:
    if workload.name != "cli_session":
        return {name: (0.0, unit) for name, unit in CLI_METRICS}
    env = dict(os.environ, PYTHONPATH=SRC)
    interp = median_spawn([sys.executable, "-c", "pass"], env)
    code = "import time; t = time.perf_counter(); import denumerant.cli; print((time.perf_counter() - t) * 1e3)"
    imp = median_spawn([sys.executable, "-c", code], env, parse=lambda out: float(out))
    walls = [w for w, _, _ in workload.envelopes]
    handler = [h for _, h, _ in workload.envelopes]
    return {
        "cli.interp_ms": (interp, "ms"),
        "cli.import_ms": (imp, "ms"),
        "cli.handler_ms": (statistics.median(handler), "ms"),
        "cli.overhead_ms": (statistics.median(w - h for w, h in zip(walls, handler)), "ms"),
        "cli.stdout_bytes": (statistics.median(b for _, _, b in workload.envelopes), "bytes"),
    }


# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    cache_state = warm_bytecode()
    os.makedirs(OUT, exist_ok=True)
    record = {"stamps": stamps(args, cache_state)}

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import denumerant

    child.warm_up(args.workload, SRC)
    record["own_setup_s"] = time.perf_counter() - t0

    ctx = Context()
    workload = workloads.WORKLOADS[args.workload](denumerant, ctx)
    record["deferred"] = workload.deferred

    if not args.trace:
        calibration = Sampler(calibrate, CAL_INTERVAL_S)
        probes = Sampler(lambda: setup_probe(args.workload), args.seconds / SETUP_PROBES)
        main = run_pass(workload, args.seed, budget_s=args.seconds, samplers=(calibration, probes))
        # > 1 while the host runs slower than the reference machine
        slowdown = statistics.median(calibration.samples) / CAL_REFERENCE_S
        self_rss = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
        wall = {
            "throughput_ops_s": (main.throughput(), "ops/s"),
            "latency_p50_ms": (main.percentile_ms(0.5), "ms"),
            "latency_p90_ms": (main.percentile_ms(0.9), "ms"),
            "setup_s": (statistics.median(probes.samples), "s"),
        }
        metrics = {
            name: (value * slowdown if name == "throughput_ops_s" else value / slowdown, unit)
            for name, (value, unit) in wall.items()
        }
        metrics["peak_rss_mb"] = (resource.getrusage(self_rss).ru_maxrss / 1024, "MB")
        record["wall_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in wall.items()}
        record["host_slowdown"] = slowdown
        record["calibration_s"] = calibration.samples
        record["setup_probes_s"] = probes.samples
        measured = main
    else:
        plain = run_pass(workload, args.seed, n_rounds=workload.trace_rounds)
        cli = cli_layer_metrics(workload)
        tracer = Tracer()
        ctx.tracer = tracer
        in_process = args.workload != "cli_session"
        if in_process:
            tracer.install()
        try:
            traced = run_pass(workload, args.seed, n_rounds=workload.trace_rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(int(traced.timed_s * 1e9))
        metrics.update(cli)
        metrics["trace.overhead"] = (traced.throughput() / plain.throughput(), "ratio")
        record["untraced_pass"] = {"attempted": plain.attempted, "failed": plain.failed, "timed_s": plain.timed_s}
        record["spans_dropped"] = tracer.spans_dropped
        base = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl")
        with open(base, "w") as fh:
            fh.write('{"fields": ["op", "id", "parent", "layer", "name", "start_ns", "end_ns"]}\n')
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        measured = traced

    passes = [measured] if not args.trace else [plain, traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(
        result,
        error_rate=failed / attempted,
        timed_s=measured.timed_s,
        failures=errors,
        traffic=measured.traffic(workloads.facts),
    )
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16} {name:28} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:16} {'host_slowdown':28} {slowdown:14.6g} ratio"
              "  (times above are wall times divided by it, throughput multiplied)")
    print(f"{args.workload:16} {'error_rate':28} {failed / attempted:14.6g} ratio"
          f"  ({failed} failed of {attempted} operations, the sample count)")
    for err in errors[:5]:
        print(f"  failure: {err}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    names = list(workloads.WORKLOADS)
    code = 0
    rows = []
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            code = 1
            continue
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = dict(out["metrics"])
        metrics["error_rate"] = {"value": out["failed"] / out["attempted"], "unit": "ratio"}
        for metric, val in metrics.items():
            rows.append((name, metric, val["value"], val["unit"], out["failed"], out["attempted"]))
    print(f"{'workload':16} {'metric':28} {'value':>14} {'unit':8} failed/attempted")
    for name, metric, value, unit, failed, attempted in rows:
        print(f"{name:16} {metric:28} {value:14.6g} {unit:8} {failed}/{attempted}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "denumerant", "__init__.py")):
        print(f"package sources not found under {SRC}", file=sys.stderr)
        return 2
    failures = reference.self_test()
    if failures:
        for line in failures:
            print(f"reference self-test failed: {line}", file=sys.stderr)
        return 3
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
