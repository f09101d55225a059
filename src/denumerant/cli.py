"""Command-line front end.

Every subcommand prints one JSON envelope on stdout: the command name, an
echo of the instance (a, D, gcd), a command-specific result, and wall-clock
timing.  All integers in the JSON are decimal strings so no consumer ever
truncates at 64 bits; rationals carry a [numerator, denominator] pair plus a
decimal convenience string.  `--plain` switches to human-readable tables.

`eval` and `bench` compute p_a(n) through `partition._evaluator`, the one
evaluator `p()` also uses, and take the method names and each one's usage
rule from `partition._ROUTES`; this module parses arguments and renders.

Exit codes: 0 success, 2 usage error, 3 size guard tripped, 4 cross-route or
self-check mismatch or a failed integrality check (ArithmeticError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import _STARTED
from .congruence import DEFAULT_MAX_BOX, BoxTooLargeError, Instance, list_fibers, make_instance
from .frobenius import frobenius_general, frobenius_pair
from .partition import _ROUTES, _evaluator, quasipoly, route_for
from .polypart import (
    format_polynomial,
    polypart_bernoulli,
    polypart_box_average,
    polypart_from_residues,
    residues_bernoulli_barnes,
    residues_powersum,
)
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOX = 3
EXIT_MISMATCH = 4

MAX_N_VALUES = 10**6  # most values one -n lo..hi range may hold

_EVAL_METHODS = ("auto", *_ROUTES)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# rendering helpers

def _decimal_str(q: Fraction, digits: int = 12) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, rem = divmod(q.numerator, q.denominator)
    if rem == 0:
        return f"{sign}{whole}"
    frac = rem * 10**digits // q.denominator
    tail = f"{frac:0{digits}d}".rstrip("0")
    if not tail:
        tail = "0" * digits  # value smaller than the rendered precision
    return f"{sign}{whole}.{tail}"


def _frac_json(q: Fraction) -> dict:
    return {
        "frac": [str(q.numerator), str(q.denominator)],
        "decimal": _decimal_str(q),
    }


def _poly_json(poly) -> dict:
    return {
        "coeffs": [_frac_json(c) for c in poly.coeffs],
        "pretty": format_polynomial(poly),
    }


def _residues_json(res) -> dict:
    return {f"R_{m}": _frac_json(v) for m, v in enumerate(res.values, 1)}


def _instance_json(inst: Instance) -> dict:
    return {
        "a": [str(x) for x in inst.a],
        "D": str(inst.D),
        "g": str(inst.g),
    }


# ---------------------------------------------------------------------------
# argument parsing helpers

def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        a = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"-a expects comma-separated integers, got {text!r}")
    if not a or any(x < 1 for x in a):
        raise UsageError(f"-a expects positive integers, got {text!r}")
    return a


def _parse_n_range(text: str) -> range:
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if dots else lo
    except ValueError:
        raise UsageError(f"-n expects an integer or lo..hi, got {text!r}")
    if lo > hi:
        raise UsageError(f"-n range has lo > hi: {text!r}")
    if lo < 0:
        raise UsageError(f"-n values must be nonnegative, got {text!r}")
    if hi - lo >= MAX_N_VALUES:
        raise UsageError(
            f"-n range holds {hi - lo + 1} values, more than the {MAX_N_VALUES} allowed: {text!r}"
        )
    return range(lo, hi + 1)


def _parse_d_choice(text: str):
    if text in ("lcm", "product"):
        return text
    if text.startswith("explicit:"):
        try:
            return int(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"-d explicit:M needs an integer M, got {text!r}")
    raise UsageError(f"-d expects lcm, product, or explicit:M, got {text!r}")


def _make_instance(args) -> Instance:
    return make_instance(_parse_weights(args.a), _parse_d_choice(args.d))


def _max_box(args) -> int:
    name, guard = "--max-box", getattr(args, "max_box", None)
    if guard is None:
        name, env = "DENUMERANT_MAX_BOX", os.environ.get("DENUMERANT_MAX_BOX")
        if env is None:
            return DEFAULT_MAX_BOX
        try:
            guard = int(env)
        except ValueError:
            raise UsageError(f"DENUMERANT_MAX_BOX must be an integer, got {env!r}")
    if guard < 1:
        raise UsageError(f"{name} must be at least 1, got {guard}")
    return guard


# ---------------------------------------------------------------------------
# routes: eval's usage rule and the polynomial-part and residue tables

def _check_method(method: str, inst: Instance) -> None:
    rule = _ROUTES[method][0] if method in _ROUTES else None  # "auto" has none
    if rule and not rule[0](inst):
        raise UsageError(f"{method} needs " + rule[1].format(a=inst.a, g=inst.g))


# Each route takes (instance, args); only "box" reads the size guard.
_POLYPART_ROUTES = {
    "bernoulli": lambda inst, args: polypart_bernoulli(inst.a),
    "box": lambda inst, args: polypart_box_average(inst.a, inst.D, max_box=_max_box(args)),
    "powersum": lambda inst, args: polypart_from_residues(residues_powersum(inst.a, inst.D)),
    "barnes": lambda inst, args: polypart_from_residues(residues_bernoulli_barnes(inst.a)),
}
_RESIDUE_ROUTES = {
    "barnes": lambda inst, args: residues_bernoulli_barnes(inst.a),
    "powersum": lambda inst, args: residues_powersum(inst.a, inst.D),
}
_POLYPART_METHODS = tuple(_POLYPART_ROUTES)
_RESIDUE_METHODS = tuple(_RESIDUE_ROUTES)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (instance | None, result dict, exit code)

def _cmd_eval(args):
    inst = _make_instance(args)
    ns = _parse_n_range(args.n)
    max_box = _max_box(args)
    _check_method(args.method, inst)
    resolved = route_for(inst, ns[-1], max_box) if args.method == "auto" else args.method
    value_at = _evaluator(resolved, inst, ns[-1], max_box, len(ns) > 1)
    result = {
        "method": args.method,
        "resolved_method": resolved,
        "values": [{"n": str(n), "p": str(value_at(n))} for n in ns],
    }
    return inst, result, EXIT_OK


def _cmd_quasipoly(args):
    inst = _make_instance(args)
    qp = quasipoly(inst.a, inst.D, max_box=_max_box(args))
    result = {
        "a": [str(x) for x in inst.a],
        "D": str(inst.D),
        "coeffs": [_frac_json(c) for row in qp.coeffs for c in row],
    }
    return inst, result, EXIT_OK


def _run_routes(args, routes: dict, key: str, render):
    """Run the route args.method names and render it under `key`; with
    --check run every route of the table too, and exit 4 unless all agree."""
    inst = _make_instance(args)
    value = routes[args.method](inst, args)
    result = {"method": args.method, key: render(value), "check": "not-run"}
    if not args.check:
        return inst, result, EXIT_OK
    got = {
        name: value if name == args.method else route(inst, args) for name, route in routes.items()
    }
    if len(set(got.values())) == 1:
        result["check"] = "pass"
        return inst, result, EXIT_OK
    result["check"] = "fail"
    result["routes"] = {name: render(v) for name, v in got.items()}
    return inst, result, EXIT_MISMATCH


def _cmd_polypart(args):
    return _run_routes(args, _POLYPART_ROUTES, "polynomial", _poly_json)


def _cmd_residues(args):
    return _run_routes(args, _RESIDUE_ROUTES, "residues", _residues_json)


def _cmd_frobenius(args):
    inst = _make_instance(args)
    if inst.g != 1:
        raise UsageError(f"Frobenius number undefined: gcd{inst.a} = {inst.g} > 1")
    if inst.r == 2:
        out = frobenius_pair(*inst.a)
        method = "pair"
    else:
        out = frobenius_general(inst.a, inst.D, max_box=_max_box(args))
        method = "fibers"
    result = {
        "method": method,
        "value": str(out.value),
        "witness_residue": None if out.witness_residue is None else str(out.witness_residue),
    }
    return inst, result, EXIT_OK


def _cmd_fibers(args):
    inst = _make_instance(args)
    buckets = list_fibers(inst, _max_box(args))
    result = {
        "instance": _instance_json(inst),
        "fibers": {
            str(v): [[str(j) for j in t] for t in tuples] for v, tuples in buckets.items()
        },
    }
    return inst, result, EXIT_OK


def _cmd_selfcheck(args):
    report = run_selfcheck(
        max_r=args.max_r,
        max_entry=args.max_entry,
        max_n=args.max_n,
        seed=args.seed,
        instances=args.instances,
        box_budget=args.box_budget,
    )
    return None, report.to_json(), EXIT_OK if report.ok else EXIT_MISMATCH


def _bench_points(n_max: int, count: int) -> list[int]:
    if not 1 <= count <= MAX_N_VALUES:
        raise UsageError(f"--points must be in 1..{MAX_N_VALUES}, got {count}")
    if count == 1:
        return [n_max]
    return sorted({i * n_max // (count - 1) for i in range(count)})


def _cmd_bench(args):
    inst = _make_instance(args)
    n_max = _parse_n_range(args.n)[-1]
    points = _bench_points(n_max, args.points)
    max_box = _max_box(args)

    wanted = [m.strip() for m in args.methods.split(",")] if args.methods else []
    admitted = [m for m, (rule, _, _) in _ROUTES.items() if not rule or rule[0](inst)]
    wanted = wanted or sorted(admitted, key=lambda m: _ROUTES[m][0] is not None)  # general routes first
    for m in wanted:
        if m not in _EVAL_METHODS[1:]:
            raise UsageError(f"--methods entries must be one of {_EVAL_METHODS[1:]}, got {m!r}")
        _check_method(m, inst)

    rows = []
    per_method_values = {}
    for method in wanted:
        t0 = time.perf_counter()
        value_at = _evaluator(method, inst, n_max, max_box, len(points) > 1)
        t1 = time.perf_counter()
        per_method_values[method] = [value_at(n) for n in points]
        setup_ms = (t1 - t0) * 1000.0
        query_ms = (time.perf_counter() - t1) * 1000.0
        rows.append(
            {
                "method": method,
                "setup_ms": round(setup_ms, 3),
                "query_ms": round(query_ms, 3),
                "total_ms": round(setup_ms + query_ms, 3),
            }
        )

    agree = len({tuple(v) for v in per_method_values.values()}) == 1
    result = {
        "n_max": str(n_max),
        "points": [str(n) for n in points],
        "methods": rows,
        "values_agree": agree,
        "values": [str(v) for v in per_method_values[wanted[0]]],
        "note": (
            "setup_ms covers each method's one-time table (fiber index, quasi-polynomial"
            " table or oracle DP table), as eval builds it; point queries amortize it"
        ),
    }
    return inst, result, EXIT_OK if agree else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# plain-text rendering

def _plain_lines(command: str, instance: dict | None, result: dict) -> list[str]:
    lines = []
    if instance is not None:
        lines.append(
            f"a = ({', '.join(instance['a'])})   D = {instance['D']}   gcd = {instance['g']}"
        )
    if command == "eval":
        lines.append(f"method: {result['method']} -> {result['resolved_method']}")
        for rec in result["values"]:
            lines.append(f"  p({rec['n']}) = {rec['p']}")
    elif command == "quasipoly":
        d = int(result["D"])
        coeffs = result["coeffs"]
        r = len(coeffs) // d
        for m in range(r):
            row = coeffs[m * d : (m + 1) * d]
            cells = "  ".join("/".join(c["frac"]) for c in row)
            lines.append(f"  n^{m}: {cells}")
    elif command == "polypart":
        lines.append(f"P(n) = {result['polynomial']['pretty']}   [{result['method']}]")
        if result["check"] != "not-run":
            lines.append(f"cross-route check: {result['check']}")
    elif command == "residues":
        for name, val in result["residues"].items():
            lines.append(f"  {name} = {'/'.join(val['frac'])} ({val['decimal']})")
        if result["check"] != "not-run":
            lines.append(f"cross-route check: {result['check']}")
    elif command == "frobenius":
        lines.append(f"F = {result['value']} (witness residue {result['witness_residue']})")
    elif command == "fibers":
        for residue, tuples in result["fibers"].items():
            shown = ", ".join("(" + ",".join(t) + ")" for t in tuples[:8])
            extra = "" if len(tuples) <= 8 else f", ... ({len(tuples)} total)"
            lines.append(f"  residue {residue}: {shown}{extra}")
    elif command == "selfcheck":
        for chk in result["checks"]:
            lines.append(f"  {chk['name']}: {chk['cases']} cases ok ({chk['ms']} ms)")
        lines.append("self-check: PASS" if result["ok"] else f"self-check: FAIL {result['failure']}")
    elif command == "bench":
        lines.append(f"points: {', '.join(result['points'])}")
        for row in result["methods"]:
            lines.append(
                f"  {row['method']:<10} setup {row['setup_ms']:>10.3f} ms"
                f"   queries {row['query_ms']:>10.3f} ms"
            )
        lines.append(f"values agree: {result['values_agree']}")
        lines.append(result["note"])
    else:
        lines.append(json.dumps(result, indent=2))
    return lines


# ---------------------------------------------------------------------------
# parser

def _add_instance_args(sp):
    sp.add_argument("-a", required=True, help="comma-separated positive weights, e.g. 3,5")
    sp.add_argument("-d", default="lcm", help="period choice: lcm | product | explicit:M")
    sp.add_argument("--max-box", type=int, default=None,
                    help="size guard: the most box-sum histogram entries, oracle table entries"
                         f" or listed box tuples (default {DEFAULT_MAX_BOX} or DENUMERANT_MAX_BOX)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denumerant",
        description="Exact restricted-partition computations with cross-checked routes.",
    )
    parser.add_argument("--plain", action="store_true", help="human-readable output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate p_a(n) for one n or a range")
    _add_instance_args(sp)
    sp.add_argument("-n", required=True, help="target value or inclusive range lo..hi")
    sp.add_argument("--method", choices=_EVAL_METHODS, default="auto")
    sp.set_defaults(handler=_cmd_eval)

    sp = sub.add_parser("quasipoly", help="full quasi-polynomial coefficient table")
    _add_instance_args(sp)
    sp.set_defaults(handler=_cmd_quasipoly)

    sp = sub.add_parser("polypart", help="polynomial part of p_a")
    _add_instance_args(sp)
    sp.add_argument("--method", choices=_POLYPART_METHODS, default="bernoulli")
    sp.add_argument("--check", action="store_true", help="compare all routes; exit 4 on mismatch")
    sp.set_defaults(handler=_cmd_polypart)

    sp = sub.add_parser("residues", help="Dirichlet-series residues R_1..R_r")
    _add_instance_args(sp)
    sp.add_argument("--method", choices=_RESIDUE_METHODS, default="barnes")
    sp.add_argument("--check", action="store_true", help="compare both routes; exit 4 on mismatch")
    sp.set_defaults(handler=_cmd_residues)

    sp = sub.add_parser("frobenius", help="Frobenius number (gcd must be 1)")
    _add_instance_args(sp)
    sp.set_defaults(handler=_cmd_frobenius)

    sp = sub.add_parser("fibers", help="residue-bucketed box enumeration")
    _add_instance_args(sp)
    sp.set_defaults(handler=_cmd_fibers)

    sp = sub.add_parser("selfcheck", help="randomized cross-route verification; exit 4 on mismatch")
    sp.add_argument("--max-r", type=int, default=4)
    sp.add_argument("--max-entry", type=int, default=12)
    sp.add_argument("--max-n", type=int, default=200)
    sp.add_argument("--seed", type=int, default=2026)
    sp.add_argument("--instances", type=int, default=40)
    sp.add_argument("--box-budget", type=int, default=20_000)
    sp.set_defaults(handler=_cmd_selfcheck)

    sp = sub.add_parser("bench", help="time the evaluation routes against each other")
    _add_instance_args(sp)
    sp.add_argument("-n", required=True, help="largest n to benchmark (or lo..hi)")
    sp.add_argument("--methods", default=None, help="comma-separated subset of the eval methods")
    sp.add_argument("--points", type=int, default=5, help="number of sample points in 0..n")
    sp.set_defaults(handler=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code

    t0 = time.perf_counter()
    try:
        instance, result, code = args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoxTooLargeError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_BOX
    except ArithmeticError as exc:
        print(f"arithmetic error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    timing_ms = round((time.perf_counter() - t0) * 1000.0, 3)
    process_ms = round((time.perf_counter() - _STARTED) * 1000.0, 3)

    instance_json = None if instance is None else _instance_json(instance)
    if args.plain:
        text = "\n".join(_plain_lines(args.command, instance_json, result))
    else:
        envelope = {"command": args.command, "instance": instance_json, "result": result,
                    "timing_ms": timing_ms, "process_ms": process_ms}
        text = json.dumps(envelope, indent=2)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point it at devnull so that
        # the flush at interpreter shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
