"""CLI envelope behavior: schema validity, exit codes, plain mode."""

import contextlib
import io
import json
import os
import subprocess
import sys
from importlib.resources import files
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import cli, make_instance, partition, route_for

SCHEMA = json.loads(files("denumerant").joinpath("schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 4), f"stderr: {err}"
    envelope = json.loads(out)
    VALIDATOR.validate(envelope)
    return code, envelope


class TestEval:
    def test_single_value(self, capsys):
        code, env = run_json(capsys, "eval", "-a", "3,5", "-n", "8")
        assert code == 0
        assert env["command"] == "eval"
        assert env["instance"] == {"a": ["3", "5"], "D": "15", "g": "1"}
        assert env["result"]["values"] == [{"n": "8", "p": "1"}]
        assert env["result"]["resolved_method"] == "popoviciu"

    def test_range_oracle(self, capsys):
        code, env = run_json(
            capsys, "eval", "-a", "2,3", "-n", "0..6", "--method", "oracle"
        )
        assert [rec["p"] for rec in env["result"]["values"]] == [
            "1", "0", "1", "1", "1", "1", "2",
        ]

    def test_gcd_obstruction(self, capsys):
        code, env = run_json(capsys, "eval", "-a", "4,6", "-n", "5")
        assert env["result"]["values"] == [{"n": "5", "p": "0"}]

    def test_methods_agree(self, capsys):
        results = {}
        for method in ("product", "stirling", "quasipoly", "oracle"):
            _, env = run_json(
                capsys, "eval", "-a", "4,6,9", "-n", "0..30", "--method", method
            )
            results[method] = [rec["p"] for rec in env["result"]["values"]]
        assert len({tuple(v) for v in results.values()}) == 1

    def test_explicit_d(self, capsys):
        _, env = run_json(capsys, "eval", "-a", "2,3", "-n", "6", "-d", "explicit:12")
        assert env["instance"]["D"] == "12"
        assert env["result"]["values"][0]["p"] == "2"

    def test_count_beyond_64_bits_rendered_as_string(self, capsys):
        _, env = run_json(
            capsys, "eval", "-a", "1,2,3,4", "-n", "100000000", "--method", "quasipoly"
        )
        got = env["result"]["values"][0]["p"]
        assert isinstance(got, str)
        assert int(got) > 2**64

    def test_popoviciu_requires_coprime_pair(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "-a", "4,6", "-n", "5", "--method", "popoviciu"
        )
        assert code == 2
        assert "coprime" in err

    def test_bad_weights(self, capsys):
        code, _, err = run_cli(capsys, "eval", "-a", "3,x", "-n", "1")
        assert code == 2 and "usage error" in err

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "eval", "-a", "3,5", "-n", "9..2")
        assert code == 2

    @pytest.mark.parametrize("command", ["eval", "bench"])
    @pytest.mark.parametrize("span", [f"5..{5 + cli.MAX_N_VALUES}", f"0..{10**40}"])
    def test_range_too_long_is_usage_error(self, capsys, command, span):
        # rejected from lo and hi alone; 10^40 values could not be listed at all
        code, out, err = run_cli(capsys, command, "-a", "3,5", "-n", span)
        assert (code, out) == (2, "")
        assert "values" in err

    def test_box_guard_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "-a", "2,3", "-n", "4", "--method", "product", "--max-box", "2"
        )
        assert code == 3 and "size guard" in err

    def test_oracle_is_guarded(self, capsys):
        # a 10^12-cell DP table used to die with a MemoryError traceback
        for argv in (
            ("eval", "-a", "1000,1001,1002", "-n", "1000000000000", "--method", "oracle"),
            ("eval", "-a", "1000,1001,1002,1003", "-n", "1000000000000"),
            ("bench", "-a", "1000,1001,1002", "-n", "1000000000000", "--methods", "oracle"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert err.count("\n") == 1 and err.startswith("size guard"), argv

    def test_triple_needs_no_table(self, capsys):
        # the guard used to refuse this triple; floor sums need no table, and
        # p(n) - p(n - 1002) counts the solutions with no 1002, a pair
        def value(spec, n):
            code, env = run_json(capsys, "eval", "-a", spec, "-n", str(n))
            assert code == 0
            return env["result"]["resolved_method"], int(env["result"]["values"][0]["p"])

        n = 10**12
        method, whole = value("1000,1001,1002", n)
        assert method == "floorsum"
        assert whole - value("1000,1001,1002", n - 1002)[1] == value("1000,1001", n)[1]
        _, env = run_json(capsys, "eval", "-a", "9973,10007,99798911", "-n", "100000000..100000001")
        assert [v["p"] for v in env["result"]["values"]] == ["1", "1"]

    def test_floorsum_requires_three_weights(self, capsys):
        for argv in (
            ("eval", "-a", "3,5", "-n", "8", "--method", "floorsum"),
            ("bench", "-a", "2,3,5,7", "-n", "8", "--methods", "floorsum"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "three weights" in err, argv

    @pytest.mark.parametrize("a", ["4", "3,5", "4,6", "2,3,4", "4,6,9", "2,3,5,7", "6,10,15"])
    @pytest.mark.parametrize("n", ["0", "40", "0..100", "1000", "10000"])
    def test_resolved_method_is_route_for(self, capsys, a, n):
        _, env = run_json(capsys, "eval", "-a", a, "-n", n)
        inst = make_instance(tuple(int(x) for x in a.split(",")))
        want = route_for(inst, int(n.split("..")[-1]))
        assert env["result"]["resolved_method"] == want

    def test_gcd_pair_routes_to_popoviciu(self, capsys):
        # gcd 2: the histogram would hold 2e8 entries; Popoviciu runs on a/2
        _, env = run_json(capsys, "eval", "-a", "19946,20014", "-n", "99999999..100000000")
        assert env["result"]["resolved_method"] == "popoviciu"
        assert [v["p"] for v in env["result"]["values"]] == ["0", "1"]

    def test_arithmetic_error_exits_4(self, capsys, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("integer division or modulo by zero")

        monkeypatch.setattr(partition, "p_popoviciu", broken)
        code, out, err = run_cli(capsys, "eval", "-a", "3,5", "-n", "8")
        assert (code, out) == (4, "")
        assert err.count("\n") == 1 and "division" in err

    def test_env_var_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("DENUMERANT_MAX_BOX", "2")
        code, _, err = run_cli(capsys, "eval", "-a", "2,3", "-n", "4", "--method", "product")
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "-a", "3,5,7", "-n", "10", "--max-box", "-5"),
            ("eval", "-a", "3,5", "-n", "8", "--max-box", "-5"),
            ("quasipoly", "-a", "3,5", "--max-box", "0"),
        ],
    )
    def test_guard_below_one_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"usage error: --max-box must be at least 1, got {argv[-1]}\n"

    def test_env_guard_below_one_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("DENUMERANT_MAX_BOX", "-3")
        code, out, err = run_cli(capsys, "quasipoly", "-a", "3,5")
        assert (code, out) == (2, "")
        assert err == "usage error: DENUMERANT_MAX_BOX must be at least 1, got -3\n"
        # only a command that reads the guard checks it
        assert run_cli(capsys, "polypart", "-a", "3,5")[0] == 0

    def test_plain_output(self, capsys):
        code, out, _ = run_cli(capsys, "--plain", "eval", "-a", "3,5", "-n", "8")
        assert code == 0
        assert "p(8) = 1" in out

    def test_explicit_d_must_be_common_multiple(self, capsys):
        code, _, err = run_cli(capsys, "eval", "-a", "2,3", "-n", "4", "-d", "explicit:8")
        assert code == 2 and "common multiple" in err

    def test_explicit_d_must_be_integer(self, capsys):
        code, _, err = run_cli(capsys, "eval", "-a", "2,3", "-n", "4", "-d", "explicit:x")
        assert code == 2


class TestQuasipoly:
    def test_table(self, capsys):
        _, env = run_json(capsys, "quasipoly", "-a", "1,2")
        coeffs = env["result"]["coeffs"]
        assert [c["frac"] for c in coeffs] == [["1", "1"], ["1", "2"], ["1", "2"], ["1", "2"]]
        assert coeffs[1]["decimal"] == "0.5"


class TestPolypart:
    def test_default_route(self, capsys):
        _, env = run_json(capsys, "polypart", "-a", "1,1")
        assert env["result"]["polynomial"]["pretty"] == "n + 1"

    def test_check_passes(self, capsys):
        code, env = run_json(capsys, "polypart", "-a", "2,3,4", "--check")
        assert code == 0 and env["result"]["check"] == "pass"

    def test_check_mismatch_exits_4(self, capsys, monkeypatch):
        from denumerant.polypart import RationalPolynomial
        from fractions import Fraction

        wrong = RationalPolynomial(coeffs=(Fraction(9), Fraction(9)))
        monkeypatch.setattr(cli, "polypart_bernoulli", lambda a: wrong)
        code, env = run_json(capsys, "polypart", "-a", "1,2", "--check")
        assert code == 4
        assert env["result"]["check"] == "fail"
        assert "routes" in env["result"]


class TestResidues:
    def test_check_example(self, capsys):
        code, env = run_json(capsys, "residues", "-a", "1,2", "--check")
        assert code == 0
        assert env["result"]["check"] == "pass"
        assert env["result"]["residues"]["R_1"]["frac"] == ["3", "4"]
        assert env["result"]["residues"]["R_2"]["frac"] == ["1", "2"]

    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "--plain", "residues", "-a", "1,2")
        assert "R_1 = 3/4" in out


class TestFrobenius:
    def test_pair(self, capsys):
        _, env = run_json(capsys, "frobenius", "-a", "3,5")
        assert env["result"] == {"method": "pair", "value": "7", "witness_residue": "7"}

    def test_triple(self, capsys):
        _, env = run_json(capsys, "frobenius", "-a", "3,4,5")
        assert env["result"]["method"] == "fibers"
        assert env["result"]["value"] == "2"

    def test_gcd_rejected(self, capsys):
        code, _, err = run_cli(capsys, "frobenius", "-a", "4,6")
        assert code == 2 and "undefined" in err


class TestFibers:
    def test_smoke(self, capsys):
        _, env = run_json(capsys, "fibers", "-a", "2,3")
        fibers = env["result"]["fibers"]
        assert set(fibers) == {"0", "1", "2", "3", "4", "5"}
        assert all(len(tuples) == 1 for tuples in fibers.values())


class TestSelfcheck:
    def test_passes_and_is_deterministic(self, capsys):
        args = ("selfcheck", "--instances", "6", "--max-n", "40", "--seed", "9")
        code1, env1 = run_json(capsys, *args)
        code2, env2 = run_json(capsys, *args)
        assert code1 == code2 == 0
        # everything but the per-check wall times is reproducible
        for env in (env1, env2):
            assert all(chk.pop("ms") >= 0 for chk in env["result"]["checks"])
        assert env1["result"] == env2["result"]
        assert env1["result"]["ok"] is True
        assert env1["instance"] is None
        # the schema requires the time of each check
        with pytest.raises(jsonschema.ValidationError):
            VALIDATOR.validate(env1)

    @pytest.mark.parametrize("flag", ["--instances", "--max-r", "--max-entry", "--box-budget"])
    def test_vacuous_run_is_usage_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "selfcheck", flag, "0")
        assert (code, out) == (2, "")
        assert err == f"usage error: {flag[2:].replace('-', '_')} must be at least 1, got 0\n"

    def test_negative_max_n_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "selfcheck", "--max-n", "-1")
        assert (code, out) == (2, "")
        assert err == "usage error: max_n must be at least 0, got -1\n"


class TestBench:
    def test_values_agree(self, capsys):
        code, env = run_json(
            capsys, "bench", "-a", "3,5", "-n", "200", "--points", "3",
            "--methods", "popoviciu,oracle,product",
        )
        assert code == 0
        assert env["result"]["values_agree"] is True
        assert {row["method"] for row in env["result"]["methods"]} == {
            "popoviciu", "oracle", "product",
        }

    def test_default_methods_of_a_triple(self, capsys):
        code, env = run_json(capsys, "bench", "-a", "6,10,15", "-n", "200", "--points", "4")
        assert code == 0
        assert env["result"]["values_agree"] is True
        assert [row["method"] for row in env["result"]["methods"]] == [
            "product", "stirling", "quasipoly", "oracle", "floorsum",
        ]

    def test_rejects_unknown_method(self, capsys):
        code, _, err = run_cli(capsys, "bench", "-a", "3,5", "-n", "10", "--methods", "magic")
        assert code == 2

    @pytest.mark.parametrize("n_max", [2**53 + 1, 10**400])
    def test_points_are_exact_integers(self, capsys, n_max):
        # float division sampled 2^53 for 2^53 + 1 and overflowed at 10^400
        code, env = run_json(
            capsys, "bench", "-a", "3,5", "-n", str(n_max), "--points", "3", "--methods", "popoviciu",
        )
        assert code == 0
        assert env["result"]["points"] == ["0", str(n_max // 2), str(n_max)]

    @pytest.mark.parametrize("count", ["0", "-1", str(cli.MAX_N_VALUES + 1)])
    def test_points_out_of_range_is_usage_error(self, capsys, count):
        code, out, err = run_cli(capsys, "bench", "-a", "3,5", "-n", "10", "--points", count)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "--points" in err


class TestPlainRendering:
    @pytest.mark.parametrize(
        "argv,needle",
        [
            (("quasipoly", "-a", "1,2"), "n^1: 1/2  1/2"),
            (("polypart", "-a", "1,1"), "P(n) = n + 1"),
            (("frobenius", "-a", "3,5"), "F = 7"),
            (("fibers", "-a", "2,3"), "residue 5"),
            (("selfcheck", "--instances", "3", "--max-n", "20"), "self-check: PASS"),
            (("bench", "-a", "3,5", "-n", "50", "--points", "2"), "values agree: True"),
        ],
    )
    def test_smoke(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, "--plain", *argv)
        assert code == 0, err
        assert needle in out


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_schema_enums_match_route_tables(self):
        results = {
            branch["if"]["properties"]["command"]["const"]: branch["then"]["properties"]["result"]["properties"]
            for branch in SCHEMA["allOf"]
        }
        routes = set(cli._EVAL_METHODS) - {"auto"}
        assert set(results["eval"]["method"]["enum"]) == routes | {"auto"}
        assert set(results["eval"]["resolved_method"]["enum"]) == routes
        assert set(results["bench"]["methods"]["items"]["properties"]["method"]["enum"]) == routes
        assert set(results["polypart"]["method"]["enum"]) == set(cli._POLYPART_ROUTES)
        assert set(results["residues"]["method"]["enum"]) == set(cli._RESIDUE_ROUTES)


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "-a", "3,5", "-n", "0..5"),
        ("quasipoly", "-a", "2,3"),
        ("polypart", "-a", "2,3,4", "--check"),
        ("residues", "-a", "1,2", "--check"),
        ("frobenius", "-a", "3,5,7"),
        ("fibers", "-a", "2,3"),
        ("selfcheck", "--instances", "3", "--max-n", "20"),
        ("bench", "-a", "3,5", "-n", "50", "--points", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_envelope_has_process_ms(capsys, argv):
    # process_ms runs from the package's first statement, so it spans timing_ms
    _, env = run_json(capsys, *argv)
    assert env["process_ms"] >= env["timing_ms"] >= 0


def test_module_entry_point():
    # run as users and shell scripts do: a separate `python -m denumerant.cli`
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "denumerant.cli", "eval", "-a", "3,5", "-n", "8"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout)
    VALIDATOR.validate(envelope)
    assert envelope["result"]["values"] == [{"n": "8", "p": "1"}]


@pytest.mark.parametrize(
    "argv",
    # each output is larger than a pipe's buffer, so the writer meets the closed pipe
    [("quasipoly", "-a", "2,3,5,7"), ("--plain", "quasipoly", "-a", "2,3,5,7,11")],
)
def test_closed_stdout_is_not_an_error(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "denumerant.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
    )
    assert proc.stdout.read(1) in (b"{", b"a")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


# ---------------------------------------------------------------------------
# argv fuzz: every run exits in {0, 2, 3, 4} with one schema-valid envelope
# (or, under --plain, text) on stdout or one line on stderr, never a
# traceback.  The argv always parses (typed options get integers), so
# argparse's own usage text is not in play.

_good_weights = st.lists(st.integers(1, 40), min_size=1, max_size=4).map(lambda a: ",".join(map(str, a)))
_weights = st.one_of(
    _good_weights,
    _good_weights,
    st.sampled_from(["0", "-3", "x", "3,,5", "", "1000000000000,3", "1000,1001,1002"]),
)
_n = st.one_of(
    st.integers(0, 10**40).map(str),
    st.integers(0, 10**4).map(str),
    st.tuples(st.integers(0, 10**40), st.integers(0, 40)).map(lambda t: f"{t[0]}..{t[0] + t[1]}"),
    st.integers(0, 10**4).map(lambda lo: f"{lo}..{lo + 10**7}"),
    st.sampled_from(["-1", "x", "5..2", "1..x", "..", "0..0"]),
)
_d = st.sampled_from(["lcm"] * 4 + ["product", "explicit:720720", "explicit:0", "explicit:x", "bogus"])
_common = st.tuples(_weights, _d).map(lambda t: ["-a", t[0], "-d", t[1]])
_max_box = st.one_of(st.just([]), st.integers(-1, 10**5).map(lambda m: ["--max-box", str(m)]))
_methods = st.lists(st.sampled_from(cli._EVAL_METHODS + ("magic",)), min_size=1, max_size=3)


def _flag(name):
    return st.booleans().map(lambda on: [name] if on else [])


_argv = st.one_of(
    st.tuples(st.just(["eval"]), _common, st.tuples(st.just("-n"), _n).map(list),
              st.sampled_from(cli._EVAL_METHODS).map(lambda m: ["--method", m])),
    st.tuples(st.just(["quasipoly"]), _common),
    st.tuples(st.just(["polypart"]), _common,
              st.sampled_from(cli._POLYPART_METHODS).map(lambda m: ["--method", m]), _flag("--check")),
    st.tuples(st.just(["residues"]), _common,
              st.sampled_from(cli._RESIDUE_METHODS).map(lambda m: ["--method", m]), _flag("--check")),
    st.tuples(st.just(["frobenius"]), _common),
    st.tuples(st.just(["fibers"]), _common),
    st.tuples(st.just(["bench"]), _common, st.tuples(st.just("-n"), _n).map(list),
              st.one_of(st.just([]), _methods.map(lambda ms: ["--methods", ",".join(ms)])),
              st.integers(-1, 6).map(lambda k: ["--points", str(k)])),
)


def _run_fuzzed(argv, env_guard):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"DENUMERANT_MAX_BOX": str(env_guard)}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code)
    if out:
        assert code in (0, 4) and err == "", argv
    else:
        assert code != 0 and err.count("\n") == 1, (argv, err)
    return out


@settings(max_examples=150, deadline=None)
@given(_argv, _max_box, st.integers(-1, 10**5))
def test_argv_fuzz(parts, max_box, env_guard):
    out = _run_fuzzed([x for part in parts for x in part] + max_box, env_guard)
    if out:
        VALIDATOR.validate(json.loads(out))


@settings(max_examples=150, deadline=None)
@given(_argv, _max_box, st.integers(-1, 10**5))
def test_argv_fuzz_plain(parts, max_box, env_guard):
    # the same draws rendered as plain text: output or one stderr line, no traceback
    _run_fuzzed(["--plain"] + [x for part in parts for x in part] + max_box, env_guard)
