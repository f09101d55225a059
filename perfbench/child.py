"""Child processes of the benchmark.

    python3 child.py setup <workload> <src>
        One set-up of a workload in a fresh interpreter: import the package
        and run the workload's warm-up operation.  The parent times the whole
        process; the median over several of these is `setup_s`.

    python3 child.py cli <trace.json> <cli args...>
        One traced CLI call: install the layer tracer, run
        `denumerant.cli.main(<cli args>)` and write the tracer state to
        <trace.json>.  Used only by the traced `cli_session` run.

Imports are kept to the minimum so that set-up time is the package's.
"""

import os
import sys


def cli_command(src, args):
    """argv and environment of one untraced `python -m denumerant.cli` call."""
    env = dict(os.environ, PYTHONPATH=src)
    return [sys.executable, "-m", "denumerant.cli", *args], env


def warm_up(workload, src):
    """The untimed operation each workload runs before its first timed one."""
    if workload == "cli_session":
        import subprocess

        argv, env = cli_command(src, ["eval", "-a", "3,5", "-n", "8"])
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60)
        return
    import denumerant as dn

    if workload == "fiber_batch":
        index = dn.build_fiber_index(dn.make_instance((3, 4, 5)))
        dn.p_product((3, 4, 5), 100, index=index)
    elif workload == "point_queries":
        dn.p((3, 5), 8)
        dn.p((2, 3, 5), 20)
    elif workload == "polypart_high_r":
        dn.polypart_bernoulli((2, 3, 4, 5))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv):
    mode = argv[0]
    if mode == "setup":
        workload, src = argv[1], argv[2]
        sys.path.insert(0, src)
        warm_up(workload, src)
        return 0
    if mode == "cli":
        import json

        out_path, cli_args = argv[1], argv[2:]
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        import denumerant.cli as cli

        frame = tracer.begin_op(0)
        try:
            code = cli.main(cli_args)
        finally:
            tracer.end_op(frame)
            with open(out_path, "w") as fh:
                json.dump(tracer.dump(), fh)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
