"""One benchmark child process: import shorsim once, then run operations.

Usage (started by run.py, with ``src`` on PYTHONPATH and BLAS threads off):

    python3 bench/child.py --mode setup
    python3 bench/child.py --mode {run,traced} --workload W --seed S \
        --seconds T

``setup`` reports when ``import shorsim`` finished, then runs the
calibration kernel once and reports its time. ``run`` checks the README
cases untimed, then repeats the workload's operation list until
``--seconds`` have passed (at least twice; the first pass is the warm-up),
timing each ``shorsim.cli.main`` call and checking its stdout. Between the
operations of the timed passes it runs the calibration kernel on the
workload's schedule (see calibrate.py and ``workloads.CALIBRATION``). It
reports every operation's time and the kernel's time in every pass, and the
peak RSS at the end of the warm-up pass, before the kernel first ran, as the
program's own. ``traced`` does the same with the layer wrappers installed.
The result is one JSON object on the last line of stdout.
"""

import time


def main() -> int:
    import shorsim

    ready = time.monotonic()

    import argparse
    import contextlib
    import io
    import json
    import re
    import resource
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(shorsim.__file__).resolve().parent != src / "shorsim":
        print(f"shorsim imported from {shorsim.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "traced"),
                        required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    if args.mode == "setup":
        from calibrate import kernel

        print(json.dumps({"ready": ready, "kernel_s": kernel()}))
        return 0

    import numpy as np
    from shorsim import cli, pipeline
    from shorsim import numtheory as nt

    import workloads as wl
    from calibrate import kernel

    ops = wl.operations(args.workload, args.seed)
    readme_ops = [argv for argv, _, _ in wl.README_CASES]
    oracle = wl.Oracle(ops + readme_ops, nt.order_oracle, pipeline.choose_q,
                       nt.euler_phi)
    attempted, errors = 0, []

    def call(argv, main=cli.main):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation that raises has failed
            code = f"{type(exc).__name__}: {exc}"
        return code, out.getvalue(), time.perf_counter() - t0

    def judge(argv, verdict):
        nonlocal attempted
        attempted += 1
        if verdict is not None:
            errors.append(f"{wl.op_key(argv)}: {verdict}")

    def checked(check, *a):
        try:
            return check(*a)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unparseable output ({type(exc).__name__}: {exc})"

    for argv, kind, want in wl.README_CASES:
        code, out, _ = call(argv)
        judge(argv, checked(wl.Oracle.check_readme, kind, want, code, out)
              or checked(oracle.check, argv, code, out))

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = lambda argv: tracer.run_op(cli.main, argv)  # noqa: E731
    else:
        run = cli.main

    every, units = wl.CALIBRATION[args.workload]
    passes = []
    deadline = time.monotonic() + args.seconds
    while True:
        op_s, out_bytes, out_rows, cfe = [], 0, 0, 0
        ref_s, refs = 0.0, 0
        for i, argv in enumerate(ops):
            if passes and i % every == 0:
                for _ in range(units):
                    ref_s += kernel()
                    refs += 1
            code, out, dt = call(argv, run)
            op_s.append(dt)
            out_bytes += len(out.encode())
            out_rows += out.count("\n")
            judge(argv, checked(oracle.check, argv, code, out))
            cfe += wl.cfe_contradictions(argv, out) if code in (0, 2) else 0
        record = {"op_s": op_s, "ref_s": ref_s, "refs": refs, "cfe": cfe}
        if tracer:
            record["layers"] = tracer.metrics(out_bytes, out_rows)
            tracer.reset()
        passes.append(record)
        if len(passes) == 1:
            # Peak RSS of the program alone: the kernel has not run yet.
            warmup_maxrss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        if len(passes) >= 2 and time.monotonic() >= deadline:
            break
    if tracer:
        tracer.uninstall()

    status = Path("/proc/self/status").read_text()
    threads = re.search(r"^Threads:\s*(\d+)", status, re.M)
    print(json.dumps({
        "ready": ready,
        "passes": passes,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:20],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "warmup_maxrss_kb": warmup_maxrss_kb,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "threads": int(threads.group(1)) if threads else None,
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
