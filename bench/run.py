"""shorsim benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload W] [--seed S] [--seconds T] [--trace 0|1]

Run from the repository root (the program is imported from ``src/``; nothing
is installed or built). With ``--workload`` it measures one workload and
prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
Without ``--workload`` it runs every workload, and without ``--trace`` both
modes, printing each result line after its report.

Load shape: a closed loop with one client. Each workload runs in one fresh
child process with BLAS threads off; the child imports shorsim once and then
calls ``shorsim.cli.main(argv)`` for each operation in sequence, repeating
the operation list until ``--seconds`` have passed; the first pass is a
warm-up. Set-up time is the median of ten process launches, each
calibrated by one kernel run right after its import. Every
operation's stdout is checked (see workloads.py), and the README cases at
seed 1729 are checked untimed before timing starts.

Times are calibrated: the child runs a fixed kernel (calibrate.py) between
operations, and every time it reports is scaled by ``REF_S`` over the
kernel's mean time in that run, so that a machine-wide slowdown during a run
cancels. The raw times are printed alongside.

Every invocation also runs ``simulate --n 10403 --x 2 --trials 2000`` once,
untimed, as its own CLI process under a 1 GiB address-space limit, and
records whether it completed, its exit status and its peak RSS.

Metrics are comparable only between runs on the same machine; each run
prints its environment (cores, memory, Python, numpy, commit).
"""

import argparse
import hashlib
import json
import os
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from calibrate import REF_S  # noqa: E402

SETUP_CHILDREN = 10
PROBE_AS_LIMIT = 1 << 30
PROBE_TIMEOUT_S = 60
CHILD_SLACK_S = 60

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

COMMANDS = ("simulate", "sweep", "verify-bounds", "audit", "spectrum")

PER_LAYER = {
    "numtheory.order_oracle.calls": "count",
    "numtheory.order_oracle.s": "s",
    "numtheory.recover_rational.calls": "count",
    "numtheory.recover_rational.s": "s",
    "numtheory.cf_terms": "count",
    "numtheory.mod_pow.calls": "count",
    "numtheory.mod_pow.s": "s",
    "numtheory.euler_phi.calls": "count",
    "numtheory.euler_phi.s": "s",
    "spectrum.instance.calls": "count",
    "spectrum.instance.s": "s",
    "spectrum.build.calls": "count",
    "spectrum.build.s": "s",
    "spectrum.build.q_total": "count",
    "spectrum.build.retained_bytes": "bytes",
    "spectrum.build.rss_delta_mb": "MB",
    "spectrum.build.duplicate": "count",
    "spectrum.build.share_of_wall": "ratio",
    "spectrum.joint.calls": "count",
    "spectrum.joint.s": "s",
    "spectrum.verify_bounds.calls": "count",
    "spectrum.verify_bounds.s": "s",
    "spectrum.verify_bounds.good_c": "count",
    "spectrum.rows.count": "count",
    "pipeline.trials": "count",
    "pipeline.run_trials.s": "s",
    "pipeline.self_s": "s",
    "pipeline.recover.calls": "count",
    "pipeline.recover.s": "s",
    "pipeline.recover.none": "count",
    "pipeline.distinct_c_ratio": "ratio",
    "pipeline.factor_ratio": "ratio",
    "auditor.audit.calls": "count",
    "auditor.audit.s": "s",
    "auditor.pair_count.calls": "count",
    "auditor.pair_count.s": "s",
    "auditor.pair_count.scanned": "count",
    "auditor.pair_count.fractions": "count",
    "auditor.pair_count.share_of_audit_cmd": "ratio",
    "auditor.count_fractions.s": "s",
    "auditor.applicability.s": "s",
    "auditor.cfe_flag_contradicts_evidence": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "cli.out_rows": "count",
    **{f"cmd.{c.replace('-', '_')}_s": "s" for c in COMMANDS},
    "trials_per_s": "1/s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
    "probe.n10403.completed": "count",
    "probe.n10403.exit_code": "count",
    "probe.n10403.peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Set-up time is measured with bytecode caching on, as after an install.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, timeout, preexec_fn=None) -> dict:
    """Run a child to completion; return its output, status and peak RSS.

    The child is reaped with wait4 so that its own ru_maxrss is known even
    when it dies; on timeout it is killed and still reaped.
    """
    launched = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=preexec_fn,
    )
    out, err = bytearray(), bytearray()
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            remaining = launched + timeout - time.monotonic()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    key.data.extend(chunk)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "launched": launched,
        "code": proc.returncode,
        "timed_out": timed_out,
        "stdout": out.decode(errors="replace"),
        "stderr": err.decode(errors="replace"),
        "maxrss_mb": usage.ru_maxrss / 1024,
    }


def run_child(mode, workload=None, seed=None, seconds=None) -> dict:
    argv = [sys.executable, str(BENCH / "child.py"), "--mode", mode]
    timeout = 30
    if mode != "setup":
        argv += ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds)]
        timeout = seconds + CHILD_SLACK_S
    res = spawn(argv, timeout)
    lines = res["stdout"].strip().splitlines()
    if res["code"] != 0 or res["timed_out"] or not lines:
        tail = res["stderr"].strip().splitlines()[-5:]
        raise ChildFailed(
            f"{mode} child exited {res['code']}"
            f"{' after a timeout' if res['timed_out'] else ''}: "
            + " | ".join(tail)
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - res["launched"]
    result["maxrss_mb"] = res["maxrss_mb"]
    return result


def run_probe() -> dict:
    """The n = 10403 simulate as its own CLI process under an AS limit."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS,
                           (PROBE_AS_LIMIT, PROBE_AS_LIMIT))

    res = spawn([sys.executable, "-m", "shorsim", *wl.PROBE_ARGV],
                PROBE_TIMEOUT_S, preexec_fn=limit)
    tail = res["stderr"].strip().splitlines()
    return {
        "completed": int(res["code"] == 0 and not res["timed_out"]),
        "exit_code": res["code"],
        "timed_out": res["timed_out"],
        "peak_rss_mb": res["maxrss_mb"],
        "error": tail[-1] if tail else "",
    }


def environment(child_env_report: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE")
        * os.sysconf("SC_PHYS_PAGES") // (1 << 20),
        **child_env_report,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def calibrated(result, ops) -> tuple:
    """Mean times of the timed passes in reference seconds, and the slowdown.

    The slowdown is the kernel's mean time over the timed passes (all but the
    warm-up) divided by ``REF_S``; every pass time is divided by it. Other
    tenants of a shared machine slow the kernel and the workload alike, in
    phases longer than a pass, so the scaled times keep still where the raw
    fastest or median pass moves by a quarter between runs (see README.md).
    """
    timed = result["passes"][1:]
    slowdown = (sum(p["ref_s"] for p in timed)
                / sum(p["refs"] for p in timed) / REF_S)
    per_op = [sum(p["op_s"][i] for p in timed) / len(timed) / slowdown
              for i in range(len(ops))]
    times = {"wall_s": sum(per_op)}
    for c in COMMANDS:
        times[f"cmd.{c.replace('-', '_')}_s"] = sum(
            t for t, argv in zip(per_op, ops) if argv[0] == c
        )
    times["trials_per_s"] = sum(wl.trials_in(a) for a in ops) / sum(per_op)
    return times, slowdown


def end_to_end(workload, seed, seconds):
    setups = [run_child("setup") for _ in range(SETUP_CHILDREN)]
    res = run_child("run", workload, seed, seconds)
    times, slowdown = calibrated(res, wl.operations(workload, seed))
    metrics = {
        "wall_s": times.pop("wall_s"),
        "setup_s": statistics.median(
            c["setup_s"] * REF_S / c["kernel_s"] for c in setups),
        "peak_rss_mb": res["warmup_maxrss_kb"] / 1024,
    }
    notes = {
        "passes": len(res["passes"]) - 1,
        "slowdown": slowdown,
        "raw_wall_s": metrics["wall_s"] * slowdown,
        "raw_setup_s": statistics.median(c["setup_s"] for c in setups),
        "maxrss_mb_with_kernel": res["maxrss_mb"],
        "setup_samples": len(setups),
        **times,
        "auditor.cfe_flag_contradicts_evidence": res["passes"][0]["cfe"],
    }
    return metrics, notes, [res]


def per_layer(workload, seed, seconds):
    ops = wl.operations(workload, seed)
    plain = run_child("run", workload, seed, seconds / 2)
    traced = run_child("traced", workload, seed, seconds / 2)
    traced_times, traced_slowdown = calibrated(traced, ops)
    timed = traced["passes"][1:]
    metrics = {}
    for name in timed[0]["layers"]:
        values = [p["layers"][name] for p in traced["passes"]]
        if PER_LAYER[name] == "s":
            metrics[name] = statistics.fmean(values[1:]) / traced_slowdown
        elif name == "spectrum.build.rss_delta_mb":
            # Peak RSS only grows on the first build of a process.
            metrics[name] = max(values)
        else:
            metrics[name] = values[1]
    times, slowdown = calibrated(plain, ops)
    metrics.update(times)
    metrics.update({
        "trace.wall_s": traced_times["wall_s"],
        "trace.untraced_wall_s": metrics["wall_s"],
        "trace.overhead": traced_times["wall_s"] / metrics.pop("wall_s") - 1,
        "auditor.cfe_flag_contradicts_evidence": plain["passes"][0]["cfe"],
    })
    notes = {"passes": len(plain["passes"]) - 1,
             "traced_passes": len(timed),
             "slowdown": slowdown,
             "traced_slowdown": traced_slowdown}
    return metrics, notes, [plain, traced]


def measure(workload, seed, seconds, trace):
    """Measure one workload; return (result line, human-readable lines)."""
    probe = run_probe()
    if trace:
        metrics, notes, children = per_layer(workload, seed, seconds)
        metrics.update({f"probe.n10403.{k}": probe[k]
                        for k in ("completed", "exit_code", "peak_rss_mb")})
        units = PER_LAYER
    else:
        metrics, notes, children = end_to_end(workload, seed, seconds)
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise ChildFailed(f"metrics not produced: {sorted(missing)}")
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    errors = [e for c in children for e in c["errors"]]
    lines = [
        f"workload {workload}  seed {seed}  trace {trace}",
        "env " + json.dumps(environment(children[0]["env"])),
        f"  error_rate = {failed / attempted!r} ({failed} failed of "
        f"{attempted} operations attempted)",
    ]
    lines += [f"  {k} = {metrics[k]!r} {units[k]}" for k in units]
    lines += [f"  [{k} = {v!r}]" for k, v in notes.items()]
    lines.append("  probe " + json.dumps(probe))
    lines += [f"  FAILED {e}" for e in errors]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "shorsim" / "__init__.py").is_file():
        print(f"shorsim sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    jobs = [
        (w, t)
        for w in ([args.workload] if args.workload else wl.WORKLOADS)
        for t in ([args.trace] if args.trace is not None else (0, 1))
    ]
    try:
        for workload, trace in jobs:
            result, lines = measure(workload, args.seed, args.seconds, trace)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
