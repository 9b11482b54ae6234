"""Command-line front end for the simulator and the auditor.

Subcommands: simulate, audit, spectrum, sweep, verify-bounds. Exit status
contract: 0 for success or a compliant audit, 1 for usage errors, 2 for a
non-compliant audit, and nothing else.

All randomness flows from --seed; when the flag is absent the fixed
DEFAULT_SEED is used, never the clock, so every published output is
reproducible byte for byte. Probabilities are printed with 12 significant
digits: more than the 1e-12 normalization tolerance resolves, fewer than
double-precision noise.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import auditor, numtheory as nt, pipeline
from .spectrum import FactoringInstance, build_spectrum, verify_bounds

# Fixed default so README transcripts reproduce without flags.
DEFAULT_SEED = 1729

FORMATS = ("human", "delimited-table", "structured-record")

# simulate prints one row per trial up to this many trials, else an aggregate.
MAX_TRACE_ROWS = 20


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the exit contract
    # reserves 2 for non-compliant audits, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _jsonable(record: dict) -> dict:
    return {
        k: float(f"{v:.12g}") if isinstance(v, float) else v
        for k, v in record.items()
    }


def _write_csv(records: list, out) -> None:
    keys = list(records[0])
    out.write(",".join(keys) + "\n")
    for rec in records:
        out.write(",".join(_cell(rec[k]) for k in keys) + "\n")


def _write_aligned(records: list, out, keys=None) -> None:
    keys = list(records[0]) if keys is None else keys
    cells = [[_cell(rec[k]) for k in keys] for rec in records]
    widths = [
        max(len(k), max(len(row[i]) for row in cells))
        for i, k in enumerate(keys)
    ]
    out.write("  ".join(k.rjust(w) for k, w in zip(keys, widths)) + "\n")
    for row in cells:
        out.write("  ".join(v.rjust(w) for v, w in zip(row, widths)) + "\n")


def _write_kv(record: dict, out) -> None:
    for k, v in record.items():
        out.write(f"{k} = {_cell(v) if v is not None else 'none'}\n")


def _emit(fmt: str, records: list, human, out, summary=None) -> None:
    """Write records as JSON lines, as CSV, or as text via ``human(out)``.

    ``summary`` holds values about the whole record set: a final JSON
    object, or ``# key = value`` lines after the CSV. The human text
    carries its own.
    """
    if fmt == "structured-record":
        for rec in records + ([summary] if summary else []):
            out.write(json.dumps(_jsonable(rec)) + "\n")
    elif fmt == "delimited-table":
        _write_csv(records, out)
        for k, v in (summary or {}).items():
            out.write(f"# {k} = {_cell(v)}\n")
    else:
        human(out)


def cmd_simulate(args) -> int:
    out = sys.stdout
    per_trial = args.trials <= MAX_TRACE_ROWS
    try:
        if per_trial:
            traces = pipeline.run_trials(
                args.n, args.x, args.trials, args.seed
            )
        else:
            est = pipeline.estimate_success(
                args.n, args.x, args.trials, args.seed
            )
    except nt.NotAUnitError as exc:
        # Success by accident: the base already shares a factor with n.
        f1, f2 = sorted((exc.factor, args.n // exc.factor))
        rec = {
            "event": "accidental_factor",
            "n": args.n,
            "x": args.x,
            "gcd": exc.factor,
            "factor_1": f1,
            "factor_2": f2,
        }
        _emit(args.format, [rec], lambda out: out.write(
            f"gcd({args.x}, {args.n}) = {exc.factor} already reveals "
            f"the factors {f1} x {f2}; no quantum run needed\n"
        ), out)
        return 0

    if per_trial:
        records = [t.to_record() for t in traces]

        def human(out):
            inst = traces[0].instance
            out.write(
                f"n = {inst.n}  x = {inst.x}  r = {inst.r}  "
                f"q = {traces[0].q}  ell = {inst.ell}\n"
            )
            out.write(
                f"success_bound = {pipeline.success_bound(inst.r):.12g}\n\n"
            )
            keys = [
                "sampled_c", "sampled_k", "recovered_d", "recovered_r",
                "order_verified", "factor_1", "factor_2", "failure_reason",
            ]
            _write_aligned(records, out, keys=keys)

        _emit(args.format, records, human, out)
        return 0

    rec = dataclasses.asdict(est)
    for reason, count in rec.pop("failure_counts").items():
        rec[f"failures_{reason}"] = count
    _emit(args.format, [rec], lambda out: _write_kv(rec, out), out)
    return 0


def cmd_audit(args) -> int:
    out = sys.stdout
    config = auditor.RegisterConfig(
        n=args.n, register1_qubits=args.s, register2_qubits=args.reg2
    )
    report = auditor.audit(config)
    out.write(report.to_text())
    if args.x is not None:
        appl = auditor.bound_argument_applicability(config, args.x)
        out.write("\n")
        out.write(f"bound argument at x = {appl.x} (order r = {appl.r}):\n")
        out.write(f"  applicable = {_cell(appl.applicable)}\n")
        out.write(f"  r_over_q = {appl.r_over_q:.12g}\n")
        if appl.p_min is not None:
            out.write(f"  p_min = {appl.p_min:.12g}\n")
            out.write(f"  one_third_bound = {appl.one_third_bound:.12g}\n")
        out.write(f"  {appl.explanation}\n")
    return 0 if report.verdict is auditor.Verdict.COMPLIANT else 2


def cmd_spectrum(args) -> int:
    out = sys.stdout
    instance = FactoringInstance.create(args.n, args.x)
    q = args.q if args.q is not None else pipeline.choose_q(args.n).q
    table = build_spectrum(instance, q)
    records = [
        {
            "c": c,
            "marginal_probability": p,
            "signed_residue": t,
            "good_flag": flag,
        }
        for c, p, t, flag in table.rows()
    ]
    summary = {
        "normalization": float(table.marginals.sum()),
        "p_min_good_c": float(table.marginals[table.good_flags].min()),
    }

    def human(out):
        out.write(
            f"n = {instance.n}  x = {instance.x}  r = {instance.r}  "
            f"q = {q}\n\n"
        )
        _write_aligned(records, out)
        out.write("\n")
        _write_kv(summary, out)

    _emit(args.format, records, human, out, summary)
    return 0


def cmd_sweep(args) -> int:
    out = sys.stdout
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    if not args.n_list:
        raise ValueError("--n-list must name at least one modulus")
    for n in args.n_list:
        pipeline.validate_modulus(n)

    pairs = []
    for n in args.n_list:
        if args.bases:
            for x in args.bases:
                if not 2 <= x <= n - 1:
                    print(
                        f"skipping n = {n}, x = {x}: base out of range",
                        file=sys.stderr,
                    )
                elif math.gcd(x, n) != 1:
                    print(
                        f"skipping n = {n}, x = {x}: gcd = "
                        f"{math.gcd(x, n)} already factors n",
                        file=sys.stderr,
                    )
                else:
                    pairs.append((n, x))
        else:
            x = 2
            while math.gcd(x, n) != 1:
                x += 1
            pairs.append((n, x))

    if not pairs:
        raise ValueError("no valid (n, x) pairs to sweep")
    seeds = np.random.SeedSequence(args.seed).spawn(len(pairs))
    rows = []
    for (n, x), seed in zip(pairs, seeds):
        est = pipeline.estimate_success(n, x, args.trials, seed)
        bound = verify_bounds(
            FactoringInstance.create(n, x), pipeline.choose_q(n).q
        )
        rows.append(
            {
                "n": n,
                "x": x,
                "r": est.r,
                "phi_r": est.phi_r,
                "success_bound": est.success_bound,
                "order_recovery_rate": est.order_recovery_rate,
                "factor_rate": est.factor_rate,
                "p_min": bound.p_min,
                "one_third_bound": bound.one_third_bound,
            }
        )
    _write_aligned(rows, out)
    return 0


def cmd_verify_bounds(args) -> int:
    out = sys.stdout
    instance = FactoringInstance.create(args.n, args.x)
    q = pipeline.choose_q(args.n).q
    report = verify_bounds(instance, q)
    _write_kv(dataclasses.asdict(report), out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shorsim",
        description="Exact order-finding simulation and register auditing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate", help="run end-to-end order-finding trials"
    )
    p.add_argument("--n", type=int, required=True,
                   help="odd composite modulus, not a prime power")
    p.add_argument("--x", type=int, required=True,
                   help="base, 2 <= x <= n - 1")
    p.add_argument("--trials", type=int, default=1,
                   help="number of independent trials (default 1)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"master seed (default {DEFAULT_SEED})")
    p.add_argument("--format", choices=FORMATS, default="human")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "audit", help="audit register widths against the sizing conditions"
    )
    p.add_argument("--n", type=int, required=True, help="modulus")
    p.add_argument("--s", type=int, required=True,
                   help="argument register width in qubits (q = 2^s)")
    p.add_argument("--reg2", type=int, required=True,
                   help="function register width in qubits")
    p.add_argument("--x", type=int, default=None,
                   help="optional base for the bound-argument check")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "spectrum", help="dump the exact measurement distribution over c"
    )
    p.add_argument("--n", type=int, required=True, help="modulus")
    p.add_argument("--x", type=int, required=True, help="base coprime to n")
    p.add_argument("--q", type=int, default=None,
                   help="register dimension override, any power of two")
    p.add_argument("--format", choices=FORMATS, default="human")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser(
        "sweep", help="tabulate empirical rates against bounds over instances"
    )
    p.add_argument("--n-list", type=_int_list, required=True,
                   help="comma-separated moduli, e.g. 15,21,35")
    p.add_argument("--bases", type=_int_list, default=None,
                   help="comma-separated bases applied to every n "
                        "(default: smallest coprime base per n)")
    p.add_argument("--trials", type=int, default=2000,
                   help="trials per (n, x) pair (default 2000)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"master seed (default {DEFAULT_SEED})")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "verify-bounds", help="check the probability floor for one instance"
    )
    p.add_argument("--n", type=int, required=True, help="modulus")
    p.add_argument("--x", type=int, required=True, help="base coprime to n")
    p.set_defaults(func=cmd_verify_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Validation failures, NotAUnitError included, are usage errors.
        print(f"shorsim: error: {exc}", file=sys.stderr)
        return 1
