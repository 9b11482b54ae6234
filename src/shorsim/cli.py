"""Command-line front end for the simulator and the auditor.

Subcommands: simulate, audit, spectrum, sweep, verify-bounds. Exit status
contract: 0 for success or a compliant audit, 1 for a usage error, running
out of memory or a closed stdout, 2 for a non-compliant audit, nothing else.

All randomness flows from --seed; when the flag is absent the fixed
DEFAULT_SEED is used, never the clock, so every published output is
reproducible byte for byte. Probabilities are printed with 12 significant
digits: more than the 1e-12 normalization tolerance resolves, fewer than
double-precision noise.

``_emit`` writes every table, given as columns: a list of values, or a
range of ints, per key. Each column is formatted with one call, not one per
cell, and the writers join its text into lines a block of rows at a time.
A shorter column is one period of its values: a spectrum dump formats one
gcd(r, q) period.
"""

import argparse
import dataclasses
import functools
import json
import os
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


# Rows per ``out.write``. A block's cells and text are all that is held at
# once: writing a 2^16-row spectrum in one piece peaks ~23 MB higher.
_ROWS_PER_WRITE = 1 << 12


def _cells(values) -> list:
    return list(map(_cell, values))


def _json_cells(values) -> list:
    """JSON text of each value; a float is first rounded to 12 digits.

    One ``json.dumps`` call encodes the whole column, with newline as the
    item separator: JSON text of a scalar never contains a raw newline
    (strings escape it), so splitting on it recovers each value's text.
    """
    if any(issubclass(t, float) for t in set(map(type, values))):
        values = [float(f"{v:.12g}") if isinstance(v, float) else v
                  for v in values]
    return json.dumps(values, separators=("\n", ": "))[1:-1].split("\n")


def _columns(records: list) -> dict:
    """Each key's values across ``records``, keyed in the first's order."""
    return {k: [rec[k] for rec in records] for k in records[0]}


def _texts(cells, columns: dict) -> list:
    """Each column's text by ``cells``; a ``range`` stands for its ``str``s."""
    return [column if isinstance(column, range) else cells(column)
            for column in columns.values()]


def _write_rows(template: str, columns: list, out) -> None:
    """Write ``template % row`` for each row of the text columns.

    There are as many rows as the longest column has; a shorter column's
    text is repeated, which copies references. The lines of each block of
    ``_ROWS_PER_WRITE`` rows are joined into one write.
    """
    rows = max(map(len, columns))
    columns = [col if len(col) == rows else col * (rows // len(col))
               for col in columns]
    for i in range(0, rows, _ROWS_PER_WRITE):
        block = [column[i:i + _ROWS_PER_WRITE] for column in columns]
        out.write("".join(map(template.__mod__, zip(*block))))


def _write_json(keys, columns: list, out) -> None:
    """One JSON object per row, as ``json.dumps`` writes a flat dict."""
    template = ", ".join(
        json.dumps(k).replace("%", "%%") + ": %s" for k in keys
    )
    _write_rows("{" + template + "}\n", columns, out)


def _write_csv(keys, columns: list, out) -> None:
    """A header of the keys, then one comma-separated line per row."""
    out.write(",".join(keys) + "\n")
    _write_rows(",".join(["%s"] * len(keys)) + "\n", columns, out)


def _write_aligned(columns: dict, out) -> None:
    """Right-align each column, header included, to its widest cell."""
    cells = _texts(_cells, columns)
    # A range counts up from 0, so its last int is its widest.
    widths = [
        max(len(k), len(str(col[-1])) if isinstance(col, range)
            else max(map(len, col)))
        for k, col in zip(columns, cells)
    ]
    template = "  ".join(f"%{w}s" for w in widths) + "\n"
    out.write(template % tuple(columns))
    _write_rows(template, cells, out)


def _write_kv(record: dict, out) -> None:
    for k, v in record.items():
        out.write(f"{k} = {_cell(v)}\n")


def _emit(fmt: str, columns: dict, human, out, summary=None) -> None:
    """Write columns as JSON lines, as CSV, or as text via ``human(out)``.

    ``columns`` maps each key to a list of values or a ``range`` of ints.
    ``summary`` holds values about the whole record set: a final JSON
    object, or ``# key = value`` lines after the CSV. The human text
    carries its own.
    """
    if fmt == "structured-record":
        _write_json(columns, _texts(_json_cells, columns), out)
        if summary:
            _write_json(summary, [_json_cells([v]) for v in summary.values()],
                        out)
    elif fmt == "delimited-table":
        _write_csv(columns, _texts(_cells, columns), out)
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
        _emit(args.format, _columns([rec]), lambda out: out.write(
            f"gcd({args.x}, {args.n}) = {exc.factor} already reveals "
            f"the factors {f1} x {f2}; no quantum run needed\n"
        ), out)
        return 0

    if per_trial:
        columns = _columns([t.to_record() for t in traces])

        def human(out):
            inst = traces[0].instance
            out.write(
                f"n = {inst.n}  x = {inst.x}  r = {inst.r}  "
                f"q = {traces[0].q}  ell = {inst.ell}\n"
                f"success_bound = {_cell(pipeline.success_bound(inst.r))}\n\n"
            )
            shown = dataclasses.asdict(inst).keys() | {"q"}  # in the header
            _write_aligned({k: col for k, col in columns.items()
                            if k not in shown}, out)

        _emit(args.format, columns, human, out)
        return 0

    rec = dataclasses.asdict(est)
    for reason, count in rec.pop("failure_counts").items():
        rec[f"failures_{reason}"] = count
    _emit(args.format, _columns([rec]), lambda out: _write_kv(rec, out), out)
    return 0


def cmd_audit(args) -> int:
    out = sys.stdout
    config = auditor.RegisterConfig(
        n=args.n, register1_qubits=args.s, register2_qubits=args.reg2
    )
    # Computed before any output, so a rejected --x leaves stdout empty.
    appl = None
    if args.x is not None:
        appl = auditor.bound_argument_applicability(config, args.x)
    report = auditor.audit(config)
    out.write(report.to_text())
    if appl is not None:
        out.write("\n")
        out.write(f"bound argument at x = {appl.x} (order r = {appl.r}):\n")
        for key in ("applicable", "r_over_q", "p_min", "one_third_bound"):
            value = getattr(appl, key)
            if value is not None:
                out.write(f"  {key} = {_cell(value)}\n")
        out.write(f"  {appl.explanation}\n")
    return 0 if report.verdict is auditor.Verdict.COMPLIANT else 2


def cmd_spectrum(args) -> int:
    out = sys.stdout
    instance = FactoringInstance.create(args.n, args.x)
    q = args.q if args.q is not None else pipeline.choose_q(args.n).q
    table = build_spectrum(instance, q)
    # Every column but c repeats with the period, so one period is passed.
    columns = {
        "c": range(q),
        "marginal_probability": table.period_marginals.tolist(),
        "signed_residue": table.period_residues.tolist(),
        "good_flag": table.period_flags.tolist(),
    }
    summary = {
        # The q/p copies of the period sum alike, and q/p is a power of two.
        "normalization": float(table.period_marginals.sum())
        * (q // len(table.period_marginals)),
        "p_min_good_c": float(
            table.period_marginals[table.period_flags].min()
        ),
    }

    def human(out):
        out.write(
            f"n = {instance.n}  x = {instance.x}  r = {instance.r}  "
            f"q = {q}\n\n"
        )
        _write_aligned(columns, out)
        out.write("\n")
        _write_kv(summary, out)

    _emit(args.format, columns, human, out, summary)
    return 0


def cmd_sweep(args) -> int:
    out = sys.stdout
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    if not args.n_list:
        raise ValueError("--n-list must name at least one modulus")
    for n in args.n_list:
        pipeline.validate_modulus(n)

    # Each accepted pair spawns the master's next child, so the pairs get
    # SeedSequence(seed).spawn(count) in order, skipped pairs taking none.
    master = np.random.SeedSequence(args.seed)
    rows = []
    # Every validated n is odd, so the default base 2 is always a unit.
    for n in args.n_list:
        for x in args.bases or [2]:
            try:
                instance = FactoringInstance.create(n, x)
            except nt.NotAUnitError as exc:
                print(
                    f"skipping n = {n}, x = {x}: gcd = "
                    f"{exc.factor} already factors n",
                    file=sys.stderr,
                )
                continue
            except ValueError:
                print(
                    f"skipping n = {n}, x = {x}: base out of range",
                    file=sys.stderr,
                )
                continue
            [seed] = master.spawn(1)
            est = pipeline.estimate_success(n, x, args.trials, seed)
            bound = verify_bounds(instance, est.q)
            rows.append({
                "n": n,
                "x": x,
                "r": est.r,
                "phi_r": est.phi_r,
                "success_bound": est.success_bound,
                "order_recovery_rate": est.order_recovery_rate,
                "factor_rate": est.factor_rate,
                "p_min": bound.p_min,
                "one_third_bound": bound.one_third_bound,
            })
    if not rows:
        raise ValueError("no valid (n, x) pairs to sweep")
    _write_aligned(_columns(rows), out)
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
                        "(default: 2, a unit mod every odd n)")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and shared by later calls.

    Parsing reads the parser and writes only the fresh namespace it
    returns, so calls share no state.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not at exit
        return code
    except ValueError as exc:
        # Validation failures, NotAUnitError included, are usage errors.
        print(f"shorsim: error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"shorsim: error: out of memory: {exc}", file=sys.stderr)
    except BrokenPipeError:
        # Buffered text goes to devnull, so the exit's flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("shorsim: error: stdout closed early", file=sys.stderr)
    return 1
