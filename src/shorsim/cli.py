"""Command-line front end for the simulator and the auditor.

Subcommands: simulate, audit, spectrum, sweep, verify-bounds. Exit status
contract: 0 for success or a compliant audit, 1 for a usage error, running
out of memory or a closed stdout, 2 for a non-compliant audit, nothing else.

All randomness flows from --seed; when the flag is absent the fixed
DEFAULT_SEED is used, never the clock, so every published output is
reproducible byte for byte. Probabilities are printed with 12 significant
digits: more than the 1e-12 normalization tolerance resolves, fewer than
double-precision noise.

``_emit`` writes every table, given as columns: a list of values, a numpy
array or a range of ints, per key. The writers take a block of rows at a
time and format each column's cells in it with one call, not one per cell.
A numpy array of bools, ints or floats, as a spectrum dump's columns are,
is turned into its texts by one C-level call per block; the .12g text of
each of its floats is made once and, in JSON, reused as the JSON text.
The first column has a value per row; the others may hold one period of
values, as a spectrum dump's hold q/g values of c (g = gcd(r, q)). Each
block of the period is formatted once, into a template that lacks only the
first column's cells, and each write fills one with a single ``%``.
"""

import argparse
import dataclasses
import functools
import json
import os
import shlex
import sys
from itertools import chain

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


# Rows per ``out.write``, and so per formatting call: a block's cells and
# text are all that is held at once. In one block, the 2^20-row JSON dump
# ``spectrum --n 21 --x 4 --q 1048576`` peaks at ~622 MB, not ~68 MB.
_ROWS_PER_WRITE = 1 << 12


def _listed(values) -> list:
    """A column's values as a list of Python scalars."""
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


_BOOL_TEXT = ("false", "true")
# One cell of an int or a float array, as ``_cell`` spells its value.
_TEMPLATE = {"i": "%d\n", "u": "%d\n", "f": "%.12g\n"}
# The least positive normal double. A subnormal one holds fewer than 12
# digits, so its .12g text can read back as another double.
_TINY = np.finfo(np.float64).tiny


def _kind(values) -> str:
    """The dtype kind ("b", "i", "u" or "f") of an array whose ``tolist``
    gives Python bools, ints or floats; "" for any other column."""
    if not isinstance(values, np.ndarray):
        return ""
    kind = values.dtype.kind
    if kind in "biu" or kind == "f" and values.dtype.itemsize <= 8:
        return kind
    return ""


def _text(values: np.ndarray, kind: str) -> str:
    """Each value's cell, ended by a newline, all made by one ``%``."""
    return _TEMPLATE[kind] * len(values) % tuple(values.tolist())


def _typed_cells(values: np.ndarray, kind: str) -> list:
    """The cells of an array of ``_kind`` ``kind``, from one C-level call."""
    if kind == "b":
        return [_BOOL_TEXT[v] for v in values.tolist()]
    return _text(values, kind).split("\n")[:-1]


def _cells(values) -> list:
    """``_cell``'s text of each value.

    A bool, int or float array, as a spectrum dump's period columns are,
    takes one C-level call for the whole block, not one ``_cell`` per
    value.
    """
    kind = _kind(values)
    if kind:
        return _typed_cells(values, kind)
    return list(map(_cell, _listed(values)))


def _json_cells(values) -> list:
    """JSON text of each value; a float is first rounded to 12 digits.

    Bool and int arrays are spelled as ``_cells`` spells them. A float
    array's .12g texts are made once: t is ``json.dumps(float(t))`` with
    ".0" added when it has no "." or "e", provided every value is zero or
    a finite normal double and no t reads "e+" (|v| rounds to 1e12 or
    more, which ``json.dumps`` writes in full). Any other column is
    rounded, then encoded by one ``json.dumps`` call, with newline as the
    item separator: JSON text of a scalar never contains a raw newline
    (strings escape it), so splitting on it recovers each value's text.
    """
    kind = _kind(values)
    if kind == "f":
        text = _text(values, kind)
        magnitude = np.abs(values)
        if "e+" not in text and np.all(
                (magnitude == 0)
                | (magnitude >= _TINY) & np.isfinite(magnitude)):
            return [t if "." in t or "e" in t else t + ".0"
                    for t in text.split("\n")[:-1]]
    elif kind:
        return _typed_cells(values, kind)
    values = _listed(values)
    if any(issubclass(t, float) for t in set(map(type, values))):
        values = [float(f"{v:.12g}") if isinstance(v, float) else v
                  for v in values]
    return json.dumps(values, separators=("\n", ": "))[1:-1].split("\n")


def _columns(records: list) -> dict:
    """Each key's values across ``records``, keyed in the first's order."""
    return {k: [rec[k] for rec in records] for k in records[0]}


def _write_rows(head: str, tail: str, columns: list, cells, out) -> None:
    """Write one line ``head + tail`` per row, filled with its cells.

    ``head`` holds the first column's field and ``tail`` the others'. The
    first column has a value per row; every other column holds one period
    of values, repeated down the rows. Each block of at most
    ``_ROWS_PER_WRITE`` rows of the period becomes a template once:
    ``cells`` formats the block's values of the other columns, which fill
    its lines, ``%`` escaped, so only the first column's fields are left.
    One ``%`` on the first column's cells then writes a block; a ``range``
    stays ints, which ``%`` formats in C. The templates are kept only
    while the period repeats.
    """
    first, *rest = columns
    rows = len(first)
    period = len(rest[0]) if rest else rows
    # ``line % cells`` fills the tail's fields and gives back the head, and
    # the tail's escaped %, as they were: a template with only the first
    # field left. Unless a cell brings a %, each such line holds ``marks``.
    line = head.replace("%", "%%") + tail.replace("%%", "%%%%")
    marks = (line % (("",) * len(rest))).count("%")

    def templates():
        for i in range(0, period, _ROWS_PER_WRITE):
            n = min(_ROWS_PER_WRITE, period - i)
            texts = [cells(col[i:i + n]) for col in rest]
            template = (line * n) % tuple(chain.from_iterable(zip(*texts)))
            if template.count("%") != n * marks:
                # A cell brought %: escape each line's text, padding and all.
                template = head + head.join(
                    (tail % row).replace("%", "%%") for row in zip(*texts))
            yield i, n, template

    blocks = templates() if period == rows else list(templates())
    for start in range(0, rows, period):
        for i, n, template in blocks:
            part = first[start + i:start + i + n]
            if not isinstance(part, range):
                part = cells(part)
            out.write(template % tuple(part))


def _write_json(keys, columns: list, out) -> None:
    """One JSON object per row, as ``json.dumps`` writes a flat dict."""
    first, *rest = (json.dumps(k).replace("%", "%%") + ": %s" for k in keys)
    _write_rows("{" + first, "".join(", " + f for f in rest) + "}\n",
                columns, _json_cells, out)


def _write_csv(keys, columns: list, out) -> None:
    """A header of the keys, then one comma-separated line per row."""
    out.write(",".join(keys) + "\n")
    _write_rows("%s", ",%s" * (len(keys) - 1) + "\n", columns, _cells, out)


def _write_aligned(columns: dict, out) -> None:
    """Right-align each column, header included, to its widest cell."""
    # Formatted once, here, for the widths; a range stays ints.
    texts = [col if isinstance(col, range) else _cells(col)
             for col in columns.values()]
    # A range counts up from 0, so its last int is its widest.
    widths = [
        max(len(k), len(str(col[-1])) if isinstance(col, range)
            else max(map(len, col)))
        for k, col in zip(columns, texts)
    ]
    first, *rest = (f"%{w}s" for w in widths)
    tail = "".join("  " + f for f in rest) + "\n"
    out.write((first + tail) % tuple(columns))
    _write_rows(first, tail, texts, lambda text: text, out)


def _write_kv(record: dict, out) -> None:
    for k, v in record.items():
        out.write(f"{k} = {_cell(v)}\n")


def _emit(fmt: str, columns: dict, human, out, summary=None) -> None:
    """Write columns as JSON lines, as CSV, or as text via ``human(out)``.

    ``columns`` maps each key to a list of values, a numpy array or a
    ``range`` of ints.
    ``summary`` holds values about the whole record set: a final JSON
    object, or ``# key = value`` lines after the CSV. The human text
    carries its own.
    """
    if fmt == "structured-record":
        _write_json(columns, list(columns.values()), out)
        if summary:
            _write_json(summary, [[v] for v in summary.values()], out)
    elif fmt == "delimited-table":
        _write_csv(columns, list(columns.values()), out)
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
    # Every column but c repeats with the period, so one period is passed,
    # as arrays: the writers take Python values a block at a time.
    columns = {
        "c": range(q),
        "marginal_probability": table.period_marginals,
        "signed_residue": table.period_residues,
        "good_flag": table.period_flags,
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
        # A MemoryError raised by Python itself carries no text; name the
        # command that ran out instead.
        cause = str(exc) or shlex.join(
            sys.argv[1:] if argv is None else argv
        )
        print(f"shorsim: error: out of memory: {cause}", file=sys.stderr)
    except BrokenPipeError:
        # Buffered text goes to devnull, so the exit's flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("shorsim: error: stdout closed early", file=sys.stderr)
    return 1
