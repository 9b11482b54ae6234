"""The CLI writers write the bytes the row-wise ones wrote.

``ref_*`` below are the row-wise writers the CLI used before it formatted
one column at a time, kept verbatim as the reference: they take one dict
per row. Each ``simulate``, ``sweep`` and ``verify-bounds`` case is run
twice, once as it stands and once with ``cli._emit`` and
``cli._write_aligned`` replaced by the reference fed the same values row by
row, and the two stdouts must be equal byte for byte. A ``spectrum`` dump
passes ``_emit`` one period of each column but c, so its reference is built
without the CLI, from the values of ``build_spectrum(...).rows()``.

``cli._write_rows`` turns each block of a period's rows into a template
once, with only the first column's fields left, and fills it once per
period. The dumps are also written with blocks that divide no period, and
small tables with ``%`` in their cells, a single column or a period
repeated, are checked against the reference in every format.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from shorsim import cli
from shorsim.spectrum import FactoringInstance, build_spectrum


def ref_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def ref_jsonable(record: dict) -> dict:
    return {
        k: float(f"{v:.12g}") if isinstance(v, float) else v
        for k, v in record.items()
    }


def ref_write_csv(records: list, out) -> None:
    keys = list(records[0])
    out.write(",".join(keys) + "\n")
    for rec in records:
        out.write(",".join(ref_cell(rec[k]) for k in keys) + "\n")


def ref_write_aligned(records: list, out, keys=None) -> None:
    keys = list(records[0]) if keys is None else keys
    cells = [[ref_cell(rec[k]) for k in keys] for rec in records]
    widths = [
        max(len(k), max(len(row[i]) for row in cells))
        for i, k in enumerate(keys)
    ]
    out.write("  ".join(k.rjust(w) for k, w in zip(keys, widths)) + "\n")
    for row in cells:
        out.write("  ".join(v.rjust(w) for v, w in zip(row, widths)) + "\n")


def ref_emit(fmt: str, records: list, human, out, summary=None) -> None:
    if fmt == "structured-record":
        for rec in records + ([summary] if summary else []):
            out.write(json.dumps(ref_jsonable(rec)) + "\n")
    elif fmt == "delimited-table":
        ref_write_csv(records, out)
        for k, v in (summary or {}).items():
            out.write(f"# {k} = {ref_cell(v)}\n")
    else:
        human(out)


def records_of(columns: dict) -> list:
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def ref_spectrum(n: int, x: int, q: int, fmt: str) -> str:
    """The spectrum dump, written row by row from ``rows()``'s values."""
    instance = FactoringInstance.create(n, x)
    table = build_spectrum(instance, q)
    keys = ("c", "marginal_probability", "signed_residue", "good_flag")
    records = [dict(zip(keys, row)) for row in table.rows()]
    summary = {
        "normalization": float(table.marginals.sum()),
        "p_min_good_c": float(
            table.period_marginals[table.period_flags].min()
        ),
    }

    def human(out):
        out.write(f"n = {n}  x = {x}  r = {instance.r}  q = {q}\n\n")
        ref_write_aligned(records, out)
        out.write("\n")
        for k, v in summary.items():
            out.write(f"{k} = {ref_cell(v)}\n")

    out = io.StringIO()
    ref_emit(fmt, records, human, out, summary)
    return out.getvalue()


def run_row_wise(argv, monkeypatch) -> tuple:
    if argv[0] == "spectrum":
        opts = dict(zip(argv[1::2], argv[2::2]))
        return 0, ref_spectrum(int(opts["--n"]), int(opts["--x"]),
                               int(opts["--q"]), opts["--format"])
    with monkeypatch.context() as m:
        m.setattr(cli, "_emit", lambda fmt, columns, human, out, summary=None:
                  ref_emit(fmt, records_of(columns), human, out, summary))
        m.setattr(cli, "_write_aligned", lambda columns, out:
                  ref_write_aligned(records_of(columns), out))
        return run(argv)


# gcd(r, q) = q for (15, 7, 2), 1 for (21, 4, 512) (r = 3) and 8 for
# (221, 2, 4096) (r = 24).
SPECTRA = [(15, 7, 2), (15, 7, 16), (15, 7, 256), (21, 2, 512), (33, 2, 2048),
           (21, 4, 512), (221, 2, 4096)]
SIMULATIONS = [
    ["--n", "15", "--x", "7", "--trials", "1"],
    ["--n", "15", "--x", "7", "--trials", "5"],
    ["--n", "21", "--x", "2", "--trials", "20"],
    ["--n", "15", "--x", "7", "--trials", "400"],  # the aggregate record
    ["--n", "15", "--x", "5", "--trials", "3"],  # gcd reveals a factor
]
CASES = (
    [["spectrum", "--n", str(n), "--x", str(x), "--q", str(q),
      "--format", f] for n, x, q in SPECTRA for f in cli.FORMATS]
    + [["simulate", *args, "--seed", "3", "--format", f]
       for args in SIMULATIONS for f in cli.FORMATS]
    + [["sweep", "--n-list", "15,21,33", "--trials", "200", "--seed", "2"],
       ["sweep", "--n-list", "15", "--bases", "2,7,8,13", "--trials", "50"],
       ["verify-bounds", "--n", "15", "--x", "7"],
       ["verify-bounds", "--n", "21", "--x", "2"]]
)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_equals_row_wise_reference(argv, monkeypatch):
    new = run(argv)
    assert new[0] == 0 and new[1]
    assert new == run_row_wise(argv, monkeypatch)


def test_spectrum_cases_cover_every_float_form():
    # Exact zeros, dyadic values and floats printed in exponent form.
    cells = set()
    for n, x, q in SPECTRA:
        _, text = run(["spectrum", "--n", str(n), "--x", str(x),
                       "--q", str(q), "--format", "delimited-table"])
        cells |= {line.split(",")[1] for line in text.splitlines()[1:]
                  if not line.startswith("#")}
    assert {"0", "0.25", "0.5"} <= cells
    assert any("e-" in c for c in cells)


AWKWARD = {
    "a, b": ["x, y", "50%s", 'say "hi"\n', None],
    "100%": [True, False, 1, 0],
    "f": [-0.0, math.nan, math.inf, np.float64(1 / 3)],
    "g": [1e-5, 123456789012345.0, 2.0**-70, 0.1 + 0.2],
    "h": list(np.linspace(0.0, 1.0, 4)[::-1] / 3),  # numpy floats only
}


TABLES = {
    "awkward": AWKWARD,
    # No column after the first: no other cells fill a block's template.
    "one-column": {"50%": ["5%s", None, 1.5, True, "%%"]},
    # A % in cells past the first column, one period of 4 rows repeated
    # 3 times, with a range and an array among the periodic columns.
    "periodic": {
        "c": range(12),
        "5%s": ["5%s", "%", "%(a)s", "x"],
        "r": range(4),
        "v": np.array([True, False, True, True]),
        "f": [0.5, None, "%d", 2],
    },
}


def tiled(columns: dict) -> dict:
    """Each column as Python values, repeated to the first's length."""
    rows = len(next(iter(columns.values())))
    return {
        k: (col.tolist() if isinstance(col, np.ndarray) else list(col))
        * (rows // len(col))
        for k, col in columns.items()
    }


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("table", TABLES)
def test_writers_equal_reference_on_awkward_values(table, fmt, monkeypatch):
    # Blocks of 3 rows: a period's last block is short.
    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 3)
    columns = TABLES[table]
    records = records_of(tiled(columns))
    summary = {"p": 1.0 / 7, "q": None}

    def human(out):
        cli._write_aligned(columns, out)

    def ref_human(out):
        ref_write_aligned(records, out)

    new, ref = io.StringIO(), io.StringIO()
    cli._emit(fmt, columns, human, new, summary)
    ref_emit(fmt, records, ref_human, ref, summary)
    assert new.getvalue() == ref.getvalue()


class Recorder(io.StringIO):
    """A text stream that keeps each ``write``'s text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("n,x,q", SPECTRA)
def test_spectrum_blocks_need_not_divide_the_period(n, x, q, fmt,
                                                    monkeypatch):
    # 100 divides no period, each a power of two: every period ends in a
    # short block, and periods of 256 rows or more span several blocks.
    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 100)
    out = Recorder()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["spectrum", "--n", str(n), "--x", str(x),
                         "--q", str(q), "--format", fmt]) == 0
    assert out.getvalue() == ref_spectrum(n, x, q, fmt)
    assert max(text.count("\n") for text in out.writes) <= 100


def test_writers_bound_the_text_formatted_at_once(monkeypatch):
    writes = []

    class Out:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 3)
    columns = {"c": list(range(10)), "p": [c / 10 for c in range(10)]}
    cli._write_csv(columns, [cli._cells(v) for v in columns.values()],
                   Out())
    assert len(writes) == 1 + 4  # the header, then rows 3 + 3 + 3 + 1
    ref = io.StringIO()
    ref_write_csv(records_of(columns), ref)
    assert "".join(writes) == ref.getvalue()


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_spectrum_formats_one_period_of_cells(fmt, monkeypatch):
    # (221, 2, 4096): r = 24 and gcd(r, q) = 8, so the period p is 512 of
    # q = 4096 values of c. Every cell the dump formats passes through
    # _cell or _json_cells; the summary adds two.
    counted = []
    cell, json_cells = cli._cell, cli._json_cells

    def counting_cell(v):
        counted.append(1)
        return cell(v)

    def counting_json_cells(values):
        counted.append(len(values))
        return json_cells(values)

    monkeypatch.setattr(cli, "_cell", counting_cell)
    monkeypatch.setattr(cli, "_json_cells", counting_json_cells)
    code, out = run(["spectrum", "--n", "221", "--x", "2", "--q", "4096",
                     "--format", fmt])
    assert code == 0 and out.count("\n") > 4096
    assert sum(counted) <= 3 * 512 + 2
