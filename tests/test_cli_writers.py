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

``cli._cells`` and ``cli._json_cells`` spell a bool, int or float array
with one C-level call, and JSON reuses a float's .12g text. Both are
checked value by value against ``ref_cell`` and ``json.dumps`` of the
rounded float, on generated arrays and on the floats where the reuse must
fall back: NaN, infinities, subnormals and values that round to 1e12 or
more.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    # A float array, repeated twice. With blocks of 3 rows, JSON spells
    # the first block from its .12g texts, while NaN, inf, a subnormal
    # and a value that rounds to 1e12 send the others to json.dumps.
    "float-array": {
        "c": range(18),
        "x": np.array([0.5, -0.0, 3.0, math.nan, -math.inf, 5e-324,
                       1e12, 1 / 3, 2.0**-1022]),
        "k": np.arange(-4, 5),
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
    # q = 4096 values of c. Every column of cells the dump formats passes
    # through _cells or _json_cells; the summary adds two, through _cell
    # or _json_cells.
    counted = []
    cell, cells, json_cells = cli._cell, cli._cells, cli._json_cells

    def counting_cell(v):
        counted.append(1)
        return cell(v)

    def counting_cells(values):
        counted.append(len(values))
        return cells(values)

    def counting_json_cells(values):
        counted.append(len(values))
        return json_cells(values)

    monkeypatch.setattr(cli, "_cell", counting_cell)
    monkeypatch.setattr(cli, "_cells", counting_cells)
    monkeypatch.setattr(cli, "_json_cells", counting_json_cells)
    code, out = run(["spectrum", "--n", "221", "--x", "2", "--q", "4096",
                     "--format", fmt])
    assert code == 0 and out.count("\n") > 4096
    assert sum(counted) <= 3 * 512 + 2


def ref_json_cell(v) -> str:
    return json.dumps(float(f"{v:.12g}") if isinstance(v, float) else v)


# Rounded to 12 digits, 999999999999.4 stays below 1e12 and .6 reaches it;
# 1e16 and up are where repr, and so json.dumps, turns to exponents.
EDGE_FLOATS = [0.0, -0.0, 1.0, 5e-324, 2.0**-1022, 999999999999.4,
               999999999999.6, 1e12, 1e16, 1e17, math.nan, math.inf,
               -math.inf]
FLOATS = st.one_of(
    st.floats(width=64),
    st.floats(min_value=-1e13, max_value=1e13),
    st.integers(-10**12, 10**12).map(float),
    st.sampled_from(EDGE_FLOATS),
)
TYPED_ARRAYS = st.one_of(
    arrays(np.float64, st.integers(0, 12), elements=FLOATS),
    arrays(np.float32, st.integers(0, 12), elements=st.floats(width=32)),
    arrays(np.int64, st.integers(0, 12)),
    arrays(np.uint64, st.integers(0, 12),
           elements=st.integers(0, 2**64 - 1)),
    arrays(np.bool_, st.integers(0, 12)),
)


def check_typed_cells(a: np.ndarray) -> None:
    assert cli._cells(a) == [ref_cell(v) for v in a.tolist()]
    assert cli._json_cells(a) == [ref_json_cell(v) for v in a.tolist()]


@settings(max_examples=300, deadline=None)
@given(TYPED_ARRAYS)
def test_typed_cells_equal_the_per_value_cells(a):
    check_typed_cells(a)


@pytest.mark.parametrize("v", EDGE_FLOATS, ids=repr)
def test_typed_cells_spell_edge_floats_as_the_per_value_cells(v):
    # Alone, and in a block whose other values JSON spells from the text.
    check_typed_cells(np.array([v]))
    check_typed_cells(np.array([0.25, v, 3.0]))


def test_spectrum_json_period_columns_skip_json_dumps(monkeypatch):
    # (21, 4, 512): r = 3, so the period is all 512 rows, in one block.
    # json.dumps spells the 4 keys and the summary's 2 keys and 2 values;
    # the typed path spells every cell of the 512 rows.
    calls = []
    dumps = json.dumps

    def counting_dumps(obj, **kwargs):
        calls.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", counting_dumps)
    code, out = run(["spectrum", "--n", "21", "--x", "4", "--q", "512",
                     "--format", "structured-record"])
    monkeypatch.undo()
    assert (code, out) == (0, ref_spectrum(21, 4, 512, "structured-record"))
    assert len(calls) == 4 + 2 + 2
    assert all(isinstance(obj, str) or len(obj) == 1 for obj in calls)
