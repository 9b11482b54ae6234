"""The package keeps the interface the benchmark in ``bench/`` relies on.

The benchmark's tracer patches module and class attributes by name
(``owner.__dict__[name]``), so a renamed or deleted attribute raises
KeyError and kills the traced benchmark child; a call path that bypasses a
patched attribute silently zeroes its per-layer counters. The benchmark's
output oracle compares seed-independent commands against recorded stdout
digests. Both are checked here without editing anything under ``bench/``.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from shorsim import auditor, cli, pipeline, spectrum
from shorsim import numtheory as nt

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
EXPECTED = json.loads(workloads.EXPECTED_PATH.read_text())["digests"]
# The heaviest, verify-bounds --n 3233 --x 3, builds a q = 2^24 table: about
# 0.7 GB and 1.5-1.8 s.
DIGESTED = workloads.seed_independent_ops()

PATCHED = [
    (nt, "order_oracle"), (nt, "recover_rational"),
    (nt, "continued_fraction"), (nt, "mod_pow"), (nt, "euler_phi"),
    (spectrum.FactoringInstance, "create"),
    (spectrum.SpectrumTable, "joint"), (spectrum.SpectrumTable, "rows"),
    (spectrum, "build_spectrum"), (pipeline, "build_spectrum"),
    (cli, "build_spectrum"), (cli, "verify_bounds"),
    (auditor, "verify_bounds"), (pipeline, "run_trials"),
    (pipeline, "estimate_success"), (pipeline, "recover_order"),
    (auditor, "audit"), (auditor, "count_indistinguishable_pairs"),
    (auditor, "count_fractions"), (auditor, "bound_argument_applicability"),
]


def _run(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_digest_list_is_complete():
    assert len(DIGESTED) == 60
    keys = {workloads.op_key(argv) for argv in DIGESTED}
    assert keys == set(EXPECTED)


def test_tracer_installs_and_sees_every_layer():
    tracer = _load("tracer").Tracer()
    before = {(o, a): o.__dict__[a] for o, a in PATCHED}
    tracer.install()
    try:
        for argv in (
            ["simulate", "--n", "15", "--x", "7", "--trials", "3"],
            ["simulate", "--n", "21", "--x", "2", "--trials", "30"],
            ["sweep", "--n-list", "15,21", "--trials", "40"],
            ["audit", "--n", "15", "--s", "4", "--reg2", "4"],
            ["spectrum", "--n", "15", "--x", "7", "--q", "16"],
        ):
            code, _ = _run(lambda a: tracer.run_op(cli.main, a), argv)
            assert code in (0, 2), argv
        m = tracer.metrics(0, 0)
    finally:
        tracer.uninstall()
    assert {(o, a): o.__dict__[a] for o, a in PATCHED} == before
    assert isinstance(
        spectrum.FactoringInstance.__dict__["create"], classmethod
    )
    assert m["pipeline.trials"] == 3 + 30 + 2 * 40
    assert m["spectrum.rows.count"] == 16
    for span in ("numtheory.order_oracle", "numtheory.recover_rational",
                 "numtheory.mod_pow", "numtheory.euler_phi",
                 "spectrum.instance", "spectrum.build", "spectrum.joint",
                 "spectrum.verify_bounds", "pipeline.recover",
                 "auditor.audit", "auditor.pair_count"):
        assert m[span + ".calls"] > 0, span
    assert m["spectrum.verify_bounds.good_c"] > 0
    assert m["numtheory.cf_terms"] > 0


@pytest.mark.parametrize("argv", DIGESTED, ids=workloads.op_key)
def test_recorded_digest_replays(argv):
    want = EXPECTED[workloads.op_key(argv)]
    code, out = _run(cli.main, argv)
    assert (code, workloads.digest(out)) == (want["exit"], want["sha256"])
