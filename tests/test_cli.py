"""CLI contract tests: exit codes, output formats, reproducibility."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim import (
    FactoringInstance, SpectrumTable, build_spectrum, cli, estimate_success,
)
from shorsim.cli import DEFAULT_SEED, FORMATS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_cli(*args, preexec_fn=None, stdout=subprocess.PIPE, **env):
    """Run ``python -m shorsim`` in a child, with ``env`` added to its own."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-m", "shorsim", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=preexec_fn,
    )


def test_import_loads_numpy_random_only_as_numpy_does():
    # numpy.random takes ~10 ms to import, and audit, spectrum and
    # verify-bounds never use it. Some numpy versions import it with numpy
    # itself, so the check is against numpy's own behaviour.
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
            "import shorsim; print(before, 'numpy.random' in sys.modules)")
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


def test_simulate_single_trace_reproducible():
    a = run_cli("simulate", "--n", "15", "--x", "7", "--trials", "1",
                "--seed", "9")
    b = run_cli("simulate", "--n", "15", "--x", "7", "--trials", "1",
                "--seed", "9")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert "success_bound" in a.stdout


def test_simulate_aggregate_report():
    result = run_cli("simulate", "--n", "15", "--x", "7", "--trials", "400",
                     "--seed", "11")
    assert result.returncode == 0
    assert "order_recovery_rate" in result.stdout
    assert "success_bound = 0.166666666667" in result.stdout


def test_simulate_rejects_prime_power():
    result = run_cli("simulate", "--n", "9", "--x", "2")
    assert result.returncode == 1
    assert "prime power" in result.stderr


def test_simulate_rejects_prime():
    result = run_cli("simulate", "--n", "13", "--x", "2")
    assert result.returncode == 1
    assert "composite" in result.stderr


def test_simulate_accidental_factor_is_success():
    result = run_cli("simulate", "--n", "15", "--x", "5", "--trials", "3")
    assert result.returncode == 0
    assert "3 x 5" in result.stdout


def test_simulate_structured_record_parses():
    result = run_cli("simulate", "--n", "15", "--x", "7", "--trials", "3",
                     "--seed", "5", "--format", "structured-record")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert record["n"] == 15 and record["q"] == 256
        assert set(record) >= {"sampled_c", "sampled_k", "order_verified",
                               "failure_reason"}


def test_simulate_delimited_table_round_trip():
    result = run_cli("simulate", "--n", "15", "--x", "7", "--trials", "5",
                     "--seed", "5", "--format", "delimited-table")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    header = lines[0].split(",")
    assert len(lines) == 6
    assert header[:5] == ["n", "x", "ell", "r", "q"]
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        assert int(cells["q"]) == 256
        assert cells["order_verified"] in ("true", "false")


# sha256 of ``simulate --trials 20 --seed 1729`` stdout per format: one
# table row per trial pins every sampled (c, k). q % r is 0 at (15, 7), 2 at
# (21, 2) and 16 at (221, 2); at (57, 7), q % r = 1 makes [0, 1) a k group
# whose draw has a span of 1.
PINNED_TRACES = {
    (15, 7): {
        "human":
            "ce98ee91e8be98af2b9e42d2a103e380391b0a66a6db09ebf0863b43fe6d9edd",
        "delimited-table":
            "7a8602b1c19767572c30c4f6caee812fdc0becbf814f8fb220d9ccc5b981b8ed",
        "structured-record":
            "374c4806223ceb6c542707f7d99669a4965e0739f569ea705a6358863874f2b1",
    },
    (21, 2): {
        "human":
            "8c79c62930650447cf8d6542254f242c0bccb2dc536ca3af68edbe3d8d90961d",
        "delimited-table":
            "d01e0c6a0d49955d863e7f86675fd874275edb641bc8d91e05de8efe62bda17f",
        "structured-record":
            "54f0953e8800dbfda65b29b459159bbca95c32e87d4bdebfd661b11fb8f8be35",
    },
    (221, 2): {
        "human":
            "7c49ecc6d73c45a76538c5a02b67bba5a4cdd3ecf1f4196283434376df5b2ac0",
        "delimited-table":
            "54229863bca2fe87257a48dda4f532089be589bdfc9f1dba235679b3334214f5",
        "structured-record":
            "b9aceec911a39373c24c1827fb22b777ec4b0f796e12044920783b570d1dfd93",
    },
    (57, 7): {
        "human":
            "4d4b80ab201017ace1ffea8b7cba47e67f0afa36d0b795949324a1e1066565fb",
        "delimited-table":
            "14ebaa558115a326e447b0fc4b7964a00a774b1e3bc1d51f36e1f2a5d8f27351",
        "structured-record":
            "d7233a9c53ead3800b975f53d113fe1f59cc88178e6fc61c549a91f50467d54b",
    },
}


@pytest.mark.parametrize("n,x,fmt", [
    (n, x, fmt) for (n, x), digests in PINNED_TRACES.items() for fmt in digests
])
def test_simulate_per_trial_draws_pinned(n, x, fmt):
    argv = ["simulate", "--n", str(n), "--x", str(x), "--trials", "20",
            "--seed", "1729", "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == PINNED_TRACES[n, x][fmt]


def test_closed_stdout_is_a_one_line_usage_exit():
    # the reader takes the first line of a 2^16-row dump and closes the pipe
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "shorsim", "spectrum", "--n", "221", "--x",
         "2", "--format", "delimited-table"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    assert proc.stdout.readline() == \
        "c,marginal_probability,signed_residue,good_flag\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in stderr
    assert stderr.startswith("shorsim: error: ")
    assert stderr.count("\n") == 1, stderr


def test_audit_exit_codes_and_evidence():
    bad = run_cli("audit", "--n", "15", "--s", "1", "--reg2", "4")
    assert bad.returncode == 2
    assert "COND_Q_GE_N2" in bad.stdout
    assert "q = 2" in bad.stdout and "n_squared = 225" in bad.stdout
    assert "non_compliant" in bad.stdout

    good = run_cli("audit", "--n", "15", "--s", "8", "--reg2", "4")
    assert good.returncode == 0
    assert "verdict: compliant" in good.stdout


def test_audit_reg2_failure():
    result = run_cli("audit", "--n", "15", "--s", "8", "--reg2", "2")
    assert result.returncode == 2
    assert "COND_REG2_WIDTH" in result.stdout


def test_audit_with_base_applicability():
    result = run_cli("audit", "--n", "15", "--s", "1", "--reg2", "4",
                     "--x", "7")
    assert result.returncode == 2
    assert "applicable = false" in result.stdout
    assert "r_over_q = 2" in result.stdout
    # an inapplicable bound has no p_min to report
    assert "p_min =" not in result.stdout
    assert "one_third_bound =" not in result.stdout
    result = run_cli("audit", "--n", "15", "--s", "8", "--reg2", "4",
                     "--x", "7")
    assert (
        "  applicable = true\n  r_over_q = 0.015625\n  p_min = 0.0625\n"
        "  one_third_bound = 0.0208333333333\n"
    ) in result.stdout


def test_audit_with_nonunit_base_is_usage_error():
    result = run_cli("audit", "--n", "15", "--s", "8", "--reg2", "4",
                     "--x", "5")
    assert result.returncode == 1


def test_audit_rejected_base_writes_nothing_to_stdout():
    # the base is checked before the audit report is written
    result = run_cli("audit", "--n", "15", "--s", "8", "--reg2", "4",
                     "--x", "1")
    assert result.returncode == 1
    assert result.stdout == ""
    assert "base must be in [2, 14]" in result.stderr


def test_audit_rejects_base_one_at_single_qubit_width():
    # s = 1 never builds an instance, so only the explicit range check
    # stops a report for "order r = 1"
    result = run_cli("audit", "--n", "15", "--s", "1", "--reg2", "4",
                     "--x", "1")
    assert result.returncode == 1
    assert result.stdout == ""
    assert "base must be in [2, 14], got 1" in result.stderr


@pytest.mark.parametrize("s", ["66", "200"])
def test_audit_base_at_a_period_past_int64_is_a_one_line_error(s):
    # r = 4 at q = 2^66 leaves a period of 2^64 rows, which no int64 array
    # holds; the bound check refuses before any int64 arithmetic
    result = run_cli("audit", "--n", "15", "--s", s, "--reg2", "4",
                     "--x", "7")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("shorsim: error: q = ")
    assert result.stderr.count("\n") == 1, result.stderr


def test_audit_base_at_a_2_pow_63_row_period_runs():
    # q = 2^65 with r = 4: the period has 2^63 rows and its good rows fit
    result = run_cli("audit", "--n", "15", "--s", "65", "--reg2", "4",
                     "--x", "7")
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "3937aec7534cdbe1d340ef4010520ba6a3f29542846e4488272932ea57a6cc8d"
    )


def test_spectrum_default_q():
    result = run_cli("spectrum", "--n", "15", "--x", "7",
                     "--format", "delimited-table")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "c,marginal_probability,signed_residue,good_flag"
    rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 256
    nonzero = [r for r in rows if r.split(",")[1] != "0"]
    assert [r.split(",")[0] for r in nonzero] == ["0", "64", "128", "192"]
    assert all(r.split(",")[1] == "0.25" for r in nonzero)
    trailer = [l for l in lines if l.startswith("#")]
    assert any("normalization = 1" in l for l in trailer)


def test_spectrum_degenerate_q2():
    result = run_cli("spectrum", "--n", "15", "--x", "7", "--q", "2",
                     "--format", "delimited-table")
    assert result.returncode == 0
    rows = [l for l in result.stdout.strip().split("\n")[1:]
            if not l.startswith("#")]
    assert len(rows) == 2
    assert rows[0].startswith("0,0.5") and rows[1].startswith("1,0.5")


def test_spectrum_round_trip_exact():
    result = run_cli("spectrum", "--n", "15", "--x", "7",
                     "--format", "delimited-table")
    table = build_spectrum(FactoringInstance.create(15, 7), 256)
    lines = [l for l in result.stdout.strip().split("\n")[1:]
             if not l.startswith("#")]
    for line in lines:
        c, p, t, flag = line.split(",")
        c = int(c)
        assert float(p) == float(table.marginals[c])
        assert int(t) == int(table.signed_residues[c])
        assert flag == ("true" if table.good_flags[c] else "false")


def test_spectrum_structured_record_trailer():
    result = run_cli("spectrum", "--n", "15", "--x", "7", "--q", "2",
                     "--format", "structured-record")
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0]) == {
        "c": 0, "marginal_probability": 0.5, "signed_residue": 0,
        "good_flag": True,
    }
    trailer = json.loads(lines[-1])
    assert trailer["normalization"] == 1.0
    assert trailer["p_min_good_c"] == 0.5


def test_spectrum_rejects_bad_q():
    assert run_cli("spectrum", "--n", "15", "--x", "7", "--q", "3")\
        .returncode == 1
    assert run_cli("spectrum", "--n", "15", "--x", "7", "--q", "1")\
        .returncode == 1


def test_spectrum_rejects_nonunit_base():
    assert run_cli("spectrum", "--n", "15", "--x", "5").returncode == 1


def test_sweep_rows_and_determinism():
    args = ("sweep", "--n-list", "15,21", "--trials", "200", "--seed", "8")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    lines = a.stdout.strip().split("\n")
    assert len(lines) == 3  # header + one row per n
    assert lines[0].split()[:2] == ["n", "x"]


def test_sweep_bases_factor_fifteen():
    result = run_cli("sweep", "--n-list", "15", "--bases", "2,7,8,13",
                     "--trials", "150", "--seed", "4")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert len(lines) == 5
    for line in lines[1:]:
        cells = line.split()
        # factor_rate column is nonzero for every base
        assert float(cells[6]) > 0


def test_sweep_skips_nonunit_base():
    result = run_cli("sweep", "--n-list", "15", "--bases", "1,5,7",
                     "--trials", "100")
    assert result.returncode == 0
    assert result.stderr.splitlines() == [
        "skipping n = 15, x = 1: base out of range",
        "skipping n = 15, x = 5: gcd = 5 already factors n",
    ]
    assert len(result.stdout.strip().split("\n")) == 2


def test_sweep_seeds_accepted_pairs_in_acceptance_order():
    # x = 3 shares a factor with both moduli, so (15, 3) and (21, 3) are
    # skipped and take no seed: the two accepted pairs get children 0, 1.
    result = run_cli("sweep", "--n-list", "15,21", "--bases", "3,2",
                     "--trials", "200", "--seed", "8")
    assert result.returncode == 0
    assert result.stderr.splitlines() == [
        "skipping n = 15, x = 3: gcd = 3 already factors n",
        "skipping n = 21, x = 3: gcd = 3 already factors n",
    ]
    header, *lines = result.stdout.splitlines()
    rows = [dict(zip(header.split(), line.split())) for line in lines]
    seeds = np.random.SeedSequence(8).spawn(2)
    assert [(row["n"], row["x"]) for row in rows] == [("15", "2"),
                                                     ("21", "2")]
    for row, seed in zip(rows, seeds):
        est = estimate_success(int(row["n"]), 2, 200, seed)
        assert row["order_recovery_rate"] == cli._cell(
            est.order_recovery_rate
        )
        assert row["factor_rate"] == cli._cell(est.factor_rate)


def test_sweep_usage_errors():
    assert run_cli("sweep", "--n-list", "15", "--trials", "0")\
        .returncode == 1
    assert run_cli("sweep", "--n-list", "", "--trials", "10")\
        .returncode == 1
    assert run_cli("sweep", "--n-list", "9", "--trials", "10")\
        .returncode == 1


def test_verify_bounds_output():
    result = run_cli("verify-bounds", "--n", "15", "--x", "7")
    assert result.returncode == 0
    assert "p_min = 0.0625" in result.stdout
    assert "one_third_bound = 0.0208333333333" in result.stdout
    assert "exceeds_one_third = true" in result.stdout
    assert "meets_sinc_floor = true" in result.stdout


def test_usage_error_exit_is_one_not_two():
    assert run_cli("simulate", "--n", "15").returncode == 1
    assert run_cli("nonsense").returncode == 1
    assert run_cli().returncode == 1
    assert run_cli("simulate", "--n", "15", "--x", "7", "--trials", "0")\
        .returncode == 1
    assert run_cli("simulate", "--n", "15", "--x", "abc").returncode == 1


def test_main_callable_in_process(capsys):
    code = main(["audit", "--n", "15", "--s", "8", "--reg2", "4"])
    assert code == 0
    assert "compliant" in capsys.readouterr().out


def test_consecutive_main_calls_share_no_state(capsys, monkeypatch):
    # main builds its parser once per process; no call may see another's
    # arguments, defaults or exit status.
    builds = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        audit = ["audit", "--n", "15", "--s", "8", "--reg2", "4"]
        assert main(audit + ["--x", "7"]) == 0
        assert "bound argument at x = 7" in capsys.readouterr().out
        assert main(audit) == 0
        assert "bound argument" not in capsys.readouterr().out

        spectrum = ["spectrum", "--n", "15", "--x", "7", "--q", "16"]
        assert main(spectrum + ["--format", "structured-record"]) == 0
        assert capsys.readouterr().out.startswith('{"c": 0, ')
        assert main(spectrum) == 0
        assert capsys.readouterr().out.startswith("n = 15  x = 7  r = 4")

        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--n", "15"])
        assert exc.value.code == 1
        assert main(audit) == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]


def test_default_seed_constant():
    # the documented default must never change silently
    assert isinstance(DEFAULT_SEED, int)
    a = run_cli("simulate", "--n", "15", "--x", "7", "--trials", "2")
    b = run_cli("simulate", "--n", "15", "--x", "7", "--trials", "2",
                "--seed", str(DEFAULT_SEED))
    assert a.stdout == b.stdout


@st.composite
def cli_argv(draw):
    """Bounded argument lists for every subcommand, valid or not."""
    def num(lo, hi):
        return str(draw(st.integers(lo, hi)))

    command = draw(st.sampled_from(
        ["simulate", "audit", "spectrum", "sweep", "verify-bounds"]
    ))
    n = draw(st.integers(-5, 300))
    argv = [command, "--n", str(n)]
    if command == "simulate":
        argv += ["--x", num(-5, 300), "--trials", num(-2, 30),
                 "--seed", num(0, 2**32),
                 "--format", draw(st.sampled_from(FORMATS))]
    elif command == "audit":
        argv += ["--s", num(-2, 12), "--reg2", num(-2, 12)]
        if draw(st.booleans()):
            argv += ["--x", num(-5, 300)]
    elif command == "spectrum":
        argv += ["--x", num(-5, 300),
                 "--format", draw(st.sampled_from(FORMATS))]
        # without --q the default q = choose_q(n) stays <= 2^12 for n <= 64
        if n > 64 or draw(st.booleans()):
            argv += ["--q", num(-4, 2**12)]
    elif command == "sweep":
        moduli = draw(st.lists(st.integers(-5, 300), max_size=3))
        argv = [command, "--n-list", ",".join(map(str, moduli)),
                "--trials", num(-2, 30)]
        if draw(st.booleans()):
            bases = draw(st.lists(st.integers(-5, 300), max_size=3))
            argv += ["--bases", ",".join(map(str, bases))]
    else:
        argv += ["--x", num(-5, 300)]
    return argv


@settings(max_examples=60, deadline=None)
@given(cli_argv())
def test_any_bounded_input_stays_inside_exit_contract(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the flags
            code = exc.code
            assert code == 1, argv
    assert code in (0, 1, 2), argv


def run_capped(limit: int, *args, stdout=subprocess.PIPE):
    """``run_cli`` in a child whose address space is capped at ``limit``."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return run_cli(*args, preexec_fn=cap, stdout=stdout,
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
def test_n3233_runs_in_384_mib_of_address_space():
    # gcd(r, q) = 4 at n = 3233, x = 3 (r = 260, q = 2^24): a table kept at
    # one period fits, one tiled to length q (about 450 MB at peak) does not
    sim = run_capped(384 << 20, "simulate", "--n", "3233", "--x", "3",
                     "--trials", "2000")
    assert sim.returncode == 0, sim.stderr
    verify = run_capped(384 << 20, "verify-bounds", "--n", "3233", "--x", "3")
    assert verify.returncode == 0, verify.stderr
    recorded = json.loads((ROOT / "bench" / "expected.json").read_text())
    want = recorded["digests"]["verify-bounds --n 3233 --x 3"]
    assert want["exit"] == 0
    assert hashlib.sha256(verify.stdout.encode()).hexdigest() == want["sha256"]


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
def test_out_of_memory_is_a_one_line_usage_exit():
    # n = 10403, x = 2: r = 5100 and q = 2^27, so the dump's period is 2^25
    # values of c, 256 MiB per float64 array, which 256 MiB of address
    # space cannot hold beside the interpreter
    res = run_capped(256 << 20, "spectrum", "--n", "10403", "--x", "2")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("shorsim: error: out of memory: ")
    assert res.stderr.count("\n") == 1, res.stderr


@pytest.mark.parametrize("given", [True, False])
def test_textless_out_of_memory_names_the_command(capsys, monkeypatch,
                                                  given):
    # Python's own MemoryError carries no text, so the line names the
    # command line main() was given, or sys.argv[1:] when it got none
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "build_spectrum", exhausted)
    argv = ["spectrum", "--n", "21", "--x", "4", "--q", "4194304"]
    monkeypatch.setattr(sys, "argv", ["shorsim", *argv])
    assert main(argv if given else None) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("shorsim: error: out of memory: "
                   "spectrum --n 21 --x 4 --q 4194304\n")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
def test_unrepeated_dump_runs_in_256_mib_of_address_space(tmp_path):
    # r = 3 at n = 21, x = 4, so gcd(r, q) = 1 and the 2^20-row dump is a
    # single period: its cells are formatted a block of rows at a time,
    # where whole columns at once needed ~452 MiB of address space
    path = tmp_path / "dump.jsonl"
    with path.open("w") as out:
        res = run_capped(256 << 20, "spectrum", "--n", "21", "--x", "4",
                         "--q", str(1 << 20), "--format", "structured-record",
                         stdout=out)
    assert res.returncode == 0, res.stderr
    with path.open() as dump:
        first = json.loads(next(dump))
        rows = 1
        for last in dump:
            rows += 1
    summary = json.loads(last)
    path.unlink()
    assert first["c"] == 0 and rows == (1 << 20) + 1
    assert list(summary) == ["normalization", "p_min_good_c"]
    assert summary["normalization"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
@pytest.mark.parametrize("n,x", [(3233, 3), (10403, 2), (1022117, 2)])
def test_table_free_simulate_runs_in_128_mib_of_address_space(n, x):
    # q = 2^24, 2^27 and 2^40: draws take O(trials) memory, where a period
    # of the table would need 32 MiB, 256 MiB and 1 TiB
    res = run_capped(128 << 20, "simulate", "--n", str(n), "--x", str(x),
                     "--trials", "2000")
    assert res.returncode == 0, res.stderr
    assert "trials = 2000\n" in res.stdout


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
def test_single_width_audit_runs_in_192_mib_of_address_space():
    # n = 3233 has 3 175 768 reduced fractions among 5.2 million
    # candidates d < r: the 24 MiB of keys are built one denominator at a
    # time, so no array as long as the candidates is held
    res = run_capped(192 << 20, "audit", "--n", "3233", "--s", "10",
                     "--reg2", "12")
    assert res.returncode == 2, res.stderr
    assert ("       q = 1024  n_squared = 10452289  fraction_count = 3175768"
            "  indistinguishable_pairs = 4924477211\n") in res.stdout


@pytest.mark.parametrize("argv", [
    *(["spectrum", "--n", "221", "--x", "2", "--format", f] for f in FORMATS),
    ["simulate", "--n", "221", "--x", "2", "--trials", "3"],
    ["simulate", "--n", "221", "--x", "2", "--trials", "50"],
    ["sweep", "--n-list", "221", "--trials", "20"],
    ["verify-bounds", "--n", "221", "--x", "2"],
    ["audit", "--n", "221", "--s", "16", "--reg2", "8", "--x", "2"],
], ids=" ".join)
def test_no_command_tiles_the_period(argv, monkeypatch):
    # r = 24 at n = 221, x = 2 and q = 2^16, so gcd(r, q) = 8: every command
    # works on the period of q/8 values of c and never needs the q-long
    # marginals, signed_residues or good_flags
    def refuse(table, period):
        raise AssertionError("a period was tiled to length q")

    monkeypatch.setattr(SpectrumTable, "_tiled", refuse)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) in (0, 2)
    assert out.getvalue()


def _stdout_without_column(argv, columns, monkeypatch):
    """stdout of ``main(argv)`` while reading any of ``columns`` raises."""
    with contextlib.redirect_stdout(io.StringIO()) as expected:
        assert main(argv) == 0

    for column in columns.split():
        def refuse(table, column=column):
            raise AssertionError(f"{column} was computed")

        monkeypatch.setattr(SpectrumTable, column, property(refuse))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    assert out.getvalue() == expected.getvalue()


@pytest.mark.parametrize("argv", [
    ["verify-bounds", "--n", "221", "--x", "2"],
    ["audit", "--n", "221", "--s", "16", "--reg2", "8", "--x", "2"],
], ids=" ".join)
def test_verify_bounds_reads_no_marginals(argv, monkeypatch):
    # the bound check visits the good c of one period, so the kernel and
    # the marginals are never computed
    _stdout_without_column(argv, "period_marginals", monkeypatch)


def test_simulate_reads_no_flags(monkeypatch):
    # sampling needs the cumulative marginals and never the flags
    _stdout_without_column(
        ["simulate", "--n", "221", "--x", "2", "--trials", "50"],
        "period_flags", monkeypatch,
    )


def test_table_free_simulate_reads_no_column(monkeypatch):
    # q = 2^24 > 2^16: every draw is made bit by bit in the eigenbasis
    _stdout_without_column(
        ["simulate", "--n", "3233", "--x", "3", "--trials", "50"],
        "period_marginals period_residues period_flags cumulative",
        monkeypatch,
    )


def test_verify_bounds_reads_no_period_column(monkeypatch):
    # the good rows are solved for directly, so the bound check reads no
    # residues or flags either
    _stdout_without_column(
        ["verify-bounds", "--n", "221", "--x", "2"],
        "period_marginals period_residues period_flags", monkeypatch,
    )
