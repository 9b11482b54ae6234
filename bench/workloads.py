"""Workload operation lists and output oracles for the shorsim benchmark.

An operation is one ``shorsim.cli.main(argv)`` call. Every operation's
stdout is checked:

- seed-independent commands (``audit``, ``verify-bounds``, ``spectrum``)
  must reproduce the exit code and the sha256 of stdout recorded in
  ``expected.json``;
- sampled commands (``simulate``, ``sweep``) are checked at any seed by
  invariants: failure counts plus ``factor_count`` equal ``trials``, every
  printed factor pair multiplies to n, ``r`` and ``q`` match ``order_oracle``
  and ``choose_q``, and the phi(r)/(3r) bound is satisfied.

The README cases at seed 1729 are checked for their exact published values;
they run untimed, outside the workloads.
"""

import hashlib
import json
import math
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The 15 products of two distinct primes from {3, ..., 17} plus the two
# smallest odd products of three primes (105 = 3*5*7, 165 = 3*5*11). All have
# q <= 2^16, so the spectrum build stays a small share of the trial loop.
SWEEP_MODULI = (
    15, 21, 33, 35, 39, 51, 55, 65, 77, 85, 91, 105, 119, 143, 165, 187, 221,
)
AUDIT_MODULI = (15, 33, 221, 1001)
SPECTRUM_FORMATS = ("human", "delimited-table", "structured-record")
PROBE_ARGV = ["simulate", "--n", "10403", "--x", "2", "--trials", "2000"]

WORKLOADS = ("montecarlo", "large_modulus", "audit_dump")

# Calibration schedule per workload, (every, units): before every
# ``every``-th operation of a timed pass the child runs the calibration
# kernel ``units`` times: a sixth of a pass on montecarlo and an eighth on
# large_modulus, whose operations are few and long. audit_dump's 59
# operations are short, and the kernel, at more than a third of its pass,
# runs densely enough between them to follow the machine's speed closely.
CALIBRATION = {"montecarlo": (1, 2), "large_modulus": (1, 4),
               "audit_dump": (3, 1)}
SAMPLED = ("simulate", "sweep")


def audit_grid() -> list:
    """audit for every s in [1, 2*ell] with reg2 = ell, ell = ceil(log2 n)."""
    ops = []
    for n in AUDIT_MODULI:
        ell = (n - 1).bit_length()
        for s in range(1, 2 * ell + 1):
            ops.append(
                ["audit", "--n", str(n), "--s", str(s), "--reg2", str(ell)]
            )
    return ops


def operations(workload: str, seed: int) -> list:
    """The argv list of every operation in one pass of ``workload``."""
    s = str(seed)
    if workload == "montecarlo":
        return [
            ["sweep", "--n-list", ",".join(map(str, SWEEP_MODULI)),
             "--trials", "2000", "--seed", s],
            ["simulate", "--n", "221", "--x", "2", "--trials", "20000",
             "--seed", s],
            ["simulate", "--n", "15", "--x", "7", "--trials", "2000",
             "--seed", s],
        ]
    if workload == "large_modulus":
        return [
            ["simulate", "--n", "3233", "--x", "3", "--trials", "2000",
             "--seed", s],
            ["verify-bounds", "--n", "3233", "--x", "3"],
        ]
    if workload == "audit_dump":
        return audit_grid() + [
            ["spectrum", "--n", "221", "--x", "2", "--format", f]
            for f in SPECTRUM_FORMATS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def seed_independent_ops() -> list:
    """Every operation whose stdout is digested, over all workloads."""
    ops = []
    for w in WORKLOADS:
        ops += [op for op in operations(w, 0) if op[0] not in SAMPLED]
    return ops


def _flag(argv: list, name: str):
    i = argv.index(name)
    return argv[i + 1]


def trials_in(argv: list) -> int:
    """Monte-Carlo trials one operation runs (0 for trial-free commands)."""
    if argv[0] == "simulate":
        return int(_flag(argv, "--trials"))
    if argv[0] == "sweep":
        return int(_flag(argv, "--trials")) * len(
            _flag(argv, "--n-list").split(",")
        )
    return 0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def op_key(argv: list) -> str:
    return " ".join(argv)


# README transcripts at seed 1729, compared line by line with trailing
# blanks stripped (the README drops the padding of empty last columns).
README_SIMULATE_5 = """\
n = 15  x = 7  r = 4  q = 256  ell = 4
success_bound = 0.166666666667

sampled_c  sampled_k  recovered_d  recovered_r  order_verified  factor_1  factor_2                 failure_reason
      192          1            3            4            true         3         5
      128          0            1            2           false                      d_r_not_coprime_understates_r
        0          2                                     false                                  bad_c_no_recovery
      128          3            1            2           false                      d_r_not_coprime_understates_r
      192          0            3            4            true         3         5
"""

README_SWEEP = """\
 n  x   r  phi_r   success_bound  order_recovery_rate  factor_rate             p_min   one_third_bound
15  2   4      2  0.166666666667                0.475        0.475            0.0625   0.0208333333333
21  2   6      2  0.111111111111                0.255       0.2575   0.0189087256745  0.00925925925926
33  2  10      4  0.133333333333               0.3025            0  0.00570954419864  0.00333333333333
"""

README_SIMULATE_2000 = {
    "n": 15, "x": 7, "r": 4, "q": 256, "trials": 2000,
    "order_recovery_count": 1012, "order_recovery_rate": 0.506,
    "factor_count": 1012, "factor_rate": 0.506,
    "success_bound": 0.166666666667, "bound_satisfied": True, "phi_r": 2,
}

README_CASES = [
    (["simulate", "--n", "15", "--x", "7", "--trials", "5",
      "--seed", "1729"], "transcript", README_SIMULATE_5),
    (["simulate", "--n", "15", "--x", "7", "--trials", "2000", "--seed",
      "1729", "--format", "structured-record"], "fields",
     README_SIMULATE_2000),
    (["sweep", "--n-list", "15,21,33", "--trials", "400", "--seed", "1729"],
     "transcript", README_SWEEP),
]

def _stripped(text: str) -> list:
    return [line.rstrip() for line in text.splitlines()]


def _table(text: str) -> list:
    """Rows of a right-aligned table as dicts; empty cells map to ""."""
    lines = text.splitlines()
    ends = [(m.group(), m.end()) for m in re.finditer(r"\S+", lines[0])]
    rows = []
    for line in lines[1:]:
        if not line.strip():
            break
        row, start = {}, 0
        for key, end in ends:
            row[key] = line[start:end].strip()
            start = end
        rows.append(row)
    return rows


def _kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _smallest_base(n: int) -> int:
    return next(b for b in range(2, n) if math.gcd(b, n) == 1)


def _instances(argv: list) -> list:
    """The (n, x) pairs a sampled operation runs."""
    if argv[0] == "simulate":
        return [(int(_flag(argv, "--n")), int(_flag(argv, "--x")))]
    if argv[0] == "sweep":
        moduli = [int(v) for v in _flag(argv, "--n-list").split(",")]
        return [(n, _smallest_base(n)) for n in moduli]
    return []


class Oracle:
    """Decides whether one operation's exit code and stdout are correct.

    The exact facts (r, q, phi_r) of every sampled instance in ``ops`` are
    computed up front from the package's ``order_oracle``, ``choose_q`` and
    ``euler_phi``, so that checking during a traced pass adds no counts.
    """

    def __init__(self, ops, order_oracle, choose_q, euler_phi):
        self.facts = {}
        for argv in ops:
            for n, x in _instances(argv):
                r = order_oracle(x, n)
                self.facts[n, x] = (r, choose_q(n).q, euler_phi(r))
        self.expected = json.loads(EXPECTED_PATH.read_text())["digests"]

    def check(self, argv: list, code: int, out: str):
        """Return None when correct, else a one-line reason."""
        cmd = argv[0]
        if cmd not in SAMPLED:
            want = self.expected.get(op_key(argv))
            if want is None:
                return "no recorded digest"
            if code != want["exit"]:
                return f"exit {code}, expected {want['exit']}"
            if digest(out) != want["sha256"]:
                return "stdout digest differs from the recorded one"
            return None
        if code != 0:
            return f"exit {code}, expected 0"
        if cmd == "simulate":
            return self._check_simulate(argv, out)
        return self._check_sweep(argv, out)

    def _check_simulate(self, argv: list, out: str):
        n, x = int(_flag(argv, "--n")), int(_flag(argv, "--x"))
        trials = int(_flag(argv, "--trials"))
        r, q, _ = self.facts[n, x]
        if trials <= 20:
            lines = out.splitlines()
            if f"r = {r}  q = {q}" not in lines[0]:
                return f"header {lines[0]!r} disagrees with r={r}, q={q}"
            rows = _table("\n".join(lines[3:]))
            if len(rows) != trials:
                return f"{len(rows)} trace rows for {trials} trials"
            for row in rows:
                if row["factor_1"] and int(row["factor_1"]) * int(
                    row["factor_2"]
                ) != n:
                    return f"factor pair {row} does not multiply to {n}"
            return None
        rec = (
            json.loads(out) if "--format" in argv
            and _flag(argv, "--format") == "structured-record" else _kv(out)
        )
        rec = {k: str(v).lower() if isinstance(v, bool) else str(v)
               for k, v in rec.items()}
        failures = sum(int(v) for k, v in rec.items()
                       if k.startswith("failures_"))
        if int(rec["trials"]) != trials:
            return f"trials {rec['trials']} != {trials}"
        if failures + int(rec["factor_count"]) != trials:
            return "failure counts plus factor_count differ from trials"
        if (int(rec["r"]), int(rec["q"])) != (r, q):
            return f"r, q = {rec['r']}, {rec['q']}; expected {r}, {q}"
        if rec["bound_satisfied"] != "true":
            return "bound_satisfied is false"
        return None

    def _check_sweep(self, argv: list, out: str):
        moduli = [int(v) for v in _flag(argv, "--n-list").split(",")]
        trials = int(_flag(argv, "--trials"))
        rows = _table(out)
        if [int(row["n"]) for row in rows] != moduli:
            return "sweep rows do not follow --n-list"
        for row in rows:
            n, x = int(row["n"]), int(row["x"])
            if x != _smallest_base(n):
                return f"n = {n}: x = {x} is not the smallest coprime base"
            r, _, phi = self.facts[n, x]
            if (int(row["r"]), int(row["phi_r"])) != (r, phi):
                return f"n = {n}: r, phi_r disagree with order_oracle"
            bound = phi / (3 * r)
            if row["success_bound"] != _fmt(bound):
                return f"n = {n}: success_bound {row['success_bound']}"
            if row["one_third_bound"] != _fmt(1.0 / (3.0 * r * r)):
                return f"n = {n}: one_third_bound {row['one_third_bound']}"
            rate = float(row["order_recovery_rate"])
            sigma = math.sqrt(bound * (1.0 - bound) / trials)
            if rate < bound - 3.0 * sigma:
                return f"n = {n}: recovery rate {rate} misses the bound"
            if not 0.0 <= float(row["factor_rate"]) <= 1.0:
                return f"n = {n}: factor_rate out of [0, 1]"
            if float(row["p_min"]) <= float(row["one_third_bound"]):
                return f"n = {n}: p_min does not exceed 1/(3 r^2)"
        return None

    @staticmethod
    def check_readme(kind: str, want, code: int, out: str):
        if code != 0:
            return f"exit {code}, expected 0"
        if kind == "transcript":
            if _stripped(out) != _stripped(want):
                return "output differs from the README transcript"
            return None
        rec = json.loads(out)
        bad = [k for k, v in want.items() if rec.get(k) != v]
        return f"fields {bad} differ from the README" if bad else None


def cfe_contradictions(argv: list, out: str) -> int:
    """1 when an audit's COND_CFE_DISTINGUISH verdict contradicts its evidence.

    The check should pass exactly when ``indistinguishable_pairs == 0``; a
    disagreement is a known defect, counted rather than hidden.
    """
    if argv[0] != "audit":
        return 0
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if "COND_CFE_DISTINGUISH" in line:
            passed = line.startswith("[PASS]")
            pairs = int(lines[i + 2].split("indistinguishable_pairs = ")[1])
            return int(passed != (pairs == 0))
    return 0
