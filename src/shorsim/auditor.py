"""Register-sizing audit for order-finding demonstrations.

A demonstration fixes the two register widths: s qubits for the argument
register (so q = 2^s) and some width for the function register. Whether the
continued-fraction step can recover orders at all is a pure arithmetic
question about those widths. This module evaluates a configuration against
the necessary conditions and returns a machine-readable verdict:

  A. q >= n^2 - the recovery inequality |c/q - d/r| <= 1/(2q) only pins
     down a unique fraction with denominator below n when 1/q <= 1/n^2.
  B. q < 2 n^2 - the standard upper choice; exceeding it wastes qubits but
     breaks nothing, so a failure here is advisory.
  C. CFE informativeness - the observable values c/q must distinguish all
     reduced fractions d/r with r < n; when they cannot, the audit counts
     the indistinguishable pairs concretely.
  D. function register at least ceil(log2 n) qubits, else x^a mod n does
     not fit.
  E. total qubits at least 3 * ceil(log2 n), the textbook resource count;
     advisory, since ancilla accounting conventions vary.

Checks A, C, D gate the verdict; B and E are recorded but not fatal.
"""

import enum
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numtheory as nt
from .spectrum import FactoringInstance, verify_bounds

COND_Q_GE_N2 = "COND_Q_GE_N2"
COND_Q_LT_2N2 = "COND_Q_LT_2N2"
COND_CFE_DISTINGUISH = "COND_CFE_DISTINGUISH"
COND_REG2_WIDTH = "COND_REG2_WIDTH"
COND_TOTAL_QUBITS = "COND_TOTAL_QUBITS"

SINGLE_QUBIT_NOTE = (
    "A single-qubit argument register admits a degenerate "
    "modular-exponentiation stage: only the exponents a in {0, 1} are "
    "representable, so the x^a circuit collapses to one controlled "
    "multiplication hard-wired for the chosen base. The demonstrated "
    "arithmetic therefore need not contain a general modular-exponentiation "
    "construction, and conclusions drawn from it do not transfer to wider "
    "registers."
)


@dataclass(frozen=True)
class RegisterConfig:
    """The audited object: a modulus and the two register widths."""

    n: int
    register1_qubits: int
    register2_qubits: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"modulus must be >= 3, got {self.n}")
        if self.register1_qubits < 1:
            raise ValueError("register1_qubits must be >= 1")
        if self.register2_qubits < 1:
            raise ValueError("register2_qubits must be >= 1")

    @property
    def q(self) -> int:
        return 1 << self.register1_qubits


class Verdict(enum.Enum):
    COMPLIANT = "compliant"
    NON_COMPLIANT = "non_compliant"


@dataclass(frozen=True)
class AuditCheck:
    """One evaluated condition with its exact integer evidence.

    ``hard`` checks gate the overall verdict; advisory ones are recorded
    only. Evidence values are integers, never floats, so a report is
    bit-reproducible.
    """

    condition_id: str
    description: str
    evidence: dict
    passed: bool
    hard: bool


# Largest modulus the pair counter accepts. Up to it, every q = 2^s below
# n^2 has s <= 31, so the counter's shift 32 - s is at least 1, and each
# key's numerator d 2^32 < 2^48 fits int64. Only the fractions up to 1/2
# are keyed, at 4 bytes each: 2 bytes per fraction (about 0.3 n^2
# fractions: 6 MB at n = 3233, 63 MiB at n = 10403, ~1.3 GB near this n,
# where 8-byte keys of every fraction took ~5 GB). The build adds one row
# of at most n/2 + 1 candidates d <= r/2 at a time, and a pass holds
# O(``_CHUNK``) more, so in practice memory sets the limit below it.
MAX_FRACTION_MODULUS = 46341


@functools.cache
def count_fractions(n: int) -> int:
    """Number of reduced fractions d/r in [0, 1) with denominator r < n.

    1 + sum of phi(r) for 2 <= r < n, with phi from a sieve: each prime p
    multiplies phi(m) by (1 - 1/p) for every multiple m. O(n) memory, and
    no fraction list is built.
    """
    phi = np.arange(n, dtype=np.int64)
    for p in range(2, n):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return 1 + int(phi[2:].sum())


@functools.lru_cache(maxsize=4)
def _fraction_keys(n: int) -> np.ndarray:
    """floor(d 2^32 / r) for every reduced fraction d/r <= 1/2 with r < n.

    One uint32 key per fraction, ascending and read-only: d/r <= 1/2 gives
    keys up to 2^31. Distinct fractions with r < n differ by more than
    2^-32, so the keys are distinct and their order is the fractions'
    order. The fractions above 1/2 are the mirror images 1 - d/r of those
    below it, so for n >= 3 there are (``count_fractions(n)`` + 2)/2 keys:
    0/1, 1/2 and half of the rest. The keys are written one denominator r
    at a time: the units d <= r/2 are the indices left after clearing
    every p-th one for each prime p of ``nt.factorize(r)`` (0/1 is the only
    fraction with d = 0). They fill an array of exactly that many entries,
    so the sieve and the factoriser check each other, and are then sorted
    in place. The keys do not depend on q, so they are built once per n,
    and only the few most recent n are kept: about 0.15 n^2 keys at 4
    bytes each, 608 KB at n = 1001.
    """
    if n > MAX_FRACTION_MODULUS:
        raise ValueError(
            f"the fraction list supports n <= {MAX_FRACTION_MODULUS}, got {n}"
        )
    keys = np.empty((count_fractions(n) + 2) // 2, dtype=np.uint32)
    filled = 0
    for r in range(1, n):
        units = np.ones(r // 2 + 1, dtype=bool)
        for p in nt.factorize(r):
            units[::p] = False
        d = np.flatnonzero(units)
        keys[filled:filled + d.size] = (d << 32) // r
        filled += d.size
    assert filled == keys.size, (filled, keys.size)
    keys.sort()
    keys.flags.writeable = False
    return keys


# Keys per step of the pair count's pass: 2^16, so that the chunk, its
# uint32 buckets and its run starts (256 KB, 256 KB and up to 512 KB) stay
# in a core's cache.
_CHUNK = 1 << 16


def count_indistinguishable_pairs(n: int, q: int) -> int:
    """Pairs of distinct reduced fractions d/r (r < n) the CFE cannot separate.

    Two fractions are indistinguishable when some observable c lies within
    1/(2q) of both, so a measurement consistent with one is consistent with
    the other. For each c the number of consistent fractions k_c is
    counted and the pair count is sum over c of C(k_c, 2); a pair can
    share at most one c unless both fractions sit exactly on the midpoint
    between neighbouring grid points, which distinct fractions cannot, so
    nothing is double counted. For q >= n^2 the count is provably zero:
    distinct candidate fractions differ by more than 1/(n-1)^2 > 1/q, and
    no fraction list is built. For n < 3 the only fraction is 0/1, so the
    count is zero too. q must be a power of two.

    The c consistent with d/r satisfy |2cr - 2dq| <= r, the integers from
    lo = ceil(dq/r - 1/2) to hi = floor(dq/r + 1/2). With q = 2^s and
    sh = 32 - s (at least 1, since s <= 31 whenever q < n^2 and
    n <= ``MAX_FRACTION_MODULUS``), hi = (y + 2^(sh-1)) >> sh for the
    cached key y = floor(d 2^32 / r): adding an integer and flooring by
    2^sh commutes with the floor inside y. For q >= 2, y + 2^(sh-1) is at
    most 2^31 + 2^30, so hi is computed in uint32. lo < hi only when
    d/r = (2c+1)/(2q), which in lowest terms has r = 2q, so such midpoint
    fractions exist only when 2q < n. Then there is exactly one for each
    c < q, in c's window and in c + 1's. Write m = 1 when 2q < n, else 0.

    Only the fractions f <= 1/2 are keyed. f -> 1 - f maps the fractions
    in (0, 1) onto themselves and the window of c onto that of q - c,
    while 0/1 lies only in the window of c = 0, so k_c = k_(q-c) for
    0 < c < q. For q >= 2 the keyed hi ascend from 0 to q/2, so the keys
    with equal hi form one run of length R_h, and:
      - 0 < c < q/2: k_c = R_c + m, its run plus the midpoint
        (2c+1)/(2q), whose hi is c + 1; the same for k_(q-c);
      - c = 0: k_0 = R_0 + m, where R_0 holds 0/1;
      - c = q/2: the last run holds 1/2 and the keyed fractions within
        1/(2q) below it; their mirrors above 1/2 are all the rest of
        c's window, so k_(q/2) = 2 R_last - 1.
    So the count is C(R_0 + m, 2) + 2 sum C(R_c + m, 2) over the middle
    runs + C(2 R_last - 1, 2), and an empty bucket adds C(m, 2) = 0. With
    M keys in the middle runs, 2 sum C(R_c + m, 2) = sum R_c^2 + (2m - 1) M
    (m^2 = m). At q = 1 the one window, c = 0, holds every keyed fraction
    and no other.

    The pass takes hi over ``_CHUNK`` keys at a time, each chunk with the
    last key of the one before, so every run start is found once, wherever
    it falls. The open run is carried across chunks as the index of its
    first key and closed at the next start. The pass needs no division, no
    q-long array and O(``_CHUNK``) memory; R_0 is one binary search.
    """
    if q < 1 or q & (q - 1):
        raise ValueError(f"q must be a power of two, got {q}")
    if q >= n * n or n < 3:
        return 0
    sh = 33 - q.bit_length()
    half = 1 << (sh - 1)
    keys = _fraction_keys(n)
    if q == 1:  # one window, [-1/2, 1/2], holding every keyed fraction
        return keys.size * (keys.size - 1) // 2
    squares = 0  # sum of R^2 over the closed runs
    start = 0  # index of the open run's first key
    for i in range(0, keys.size, _CHUNK):
        base = max(i - 1, 0)
        hi = keys[base:i + _CHUNK] + half
        hi >>= sh
        starts = np.flatnonzero(hi[1:] != hi[:-1])
        if starts.size:
            starts += base + 1
            runs = starts[1:] - starts[:-1]
            squares += (int(starts[0]) - start) ** 2 + int(runs @ runs)
            start = int(starts[-1])
    first = int(np.searchsorted(keys, np.uint32(half)))  # hi = 0
    last = keys.size - start
    m = int(2 * q < n)
    middle = keys.size - first - last
    pairs = squares - first * first + (2 * m - 1) * middle
    pairs += (first + m) * (first + m - 1) // 2
    return pairs + (2 * last - 1) * (2 * last - 2) // 2


@dataclass(frozen=True)
class AuditReport:
    """Outcome of an audit: checks, verdict, and the failed-condition list."""

    config: RegisterConfig
    checks: tuple
    verdict: Verdict
    narrative: tuple
    notes: tuple

    def check(self, condition_id: str) -> AuditCheck:
        for c in self.checks:
            if c.condition_id == condition_id:
                return c
        raise KeyError(condition_id)

    def to_text(self) -> str:
        cfg = self.config
        lines = [
            "audit report",
            f"n = {cfg.n}  register1_qubits = {cfg.register1_qubits} "
            f"(q = {cfg.q})  register2_qubits = {cfg.register2_qubits}",
            "",
        ]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            grade = "hard" if c.hard else "advisory"
            lines.append(f"[{status}] {c.condition_id} ({grade})")
            lines.append(f"       {c.description}")
            ev = "  ".join(f"{k} = {v}" for k, v in c.evidence.items())
            lines.append(f"       {ev}")
        lines.append("")
        lines.append(f"verdict: {self.verdict.value}")
        if self.narrative:
            lines.append("violated: " + ", ".join(self.narrative))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def audit(config: RegisterConfig) -> AuditReport:
    """Evaluate all five register conditions; A, C, D decide the verdict."""
    n, s = config.n, config.register1_qubits
    q = config.q
    ell = (n - 1).bit_length()
    reg2 = config.register2_qubits
    nsq = n * n

    check_a = AuditCheck(
        condition_id=COND_Q_GE_N2,
        description="q >= n^2, the lower register-size condition for "
        "continued-fraction recovery",
        evidence={"q": q, "n_squared": nsq},
        passed=q >= nsq,
        hard=True,
    )
    check_b = AuditCheck(
        condition_id=COND_Q_LT_2N2,
        description="q < 2 n^2, the standard upper register-size choice",
        evidence={"q": q, "two_n_squared": 2 * nsq},
        passed=q < 2 * nsq,
        hard=False,
    )

    pairs = count_indistinguishable_pairs(n, q)
    fractions = count_fractions(n)
    desc_c = (
        "the observable values c/q must distinguish all reduced "
        "fractions d/r with r < n"
    )
    if pairs > 0 and q <= 32:
        observable = "{" + ", ".join(str(c) for c in range(q)) + "}"
        desc_c += f"; the only observable c values are {observable}"
    check_c = AuditCheck(
        condition_id=COND_CFE_DISTINGUISH,
        description=desc_c,
        evidence={
            "q": q,
            "n_squared": nsq,
            "fraction_count": fractions,
            "indistinguishable_pairs": pairs,
        },
        passed=q >= nsq,
        hard=True,
    )
    check_d = AuditCheck(
        condition_id=COND_REG2_WIDTH,
        description="function register must hold all residues x^a mod n: "
        "register2_qubits >= ceil(log2 n)",
        evidence={"register2_qubits": reg2, "ell": ell},
        passed=reg2 >= ell,
        hard=True,
    )
    check_e = AuditCheck(
        condition_id=COND_TOTAL_QUBITS,
        description="total qubit budget of the textbook construction: "
        "s + register2_qubits >= 3 * ceil(log2 n)",
        evidence={"total_qubits": s + reg2, "three_ell": 3 * ell},
        passed=s + reg2 >= 3 * ell,
        hard=False,
    )

    checks = (check_a, check_b, check_c, check_d, check_e)
    failed = tuple(c.condition_id for c in checks if not c.passed)
    hard_fail = any(not c.passed and c.hard for c in checks)
    notes = (SINGLE_QUBIT_NOTE,) if s == 1 else ()
    return AuditReport(
        config=config,
        checks=checks,
        verdict=Verdict.NON_COMPLIANT if hard_fail else Verdict.COMPLIANT,
        narrative=failed,
        notes=notes,
    )


@dataclass(frozen=True)
class ApplicabilityReport:
    """Whether the probability-floor argument applies at a given width.

    The 4/(pi^2 r^2) floor comes from replacing the amplitude sum by an
    integral, a step that needs many terms, i.e. r much smaller than q.
    When q < n^2 the report carries the ratio r/q showing the approximation
    has no room; when q >= n^2 it carries the verified p_min instead.
    """

    n: int
    x: int
    s: int
    q: int
    r: int
    applicable: bool
    r_over_q: float
    p_min: Optional[float]
    one_third_bound: Optional[float]
    explanation: str


def bound_argument_applicability(
    config: RegisterConfig, x: int
) -> ApplicabilityReport:
    """Check whether the amplitude-integral estimate is meaningful at (n, s)."""
    n, s, q = config.n, config.register1_qubits, config.q
    instance = FactoringInstance.create(n, x)
    r = instance.r
    applicable = q >= n * n
    if applicable:
        report = verify_bounds(instance, q)
        p_min, one_third = report.p_min, report.one_third_bound
        explanation = (
            f"applicable: verified p_min = {p_min:.12g} over good (c, k) "
            f"against 1/(3 r^2) = {one_third:.12g}"
        )
    else:
        p_min = one_third = None
        # The largest class, k = 0, holds the exponents 0, r, 2r, ... < q.
        explanation = (
            f"inapplicable: the integral estimate of the amplitude sum "
            f"requires r much smaller than q, but r/q = {r}/{q} = "
            f"{r / q:g}; with q = 2^{s} the sum has at most "
            f"{(q - 1) // r + 1} terms per residue class"
        )
    return ApplicabilityReport(
        n=n, x=x, s=s, q=q, r=r,
        applicable=applicable,
        r_over_q=r / q,
        p_min=p_min,
        one_third_bound=one_third,
        explanation=explanation,
    )
