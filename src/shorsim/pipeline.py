"""End-to-end classical simulation of one Shor order-finding invocation.

The quantum part of the algorithm only influences the classical outcome
through the measurement distribution P(c, k), which the spectrum module
computes exactly; ``SpectrumTable.sample`` draws from it. This module
strings the steps together the way a single run of the hardware would
experience them: choose q = 2^s with n^2 <= q < 2 n^2, draw (c, k) from the
table, round c/q to a nearby fraction d/r by continued fractions, verify
the candidate order, and try to split n through gcd(x^(r/2) +- 1, n).

Every trial is classified into exactly one terminal outcome: a factor pair,
or one of six failure reasons. The taxonomy separates "the measurement was
uninformative" (bad_c_no_recovery), "the fraction collapsed" (gcd(d, r) > 1
understates the order), and the arithmetic dead ends of the extraction step,
so Monte-Carlo aggregates can be compared against the phi(r)/(3r)
per-invocation lower bound term by term. The outcome is a function of the
measured c alone, since k never enters the post-processing, so it is
computed once per distinct c and shared by every trial that measured it.
"""

import enum
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import numtheory as nt
from .spectrum import FactoringInstance, SpectrumTable, build_spectrum


class FailureReason(enum.Enum):
    """Terminal classification of an unsuccessful run."""

    BAD_C_NO_RECOVERY = "bad_c_no_recovery"
    D_R_NOT_COPRIME_UNDERSTATES_R = "d_r_not_coprime_understates_r"
    ORDER_CHECK_FAILED = "order_check_failed"
    ODD_ORDER = "odd_order"
    X_POW_HALF_R_IS_MINUS_ONE = "x_pow_half_r_is_minus_one"
    TRIVIAL_GCD = "trivial_gcd"


class QChoice(NamedTuple):
    s: int
    q: int


def choose_q(n: int) -> QChoice:
    """The unique power of two q = 2^s with n^2 <= q < 2 n^2, plus s.

    Uniqueness is immediate: the interval spans a factor of two, so it
    contains exactly one power of two.
    """
    if n < 3:
        raise ValueError(f"modulus must be >= 3, got {n}")
    s = (n * n - 1).bit_length()
    return QChoice(s=s, q=1 << s)


@dataclass(frozen=True)
class RunTrace:
    """Everything observable about a single simulated invocation.

    ``recovered`` is the continued-fraction output (d, r_candidate) or None
    when the sampled c admits no recovery. ``factors`` is a sorted pair of
    nontrivial divisors of n when extraction succeeded, else None, in which
    case ``failure_reason`` says why.
    """

    instance: FactoringInstance
    q: int
    sampled_c: int
    sampled_k: int
    recovered: Optional[tuple[int, int]]
    order_verified: bool
    factors: Optional[tuple[int, int]]
    failure_reason: Optional[FailureReason]

    def __post_init__(self):
        if (self.factors is None) == (self.failure_reason is None):
            raise ValueError("exactly one of factors/failure_reason is set")
        if self.factors is not None:
            f1, f2 = self.factors
            n = self.instance.n
            if not (1 < f1 < n and 1 < f2 < n and f1 * f2 == n):
                raise ValueError(f"bad factor pair {self.factors} for {n}")
        if self.order_verified:
            d, r_cand = self.recovered
            if nt.mod_pow(self.instance.x, r_cand, self.instance.n) != 1:
                raise ValueError("order_verified set but check fails")

    @property
    def succeeded(self) -> bool:
        return self.factors is not None

    def to_record(self) -> dict:
        """Flat record with absent optionals kept explicit as None.

        The instance's fields (n, x, ell, r) come first, in declaration
        order.
        """
        d, r_cand = self.recovered if self.recovered else (None, None)
        f1, f2 = self.factors if self.factors else (None, None)
        return {
            **asdict(self.instance),
            "q": self.q,
            "sampled_c": self.sampled_c,
            "sampled_k": self.sampled_k,
            "recovered_d": d,
            "recovered_r": r_cand,
            "order_verified": self.order_verified,
            "factor_1": f1,
            "factor_2": f2,
            "failure_reason": (
                self.failure_reason.value if self.failure_reason else None
            ),
        }


def sample_measurement(table: SpectrumTable, seed) -> tuple[int, int]:
    """Draw one (c, k) with ``table.sample``; deterministic given seed."""
    return table.sample(np.random.default_rng(seed))


def recover_order(
    c: int, q: int, n: int
) -> Optional[tuple[int, int]]:
    """Round c/q to the unique nearby fraction d/r with r < n.

    Delegates to the continued-fraction recovery with denominator bound n.
    c = 0 is mapped to None: the recovery (0, 1) exists formally but says
    nothing about the order.
    """
    if c == 0:
        return None
    return nt.recover_rational(c, q, n)


def validate_modulus(n: int) -> None:
    """Reject n for which gcd extraction cannot work, naming the reason.

    Factor extraction needs n odd, composite, and not a prime power; even n
    and prime powers are split classically, and primes have nothing to
    split.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be an odd integer >= 3, got {n}")
    factors = nt.factorize(n)
    if factors == {n: 1}:
        raise ValueError(f"n must be composite, got prime {n}")
    if len(factors) == 1:
        [(p, e)] = factors.items()
        raise ValueError(f"n must not be a prime power, got {n} = {p}^{e}")


def _classify(instance: FactoringInstance, q: int, c: int) -> tuple:
    """Run the classical post-processing of one measured c to its outcome.

    Returns the RunTrace fields (recovered, order_verified, factors,
    failure_reason). They depend on c alone; k never enters.
    """
    n, x, r = instance.n, instance.x, instance.r
    recovered = recover_order(c, q, n)
    if recovered is None:
        return None, False, None, FailureReason.BAD_C_NO_RECOVERY
    _, r_cand = recovered
    if nt.mod_pow(x, r_cand, n) != 1:
        # A proper divisor of r arises exactly when gcd(d, r) > 1 was
        # divided out of the true fraction d/r during reduction.
        if r_cand < r and r % r_cand == 0:
            reason = FailureReason.D_R_NOT_COPRIME_UNDERSTATES_R
        else:
            reason = FailureReason.ORDER_CHECK_FAILED
        return recovered, False, None, reason
    if r_cand % 2:
        return recovered, True, None, FailureReason.ODD_ORDER
    y = nt.mod_pow(x, r_cand // 2, n)
    if y == n - 1:
        return recovered, True, None, FailureReason.X_POW_HALF_R_IS_MINUS_ONE
    for f in (math.gcd(y - 1, n), math.gcd(y + 1, n)):
        if 1 < f < n:
            return recovered, True, (min(f, n // f), max(f, n // f)), None
    return recovered, True, None, FailureReason.TRIVIAL_GCD


def _trace(
    instance: FactoringInstance,
    q: int,
    table: SpectrumTable,
    rng: np.random.Generator,
    outcomes: dict,
) -> RunTrace:
    """Sample once; ``outcomes`` memoises the classification by c."""
    c, k = table.sample(rng)
    if c not in outcomes:
        outcomes[c] = _classify(instance, q, c)
    return RunTrace(instance, q, c, k, *outcomes[c])


def _setup(n: int, x: int) -> tuple[FactoringInstance, int, SpectrumTable]:
    """Validate (n, x); build the instance and its spectrum at choose_q."""
    validate_modulus(n)
    instance = FactoringInstance.create(n, x)
    q = choose_q(n).q
    return instance, q, build_spectrum(instance, q)


def run_once(n: int, x: int, seed) -> RunTrace:
    """One full invocation: choose q, sample, recover, verify, extract.

    Deterministic: identical (n, x, seed) produce identical traces. A base
    sharing a factor with n raises NotAUnitError carrying that factor; the
    caller can treat it as success by accident, since no quantum step is
    needed.
    """
    instance, q, table = _setup(n, x)
    return _trace(instance, q, table, np.random.default_rng(seed), {})


def run_trials(n: int, x: int, trials: int, seed) -> list[RunTrace]:
    """Run independent trials with per-trial seeds derived from one master.

    The spectrum is built once and shared, and so is the outcome of each
    distinct c. Each trial gets its own generator spawned from the master
    seed, so any single trial can be reproduced in isolation.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    instance, q, table = _setup(n, x)
    if isinstance(seed, np.random.SeedSequence):
        master = seed
    else:
        master = np.random.SeedSequence(seed)
    outcomes = {}
    return [
        _trace(instance, q, table, np.random.default_rng(child), outcomes)
        for child in master.spawn(trials)
    ]


def success_bound(r: int) -> float:
    """Per-invocation lower bound phi(r)/(3 r) on order recovery.

    Composed from: r residue classes k, phi(r) informative c values, and
    joint probability at least 1/(3 r^2) for each such pair.
    """
    return nt.euler_phi(r) / (3 * r)


@dataclass(frozen=True)
class SuccessEstimate:
    """Monte-Carlo aggregate of run_once outcomes for one (n, x).

    ``order_recovery_rate`` counts trials whose recovered r_candidate equals
    the true order exactly; ``factor_rate`` counts trials that emitted a
    nontrivial factor pair. ``bound_satisfied`` holds when the recovery rate
    clears success_bound(r) within 3-sigma binomial noise.
    ``phi_over_r_loglog`` reports phi(r)/r * log log r, the combination the
    asymptotic density argument bounds below by a constant; it is recorded
    for inspection, nothing is asserted about the constant.
    """

    n: int
    x: int
    r: int
    q: int
    trials: int
    order_recovery_count: int
    order_recovery_rate: float
    factor_count: int
    factor_rate: float
    success_bound: float
    bound_satisfied: bool
    phi_r: int
    phi_over_r_loglog: float
    failure_counts: dict


def estimate_success(n: int, x: int, trials: int, seed) -> SuccessEstimate:
    """Empirical order-recovery and factoring rates over seeded trials."""
    traces = run_trials(n, x, trials, seed)
    instance = traces[0].instance
    r = instance.r
    order_hits = sum(
        1 for t in traces if t.recovered and t.recovered[1] == r
    )
    tally = Counter(t.failure_reason for t in traces)
    factor_hits = tally[None]
    failures = {reason.value: tally[reason] for reason in FailureReason}

    bound = success_bound(r)
    sigma = math.sqrt(bound * (1.0 - bound) / trials)
    rate = order_hits / trials
    phi = nt.euler_phi(r)
    return SuccessEstimate(
        n=n,
        x=instance.x,
        r=r,
        q=traces[0].q,
        trials=trials,
        order_recovery_count=order_hits,
        order_recovery_rate=rate,
        factor_count=factor_hits,
        factor_rate=factor_hits / trials,
        success_bound=bound,
        bound_satisfied=rate >= bound - 3.0 * sigma,
        phi_r=phi,
        phi_over_r_loglog=phi / r * math.log(math.log(r)),
        failure_counts=failures,
    )
