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


# SeedSequence's hash and mix constants and PCG64's multiplier. NumPy keeps
# both seeding algorithms stable across versions (NEP 19).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _words(x) -> list[int]:
    """x as SeedSequence reads it: 32-bit words, least significant first.

    An int is split into words (0 is one word), a string is read as a
    decimal or 0x-prefixed hexadecimal int, and a sequence is the
    concatenation of its items' words.
    """
    if isinstance(x, str):
        x = int(x, 16 if x.startswith("0x") else 10)
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & _M32]
        while x > _M32:
            x >>= 32
            words.append(x & _M32)
        return words
    return [w for item in x for w in _words(item)]


def _hasher(init: int, mult: int):
    """SeedSequence's word hash; its running constant advances per call.

    Works alike on Python ints and on uint64 arrays of 32-bit words.
    """
    const = init

    def hash_word(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hash_word


def _mix(x, y):
    result = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return result ^ result >> 16


def _trial_generators(master: np.random.SeedSequence, trials: int):
    """Yield a generator per trial, as ``default_rng`` seeds ``master``'s
    next ``trials`` spawned children, without building the children.

    Child i hashes the master's entropy words, zero-padded to the pool
    size, then its spawn key: the master's plus n_children_spawned + i.
    Only that last word differs between children, so the pool is mixed
    once up to it, and the last word and generate_state's output hash run
    over all children at once on arrays. Each child's four 64-bit words
    seed PCG64 as ``pcg64_set_seed`` does, and that state is loaded into
    one reused Generator, so each yielded generator is valid until the
    next is drawn. The caller keeps n_children_spawned + trials < 2^32, so
    every child index is one word.
    """
    pool_size = master.pool_size
    entropy = _words(master.entropy)
    entropy += [0] * (pool_size - len(entropy))
    entropy += _words(master.spawn_key)
    first = master.n_children_spawned
    entropy.append(np.arange(first, first + trials, dtype=np.uint64))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:pool_size]]
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[pool_size:]:
        for dst in range(pool_size):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(4, np.uint64): eight 32-bit words paired little-endian.
    out_hash = _hasher(_INIT_B, _MULT_B)
    out = [out_hash(pool[i % pool_size]) for i in range(8)]
    seeds = [(out[i] | out[i + 1] << 32).tolist() for i in range(0, 8, 2)]

    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    pcg = {}
    state = {"bit_generator": "PCG64", "state": pcg,
             "has_uint32": 0, "uinteger": 0}
    for w0, w1, w2, w3 in zip(*seeds):
        inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        pcg["state"] = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _M128
        pcg["inc"] = inc
        bit_generator.state = state
        yield rng


def run_trials(n: int, x: int, trials: int, seed) -> list[RunTrace]:
    """Run independent trials with per-trial seeds derived from one master.

    The spectrum is built once and shared, and so is the outcome of each
    distinct c. Trial i draws from ``default_rng(child)`` for the master's
    spawned child number n_children_spawned + i, so any single trial can
    be reproduced in isolation: for an int seed, trial i is
    ``default_rng(SeedSequence(seed).spawn(trials)[i])``. NumPy makes
    n_children_spawned read-only, so a SeedSequence master is not advanced:
    two calls with the same master return equal traces. NumPy counts
    spawned children in 32 bits, so trials may not exceed
    2^32 - 1 - n_children_spawned, which also keeps each child's index one
    spawn-key word.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if isinstance(seed, np.random.SeedSequence):
        master = seed
    else:
        master = np.random.SeedSequence(seed)
    limit = 2**32 - 1 - master.n_children_spawned
    if trials > limit:
        raise ValueError(
            f"trials must be <= 2**32 - 1 - n_children_spawned = {limit}, "
            f"got {trials}"
        )
    instance, q, table = _setup(n, x)
    outcomes = {}
    return [
        _trace(instance, q, table, rng, outcomes)
        for rng in _trial_generators(master, trials)
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
