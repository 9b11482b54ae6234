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
    c, k = table.sample(np.random.default_rng(seed))
    return RunTrace(instance, q, c, k, *_classify(instance, q, c))


# SeedSequence's hash and mix constants and PCG64's multiplier. NumPy keeps
# both seeding algorithms stable across versions (NEP 19).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1
_U32 = np.uint64(_M32)
_MULT_HI = np.uint64(_PCG64_MULT >> 64)
_MULT_LO = np.uint64(_PCG64_MULT & _M64)

# Trials are drawn this many at a time, so per-trial temporaries stay
# O(_BLOCK) whatever the trial count.
_BLOCK = 1 << 13


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


def _child_seeds(master: np.random.SeedSequence, start: int, count: int):
    """``generate_state(4, np.uint64)`` of ``count`` of master's children.

    The children are the ones ``master.spawn`` would number
    n_children_spawned + start onwards; they are not built. Child i hashes
    the master's entropy words, zero-padded to the pool size, then its
    spawn key: the master's plus its number. Only that last word differs
    between children, so the pool is mixed once up to it, and the last
    word and generate_state's output hash run over all children at once on
    arrays. Returns the four uint64 arrays of seed words. The caller keeps
    every child number below 2^32, so it is one word.
    """
    pool_size = master.pool_size
    entropy = _words(master.entropy)
    entropy += [0] * (pool_size - len(entropy))
    entropy += _words(master.spawn_key)
    first = master.n_children_spawned + start
    entropy.append(np.arange(first, first + count, dtype=np.uint64))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:pool_size]]
    for src in range(pool_size):
        for dst in range(pool_size):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[pool_size:]:
        for dst in range(pool_size):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # Eight 32-bit output words, paired little-endian.
    out_hash = _hasher(_INIT_B, _MULT_B)
    out = [out_hash(pool[i % pool_size]) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _mul_wide(a: np.ndarray, b: int) -> tuple:
    """The 128-bit products a * b of a uint64 array and a 64-bit int, as
    (high, low) words.

    Each factor is split into 32-bit limbs, so no partial product wraps.
    """
    a0, a1 = a & _U32, a >> 32
    b0, b1 = np.uint64(b & _M32), np.uint64(b >> 32)
    low, cross0, cross1 = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> 32) + (cross0 & _U32) + (cross1 & _U32)
    high = a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    return high, mid << 32 | low & _U32


def _lcg(state: tuple, inc: tuple) -> tuple:
    """PCG64's step, state * MULT + inc mod 2^128, on (high, low) words."""
    hi, lo = state
    inc_hi, inc_lo = inc
    prod_hi, prod_lo = _mul_wide(lo, _PCG64_MULT & _M64)
    # The high word also gets hi * MULT_LO + lo * MULT_HI, both mod 2^64.
    hi = prod_hi + hi * _MULT_LO + lo * _MULT_HI + inc_hi
    lo = prod_lo + inc_lo
    return hi + (lo < inc_lo), lo


def _pcg64_seeded(seeds: list) -> tuple:
    """(state, inc) as ``pcg64_set_seed`` leaves them for each seed.

    ``seeds`` are the four words of generate_state(4, np.uint64); the first
    two are the initial state, the last two the stream, shifted left once
    with the low bit set. Each 128-bit value is a (high, low) pair of
    uint64 arrays.
    """
    w0, w1, w2, w3 = seeds
    one = np.uint64(1)
    inc = (w2 << one | w3 >> np.uint64(63), w3 << one | one)
    lo = w1 + inc[1]
    start = (w0 + inc[0] + (lo < w1), lo)
    return _lcg(start, inc), inc


def _xsl_rr(state: tuple) -> np.ndarray:
    """PCG64's output: the state's two words xored, rotated right by its
    top six bits."""
    hi, lo = state
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    return x >> rot | x << (np.uint64(64) - rot & np.uint64(63))


def _pcg64_words(state: tuple, inc: tuple, count: int) -> list:
    """The first ``count`` 64-bit outputs of each seeded PCG64 stream."""
    words = []
    for _ in range(count):
        state = _lcg(state, inc)
        words.append(_xsl_rr(state))
    return words


def _unit(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each word: its top 53 bits times 2^-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _lemire32(words: np.ndarray, span: np.ndarray) -> tuple:
    """``Generator.integers(0, span)`` of each word's low 32 bits.

    NumPy draws an int64 below span <= 2^32 - 1 by Lemire's method on one
    32-bit output: the high word of low32 * span. Returns those draws and a
    mask of the draws it would not take as they stand: it rejects and
    draws again when the leftover low word falls below a threshold smaller
    than span, so a leftover below span is flagged.
    """
    span = span.astype(np.uint64)
    m = (words & _U32) * span
    return (m >> 32).astype(np.int64), (m & _U32) < span


def _draws(table: SpectrumTable, master, start: int, count: int) -> tuple:
    """Lists of the c and k ``table.sample`` draws for ``count`` trials.

    Trial i samples with ``default_rng`` of master's spawned child number
    n_children_spawned + start + i. Its first three PCG64 outputs are
    computed for all trials at once and mapped as the Generator calls of
    ``sample`` map them: one ``random()`` for c, a second for k's group
    when q % r != 0, then ``integers`` on the next output. A trial whose k
    draw numpy might reject is drawn again by ``sample`` from
    ``default_rng`` of that child, built as ``SeedSequence.spawn`` builds
    it.
    """
    words = _pcg64_words(*_pcg64_seeded(_child_seeds(master, start, count)), 3)
    c, lo, hi = table.inverse_cdf(_unit(words[0]), _unit(words[1]))
    k, redraw = _lemire32(words[1 + bool(table.q % table.r)], hi - lo)
    k += lo
    first = master.n_children_spawned + start
    for i in np.flatnonzero(redraw).tolist():
        child = np.random.SeedSequence(
            master.entropy, spawn_key=(*master.spawn_key, first + i),
            pool_size=master.pool_size,
        )
        c[i], k[i] = table.sample(np.random.default_rng(child))
    return c.tolist(), k.tolist()


def run_trials(n: int, x: int, trials: int, seed) -> list[RunTrace]:
    """Run independent trials with per-trial seeds derived from one master.

    The spectrum is built once and shared, and so is the outcome of each
    distinct c. Trial i draws (c, k) as ``table.sample`` does from
    ``default_rng(child)`` for the master's spawned child number
    n_children_spawned + i, so any single trial can be reproduced in
    isolation: for an int seed, trial i is
    ``default_rng(SeedSequence(seed).spawn(trials)[i])``. No Generator is
    built per trial: for each block of ``_BLOCK`` trials, the seeds, the
    PCG64 outputs and the numpy draws made from them are computed bit for
    bit on arrays, and only a trial whose k draw numpy might reject is
    drawn by ``table.sample`` itself. NumPy makes n_children_spawned
    read-only, so a SeedSequence master is not advanced: two calls with the
    same master return equal traces. NumPy counts spawned children in 32
    bits, so trials may not exceed 2^32 - 1 - n_children_spawned, which
    also keeps each child's index one spawn-key word.
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
    traces = []
    for start in range(0, trials, _BLOCK):
        c, k = _draws(table, master, start, min(_BLOCK, trials - start))
        for value in set(c).difference(outcomes):
            outcomes[value] = _classify(instance, q, value)
        traces += [
            RunTrace(instance, q, c_i, k_i, *outcomes[c_i])
            for c_i, k_i in zip(c, k)
        ]
    return traces


def success_bound(r: int) -> float:
    """Per-invocation lower bound phi(r)/(3 r) on order recovery.

    Composed from: r residue classes k, phi(r) informative c values, and
    joint probability at least 1/(3 r^2) for each such pair.
    """
    return nt.euler_phi(r) / (3 * r)


@dataclass(frozen=True)
class SuccessEstimate:
    """Monte-Carlo aggregate of run_trials outcomes for one (n, x).

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
        t.recovered is not None and t.recovered[1] == r for t in traces
    )
    # A trace without a failure reason emitted a factor pair.
    reasons = Counter(t.failure_reason for t in traces)
    factor_hits = reasons.pop(None, 0)
    failures = {reason.value: reasons[reason] for reason in FailureReason}

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
