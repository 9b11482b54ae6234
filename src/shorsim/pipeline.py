"""End-to-end classical simulation of one Shor order-finding invocation.

The quantum part of the algorithm only influences the classical outcome
through the measurement distribution P(c, k), which the spectrum module
computes exactly; ``SpectrumTable.sample`` draws from it. This module
strings the steps together the way a single run of the hardware would
experience them: choose q = 2^s with n^2 <= q < 2 n^2, draw (c, k) (from
the table at q <= 2^16, bit by bit in the eigenbasis above it), round c/q
to a nearby fraction d/r by continued fractions, verify the candidate
order, and try to split n through gcd(x^(r/2) +- 1, n).

Every trial is classified into exactly one terminal outcome: a factor pair,
or one of six failure reasons. The taxonomy separates "the measurement was
uninformative" (bad_c_no_recovery), "the fraction collapsed" (gcd(d, r) > 1
understates the order), and the arithmetic dead ends of the extraction step,
so Monte-Carlo aggregates can be compared against the phi(r)/(3r)
per-invocation lower bound term by term. The outcome is a function of the
measured c alone, since k never enters the post-processing, so it is
computed once per distinct c and shared by every trial that measured it.
It is even computed once per mirror pair {c, q - c}: the outcome of q - c
is that of c with the recovered fraction d/r' replaced by (r' - d)/r'
(``_mirrored``). ``run_trials`` finds each block's distinct c and (c, k) by
sorting in numpy, builds one frozen ``RunTrace`` per distinct (c, k) and
hands the same object to every trial that drew that pair.
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


def _mirrored(outcome: tuple) -> tuple:
    """``_classify``'s outcome for q - c, given its outcome for c, 0 < c < q.

    The convergents of 1 - c/q are 0/1, 1/1 and 1 - d/r' for each
    convergent d/r' of c/q, with the same denominators, and the acceptance
    test 2|c r' - d q| <= r' is unchanged under (c, d) -> (q - c, r' - d).
    So q - c recovers (r' - d, r') where c recovers (d, r'), and neither
    recovers when the other does not. The order check, the parity check
    and the gcd split read only r', so the rest of the outcome is c's.
    """
    recovered, *rest = outcome
    if recovered is None:
        return outcome
    d, r_cand = recovered
    return ((r_cand - d, r_cand), *rest)


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


def _word_count(x) -> int:
    """How many 32-bit words SeedSequence reads from x.

    An int takes one word per started 32 bits (0 takes one), a string is
    read as a decimal or 0x-prefixed hexadecimal int, and a sequence takes
    the sum of its items' counts.
    """
    if isinstance(x, str):
        x = int(x, 16 if x.startswith("0x") else 10)
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    return sum(map(_word_count, x))


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


# Quoted, so that defining it does not import numpy.random (~10 ms).
def _child_seeds(master: "np.random.SeedSequence", start: int, count: int):
    """``generate_state(4, np.uint64)`` of ``count`` of master's children.

    The children are the ones ``master.spawn`` would number
    n_children_spawned + start onwards; they are not built. A child's
    entropy is the master's with its number appended to the spawn key, so
    its pool is ``master.pool`` with that one word mixed into each pool
    word. NumPy hashes it with the running constant where the master's
    build left it: INIT_A * MULT_A^calls mod 2^32, after
    calls = pool_size * (max(entropy words, pool_size) + spawn-key words)
    hashes. That word and generate_state's output hash run over all
    children at once on arrays. Returns the four uint64 arrays of seed
    words. The caller keeps every child number below 2^32, so it is one
    word.
    """
    pool_size = master.pool_size
    calls = pool_size * (
        max(_word_count(master.entropy), pool_size)
        + _word_count(master.spawn_key)
    )
    hashmix = _hasher(_INIT_A * pow(_MULT_A, calls, 1 << 32) & _M32, _MULT_A)
    first = master.n_children_spawned + start
    number = np.arange(first, first + count, dtype=np.uint64)
    pool = [_mix(word, hashmix(number)) for word in master.pool.tolist()]

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


def _lemire32(words: np.ndarray, span: np.ndarray) -> tuple:
    """``Generator.integers(0, span)`` of each word's low 32 bits.

    ``span`` is an int or an array of one span per word.

    NumPy draws an int64 below span <= 2^32 - 1 by Lemire's method on one
    32-bit output: the high word of low32 * span. Returns those draws and a
    mask of the draws it would not take as they stand: it rejects and
    draws again when the leftover low word falls below a threshold smaller
    than span, so a leftover below span is flagged.
    """
    span = np.asarray(span, np.uint64)
    m = (words & _U32) * span
    return (m >> 32).astype(np.int64), (m & _U32) < span


class _Streams:
    """A lockstep stand-in for a block of seeded PCG64 Generators.

    Built from each stream's four seed words (``_child_seeds``), it answers
    the Generator calls ``SpectrumTable.draw`` makes, one value per stream:

    - ``random()`` is the top 53 bits of each stream's next 64-bit output
      times 2^-53, and ``random(s)`` is s of those.
    - ``integers(lo, hi)`` is ``_lemire32`` of the low half of a new
      output. The high half is kept for the next ``integers`` call, as
      PCG64's 32-bit buffer keeps it, and ``random`` leaves it alone. Each
      call ORs into ``redraw`` the streams whose draw numpy might reject.

    numpy reads nothing for ``integers`` over a span of one value, but this
    stand-in still reads an output or the kept half. So the streams match
    their Generators only if a call that can span one value is the last
    call made.
    """

    def __init__(self, seeds: list):
        # pcg64_set_seed: the first two words are the initial state, the
        # last two the stream, shifted left once with the low bit set.
        w0, w1, w2, w3 = seeds
        one = np.uint64(1)
        self._inc = (w2 << one | w3 >> np.uint64(63), w3 << one | one)
        lo = w1 + self._inc[1]
        self._state = _lcg((w0 + self._inc[0] + (lo < w1), lo), self._inc)
        self._kept = None
        self.redraw = False

    def _next(self) -> np.ndarray:
        """Each stream's next output: its state's two words xored, rotated
        right by the state's top six bits (PCG64's XSL RR)."""
        self._state = _lcg(self._state, self._inc)
        hi, lo = self._state
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        return x >> rot | x << (np.uint64(64) - rot & np.uint64(63))

    def random(self, size=None):
        if size is not None:
            return [self.random() for _ in range(size)]
        return (self._next() >> np.uint64(11)) * 2.0**-53

    def integers(self, low, high) -> np.ndarray:
        if self._kept is None:
            word = self._next()
            self._kept = word >> np.uint64(32)
        else:
            word, self._kept = self._kept, None
        draw, reject = _lemire32(word, high - low)
        self.redraw |= reject
        return draw + low


def _draws(table: SpectrumTable, master, start: int, count: int) -> tuple:
    """int64 arrays of the c and k ``table.sample`` draws for ``count``
    trials.

    Trial i samples with ``default_rng`` of master's spawned child number
    n_children_spawned + start + i. ``table.draw`` makes its calls on a
    ``_Streams`` of all those children at once, so the stream layout is
    the one ``SpectrumTable.draw`` documents. A trial whose j or k draw
    numpy might reject is drawn again by ``sample`` from ``default_rng`` of
    that child, built as ``SeedSequence.spawn`` builds it.
    """
    streams = _Streams(_child_seeds(master, start, count))
    c, k = table.draw(streams)
    first = master.n_children_spawned + start
    for i in np.flatnonzero(streams.redraw).tolist():
        child = np.random.SeedSequence(
            master.entropy, spawn_key=(*master.spawn_key, first + i),
            pool_size=master.pool_size,
        )
        c[i], k[i] = table.sample(np.random.default_rng(child))
    return c, k


def run_trials(n: int, x: int, trials: int, seed) -> list[RunTrace]:
    """Run independent trials with per-trial seeds derived from one master.

    The spectrum is built once and shared, and so is the outcome of each
    distinct c; the continued-fraction recovery runs once per mirror pair
    {c, q - c} that was drawn, and the other c's outcome is ``_mirrored``.
    Trials that drew the same (c, k) share one ``RunTrace`` object: it is
    frozen, so the list equals, element by element, one trace built per
    trial, and ``RunTrace``'s checks run once per distinct pair. Each
    block's distinct c and (c, k) are found by sorting its int64 draws in
    numpy; only those distinct values become Python ints, and the block's
    traces are gathered from them in one pass. Trial i draws (c, k) as
    ``table.sample`` does from ``default_rng(child)`` for the master's
    spawned child number n_children_spawned + i, so any single trial can
    be reproduced in isolation: for an int seed, trial i is
    ``default_rng(SeedSequence(seed).spawn(trials)[i])``. No Generator is
    built per trial: for each block of ``_BLOCK`` trials, the seeds and
    PCG64 outputs are computed bit for bit on arrays, ``table.draw`` makes
    its calls (the stream layout is documented there) on all of them at
    once, and only a trial whose j or k draw numpy might reject is drawn
    by ``table.sample`` itself. Above q = 2^16 no table is built, and a
    block costs O(s) per trial and O(_BLOCK * s) memory. NumPy makes
    n_children_spawned read-only, so a SeedSequence master is not
    advanced: two calls with the same master return equal traces. NumPy
    counts spawned children in 32 bits, so trials may not exceed
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
    r = instance.r
    outcomes = {}
    shared = {}
    traces = []
    for start in range(0, trials, _BLOCK):
        c, k = _draws(table, master, start, min(_BLOCK, trials - start))
        # The pair key is below _BLOCK * r, whatever c is, so it cannot
        # overflow int64 even where c * r would.
        values, c_index = np.unique(c, return_inverse=True)
        keys, pair_index = np.unique(c_index * r + k, return_inverse=True)
        values = values.tolist()
        for value in values:
            if value not in outcomes:
                # q - c is never in outcomes at c = 0 (it is q) or at
                # c = q/2 (it is c), so those two are classified directly.
                mirror = outcomes.get(q - value)
                outcomes[value] = (
                    _classify(instance, q, value) if mirror is None
                    else _mirrored(mirror)
                )
        objs = []
        for key in keys.tolist():
            index, k_value = divmod(key, r)
            pair = values[index], k_value
            trace = shared.get(pair)
            if trace is None:
                trace = shared[pair] = RunTrace(
                    instance, q, *pair, *outcomes[pair[0]]
                )
            objs.append(trace)
        traces += map(objs.__getitem__, pair_index.tolist())
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
