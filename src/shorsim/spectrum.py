"""Exact post-transform measurement statistics for order finding.

After the Fourier step of the order-finding procedure, measuring both
registers yields a pair (c, k) with probability

    P(c, k) = | (1/q) * sum_{b=0}^{m_k - 1} exp(2*pi*i * b * r * c / q) |^2,

where r is the order of the chosen base, k in [0, r) indexes the residue
class observed in the work register, and m_k = floor((q - k - 1)/r) + 1
counts the exponents a in [0, q) congruent to k mod r. The geometric sum
collapses to a Dirichlet-kernel closed form, so a full distribution over c
costs O(q) instead of O(q * r), and entries that cancel exactly come out as
exact zeros rather than rounding dust.

A measured c is called *good* when its centered residue satisfies
|{r c}_q| <= r/2: precisely those outcomes place c/q within 1/(2q) of a
fraction d/r, which is what the continued-fraction step needs.

With g = gcd(r, q), the residue r c mod q is a multiple of g and repeats
with period q/g in c, so residues, flags and marginals are computed and
stored for one period only, and every c reads its row at c mod q/g; the
kernel is needed only at the q/(2g) + 1 magnitudes |t| in
{0, g, 2g, ..., q/2}. The r | q case, whose support is the multiples of
q/r, is the extreme of this structure.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numtheory as nt


def _require_power_of_two(q: int) -> None:
    if q < 2 or q & (q - 1):
        raise ValueError(f"q must be a power of two >= 2, got {q}")


def _require_instance_range(n: int, x: int) -> None:
    if n < 3:
        raise ValueError(f"modulus must be >= 3, got {n}")
    if not 2 <= x <= n - 1:
        raise ValueError(f"base must be in [2, {n - 1}], got {x}")


@dataclass(frozen=True)
class FactoringInstance:
    """A modulus, a base, and the base's true order.

    ``ell`` is the bit width needed for the work register, ceil(log2(n)).
    ``r`` is obtained from the brute-force oracle at construction time and
    re-checked for minimality, so instances are trustworthy by the time any
    spectrum is built from them.
    """

    n: int
    x: int
    ell: int
    r: int

    def __post_init__(self):
        _require_instance_range(self.n, self.x)
        g = math.gcd(self.x, self.n)
        if g != 1:
            raise nt.NotAUnitError(self.x, self.n, g)
        if self.ell != (self.n - 1).bit_length():
            raise ValueError(
                f"ell must be ceil(log2(n)) = {(self.n - 1).bit_length()}"
            )
        if self.r < 2:
            raise ValueError(f"order must be >= 2, got {self.r}")
        if pow(self.x, self.r, self.n) != 1:
            raise ValueError(f"{self.x}^{self.r} != 1 (mod {self.n})")
        # Minimality: x^(r/p) != 1 for every prime p dividing r.
        for p in nt.factorize(self.r):
            if pow(self.x, self.r // p, self.n) == 1:
                raise ValueError(f"order {self.r} is not minimal")

    @classmethod
    def create(cls, n: int, x: int) -> "FactoringInstance":
        """Build an instance for (n, x), deriving ell and the order."""
        # Checked before the oracle, whose own range for x is looser.
        _require_instance_range(n, x)
        return cls(
            n=n, x=x, ell=(n - 1).bit_length(), r=nt.order_oracle(x, n)
        )


def _kernel(m, abs_t, q: int, sin=math.sin):
    """|sum_{b<m} exp(2 pi i b t / q)|^2 for a centered residue t != 0.

    Reduces m*|t| mod q before taking the sine so that exact cancellations
    (m*t a multiple of q) produce exactly 0.0. Scalars go through
    ``math.sin``; pass ``sin=np.sin`` to evaluate a whole residue array,
    and a column of class sizes as ``m`` to share the denominator.
    """
    num = sin(math.pi * (m * abs_t % q) / q) ** 2
    return num / sin(math.pi * abs_t / q) ** 2


def _joint(q: int, r: int, c: int, k: int) -> float:
    """P(c, k) by the closed form; class k holds m_k exponents a < q."""
    if not 0 <= k < r:
        raise ValueError(f"k must be in [0, {r - 1}], got {k}")
    if not 0 <= c < q:
        raise ValueError(f"c must be in [0, {q - 1}], got {c}")
    m = (q - k - 1) // r + 1
    t = abs(nt.signed_residue(r * c, q))
    if t == 0:
        return (m / q) ** 2
    return _kernel(m, t, q) / q**2


def _signed_residues(r: int, q: int) -> np.ndarray:
    """{r c}_q in (-q/2, q/2] for c in one period [0, q / gcd(r, q))."""
    p = q // math.gcd(r, q)
    return nt.signed_residue((r % q) * np.arange(p, dtype=np.int64), q)


def _all_copies(idx: np.ndarray, p: int, copies: int) -> np.ndarray:
    """Every c in [0, copies * p) with c mod p in ``idx``, ascending."""
    return (idx + p * np.arange(copies)[:, None]).ravel()


def joint_probability(
    instance: FactoringInstance, q: int, c: int, k: int
) -> float:
    """Exact probability of observing the pair (c, k).

    Evaluated through the closed form of the geometric sum:
    (1/q^2) * sin^2(pi m_k r c / q) / sin^2(pi r c / q) when rc is not a
    multiple of q, and (m_k / q)^2 otherwise. The overall phase of the sum
    has magnitude 1 and is dropped.
    """
    _require_power_of_two(q)
    return _joint(q, instance.r, c, k)


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Measurement distribution over c for one instance, stored as one period.

    Every per-c quantity repeats with period p = q/gcd(r, q) in c, so the
    table holds c in [0, p) only, and c in [0, q) reads row c mod p.
    ``period_marginals[c]`` sums the joint probability over all k;
    ``period_residues[c]`` is {r c}_q in (-q/2, q/2]; ``period_flags[c]``
    marks |{r c}_q| <= r/2. ``marginals``, ``signed_residues`` and
    ``good_flags`` are the same arrays over all q values of c, tiled on
    first access (for gcd(r, q) = 1 they are the period arrays themselves).
    ``inverse_cdf`` maps uniform draws, two floats or two arrays of them,
    to measurements (c and the range k is drawn from) by inverse-CDF
    sampling over ``cumulative``, the running sum of the period marginals,
    computed on first use; it also memoises the two k-group weights of
    each period row it reaches. ``sample`` draws one (c, k) from a
    Generator through it, and ``pipeline.run_trials`` computes a block of
    trials' uniforms at once and maps them with one call. The arrays are
    frozen, and the lazily filled caches are written only with values
    computed from them, so threads sharing a table at worst fill an entry
    twice with identical values.
    """

    q: int
    r: int
    period_marginals: np.ndarray
    period_residues: np.ndarray
    period_flags: np.ndarray

    def joint(self, c: int, k: int) -> float:
        """Joint probability P(c, k) recomputed from the closed form."""
        return _joint(self.q, self.r, c, k)

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        """Draw (c, k) with probability P(c, k).

        One ``rng.random()`` selects c, a second selects k's class-size
        group when there are two (q % r != 0), and ``rng.integers`` draws k
        uniformly inside the group; ``inverse_cdf`` maps the two uniforms
        as floats, building no array.
        """
        u = rng.random()
        v = rng.random() if self.q % self.r else 0.0
        c, lo, hi = map(int, self.inverse_cdf(u, v))
        return c, int(rng.integers(lo, hi))

    def inverse_cdf(self, u, v) -> tuple:
        """Map uniforms in [0, 1) to measured c and the range k is drawn from.

        ``u`` and ``v`` are two floats, or two arrays of them. Returns
        (c, k_lo, k_hi), as ints or as int64 arrays: draw i measures
        c[i], and k is uniform on [k_lo[i], k_hi[i]). The q/p copies of the
        period [0, p) carry equal mass, so u, scaled by their number, picks
        a copy by its integer part and c inside that copy by inverse-CDF
        sampling of its fraction over the period's cumulative marginals. A
        draw at the very top of a copy is clamped to the copy's last c with
        nonzero marginal. Given c, the k-conditional depends only on the
        class size m_k, which takes the two values A+1 (classes k < B) and
        A (classes k >= B) where q = A*r + B; so v picks a class-size group
        with the appropriate weight, computed once per period row. With
        B = 0 the high group [0, B) is empty, so k is drawn from [0, r).
        """
        cum = self.cumulative
        p = len(cum)
        copies = self.q // p
        # copies is a power of two, so u * copies and its fraction are exact.
        scaled = u * copies
        copy = scaled // 1
        # Only a draw of 1.0, which no Generator makes, reaches copies: it
        # is the top of the last copy.
        copy -= copy == copies
        rows = self._clamped_cumulative.searchsorted(
            (scaled - copy) * cum[-1], "right"
        )
        # np.int64 converts a float array to an int64 array.
        c = np.int64(copy) * p + rows

        r = self.r
        b = self.q % r
        group_hi, total = self._group_weights(rows)
        high = v * total < group_hi
        # A high draw takes k from [0, B), any other from [B, r).
        return c, b - b * high, r - (r - b) * high

    def _group_weights(self, rows) -> tuple:
        """``_row_weights`` of one period row, or arrays of them per row."""
        if not isinstance(rows, np.ndarray):
            return self._row_weights(int(rows))
        distinct = sorted(set(rows.tolist()))
        group_hi, total = np.array([self._row_weights(j) for j in distinct]).T
        inverse = np.searchsorted(distinct, rows)
        return group_hi[inverse], total[inverse]

    def _row_weights(self, j: int) -> tuple[float, float]:
        """``_k_weights[j]``, computed on first use."""
        weights = self._k_weights.get(j)
        if weights is None:
            r, b = self.r, self.q % self.r
            group_hi = b * self.joint(j, 0)
            weights = (group_hi, group_hi + (r - b) * self.joint(j, b))
            self._k_weights[j] = weights
        return weights

    def rows(self):
        """(c, marginal_probability, signed_residue, good_flag) over [0, q).

        Python int, float, int and bool: each period array is converted by
        ``tolist`` once and repeated once per period.
        """
        copies = self.q // len(self.period_marginals)
        return zip(range(self.q), *(
            period.tolist() * copies for period in
            (self.period_marginals, self.period_residues, self.period_flags)
        ))

    def _tiled(self, period: np.ndarray) -> np.ndarray:
        """``period`` tiled to length q, read-only; a view if q long."""
        copies = self.q // len(period)
        full = np.broadcast_to(period, (copies, len(period))).reshape(self.q)
        full.setflags(write=False)
        return full

    @cached_property
    def marginals(self) -> np.ndarray:
        """Marginal probability of every c in [0, q)."""
        return self._tiled(self.period_marginals)

    @cached_property
    def signed_residues(self) -> np.ndarray:
        """{r c}_q for every c in [0, q)."""
        return self._tiled(self.period_residues)

    @cached_property
    def good_flags(self) -> np.ndarray:
        """|{r c}_q| <= r/2 for every c in [0, q)."""
        return self._tiled(self.period_flags)

    @cached_property
    def support(self) -> np.ndarray:
        """Indices c in [0, q) with nonzero marginal probability."""
        p = len(self.period_marginals)
        idx = np.flatnonzero(self.period_marginals > 0.0)
        return _all_copies(idx, p, self.q // p)

    @cached_property
    def _k_weights(self) -> dict:
        """Period row j -> (B P(j, 0), B P(j, 0) + (r - B) P(j, B)).

        P(c, k) depends on c only through its period row, so every copy of
        row j shares the weights ``inverse_cdf`` picks the k group by.
        """
        return {}

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Running sum of the period marginals, for inverse-CDF sampling.

        Zero marginals add +0.0, which leaves a float sum unchanged, so its
        values at the period's support equal the cumulative sum over that
        support.
        """
        return np.cumsum(self.period_marginals)

    @cached_property
    def _clamped_cumulative(self) -> np.ndarray:
        """``cumulative`` below the period's last row with nonzero marginal.

        Every row from that one on holds the total, so searching this view
        finds the row searching ``cumulative`` finds, except that a value
        at or above the total, which only a draw at the very top of a copy
        reaches, lands on that last row instead of past the end.
        """
        # Searched from the end, so no index array of the support is built.
        last = len(self.period_marginals) - 1 - int(
            np.argmax(self.period_marginals[::-1] > 0.0)
        )
        return self.cumulative[:last]


def build_spectrum(instance: FactoringInstance, q: int) -> SpectrumTable:
    """Compute the marginal distribution over c, one period of it.

    The joint probability depends on k only through m_k, which takes at most
    two values A and A+1 with multiplicities r - B and B (q = A*r + B), so
    the k-sum collapses to a two-term combination of kernel values. With
    g = gcd(r, q), the residues, flags and marginals are computed and kept
    for one period of q/g values of c, and the kernel is evaluated at the
    q/(2g) + 1 residue magnitudes 0, g, ..., q/2. No array of length q is
    allocated unless g = 1, where the period is the whole table.
    """
    _require_power_of_two(q)
    r = instance.r
    a, b = divmod(q, r)
    g = math.gcd(r, q)

    # The marginal depends on c only through |{r c}_q|, a multiple of g in
    # [0, q/2], so the kernel is evaluated once per such magnitude. This
    # runs before the period arrays exist, so its temporaries do not add
    # to theirs.
    per_t = np.empty(q // (2 * g) + 1)
    # Peaks: rc = 0 (mod q), every class contributes (m_k/q)^2.
    per_t[0] = float(b * (a + 1) ** 2 + (r - b) * a * a) / q**2
    t = np.arange(g, q // 2 + 1, g)
    # Both class sizes in one call, so the denominator is computed once.
    hi, lo = _kernel(np.array([[a + 1], [a]], np.int64), t, q, np.sin)
    per_t[1:] = (b * hi + (r - b) * lo) / q**2
    del t, hi, lo

    signed = _signed_residues(r, q)
    abs_t = np.abs(signed)
    good = abs_t <= r // 2
    # g divides the power of two q, so |t| / g is a shift, done in place.
    abs_t >>= g.bit_length() - 1

    marginals = per_t[abs_t]
    for arr in (marginals, signed, good):
        arr.setflags(write=False)
    return SpectrumTable(
        q=q, r=r, period_marginals=marginals, period_residues=signed,
        period_flags=good,
    )


def good_c_set(r: int, q: int) -> set[int]:
    """All c in [0, q) whose centered residue {r c}_q lies within r/2.

    These are the measurement outcomes from which a denominator can be
    recovered; there are exactly r of them whenever r <= q. For tiny q the
    set degenerates: with q = 2 every c is good for any even-q-multiple
    order, which is precisely why a two-valued observable carries no order
    information.
    """
    if r < 1:
        raise ValueError(f"order must be >= 1, got {r}")
    _require_power_of_two(q)
    period = _signed_residues(r, q)
    p = len(period)
    good = np.flatnonzero(np.abs(period) <= r // 2)
    return set(_all_copies(good, p, q // p).tolist())


def integral_term(theta: float, r: int) -> float:
    """(1/r) |integral_0^1 exp(2 pi i u theta) du| = |sin(pi theta)/(pi theta)| / r.

    The theta = 0 limit is 1/r. Over |theta| <= 1/2 this never drops below
    2/(pi r), which is where the 4/(pi^2 r^2) probability floor comes from.
    """
    return float(np.abs(np.sinc(theta))) / r


@dataclass(frozen=True)
class BoundReport:
    """Numeric check of the good-outcome probability floor for one instance.

    ``p_min`` is the smallest joint probability over good c and all k;
    ``one_third_bound`` is 1/(3 r^2) and ``sinc_floor`` is 4/(pi^2 r^2).
    ``sinc_floor_epsilon`` is the smallest eps >= 0 with
    p_min >= sinc_floor * (1 - eps); zero means the floor holds outright.
    ``max_integral_gap`` bounds how far the exact amplitude strays from the
    sinc integral approximation over all good (c, k). ``advisory`` is set
    when q lies outside [n^2, 2 n^2), where the approximation argument is
    not designed to apply.
    """

    n: int
    x: int
    r: int
    q: int
    advisory: bool
    p_min: float
    one_third_bound: float
    sinc_floor: float
    min_integral_term: float
    max_integral_gap: float
    exceeds_one_third: bool
    sinc_floor_epsilon: float
    meets_sinc_floor: bool


def verify_bounds(instance: FactoringInstance, q: int) -> BoundReport:
    """Measure the probability floor and the integral approximation quality.

    For every good c and every k, compares the exact amplitude magnitude
    sqrt(P(c, k)) against the approximation (1/r)|sinc({r c}_q / r)| and
    records the worst-case gap, alongside the minimum joint probability and
    its relation to the 1/(3 r^2) and 4/(pi^2 r^2) floors.
    """
    n, r = instance.n, instance.r
    table = build_spectrum(instance, q)

    p_min = math.inf
    min_integral = math.inf
    max_gap = 0.0
    # P(c, k) depends on c only through |{r c}_q|, which repeats with the
    # period, so the good c of one period reach every value.
    for c in np.flatnonzero(table.period_flags).tolist():
        t = abs(int(table.period_residues[c]))
        approx = integral_term(t / r, r)
        min_integral = min(min_integral, approx)
        # P(c, k) depends on k only through m_k: A+1 for k < B, A for
        # k >= B, so k = 0 and k = B cover both (q = A*r + B).
        for k in {0, q % r}:
            p = _joint(q, r, c, k)
            p_min = min(p_min, p)
            max_gap = max(max_gap, abs(math.sqrt(p) - approx))

    one_third = 1.0 / (3.0 * r * r)
    floor = 4.0 / (math.pi**2 * r * r)
    epsilon = max(0.0, 1.0 - p_min / floor)
    return BoundReport(
        n=n,
        x=instance.x,
        r=r,
        q=q,
        advisory=not n * n <= q < 2 * n * n,
        p_min=p_min,
        one_third_bound=one_third,
        sinc_floor=floor,
        min_integral_term=min_integral,
        max_integral_gap=max_gap,
        exceeds_one_third=p_min > one_third,
        sinc_floor_epsilon=epsilon,
        meets_sinc_floor=epsilon == 0.0,
    )
