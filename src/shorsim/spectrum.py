"""Exact post-transform measurement statistics for order finding.

After the Fourier step of the order-finding procedure, measuring both
registers yields a pair (c, k) with probability

    P(c, k) = | (1/q) * sum_{b=0}^{m_k - 1} exp(2*pi*i * b * r * c / q) |^2,

where r is the order of the chosen base, k in [0, r) indexes the residue
class observed in the work register, and m_k = floor((q - k - 1)/r) + 1
counts the exponents a in [0, q) congruent to k mod r. The geometric sum
collapses to a Dirichlet-kernel closed form, and m_k takes only the class
sizes A+1 (k < B) and A (k >= B), q = A*r + B, so a full distribution over
c costs O(q) instead of O(q * r), and entries that cancel exactly come out
as exact zeros rather than rounding dust. ``SpectrumTable.class_weights``
weighs both class sizes at an array of rows, and ``SpectrumTable.joint``
one pair (c, k), the closed-form reference, through the same kernel.

A measured c is called *good* when its centered residue satisfies
|{r c}_q| <= r/2: precisely those outcomes place c/q within 1/(2q) of a
fraction d/r, which is what the continued-fraction step needs.

With g = gcd(r, q), the residue r c mod q is a multiple of g and repeats
with period p = q/g in c, so residues, flags and marginals are computed
and stored for one period only, and every c reads its row at c mod p.
Row c and row p - c share one magnitude |{r c}_q| = g min(u, p - u), with
u = (r/g) c mod p, and over c in [0, p/2] it runs through each of the
p/2 + 1 values {0, g, 2g, ..., q/2} once. So the kernel is evaluated once
per magnitude, in cache-sized chunks of rows, and the other half of the
period is a mirror copy. The r | q case, whose support is the multiples of
q/r, is the extreme of this structure. The r good rows of a period solve
(r/g) c = u (mod p) for |u| g <= r/2, so they cost O(r), not O(p). Each
period column is computed when it is first read, and ``verify_bounds``
reads none: it walks the good magnitudes g u, u = 0, 1, ..., in Python
ints, calls ``joint`` at one row of each, and so needs O(1) memory.
A period of more than 2^63 rows fits no int64 array, and
``SpectrumTable.period`` refuses it by name for every column and walk.

Sampling above q = 2^16 reads no column at all. The work register starts
in a uniform mix of the r eigenvectors of multiplication by x, with
eigenphases j/r, and the marginal over c does not depend on the basis the
work register is read in, so with q = 2^s

    P(c) = (1/r) sum_{j<r} prod_{i<s} cos^2(pi 2^i (j/r - c/q)).

This is the readout that recycles one control qubit for s rounds
(Griffiths and Niu), seen in the eigenbasis. Given j, the factor that
decides bit i of c depends only on the bits below it, so c is drawn
exactly, least significant bit first, at O(s) cost per draw and with no
table; the k of the draw is then taken given c, as the table path takes
it.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from . import numtheory as nt

# Rows per kernel evaluation: a chunk's temporaries stay in the L2 cache.
_CHUNK = 1 << 14

# The widest q whose draws search ``cumulative``; above it, c is drawn bit by
# bit in the eigenbasis (``SpectrumTable.table_free``).
_TABLE_MAX_Q = 1 << 16


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

    q is a power of two, so m*|t| mod q is the mask m*|t| & (q - 1); it is
    reduced before taking the sine so that exact cancellations (m*t a
    multiple of q) produce exactly 0.0. Scalars go through ``math.sin``;
    pass ``sin=np.sin`` to evaluate a whole residue array, and a column of
    class sizes as ``m`` to share the denominator.
    """
    num = sin(math.pi * (m * abs_t & q - 1) / q) ** 2
    return num / sin(math.pi * abs_t / q) ** 2


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Measurement distribution over c for one instance, stored as one period.

    The fields are (q, r) alone. The order r must be at least 1 and is
    checked first, so no column holds a negative or undefined probability;
    q must be a power of two. Every per-c quantity repeats with period
    p = q/gcd(r, q) in c, so the table holds c in [0, p) only, and c in
    [0, q) reads row c mod p. ``rows()`` walks the period once per copy,
    with no q-long list. Its period columns are computed when first read
    and kept read-only: ``period_marginals[c]`` sums the joint probability over all k, built
    chunk by chunk over rows [0, p/2] and mirrored onto (p/2, p);
    ``period_residues[c]`` is {r c}_q in (-q/2, q/2]; ``good_rows`` lists
    the rows with |{r c}_q| <= r/2, found in O(r) without the residues,
    and ``period_flags`` marks them. A caller pays only for the columns it
    reads. ``marginals``, ``signed_residues`` and ``good_flags`` are the
    same arrays over all q values of c, tiled on first access (for
    gcd(r, q) = 1 they are the period arrays themselves).
    ``inverse_cdf`` maps uniform draws, two floats or two arrays of them,
    to measurements (c and the range k is drawn from) by inverse-CDF
    sampling over ``cumulative``, the running sum of the period marginals,
    computed on first use in a buffer of its own (a sampling table keeps
    one p-long array and no marginals), with u = 1.0 moved down to
    1 - 2^-53 as its one top-of-range rule. When q > 2^16 (``table_free``),
    draws go through ``eigen_draw`` instead, which maps an eigenphase index
    and s uniforms to c bit by bit and reads no column, so a table that
    has only sampled holds (q, r) alone. ``draw`` takes one (c, k) through
    one of the two from a Generator's calls, or a whole block of draws
    from a stand-in's (``pipeline.run_trials``), and ``sample`` is its
    Python-int form. The arrays are frozen, and every lazily computed
    column is a function of (q, r) alone, so threads sharing a table at
    worst compute a column twice, with identical bytes.
    """

    q: int
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"order must be >= 1, got {self.r}")
        if self.q < 2 or self.q & (self.q - 1):
            raise ValueError(f"q must be a power of two >= 2, got {self.q}")

    @property
    def period(self) -> int:
        """p = q/gcd(r, q), the period in c of every per-c quantity.

        Past 2^63 rows no int64 array holds it, so this raises ValueError.
        """
        p = self.q // math.gcd(self.r, self.q)
        if p > 1 << 63:
            raise ValueError(
                f"q = {self.q} gives a period of {p} rows, more than an int64 "
                "array can hold"
            )
        return p

    @property
    def table_free(self) -> bool:
        """Whether draws take c bit by bit in the eigenbasis: q > 2^16."""
        return self.q > _TABLE_MAX_Q

    @cached_property
    def period_residues(self) -> np.ndarray:
        """{r c}_q in (-q/2, q/2] for c in [0, p)."""
        c = np.arange(self.period, dtype=np.int64)
        return _read_only(nt.signed_residue(self.r % self.q * c, self.q))

    @cached_property
    def good_rows(self) -> np.ndarray:
        """The rows c in [0, p) with |{r c}_q| <= r/2, ascending.

        With g = gcd(r, q), {r c}_q = g u for u = (r/g) c mod p, and r/g is
        odd, so each u with |u| <= (r // 2) // g is the row
        u (r/g)^-1 mod p; u = +-p/2 give the same row. ``period_flags`` and
        ``good_c_set`` read it; ``verify_bounds`` walks the same u without it.
        """
        q, r, p = self.q, self.r, self.period
        g = q // p
        reach = min(r // 2 // g, p // 2)
        u = np.arange(-reach, reach + 1, dtype=np.int64)
        # p is a power of two, so & (p - 1) reduces negative u mod p too.
        return _read_only(np.unique(u * pow(r // g, -1, p) & p - 1))

    @cached_property
    def period_flags(self) -> np.ndarray:
        """|{r c}_q| <= r/2 for c in [0, p)."""
        flags = np.zeros(self.period, dtype=bool)
        flags[self.good_rows] = True
        return _read_only(flags)

    def class_weights(self, rows: np.ndarray) -> np.ndarray:
        """q^2 P(c, k < B) and q^2 P(c, k >= B) at period rows c, stacked.

        That is B K(A+1, t) and (r - B) K(A, t) (q = A*r + B), with K(m, t)
        the kernel at class size m and t = |{r c}_q| = g min(u, p - u),
        u = (r/g) c mod p; so any c in [0, q) may stand for its row c mod p.
        Both class sizes share one kernel call, and a row with rc = 0
        (mod q) takes m_k^2. At large q the products wrap in int64; the
        masks by q - 1 and p - 1 keep their exact low bits.
        """
        q, r, p = self.q, self.r, self.period
        g = q // p
        u = r // g * rows & p - 1
        # -u & (p - 1) is p - u but at u = 0, where the minimum is 0 either
        # way; it keeps p = 2^63 out of int64 arithmetic.
        abs_t = g * np.minimum(u, -u & p - 1)
        m = np.array([[q // r + 1], [q // r]], np.int64)
        # The t = 0 columns divide 0 by 0 and are overwritten.
        with np.errstate(invalid="ignore"):
            out = _kernel(m, abs_t, q, np.sin)
        out[:, abs_t == 0] = np.square(m, dtype=float)
        out *= [[q % r], [r - q % r]]
        return out

    def _marginals(self) -> np.ndarray:
        """A new array of the marginal probability of c in [0, p).

        The k-sum collapses to the two ``class_weights`` terms. Rows c in
        [0, p/2] reach each magnitude 0, g, ..., q/2 once, so the kernel
        runs there, ``_CHUNK`` rows at a time, and row p - c copies row c.
        """
        p = self.period
        half = p // 2
        out = np.empty(p)
        for start in range(0, half + 1, _CHUNK):
            c = np.arange(start, min(start + _CHUNK, half + 1))
            hi, lo = self.class_weights(c)
            out[start:start + len(c)] = (hi + lo) / self.q**2
        out[half + 1:] = out[1:half][::-1]
        return out

    @cached_property
    def period_marginals(self) -> np.ndarray:
        """Marginal probability of c in [0, p), summed over k."""
        return _read_only(self._marginals())

    def joint(self, c: int, k: int) -> float:
        """P(c, k) by the closed form; class k holds m_k exponents a < q."""
        q, r = self.q, self.r
        if not 0 <= k < r:
            raise ValueError(f"k must be in [0, {r - 1}], got {k}")
        if not 0 <= c < q:
            raise ValueError(f"c must be in [0, {q - 1}], got {c}")
        m = (q - k - 1) // r + 1
        t = abs(nt.signed_residue(r * c, q))
        if t == 0:
            return (m / q) ** 2
        return _kernel(m, t, q) / q**2

    def draw(self, rng) -> tuple:
        """Draw (c, k) with probability P(c, k) by ``rng``'s calls.

        This is the one definition of a draw's random stream. ``rng`` is a
        ``np.random.Generator``, or a stand-in answering ``random()``,
        ``random(s)`` and ``integers(lo, hi)`` with one value per draw of a
        block, such as ``pipeline._Streams``. The calls are, in order:

        - q <= 2^16: ``random()`` for c, ``random()`` for k's class-size
          group only if q % r != 0, and ``integers(lo, hi)`` for k inside
          the group; ``inverse_cdf`` maps them, a Generator's as floats
          with no array built.
        - ``table_free`` (q = 2^s > 2^16): ``integers(0, r)`` for the
          eigenphase index j, ``random(s)`` for c's bits, ``random()`` for
          k's group only if q % r != 0, and ``integers(lo, hi)`` for k;
          ``eigen_draw`` maps them.

        On PCG64 each ``random()`` reads the top 53 bits of a new 64-bit
        output, and ``integers`` below 2^32 reads the low half of a new
        output and keeps the high half for the next ``integers`` call, so
        above 2^16 k reads the high half of j's output. Only the last
        ``integers`` call can span one value (a group of one k, at
        q % r = 1 or r - 1), for which numpy reads nothing. Returns what
        the calls give: numpy scalars from a Generator, int64 arrays from
        a block stand-in.
        """
        r = self.r
        if self.table_free:
            j = rng.integers(0, r)
            u = rng.random(self.q.bit_length() - 1)
            v = rng.random() if self.q % r else 0.0
            c, lo, hi = self.eigen_draw(j, u, v)
        else:
            u = rng.random()
            v = rng.random() if self.q % r else 0.0
            c, lo, hi = self.inverse_cdf(u, v)
        return c, rng.integers(lo, hi)

    # Quoted, so that defining it does not import numpy.random (~10 ms).
    def sample(self, rng: "np.random.Generator") -> tuple[int, int]:
        """Draw (c, k) with probability P(c, k), as Python ints.

        ``int`` of ``draw(rng)``, whose docstring gives the stream layout.
        """
        c, k = self.draw(rng)
        return int(c), int(k)

    def _phase(self, j, low, i):
        """theta_i = (2^(s-1-i) j mod r)/r - low/2^(i+1) in (-1/2, 1/2].

        q = 2^s. The first term is reduced exactly in integers before it
        becomes a float, so for q <= 2^53 theta_i is within 2^-54 of its
        exact value. ``j`` and ``low`` are ints, or int64 scalars or arrays
        of one value per draw. An int64 ``j`` makes (2^(s-1-i) mod r) j an
        int64 product of up to (r - 1)^2, so r^2 must stay below 2^63 or
        the phase wraps silently; ``eigen_draw`` refuses a larger r. An
        instance ``choose_q`` sizes at q <= 2^63 has r < n <= 2^31.5.
        """
        s = self.q.bit_length() - 1
        r = self.r
        theta = pow(2, s - 1 - i, r) * j % r / r - low * 2.0 ** -(i + 1)
        theta -= theta > 0.5
        return theta

    def bit_zero(self, j, low, i):
        """P(bit i of c is 0 | eigenphase index j, c mod 2^i = low).

        That is cos^2(pi theta_i), with theta_i from ``_phase``; bit i is 1
        with probability sin^2(pi theta_i), so the two sum to 1. An int64
        ``j`` needs r^2 < 2^63, as ``_phase`` says.
        """
        return np.cos(np.pi * self._phase(j, low, i)) ** 2

    def eigen_draw(self, j, u, v) -> tuple:
        """Map an eigenphase index and uniforms to measured c and k's range.

        ``j`` is an int in [0, r), ``u`` holds s uniforms in [0, 1) (q = 2^s)
        and ``v`` one more; or ``j`` and ``v`` are arrays with one entry
        per draw and ``u[i]`` is an array too. Returns (c, k_lo, k_hi) as
        ``inverse_cdf`` does. Bit i of c, least significant first, is 1 when
        u[i] >= ``bit_zero(j, c mod 2^i, i)``. Given j this draws c with
        probability prod_{i<s} cos^2(pi 2^i (j/r - c/q)), so a uniform j
        draws c with its marginal probability, exactly, at O(s) per draw
        and with no table. k's group is then picked by v at c's period row,
        by the rule ``inverse_cdf`` uses. c must fit in int64, so q above
        2^63 raises ValueError, and so does r with r^2 >= 2^63, whose int64
        phase products would wrap (``_phase``).
        """
        q, r = self.q, self.r
        if q > 1 << 63:
            raise ValueError(
                f"q = {q} is more than 2^63, so a measured c would not fit "
                "in int64"
            )
        if r * r >= 1 << 63:
            raise ValueError(
                f"r = {r} has r^2 >= 2^63, so its eigenphase products would "
                "wrap in int64"
            )
        c = j * 0
        for i in range(q.bit_length() - 1):
            one = u[i] >= self.bit_zero(j, c, i)
            c += one.astype(np.int64) << i
        return (c, *self._k_range(c, v))

    def inverse_cdf(self, u, v) -> tuple:
        """Map uniforms in [0, 1) to measured c and the range k is drawn from.

        ``u`` and ``v`` are two floats, or two arrays of them. Returns
        (c, k_lo, k_hi), as ints or as int64 arrays: draw i measures
        c[i], and k is uniform on [k_lo[i], k_hi[i]). The q/p copies of the
        period [0, p) carry equal mass, so u, scaled by their number, picks
        a copy by its integer part and c inside that copy by inverse-CDF
        sampling of its fraction over the period's cumulative marginals. One
        rule guards the top of the range: u = 1.0 becomes 1 - 2^-53, the
        largest value ``Generator.random()`` returns, so no draw searches
        past the period's last c with nonzero marginal, and a draw of 1.0
        lands where 1 - 2^-53 does, at the top of the last copy. A float u
        stays a Python float, so a scalar draw does float arithmetic. Given
        c, the k-conditional depends only on the class size m_k, which takes
        the two values A+1 (classes k < B) and A (classes k >= B) where
        q = A*r + B; so v picks a class-size group with the appropriate
        weight, by ``_k_range``. ``draw`` maps through it at q <= 2^16
        only; above that it maps through ``eigen_draw`` and never builds
        ``cumulative``.
        """
        cum = self.cumulative
        p = self.period
        copies = self.q // p
        # copies is a power of two, so u * copies and its fraction are exact.
        # A fraction below 1 times the total rounds below the total, which
        # every row from the period's last nonzero one on holds.
        scaled = (u - (u == 1.0) * 2.0**-53) * copies
        copy = scaled // 1
        rows = cum.searchsorted((scaled - copy) * cum[-1], "right")
        # np.int64 converts a float array to an int64 array.
        c = np.int64(copy) * p + rows
        return (c, *self._k_range(rows, v))

    def _k_range(self, c, v) -> tuple:
        """The range [k_lo, k_hi) that k is drawn from, given c and v.

        P(c, k) depends on k only through the class size m_k: A+1 for
        k < B and A for k >= B (q = A*r + B). So v picks the group [0, B)
        with its share of P(c), by ``class_weights``, and k is uniform
        inside the group. ``c`` is an int, weighed as a one-row array so
        that one draw and a block decide alike, or an int64 array read at
        its period rows. With B = 0 the group [0, B) is empty, so k is
        drawn from [0, r).
        """
        r = self.r
        b = self.q % r
        hi, lo = self.class_weights(np.reshape(c, -1))
        high = v * (hi + lo) < hi
        if np.ndim(c) == 0:
            high = bool(high[0])
        # A high draw takes k from [0, B), any other from [B, r).
        return b - b * high, r - (r - b) * high

    def rows(self):
        """(c, marginal_probability, signed_residue, good_flag) over [0, q).

        Python int, float, int and bool: each period array is converted by
        ``tolist`` once, and that one list is walked once per period.
        """
        copies = self.q // self.period
        return zip(range(self.q), *(
            chain.from_iterable(repeat(period.tolist(), copies)) for period in
            (self.period_marginals, self.period_residues, self.period_flags)
        ))

    def _tiled(self, period: np.ndarray) -> np.ndarray:
        """``period`` tiled to length q, read-only; a view if q long."""
        p = self.period
        return _read_only(np.broadcast_to(period, (self.q // p, p)).ravel())

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

    def _copies(self, rows: np.ndarray) -> np.ndarray:
        """Every c in [0, q) with c mod p in ``rows``, ascending."""
        p = self.period
        return (rows + p * np.arange(self.q // p)[:, None]).ravel()

    @cached_property
    def support(self) -> np.ndarray:
        """Indices c in [0, q) with nonzero marginal probability."""
        return self._copies(np.flatnonzero(self.period_marginals > 0.0))

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Running sum of the period marginals, for inverse-CDF sampling.

        Summed in place over a new marginal array, so the table keeps no
        ``period_marginals`` for it. Zero marginals add +0.0, which leaves
        a float sum unchanged, so its values at the period's support equal
        the cumulative sum over that support.
        """
        running = self._marginals()
        return _read_only(np.cumsum(running, out=running))


def build_spectrum(instance: FactoringInstance, q: int) -> SpectrumTable:
    """The measurement distribution over c for ``instance`` at width q.

    Returns ``SpectrumTable(q=q, r=instance.r)``, which checks r >= 1 (an
    instance's order is always >= 2) and that q is a power of two, and
    computes each period column (marginals, residues, good flags) when it
    is first read, for one period of q/gcd(r, q) values of c. No array of
    length q is allocated unless gcd(r, q) = 1, where the period is the
    whole table.
    One pair's probability is ``build_spectrum(instance, q).joint(c, k)``.
    """
    return SpectrumTable(q=q, r=instance.r)


def good_c_set(r: int, q: int) -> set[int]:
    """All c in [0, q) whose centered residue {r c}_q lies within r/2.

    These are the measurement outcomes from which a denominator can be
    recovered; there are exactly r of them whenever r <= q. For tiny q the
    set degenerates: with q = 2 every c is good for any even-q-multiple
    order, which is precisely why a two-valued observable carries no order
    information. The table checks r >= 1 before q, as for any order.
    """
    table = SpectrumTable(q=q, r=r)
    return set(table._copies(table.good_rows).tolist())


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
    its relation to the 1/(3 r^2) and 4/(pi^2 r^2) floors. It walks the good
    magnitudes |{r c}_q| = g u in Python ints and reads no period column, so
    it holds O(1) memory however long the period is.
    """
    n, r = instance.n, instance.r
    table = build_spectrum(instance, q)

    p_min = min_integral = math.inf
    max_gap = 0.0
    # P(c, k) depends on c only through |{r c}_q| = g u, the same at the rows
    # +-u (r/g)^-1 mod p, so each good u <= p/2 is visited at the smaller.
    p, g = table.period, math.gcd(r, q)
    w = pow(r // g, -1, p)
    for u in range(min(r // 2 // g, p // 2) + 1):
        c = min(u * w % p, -u * w % p)
        approx = integral_term(g * u / r, r)
        min_integral = min(min_integral, approx)
        # P(c, k) depends on k only through m_k: A+1 for k < B, A for
        # k >= B, so k = 0 and k = B cover both (q = A*r + B).
        for k in {0, q % r}:
            prob = table.joint(c, k)
            p_min = min(p_min, prob)
            max_gap = max(max_gap, abs(math.sqrt(prob) - approx))

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
