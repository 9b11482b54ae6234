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
    ``math.sin``; pass ``sin=np.sin`` to evaluate a whole residue array.
    """
    num = sin(math.pi * (m * abs_t % q) / q)
    den = sin(math.pi * abs_t / q)
    return num**2 / den**2


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
    """{r c}_q in (-q/2, q/2] for every c in [0, q)."""
    return nt.signed_residue((r % q) * np.arange(q, dtype=np.int64), q)


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
    """Materialized measurement distribution over c for one instance.

    Rows are indexed by c in [0, q). ``marginals[c]`` sums the joint
    probability over all k; ``signed_residues[c]`` is {r c}_q in
    (-q/2, q/2]; ``good_flags[c]`` marks |{r c}_q| <= r/2. The arrays are
    frozen, so a table can be shared freely across threads.
    """

    q: int
    r: int
    marginals: np.ndarray
    signed_residues: np.ndarray
    good_flags: np.ndarray

    def joint(self, c: int, k: int) -> float:
        """Joint probability P(c, k) recomputed from the closed form."""
        return _joint(self.q, self.r, c, k)

    def rows(self):
        """Yield (c, marginal_probability, signed_residue, good_flag) rows."""
        for c in range(self.q):
            yield (
                c,
                float(self.marginals[c]),
                int(self.signed_residues[c]),
                bool(self.good_flags[c]),
            )

    @cached_property
    def support(self) -> np.ndarray:
        """Indices c with nonzero marginal probability."""
        return np.flatnonzero(self.marginals > 0.0)

    @cached_property
    def support_cumulative(self) -> np.ndarray:
        """Cumulative marginals over the support, for inverse-CDF sampling."""
        return np.cumsum(self.marginals[self.support])


def build_spectrum(instance: FactoringInstance, q: int) -> SpectrumTable:
    """Compute the full marginal distribution over c in O(q + r) work.

    The joint probability depends on k only through m_k, which takes at most
    two values A and A+1 with multiplicities r - B and B (q = A*r + B), so
    the k-sum collapses to a two-term combination of kernel values.
    """
    _require_power_of_two(q)
    r = instance.r
    a, b = divmod(q, r)

    signed = _signed_residues(r, q)
    abs_t = np.abs(signed)
    good = 2 * abs_t <= r

    # The marginal depends on c only through |{r c}_q| in [0, q/2], so the
    # kernel is evaluated once per residue magnitude, not once per c.
    per_t = np.empty(q // 2 + 1)
    # Peaks: rc = 0 (mod q), every class contributes (m_k/q)^2.
    per_t[0] = float(b * (a + 1) ** 2 + (r - b) * a * a) / q**2
    t = np.arange(1, q // 2 + 1)
    per_t[1:] = (
        b * _kernel(a + 1, t, q, np.sin) + (r - b) * _kernel(a, t, q, np.sin)
    ) / q**2
    marginals = per_t[abs_t]

    for arr in (marginals, signed, good):
        arr.setflags(write=False)
    return SpectrumTable(
        q=q, r=r, marginals=marginals, signed_residues=signed, good_flags=good
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
    abs_t = np.abs(_signed_residues(r, q))
    return set(np.flatnonzero(2 * abs_t <= r).tolist())


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

    # P(c, k) depends on k only through m_k: A+1 for k < B, A for k >= B.
    b = q % r
    class_reps = (0,) if b == 0 else (0, b)
    p_min = math.inf
    min_integral = math.inf
    max_gap = 0.0
    for c in np.flatnonzero(table.good_flags).tolist():
        t = abs(int(table.signed_residues[c]))
        approx = integral_term(t / r, r)
        min_integral = min(min_integral, approx)
        for k in class_reps:
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
