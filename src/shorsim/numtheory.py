"""Exact integer arithmetic behind order finding.

Everything in this module works on plain Python integers, so there is no
precision ceiling: modular exponentiation, a brute-force order finder that
serves as the ground-truth oracle, trial-division factorization, Euler's
totient, centered residues, and continued-fraction machinery for recovering
a rational d/r from a measured c/q. All comparisons against rational
tolerances are done by integer cross-multiplication, never in floating
point. ``signed_residue`` also takes int64 arrays, so the spectrum module's
residue tables use the same formula.
"""

import math
from dataclasses import dataclass
from typing import Optional


class NotAUnitError(ValueError):
    """Raised when a base shares a factor with the modulus.

    The shared factor is kept on the exception: callers that were trying to
    factor the modulus have already succeeded by accident.
    """

    def __init__(self, x: int, n: int, factor: int):
        super().__init__(
            f"gcd({x}, {n}) = {factor} != 1; {x} is not a unit modulo {n}"
        )
        self.x = x
        self.n = n
        self.factor = factor


@dataclass(frozen=True)
class ConvergentSequence:
    """Continued-fraction expansion of a fraction c/q with 0 <= c < q.

    ``partial_quotients`` is the Euclidean quotient sequence (the first entry
    is always 0 because c < q). ``convergents`` holds the successive best
    rational approximations (d, r) in lowest terms; the last one equals c/q
    reduced.
    """

    numerator_c: int
    denominator_q: int
    partial_quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """Return base**exponent mod modulus using square-and-multiply.

    Delegates to the builtin three-argument ``pow``, which runs in
    O(log exponent) multiplications.
    """
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if base < 0:
        raise ValueError(f"base must be nonnegative, got {base}")
    if exponent < 0:
        raise ValueError(f"exponent must be nonnegative, got {exponent}")
    return pow(base, exponent, modulus)


def order_oracle(x: int, n: int) -> int:
    """Return the multiplicative order of x modulo n by brute force.

    Multiplies x into an accumulator until it hits 1, so the result is the
    least r >= 1 with x**r = 1 (mod n) by construction. This is deliberately
    the dumbest correct method available; the rest of the package treats it
    as the independent source of truth for orders.

    Raises:
        NotAUnitError: if gcd(x, n) != 1, in which case no order exists.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if not 1 <= x < n:
        raise ValueError(f"base must be in [1, {n - 1}], got {x}")
    g = math.gcd(x, n)
    if g != 1:
        raise NotAUnitError(x, n, g)
    r = 1
    y = x % n
    while y != 1:
        y = y * x % n
        r += 1
    return r


def factorize(m: int) -> dict[int, int]:
    """Prime factorization of m as {prime: exponent}, by trial division.

    Inputs here are small (orders and desk-scale moduli), so nothing fancier
    is warranted. factorize(1) is the empty dict.
    """
    if m < 1:
        raise ValueError(f"argument must be >= 1, got {m}")
    factors = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        factors[m] = 1
    return factors


def euler_phi(r: int) -> int:
    """Count the integers in [1, r] coprime to r."""
    result = r
    for p in factorize(r):
        result -= result // p
    return result


def signed_residue(v, q: int):
    """Return the representative of v mod q lying in (-q/2, q/2].

    The boundary point q/2 maps to +q/2, so the test ``|signed_residue| <= r/2``
    is deterministic for every input. ``v`` may be an int or an integer
    numpy array; the formula has no branch, so it applies element-wise.
    """
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    h = (q - 1) // 2
    return (v + h) % q - h


def continued_fraction(c: int, q: int) -> ConvergentSequence:
    """Expand c/q as a continued fraction and collect all convergents.

    Args:
        c: numerator, 0 <= c < q.
        q: positive denominator.

    Returns:
        A ConvergentSequence whose convergents are in lowest terms and whose
        final convergent equals c/q reduced. c = 0 yields the single
        convergent 0/1.
    """
    if q < 1:
        raise ValueError(f"denominator must be >= 1, got {q}")
    if not 0 <= c < q:
        raise ValueError(f"numerator must be in [0, {q - 1}], got {c}")

    quotients = []
    convergents = []
    # Standard recurrences: d_i = a_i d_{i-1} + d_{i-2}, same for r_i.
    d_prev, d_prev2 = 1, 0
    r_prev, r_prev2 = 0, 1
    a, b = c, q
    while b:
        quot, rem = divmod(a, b)
        a, b = b, rem
        d_prev2, d_prev = d_prev, quot * d_prev + d_prev2
        r_prev2, r_prev = r_prev, quot * r_prev + r_prev2
        quotients.append(quot)
        convergents.append((d_prev, r_prev))
    return ConvergentSequence(
        numerator_c=c,
        denominator_q=q,
        partial_quotients=tuple(quotients),
        convergents=tuple(convergents),
    )


def recover_rational(
    c: int, q: int, denominator_bound: int
) -> Optional[tuple[int, int]]:
    """Find the convergent d/r of c/q with |c/q - d/r| <= 1/(2q) and r largest.

    Scans the convergents of c/q and keeps the last one whose denominator
    stays within ``denominator_bound`` and that approximates c/q to within
    half a grid step 1/(2q). The inequality is evaluated exactly via
    cross-multiplication: |c/q - d/r| <= 1/(2q) iff 2|c r - d q| <= r.

    Returns None when no convergent qualifies; absence is an expected
    outcome, not an error.
    """
    if denominator_bound < 1:
        raise ValueError(
            f"denominator bound must be >= 1, got {denominator_bound}"
        )
    best = None
    for d, r in continued_fraction(c, q).convergents:
        if r > denominator_bound:
            break
        if 2 * abs(c * r - d * q) <= r:
            best = (d, r)
    return best
