"""Unit and property tests for the exact integer primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim import numtheory as nt


def test_mod_pow_examples():
    assert nt.mod_pow(7, 4, 15) == 1
    assert nt.mod_pow(7, 0, 15) == 1
    assert nt.mod_pow(2, 4, 15) == 1
    assert nt.mod_pow(13, 0, 21) == 1


def test_mod_pow_invalid_modulus():
    with pytest.raises(ValueError):
        nt.mod_pow(2, 3, 1)
    with pytest.raises(ValueError):
        nt.mod_pow(2, 3, 0)


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=10**9),
)
def test_mod_pow_matches_builtin(base, exponent, modulus):
    assert nt.mod_pow(base, exponent, modulus) == pow(base, exponent, modulus)


def test_order_oracle_examples():
    assert nt.order_oracle(7, 15) == 4
    assert nt.order_oracle(1, 15) == 1
    assert nt.order_oracle(14, 15) == 2
    assert nt.order_oracle(2, 21) == 6


def test_order_oracle_rejects_nonunit():
    with pytest.raises(nt.NotAUnitError) as err:
        nt.order_oracle(5, 15)
    assert err.value.factor == 5


@given(st.integers(min_value=2, max_value=400), st.data())
def test_order_is_minimal(n, data):
    units = [x for x in range(1, n) if math.gcd(x, n) == 1]
    x = data.draw(st.sampled_from(units))
    r = nt.order_oracle(x, n)
    assert nt.mod_pow(x, r, n) == 1
    # no smaller positive exponent reaches 1
    value = 1
    for _ in range(r - 1):
        value = value * x % n
        assert value != 1


def test_euler_phi_examples():
    assert nt.euler_phi(4) == 2
    assert nt.euler_phi(1) == 1
    assert nt.euler_phi(12) == 4
    with pytest.raises(ValueError):
        nt.euler_phi(0)


def test_euler_phi_matches_gcd_count_to_10k():
    # oracle: phi(r) counts 1 <= j <= r with gcd(j, r) = 1
    for r in range(1, 10**4 + 1):
        j = np.arange(1, r + 1)
        expected = int(np.count_nonzero(np.gcd(j, r) == 1))
        assert nt.euler_phi(r) == expected


def test_factorize_examples():
    assert nt.factorize(1) == {}
    assert nt.factorize(2) == {2: 1}
    assert nt.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert nt.factorize(3233) == {53: 1, 61: 1}
    with pytest.raises(ValueError):
        nt.factorize(0)


@given(st.integers(min_value=1, max_value=10**4))
def test_factorize_is_a_prime_factorization(m):
    factors = nt.factorize(m)
    assert math.prod(p**e for p, e in factors.items()) == m
    for p, e in factors.items():
        assert e >= 1
        # oracle: p is prime when no d in [2, p) divides it
        assert p >= 2 and all(p % d for d in range(2, p))


def test_signed_residue_examples():
    assert nt.signed_residue(256, 256) == 0
    assert nt.signed_residue(5, 8) == -3
    # boundary maps to +q/2 by the half-open convention
    assert nt.signed_residue(4, 8) == 4
    assert nt.signed_residue(-4, 8) == 4


def test_signed_residue_range_and_congruence_bulk():
    rng = np.random.default_rng(20240901)
    for _ in range(10**4):
        q = 2 * int(rng.integers(1, 10**6))
        v = int(rng.integers(-(10**9), 10**9))
        t = nt.signed_residue(v, q)
        assert (t - v) % q == 0
        assert -q // 2 < t <= q // 2


@given(st.integers(), st.integers(min_value=1, max_value=10**9))
def test_signed_residue_property(v, half_q):
    q = 2 * half_q
    t = nt.signed_residue(v, q)
    assert (t - v) % q == 0
    assert -q < 2 * t <= q


@given(
    st.integers(min_value=1, max_value=2**12),
    st.lists(st.integers(min_value=-(2**40), max_value=2**40),
             min_size=1, max_size=40),
)
def test_signed_residue_on_arrays(q, values):
    got = nt.signed_residue(np.array(values, dtype=np.int64), q)
    assert got.dtype == np.int64
    assert got.tolist() == [nt.signed_residue(v, q) for v in values]
    assert all(-q < 2 * t <= q for t in got.tolist())


def test_continued_fraction_examples():
    seq = nt.continued_fraction(192, 256)
    assert seq.convergents[-1] == (3, 4)
    assert nt.continued_fraction(0, 256).convergents == ((0, 1),)
    assert nt.continued_fraction(128, 256).convergents[-1] == (1, 2)


def test_continued_fraction_rejects_out_of_range():
    with pytest.raises(ValueError):
        nt.continued_fraction(256, 256)
    with pytest.raises(ValueError):
        nt.continued_fraction(-1, 256)


@given(st.integers(min_value=0, max_value=10**6 - 1),
       st.integers(min_value=1, max_value=10**6))
def test_continued_fraction_invariants(c, q):
    if c >= q:
        c %= q
    seq = nt.continued_fraction(c, q)
    g = math.gcd(c, q) if c else q
    assert seq.convergents[-1] == (c // g, q // g)
    for d, r in seq.convergents:
        assert math.gcd(d, r) == 1
    denominators = [r for _, r in seq.convergents]
    for a, b in zip(denominators[1:], denominators[2:]):
        assert b > a


def test_recover_rational_examples():
    assert nt.recover_rational(192, 256, 15) == (3, 4)
    assert nt.recover_rational(0, 256, 15) == (0, 1)
    assert nt.recover_rational(1, 2, 15) == (1, 2)


def test_recover_rational_absent_is_none():
    # c/q = 1/256 sits closer than 1/(2*256) only to 0/1, whose distance
    # 1/256 exceeds 1/512, so nothing qualifies
    assert nt.recover_rational(1, 256, 15) is None


@settings(max_examples=300)
@given(st.data())
def test_recover_rational_uniqueness_chain(data):
    # c = round(d q / r) with q >= n^2 > r^2 must recover (d, r) exactly
    n = data.draw(st.integers(min_value=3, max_value=1500))
    r = data.draw(st.integers(min_value=1, max_value=n - 1))
    d = data.draw(st.integers(min_value=0, max_value=r - 1)) if r > 1 else 0
    if math.gcd(d, r) != 1:
        g = math.gcd(d, r)
        d, r = d // g, r // g
    s = (n * n - 1).bit_length()
    q = 1 << s
    c = (2 * d * q + r) // (2 * r)
    assert nt.recover_rational(c, q, n) == (d, r)
