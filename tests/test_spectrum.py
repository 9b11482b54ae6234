"""Spectrum tests against a brute-force complex-exponential oracle.

The oracle ignores every closed form: it evaluates x^a mod n for all
a in [0, q), groups the exponents by the observed register-2 value, and sums
exp(2 pi i a c / q) directly. Anything the fast path gets wrong shows up as
a mismatch here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim import (
    FactoringInstance,
    NotAUnitError,
    build_spectrum,
    good_c_set,
    integral_term,
    joint_probability,
    verify_bounds,
)

# q <= 2^10 instances exercising r | q, r not dividing q, r = 2, and the
# degenerate q = 2 register
ORACLE_CASES = [
    (15, 7, 256),
    (15, 7, 2),
    (15, 14, 256),
    (21, 2, 512),
    (33, 2, 1024),
    (21, 4, 64),
]


def brute_joint_matrix(n: int, x: int, q: int) -> np.ndarray:
    """P(c, k) for all c, k by direct a-summation; O(q^2) per residue class."""
    a = np.arange(q)
    powers = np.array([pow(x, int(e), n) for e in a])
    phases = np.exp(2j * np.pi * np.outer(a, np.arange(q)) / q)
    r = 1
    value = x % n
    while value != 1:
        value = value * x % n
        r += 1
    rows = []
    for k in range(r):
        target = pow(x, k, n)
        amp = phases[powers == target].sum(axis=0) / q
        rows.append(np.abs(amp) ** 2)
    return np.array(rows)  # shape (r, q)


@pytest.mark.parametrize("n,x,q", ORACLE_CASES)
def test_joint_probability_matches_brute_force(n, x, q):
    instance = FactoringInstance.create(n, x)
    oracle = brute_joint_matrix(n, x, q)
    assert oracle.shape[0] == instance.r
    for k in range(instance.r):
        for c in range(q):
            fast = joint_probability(instance, q, c, k)
            assert fast == pytest.approx(oracle[k, c], abs=1e-10)


@pytest.mark.parametrize("n,x,q", ORACLE_CASES)
def test_build_spectrum_matches_brute_force_marginals(n, x, q):
    instance = FactoringInstance.create(n, x)
    table = build_spectrum(instance, q)
    oracle = brute_joint_matrix(n, x, q).sum(axis=0)
    np.testing.assert_allclose(table.marginals, oracle, atol=1e-10)
    assert abs(float(table.marginals.sum()) - 1.0) < 1e-12


def test_spectrum_support_is_exact_for_divisor_order():
    instance = FactoringInstance.create(15, 7)
    table = build_spectrum(instance, 256)
    support = np.flatnonzero(table.marginals)
    assert support.tolist() == [0, 64, 128, 192]
    # off-peak entries cancel exactly, not merely within tolerance
    assert all(table.marginals[c] == 0.0 for c in range(256) if c % 64)
    assert all(table.marginals[c] == 0.25 for c in support)


def test_spectrum_r2_support():
    table = build_spectrum(FactoringInstance.create(15, 14), 256)
    support = np.flatnonzero(table.marginals)
    assert support.tolist() == [0, 128]
    assert all(table.marginals[c] == 0.5 for c in support)


def test_joint_probability_examples():
    instance = FactoringInstance.create(15, 7)
    assert joint_probability(instance, 256, 64, 0) == 0.0625
    assert joint_probability(instance, 256, 1, 0) == 0.0
    assert joint_probability(instance, 256, 0, 0) == 0.0625


def test_joint_probability_range_errors():
    instance = FactoringInstance.create(15, 7)
    with pytest.raises(ValueError):
        joint_probability(instance, 256, 0, 4)
    with pytest.raises(ValueError):
        joint_probability(instance, 256, 256, 0)
    with pytest.raises(ValueError):
        joint_probability(instance, 255, 0, 0)


def test_table_joint_agrees_with_direct_formula():
    instance = FactoringInstance.create(21, 2)
    q = 512
    table = build_spectrum(instance, q)
    for c in (0, 1, 85, 86, 256, 300, 511):
        for k in range(instance.r):
            assert table.joint(c, k) == pytest.approx(
                joint_probability(instance, q, c, k), abs=1e-15
            )


def test_good_c_set_examples():
    assert good_c_set(4, 256) == {0, 64, 128, 192}
    assert good_c_set(1, 256) == {0}
    # q = 2 degenerate: every c is good, the condition carries no information
    assert good_c_set(4, 2) == {0, 1}


def test_good_c_set_cardinality():
    for q in (64, 256, 1024):
        for r in range(1, q // 2 + 1):
            assert len(good_c_set(r, q)) == r


def test_good_flags_match_good_c_set():
    instance = FactoringInstance.create(21, 2)
    table = build_spectrum(instance, 512)
    flagged = set(np.flatnonzero(table.good_flags).tolist())
    assert flagged == good_c_set(instance.r, 512)


def test_normalization_across_instances():
    for n, x in [(15, 2), (15, 4), (21, 5), (33, 10), (35, 6), (39, 2)]:
        instance = FactoringInstance.create(n, x)
        s = (n * n - 1).bit_length()
        table = build_spectrum(instance, 1 << s)
        assert abs(float(table.marginals.sum()) - 1.0) < 1e-12


def test_integral_term_values():
    assert integral_term(0.0, 4) == 0.25
    assert integral_term(0.5, 4) == pytest.approx(2 / (math.pi * 4), rel=1e-15)
    assert integral_term(-0.5, 7) == pytest.approx(2 / (math.pi * 7), rel=1e-15)


def test_verify_bounds_exact_case():
    report = verify_bounds(FactoringInstance.create(15, 7), 256)
    assert report.p_min == 0.0625
    assert report.one_third_bound == pytest.approx(1 / 48)
    assert report.exceeds_one_third
    assert report.meets_sinc_floor
    assert report.sinc_floor_epsilon == 0.0
    assert report.max_integral_gap == 0.0
    assert not report.advisory


@pytest.mark.parametrize(
    "n,x,q", [(15, 7, 256), (21, 2, 512), (33, 2, 2048), (15, 7, 2)]
)
def test_verify_bounds_p_min_matches_brute_force(n, x, q):
    instance = FactoringInstance.create(n, x)
    r = instance.r
    good = [c for c in range(q) if 2 * min(r * c % q, -r * c % q) <= r]
    expected = brute_joint_matrix(n, x, q)[:, good].min()
    report = verify_bounds(instance, q)
    assert report.p_min == pytest.approx(expected, abs=1e-12)


def test_verify_bounds_advisory_flag():
    report = verify_bounds(FactoringInstance.create(15, 7), 2)
    assert report.advisory


def test_instance_rejects_nonunit_base():
    with pytest.raises(NotAUnitError) as err:
        FactoringInstance.create(15, 5)
    assert err.value.factor == 5


def test_instance_rejects_nonminimal_order():
    with pytest.raises(ValueError):
        FactoringInstance(n=15, x=7, ell=4, r=8)
    with pytest.raises(ValueError):
        FactoringInstance(n=15, x=7, ell=4, r=3)
    with pytest.raises(ValueError):
        FactoringInstance(n=15, x=7, ell=3, r=4)


def test_instance_rejects_trivial_base():
    # order 1 (x = 1) and x = 0 are outside the base range entirely
    with pytest.raises(ValueError):
        FactoringInstance.create(15, 1)
    with pytest.raises(ValueError):
        FactoringInstance.create(15, 0)
    with pytest.raises(ValueError):
        FactoringInstance.create(15, 15)


def test_instance_range_errors_name_the_base_range():
    # create checks the range before the order oracle, whose own range for
    # the base is the looser [1, n - 1]
    with pytest.raises(ValueError, match=r"must be in \[2, 14\], got 0"):
        FactoringInstance.create(15, 0)
    with pytest.raises(ValueError, match=r"must be in \[2, 14\], got 1"):
        FactoringInstance(n=15, x=1, ell=4, r=1)
    with pytest.raises(ValueError, match="modulus must be >= 3, got 1"):
        FactoringInstance.create(1, 1)


def test_build_spectrum_requires_power_of_two():
    instance = FactoringInstance.create(15, 7)
    with pytest.raises(ValueError):
        build_spectrum(instance, 100)
    with pytest.raises(ValueError):
        build_spectrum(instance, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=60), st.data())
def test_spectrum_normalization_property(n, data):
    units = [x for x in range(2, n) if math.gcd(x, n) == 1]
    if not units:
        return
    x = data.draw(st.sampled_from(units))
    s = data.draw(st.integers(min_value=1, max_value=12))
    table = build_spectrum(FactoringInstance.create(n, x), 1 << s)
    assert abs(float(table.marginals.sum()) - 1.0) < 1e-12
    # good flags agree with the definitional test on the signed residue
    t = np.abs(table.signed_residues)
    np.testing.assert_array_equal(table.good_flags, 2 * t <= table.r)
