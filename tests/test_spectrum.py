"""Spectrum tests against a brute-force complex-exponential oracle.

The oracle ignores every closed form: it evaluates x^a mod n for all
a in [0, q), groups the exponents by the observed register-2 value, and sums
exp(2 pi i a c / q) directly. Anything the fast path gets wrong shows up as
a mismatch here.
"""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim import (
    FactoringInstance,
    NotAUnitError,
    SpectrumTable,
    build_spectrum,
    good_c_set,
    integral_term,
    verify_bounds,
)
from shorsim import numtheory as nt
from shorsim import spectrum
from shorsim.spectrum import _kernel

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
            fast = build_spectrum(instance, q).joint(c, k)
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
    assert build_spectrum(instance, 256).joint(64, 0) == 0.0625
    assert build_spectrum(instance, 256).joint(1, 0) == 0.0
    assert build_spectrum(instance, 256).joint(0, 0) == 0.0625


def test_joint_probability_range_errors():
    # q is refused first, at construction, then k, then c
    instance = FactoringInstance.create(15, 7)
    with pytest.raises(ValueError, match="k must be in"):
        build_spectrum(instance, 256).joint(0, 4)
    with pytest.raises(ValueError, match="c must be in"):
        build_spectrum(instance, 256).joint(256, 0)
    with pytest.raises(ValueError, match="q must be a power of two"):
        build_spectrum(instance, 255).joint(256, 4)
    with pytest.raises(ValueError, match="k must be in"):
        build_spectrum(instance, 256).joint(256, 4)


def test_table_joint_agrees_with_direct_formula():
    # the closed form written out: sin^2(pi m t/q) / sin^2(pi t/q) / q^2
    # with t = {r c}_q and m = m_k, and m^2/q^2 where t = 0
    instance = FactoringInstance.create(21, 2)
    q, r = 512, instance.r
    table = build_spectrum(instance, q)
    for c in (0, 1, 85, 86, 256, 300, 511):
        t = (r * c + q // 2) % q - q // 2
        for k in range(r):
            m = (q - k - 1) // r + 1
            if t == 0:
                direct = m**2 / q**2
            else:
                direct = (math.sin(math.pi * m * t / q) ** 2
                          / math.sin(math.pi * t / q) ** 2 / q**2)
            assert table.joint(c, k) == pytest.approx(direct, abs=1e-15), (
                c, k)


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


def recycled_readout(instance: FactoringInstance, s: int):
    """Probability of every c in [0, 2^s) read out through one control qubit.

    The semiclassical Fourier transform (Griffiths and Niu, PRL 76, 3228)
    reads c one bit at a time, least significant first, from a single
    control qubit that is measured and recycled after each round, with
    feed-forward of the bits already read. The work register is held as
    amplitudes on the orbit 1, x, x^2, ... of x mod n, so controlled
    multiplication by x^(2^e) is a roll of the orbit by 2^e mod r. Round j
    prepares |+>, applies controlled-U^(2^(s-1-j)), turns the |1> branch by
    -2 pi (bits read so far) / 2^(j+1), applies H and reads bit j of c.
    All 2^s branches are carried at once: row i holds the unnormalised
    work register of the branch that read i. Returns the probabilities and
    each round's roll.
    """
    orbit = [1]
    while orbit[-1] * instance.x % instance.n != 1:
        orbit.append(orbit[-1] * instance.x % instance.n)
    states = np.zeros((1, len(orbit)), complex)
    states[0, 0] = 1.0
    rolls = []
    for j in range(s):
        rolls.append((1 << (s - 1 - j)) % len(orbit))
        read = np.arange(1 << j)
        phase = np.exp(-2j * np.pi * read / (1 << (j + 1)))
        turned = phase[:, None] * np.roll(states, rolls[-1], axis=1)
        # Bit 0 keeps the branch index, bit 1 adds 2^j to it.
        states = np.concatenate([states + turned, states - turned]) / 2
    return (np.abs(states) ** 2).sum(axis=1), rolls


RECYCLED_CASES = [
    *((15, x, s) for x in (2, 7, 8, 11, 13) for s in range(1, 13)),
    (21, 2, 9), (33, 2, 11), (35, 2, 12), (221, 2, 16),
]


@pytest.mark.parametrize("n,x,s", RECYCLED_CASES)
def test_recycled_control_qubit_readout_matches_marginals(n, x, s):
    # The one-control-qubit readout of the Monz et al. experiment draws c
    # from the table's marginals, at every register width.
    instance = FactoringInstance.create(n, x)
    probs, rolls = recycled_readout(instance, s)
    np.testing.assert_allclose(
        probs, build_spectrum(instance, 1 << s).marginals, rtol=0, atol=1e-15
    )
    # Once r divides 2^(s-1-j), round j's controlled-U is the identity:
    # at r = 4 every round but the last two, and never for r not a power
    # of two.
    r = instance.r
    identity = [j for j, roll in enumerate(rolls) if roll == 0]
    if r == 4:
        assert identity == [j for j in range(s) if s - 1 - j >= 2]
    elif r == 2:
        assert identity == [j for j in range(s) if s - 1 - j >= 1]
    else:
        assert identity == []


def full_length_spectrum(r: int, q: int):
    """(marginals, signed_residues, good_flags) computed over every c.

    The reference for the period-based build: residues for all q values of
    c, and the kernel at every magnitude |t| <= q/2, not only multiples of
    gcd(r, q).
    """
    a, b = divmod(q, r)
    signed = nt.signed_residue((r % q) * np.arange(q, dtype=np.int64), q)
    abs_t = np.abs(signed)
    per_t = np.empty(q // 2 + 1)
    per_t[0] = float(b * (a + 1) ** 2 + (r - b) * a * a) / q**2
    t = np.arange(1, q // 2 + 1)
    per_t[1:] = (
        b * _kernel(a + 1, t, q, np.sin) + (r - b) * _kernel(a, t, q, np.sin)
    ) / q**2
    return per_t[abs_t], signed, 2 * abs_t <= r


@functools.cache
def instance_of_order(r: int) -> FactoringInstance:
    """Base 2 modulo 2^r - 1, whose order is exactly r."""
    return FactoringInstance.create((1 << r) - 1, 2)


# Every power of two q <= 2^12 with odd r (g = 1), r | q, r > q, and
# g = gcd(r, q) = 2^j for every j up to log2(q).
PERIOD_GRID = sorted(
    (r, q)
    for q in (1 << s for s in range(1, 13))
    for r in {
        3, 5, 7, 15, 21, 195, q - 1, q + 1,
        *(m << j for m in (1, 3, 5) for j in range(q.bit_length() + 1)),
    }
    if 2 <= r <= 3 * q
)


def test_build_spectrum_equals_full_length_formula_bitwise():
    for r, q in PERIOD_GRID:
        table = build_spectrum(instance_of_order(r), q)
        expected = full_length_spectrum(r, q)
        got = (table.marginals, table.signed_residues, table.good_flags)
        for name, a, b in zip(("marginals", "residues", "flags"), got,
                              expected):
            assert a.dtype == b.dtype and a.shape == (q,), (name, r, q)
            assert a.tobytes() == b.tobytes(), (name, r, q)
        support = np.flatnonzero(expected[0])
        assert table.support.tolist() == support.tolist(), (r, q)


def test_good_c_set_equals_full_length_flags():
    for r, q in PERIOD_GRID + [(1, 1 << s) for s in range(1, 13)]:
        flags = full_length_spectrum(r, q)[2]
        assert good_c_set(r, q) == set(np.flatnonzero(flags).tolist()), (
            r, q)


# Half-periods of 2^15 and 2^16 rows: two and four whole chunks of the
# default size, and 33 or 66 chunks with a ragged last one at 1000 rows
@pytest.mark.parametrize("chunk", [spectrum._CHUNK, 1000])
@pytest.mark.parametrize("r,q", [
    (3, 1 << 16), (195, 1 << 16), (48, 1 << 20), (3, 1 << 17),
])
def test_chunked_marginals_equal_full_length_formula_bitwise(
        r, q, chunk, monkeypatch):
    monkeypatch.setattr(spectrum, "_CHUNK", chunk)
    table = SpectrumTable(q=q, r=r)
    expected = full_length_spectrum(r, q)[0]
    assert table.marginals.tobytes() == expected.tobytes()
    running = SpectrumTable(q=q, r=r).cumulative
    assert running.tobytes() == np.cumsum(table.period_marginals).tobytes()


def test_cumulative_is_the_cumsum_of_the_marginals_bitwise():
    for r, q in PERIOD_GRID:
        for cumulative_first in (True, False):
            table = SpectrumTable(q=q, r=r)
            if cumulative_first:
                running = table.cumulative
            marginals = table.period_marginals
            if not cumulative_first:
                running = table.cumulative
            expected = np.cumsum(marginals)
            assert running.dtype == expected.dtype, (r, q)
            assert running.tobytes() == expected.tobytes(), (r, q)


def test_sampling_keeps_no_residues_or_marginals():
    table = SpectrumTable(q=1 << 16, r=24)
    table.inverse_cdf(np.linspace(0.0, 1.0, 101), np.full(101, 0.5))
    assert "cumulative" in vars(table)
    assert not {"period_residues", "period_marginals"} & set(vars(table))
    # nor any per-row state: the k-group weights are recomputed per call
    table.inverse_cdf(0.3, 0.5)
    assert set(vars(table)) == {"q", "r", "cumulative"}


def _within_two_ulp(got: np.ndarray, want: np.ndarray) -> bool:
    return bool((np.abs(got - want) <= 2 * np.spacing(want)).all())


def _edge_rows(p: int, rng, count: int) -> np.ndarray:
    """Row 0, the rows around p/2, the last row and ``count`` random rows."""
    edges = [0, 1, p // 2 - 1, p // 2, p // 2 + 1, p - 1]
    rows = {c for c in edges if 0 <= c < p}
    rows.update(rng.integers(0, p, count).tolist())
    return np.array(sorted(rows), dtype=np.int64)


def _joint_pairs(table: SpectrumTable, rows) -> np.ndarray:
    """q^2 (B P(c, 0), (r - B) P(c, B)) for each row c, from the scalar
    closed form: q^2 P(c, k < B) and q^2 P(c, k >= B)."""
    q, r = table.q, table.r
    b = q % r
    return np.array([[b * (table.joint(c, 0) * q**2) for c in rows],
                     [(r - b) * (table.joint(c, b) * q**2) for c in rows]])


def test_class_weights_equal_the_scalar_joint_over_the_period_grid():
    # PERIOD_GRID has p = 1 (r a multiple of q), p = 2 and r > q; with
    # B = 0 no class has size A+1, and its weight is exactly 0
    rng = np.random.default_rng(21)
    for r, q in PERIOD_GRID:
        table = SpectrumTable(q=q, r=r)
        p = q // math.gcd(r, q)
        rows = np.arange(p) if p <= 64 else _edge_rows(p, rng, 50)
        got = table.class_weights(rows)
        want = _joint_pairs(table, rows.tolist())
        assert got.shape == (2, len(rows)) and got.dtype == np.float64
        assert _within_two_ulp(got, want), (r, q)
        if q % r == 0:
            assert not got[0].any(), (r, q)


def test_class_weights_sum_to_the_period_marginals_bitwise():
    for r, q in PERIOD_GRID:
        table = SpectrumTable(q=q, r=r)
        weights = table.class_weights(np.arange(table.period))
        got = weights.sum(0) / q**2
        assert got.tobytes() == table.period_marginals.tobytes(), (r, q)


def test_period_is_the_length_of_every_period_column():
    for r, q in PERIOD_GRID + [(1, 1 << s) for s in range(1, 13)]:
        table = SpectrumTable(q=q, r=r)
        assert table.period == q // math.gcd(r, q), (r, q)
        for name in (*COLUMNS, "cumulative"):
            assert len(getattr(table, name)) == table.period, (name, r, q)
    # read from (q, r) alone: a 2^60-row period builds no column
    for r, p in [(3, 1 << 60), (24, 1 << 57), (260, 1 << 58)]:
        table = SpectrumTable(q=1 << 60, r=r)
        assert table.period == p
        assert set(vars(table)) == {"q", "r"}


# (q, r) with q % r > 0, so both k groups carry weight: g = 2, 4 and 8,
# at table widths and at q = 2^16 with a period of 2^15 rows
BOUNDARY_CASES = [
    (512, 6), (4096, 36), (1 << 16, 24), (2048, 10), (1 << 16, 110),
    (256, 12), (1 << 16, 90), (4096, 20),
]


def test_one_draw_and_a_block_pick_the_same_k_group_at_every_boundary():
    # At every period row, v at the boundary v* = hi / (hi + lo) of the
    # block's weights and one ulp either side: one draw, weighed on its
    # own, lands in the group the block puts it in
    for q, r in BOUNDARY_CASES:
        table = SpectrumTable(q=q, r=r)
        rows = np.arange(table.period)
        hi, lo = table.class_weights(rows)
        with np.errstate(invalid="ignore"):
            edge = hi / (hi + lo)
        for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
            block = table._k_range(rows, v)
            one = [table._k_range(c, v_c)
                   for c, v_c in zip(rows.tolist(), v.tolist())]
            assert list(zip(*(a.tolist() for a in block))) == one, (q, r)
            assert all(type(k) is int for pair in one for k in pair)


# r = 3 (g = 1), r = 24 (g = 8) and r = 260 (g = 4): the products m |t| and
# (r/g) c pass 2^63 and wrap in int64, and the mask by q - 1 or p - 1 keeps
# their exact low bits
@pytest.mark.parametrize("q", [1 << 40, 1 << 60])
@pytest.mark.parametrize("r", [3, 24, 260])
def test_class_weights_at_large_q_match_python_int_joint(r, q):
    table = SpectrumTable(q=q, r=r)
    rows = _edge_rows(q // math.gcd(r, q), np.random.default_rng(r), 300)
    assert rows[0] == 0
    assert _within_two_ulp(table.class_weights(rows),
                           _joint_pairs(table, rows.tolist()))


@pytest.mark.parametrize("r", [3, 24, 260])
def test_good_rows_at_q_2_pow_60_match_python_ints(r):
    q = 1 << 60
    g = math.gcd(r, q)
    p = q // g
    inverse = pow(r // g, -1, p)
    reach = r // 2 // g
    want = sorted({u * inverse % p for u in range(-reach, reach + 1)})
    assert SpectrumTable(q=q, r=r).good_rows.tolist() == want


def test_good_rows_refuse_a_period_past_int64():
    # r = 4 at q = 2^66: a period of 2^64 rows
    with pytest.raises(ValueError, match=f"q = {1 << 66} "):
        good_c_set(4, 1 << 66)


def test_good_rows_are_the_flagged_rows_of_one_period():
    # PERIOD_GRID has p = 1 (r a multiple of q), p = 2 and r > q
    for r, q in PERIOD_GRID + [(1, 1 << s) for s in range(1, 13)]:
        rows = SpectrumTable(q=q, r=r).good_rows
        p = q // math.gcd(r, q)
        flags = full_length_spectrum(r, q)[2][:p]
        assert rows.dtype == np.int64 and not rows.flags.writeable, (r, q)
        assert rows.tolist() == np.flatnonzero(flags).tolist(), (r, q)


def flag_scan_bounds(instance: FactoringInstance, q: int) -> dict:
    """The loop fields of ``verify_bounds``, by scanning a period's flags.

    Every row of one period whose residue satisfies |{r c}_q| <= r/2 is
    visited, as the bound check did before it listed the good rows.
    """
    r = instance.r
    residues = SpectrumTable(q=q, r=r).period_residues
    p_min = min_integral = math.inf
    max_gap = 0.0
    for c in np.flatnonzero(np.abs(residues) <= r // 2).tolist():
        approx = integral_term(abs(int(residues[c])) / r, r)
        min_integral = min(min_integral, approx)
        for k in {0, q % r}:
            p = build_spectrum(instance, q).joint(c, k)
            p_min = min(p_min, p)
            max_gap = max(max_gap, abs(math.sqrt(p) - approx))
    return {"p_min": p_min, "min_integral_term": min_integral,
            "max_integral_gap": max_gap}


def test_verify_bounds_equals_the_flag_scan(monkeypatch):
    # PERIOD_GRID has r | q, g > 1 with r not dividing q, and r > q. The
    # scan reads every good row; verify_bounds evaluates only the good
    # rows c <= p/2, whose mirrors p - c share their |{r c}_q|.
    cases = [(instance_of_order(r), q) for r, q in PERIOD_GRID]
    cases.append((FactoringInstance.create(3233, 3), 1 << 24))
    expected = [flag_scan_bounds(instance, q) for instance, q in cases]
    joint = SpectrumTable.joint
    seen = set()

    def recording(self, c, k):
        seen.add(c)
        return joint(self, c, k)

    monkeypatch.setattr(SpectrumTable, "joint", recording)
    for (instance, q), want in zip(cases, expected):
        seen.clear()
        report = verify_bounds(instance, q)
        assert {k: getattr(report, k) for k in want} == want, (instance.r, q)
        table = SpectrumTable(q=q, r=instance.r)
        rows = table.good_rows.tolist()
        assert sorted(seen) == [c for c in rows if c <= table.period // 2]


def good_row_bounds(instance: FactoringInstance, q: int) -> dict:
    """The loop fields of ``verify_bounds`` by its former good-row loop.

    The rows c <= p/2 of ``good_rows`` are visited, each magnitude is
    re-derived from the row's residue, and ``joint`` is called per row, as
    the bound check did before it walked the magnitudes g u directly.
    """
    r = instance.r
    table = SpectrumTable(q=q, r=r)
    p_min = min_integral = math.inf
    max_gap = 0.0
    rows = table.good_rows
    for c in rows[rows <= table.period // 2].tolist():
        approx = integral_term(abs(nt.signed_residue(r * c, q)) / r, r)
        min_integral = min(min_integral, approx)
        for k in {0, q % r}:
            prob = table.joint(c, k)
            p_min = min(p_min, prob)
            max_gap = max(max_gap, abs(math.sqrt(prob) - approx))
    return {"p_min": p_min, "min_integral_term": min_integral,
            "max_integral_gap": max_gap}


# r = 11592 at q = 2^40 (g = 8), and r = 4 at q = 2^65, where the period
# has 2^63 rows and u w mod p runs in Python ints past int64
@pytest.mark.parametrize("n,x,q", [(1022117, 2, 1 << 40), (15, 7, 1 << 65)])
def test_verify_bounds_walk_equals_the_good_row_loop(n, x, q):
    instance = FactoringInstance.create(n, x)
    want = good_row_bounds(instance, q)
    report = verify_bounds(instance, q)
    assert {k: getattr(report, k) for k in want} == want


def test_verify_bounds_caches_no_column(monkeypatch):
    # the walk computes each good row as a Python int, so the table it
    # builds keeps its two fields and nothing else
    tables = []

    def capturing(instance, q):
        tables.append(build_spectrum(instance, q))
        return tables[-1]

    monkeypatch.setattr(spectrum, "build_spectrum", capturing)
    cases = [(instance_of_order(r), q) for r, q in PERIOD_GRID]
    cases.append((FactoringInstance.create(3233, 3), 1 << 24))
    for instance, q in cases:
        verify_bounds(instance, q)
        assert set(vars(tables[-1])) == {"q", "r"}, (instance.r, q)
    assert len(tables) == len(cases)


@pytest.mark.parametrize("read", [
    "period", "period_marginals", "period_residues", "good_rows",
    "period_flags", "marginals", "signed_residues", "good_flags", "support",
    "cumulative", "rows", "good_c_set", "verify_bounds",
])
def test_a_period_past_int64_is_refused_by_name(read):
    # r = 4 at q = 2^66: a period of 2^64 rows, which no int64 array holds
    table = SpectrumTable(q=1 << 66, r=4)
    calls = {
        "rows": table.rows,
        "good_c_set": lambda: good_c_set(4, 1 << 66),
        "verify_bounds": lambda: verify_bounds(
            FactoringInstance.create(15, 7), 1 << 66),
    }
    with pytest.raises(ValueError, match=(
        f"^q = {1 << 66} gives a period of {1 << 64} rows, more than an "
        "int64 array can hold$"
    )):
        calls.get(read, lambda: getattr(table, read))()


COLUMNS = ("period_marginals", "period_residues", "period_flags")


# g = 1 (r = 3, 195), r | q (r = 4), and g = 8 and 16 with r not dividing q
@pytest.mark.parametrize("r,q", [
    (3, 256), (195, 4096), (4, 256), (24, 1024), (48, 4096),
])
def test_period_columns_are_computed_on_first_read(r, q):
    table = build_spectrum(instance_of_order(r), q)
    assert not set(COLUMNS) & set(vars(table))
    # each reference column is read from its own fresh table
    expected = {name: getattr(SpectrumTable(q=q, r=r), name)
                for name in COLUMNS}
    for order in itertools.permutations(COLUMNS):
        table = build_spectrum(instance_of_order(r), q)
        for name in order:
            column = getattr(table, name)
            assert column.dtype == expected[name].dtype, (name, order)
            assert column.tobytes() == expected[name].tobytes(), (name, order)
            assert getattr(table, name) is column, (name, order)
            assert not column.flags.writeable, (name, order)


def test_spectrum_table_requires_a_power_of_two_q():
    with pytest.raises(ValueError, match="q must be a power of two"):
        SpectrumTable(q=12, r=3)


@pytest.mark.parametrize("r", [0, -3])
def test_spectrum_table_refuses_an_order_below_one(r):
    # r = -3 would give a first marginal of -1/3, and r = 0 a division by
    # zero; the order is checked before q
    for q in (256, 12):
        with pytest.raises(ValueError, match=f"^order must be >= 1, got {r}$"):
            SpectrumTable(q=q, r=r)


def test_good_c_set_refuses_an_order_below_one():
    with pytest.raises(ValueError, match="^order must be >= 1, got 0$"):
        good_c_set(0, 8)
    with pytest.raises(ValueError, match="^order must be >= 1, got 0$"):
        good_c_set(0, 12)


def test_cumulative_at_support_equals_support_cumsum():
    # cumulative spans one period; at the period's support it equals the
    # cumsum of the period marginals gathered there
    for r, q in PERIOD_GRID:
        table = build_spectrum(instance_of_order(r), q)
        p = q // math.gcd(r, q)
        assert len(table.cumulative) == len(table.period_marginals) == p
        support = np.flatnonzero(table.period_marginals)
        expected = np.cumsum(table.period_marginals[support])
        assert table.cumulative[support].tobytes() == expected.tobytes()


def test_rows_equal_the_tiled_arrays():
    # rows() repeats the period lists; the tiled full-length views are an
    # independent path to the same q values of each column
    for r, q in PERIOD_GRID:
        table = build_spectrum(instance_of_order(r), q)
        rows = list(table.rows())
        assert rows == list(zip(
            range(q), table.marginals.tolist(),
            table.signed_residues.tolist(), table.good_flags.tolist(),
        )), (r, q)
        assert [type(v) for v in rows[-1]] == [int, float, int, bool]


def test_rows_hold_no_q_long_list():
    # r = 24 at q = 2^20: a period of 2^17 rows, walked 8 times. Three
    # q-long lists of pointers alone would take 3 * 8 q bytes; the period
    # columns and their lists take about half of that.
    q = 1 << 20
    tracemalloc.start()
    try:
        rows = SpectrumTable(q=q, r=24).rows()
        first = next(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first[0] == 0 and first[2:] == (0, True)
    assert peak < 3 * 8 * q, peak


def test_table_paths_allocate_less_than_one_q_length_array():
    # r = 48 at q = 2^20 gives gcd(r, q) = 16: the build and verify_bounds
    # work on the 2^16-long period, sampling above q = 2^16 reads no
    # column, and none needs an array of length q (8 q bytes as float64)
    instance = FactoringInstance.create(221, 54)
    assert instance.r == 48
    q = 1 << 20
    tracemalloc.start()
    try:
        table = build_spectrum(instance, q)
        draws = [table.sample(np.random.default_rng(seed)) for seed in range(5)]
        report = verify_bounds(instance, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(0 <= c < q for c, _ in draws)
    assert report.r == 48
    assert peak < 8 * q, peak



def eigen_products(r: int, q: int, rows) -> np.ndarray:
    """prod_{i<s} cos^2(pi 2^i (j/r - c/q)) for each j < r (row) and c in rows.

    P(c | j) in the eigenbasis, q = 2^s, evaluated directly: each phase is
    reduced mod 1 in integers first, as (2^i j mod r)/r - (2^i c mod q)/q.
    The mean over j is the marginal of c.
    """
    s = q.bit_length() - 1
    j = np.arange(r)[:, None]
    c = np.asarray(rows, dtype=np.int64)[None, :]
    product = np.ones((r, c.shape[1]))
    for i in range(s):
        phase = (j << i) % r / r - (c << i) % q / q
        product *= np.cos(np.pi * phase) ** 2
    return product


def test_eigen_product_form_equals_the_period_marginals():
    # Every row where r p is small, and otherwise the edge rows and 32
    # random ones; (24, 2^16) is (221, 2) at choose_q, checked at every row.
    rng = np.random.default_rng(11)
    for r, q in PERIOD_GRID + [(24, 1 << 16)]:
        table = SpectrumTable(q=q, r=r)
        p = len(table.period_marginals)
        rows = np.arange(p) if r * p <= 1 << 18 else _edge_rows(p, rng, 32)
        got = eigen_products(r, q, rows).mean(axis=0)
        want = table.period_marginals[rows]
        assert np.abs(got - want).max() <= 1e-15, (r, q)


def path_probabilities(table: SpectrumTable) -> np.ndarray:
    """P(c | j) for every j < r and c < q, multiplied along each bit path.

    Row j holds, for each c, the product over bits i of ``bit_zero`` at
    c's lower bits where bit i of c is 0, and of its complement where it
    is 1.
    """
    q, r = table.q, table.r
    j = np.arange(r)[:, None]
    c = np.arange(q)[None, :]
    out = np.ones((r, q))
    for i in range(q.bit_length() - 1):
        zero = table.bit_zero(j, c & (1 << i) - 1, i)
        out *= np.where(c >> i & 1, 1.0 - zero, zero)
    return out


# r | q, r not dividing q, r > q and q = 2
@pytest.mark.parametrize("r,q", [
    (3, 8), (4, 256), (6, 512), (10, 2048), (12, 1024), (24, 256), (5, 2),
    (40, 16), (7, 128), (195, 256),
])
def test_bit_conditionals_multiply_to_the_marginals(r, q):
    # Along every path of bits, the conditionals multiply to P(c | j): each
    # j's row sums to 1 and equals the product form, and the mean over j
    # is the marginal of every c.
    table = SpectrumTable(q=q, r=r)
    given_j = path_probabilities(table)
    np.testing.assert_allclose(given_j.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        given_j, eigen_products(r, q, np.arange(q)), rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        given_j.mean(axis=0), table.marginals, rtol=0, atol=1e-15)


def exact_phase(r: int, q: int, j: int, low: int, i: int) -> Fraction:
    """theta_i in (-1/2, 1/2] as a Fraction, with q = 2^s."""
    s = q.bit_length() - 1
    theta = Fraction(pow(2, s - 1 - i, r) * j % r, r) - Fraction(
        low, 1 << i + 1)
    return theta - (theta > Fraction(1, 2))


@pytest.mark.parametrize("r,s", [
    (260, 24), (5100, 27), (11592, 40), (3, 40), (1000003, 40), (97, 33),
    (24, 17), (255024, 40),
])
def test_float_phase_is_within_2_pow_minus_54_of_the_exact_phase(r, s):
    # q <= 2^40: the first term is reduced in integers, so the float phase
    # keeps the error of one division and one subtraction, at most 2^-54
    # (half an ulp of 1/2); 2^(s-1-i) j / r taken in floats would be off by
    # up to 2^(s-54). Scalars and arrays give the same bytes.
    table = SpectrumTable(q=1 << s, r=r)
    rng = np.random.default_rng(s * r)
    i = rng.integers(0, s, 2000)
    j = rng.integers(0, r, 2000)
    low = rng.integers(0, 1 << 62, 2000) & (1 << i) - 1
    floats = [table._phase(*args) for args in
              zip(j.tolist(), low.tolist(), i.tolist())]
    for got, args in zip(floats, zip(j.tolist(), low.tolist(), i.tolist())):
        want = exact_phase(r, 1 << s, *args)
        assert abs(Fraction(got) - want) <= Fraction(1, 1 << 54), args
        assert -0.5 < got <= 0.5
    for bit in range(s):
        at = i == bit
        got = table._phase(j[at], low[at], bit)
        assert got.tobytes() == np.array(floats)[at].tobytes()


@pytest.mark.parametrize("n,x,q", [(221, 2, 1 << 16), (21, 2, 512),
                                   (15, 7, 256), (57, 7, 4096)])
def test_forced_eigen_draws_match_the_table_by_chi_square(n, x, q,
                                                          monkeypatch):
    # With the cut moved below q, the eigenbasis draws of c are checked
    # against the table's marginals: cells the table gives 0 are never
    # drawn, and the others pass a chi-square test, cells expected below 5
    # draws pooled into one.
    monkeypatch.setattr(spectrum, "_TABLE_MAX_Q", 1)
    table = build_spectrum(FactoringInstance.create(n, x), q)
    assert table.table_free
    rng = np.random.default_rng(q + n)
    draws = 2 * 10**5
    u = rng.random((q.bit_length() - 1, draws))
    c = table.eigen_draw(rng.integers(0, table.r, draws), u,
                         rng.random(draws))[0]
    counts = np.bincount(c, minlength=q)
    expected = draws * table.marginals
    assert not counts[expected == 0].any()
    small = (expected > 0) & (expected < 5)
    observed = np.append(counts[expected >= 5], counts[small].sum())
    expected = np.append(expected[expected >= 5], expected[small].sum())
    if not small.any():
        observed, expected = observed[:-1], expected[:-1]
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    dof = len(expected) - 1
    assert abs(chi2 - dof) / math.sqrt(2 * dof) < 4, (chi2, dof)


# q % r: 2^24 mod 260 = 196, 0, 2^27 mod 5100 = 3728, and 2^17 mod 3 = 2.
@pytest.mark.parametrize("q,r", [(1 << 24, 260), (1 << 20, 8),
                                 (1 << 27, 5100), (1 << 17, 3)])
def test_table_free_sample_reads_the_documented_stream(q, r):
    # integers(0, r) for j, random(s) for the bits, random() for k's group
    # only when q % r != 0, then integers for k; nothing else is read.
    table = SpectrumTable(q=q, r=r)
    assert table.table_free
    s = q.bit_length() - 1
    for seed in range(20):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        c, k = table.sample(rng)
        j = int(twin.integers(0, r))
        u = twin.random(s)
        v = twin.random() if q % r else 0.0
        want_c, lo, hi = map(int, table.eigen_draw(j, u, v))
        assert (c, k) == (want_c, int(twin.integers(lo, hi)))
        assert rng.bit_generator.state == twin.bit_generator.state
    # Drawing kept no column and nothing per row.
    assert set(vars(table)) == {"q", "r"}


class _Recorder:
    """Generator stub: answers from a real Generator and logs each call as
    ("random", size) or ("integers", span)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def random(self, size=None):
        self.calls.append(("random", size))
        return self.rng.random(size)

    def integers(self, lo, hi):
        self.calls.append(("integers", hi - lo))
        return self.rng.integers(lo, hi)


# q % r = 0 and != 0 on each side of 2^16; then groups of one k, at
# q % r = 1 (2^16 mod 3) and r - 1 (2^17 mod 3).
@pytest.mark.parametrize("q,r", [(256, 4), (512, 6), (1 << 20, 8),
                                 (1 << 24, 260), (1 << 16, 3), (1 << 17, 3)])
def test_draw_makes_the_documented_calls(q, r):
    table = SpectrumTable(q=q, r=r)
    s = q.bit_length() - 1
    head = ([("random", None)] if q <= 1 << 16
            else [("integers", r), ("random", s)])
    group = [("random", None)] if q % r else []
    last_spans = set()
    for seed in range(60):
        rng = _Recorder(seed)
        table.draw(rng)
        *calls, (last, span) = rng.calls
        assert calls == head + group and last == "integers"
        last_spans.add(span)
        # numpy reads nothing for a span of one value, and ``_Streams``
        # reads an output, so only the last call may span one value.
        assert all(n > 1 for call, n in calls if call == "integers")
    assert last_spans == ({r} if q % r == 0 else {q % r, r - q % r})


def test_eigen_draw_on_arrays_equals_scalar_draws():
    # Same bytes from one int64 array call as from one call per draw, at
    # q = 2^24 and at q = 2^63, the widest q whose c fits in int64.
    for q, r in [(1 << 24, 260), (1 << 63, 3), (1 << 40, 11592)]:
        table = SpectrumTable(q=q, r=r)
        rng = np.random.default_rng(r)
        j = rng.integers(0, r, 500)
        u = rng.random((q.bit_length() - 1, 500))
        v = rng.random(500)
        arrays = table.eigen_draw(j, u, v)
        for a in arrays:
            assert a.dtype == np.int64
        scalars = [tuple(map(int, table.eigen_draw(int(j[i]), u[:, i], v[i])))
                   for i in range(500)]
        assert list(zip(*(a.tolist() for a in arrays))) == scalars
        assert set(vars(table)) == {"q", "r"}


def test_table_free_draw_refuses_q_past_2_pow_63():
    # c must fit in int64, so q = 2^63 draws and q = 2^64 is refused by name
    with pytest.raises(ValueError, match=f"q = {1 << 64} is more than 2"):
        SpectrumTable(q=1 << 64, r=3).sample(np.random.default_rng(0))
    c, k = SpectrumTable(q=1 << 63, r=3).sample(np.random.default_rng(0))
    assert 0 <= c < 1 << 63 and 0 <= k < 3


def test_table_free_draw_refuses_an_order_whose_square_passes_2_pow_63():
    # (2^(s-1-i) mod r) j is an int64 product of up to (r - 1)^2, so an r
    # with r^2 >= 2^63 would wrap the phase silently; 3037000499 is the
    # largest r with r^2 < 2^63
    largest = math.isqrt((1 << 63) - 1)
    for r in (largest + 1, (1 << 50) + 3):
        table = SpectrumTable(q=1 << 20, r=r)
        refusal = rf"^r = {r} has r\^2 >= 2\^63, so its eigenphase"
        with pytest.raises(ValueError, match=refusal):
            table.sample(np.random.default_rng(0))
        with pytest.raises(ValueError, match=refusal):
            table.eigen_draw(np.array([r - 1]), np.zeros((20, 1)), 0.5)
    table = SpectrumTable(q=1 << 20, r=largest)
    j = np.array([largest - 1, largest - 2, 1, 0])
    for i in range(20):
        want = [table._phase(int(jj), 0, i) for jj in j]
        assert table._phase(j, 0, i).tolist() == want, i
        assert float(table._phase(j[0], 0, i)) == want[0], i
        exact = exact_phase(largest, 1 << 20, largest - 1, 0, i)
        assert abs(Fraction(want[0]) - exact) <= Fraction(1, 1 << 54), i
    c, k = table.sample(np.random.default_rng(0))
    assert 0 <= c < 1 << 20 and 0 <= k < largest
