"""Auditor tests, including a brute-force oracle for the pair counter.

The oracle enumerates every pair of reduced fractions with exact rational
arithmetic and asks directly whether some observable c is consistent with
both; the production counter aggregates per-c counts instead, so agreement
checks both the combinatorics and the interval arithmetic.
"""

import dataclasses
import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim import (
    COND_CFE_DISTINGUISH,
    COND_Q_GE_N2,
    COND_Q_LT_2N2,
    COND_REG2_WIDTH,
    COND_TOTAL_QUBITS,
    NotAUnitError,
    RegisterConfig,
    Verdict,
    audit,
    bound_argument_applicability,
    choose_q,
    count_fractions,
    count_indistinguishable_pairs,
)
from shorsim import auditor, numtheory
from shorsim.auditor import SINGLE_QUBIT_NOTE
from shorsim.numtheory import euler_phi


def brute_pairs(n: int, q: int) -> int:
    fracs = [Fraction(0)]
    for r in range(2, n):
        fracs += [Fraction(d, r) for d in range(1, r) if math.gcd(d, r) == 1]
    half = Fraction(1, 2 * q)
    count = 0
    for i in range(len(fracs)):
        for j in range(i):
            lo = max(fracs[i], fracs[j]) - half
            hi = min(fracs[i], fracs[j]) + half
            c_lo = max(math.ceil(lo * q), 0)
            c_hi = min(math.floor(hi * q), q - 1)
            if c_lo <= c_hi:
                count += 1
    return count


@pytest.mark.parametrize(
    "n,q",
    [
        (9, 2), (9, 16), (9, 64),
        (15, 2), (15, 4), (15, 8), (15, 64), (15, 128),
        (21, 2), (21, 256),
    ],
)
def test_pair_counter_matches_brute_force(n, q):
    assert count_indistinguishable_pairs(n, q) == brute_pairs(n, q)


def definition_pairs(n: int, q: int) -> int:
    """Sum over c of C(k_c, 2), k_c the fractions with |2cr - 2dq| <= r.

    Pure-Python integers throughout. Any such c lies within 1/2 of dq/r,
    so a window of four c around floor(dq/r) holds all of them.
    """
    k = Counter()
    for r in range(1, n):
        for d in range(r):
            if math.gcd(d, r) == 1:
                base = d * q // r
                for c in range(max(base - 1, 0), min(base + 3, q)):
                    if abs(2 * c * r - 2 * d * q) <= r:
                        k[c] += 1
    return sum(m * (m - 1) // 2 for m in k.values())


def totient_sieve_fractions(n: int) -> int:
    phi = list(range(n))
    for p in range(2, n):
        if phi[p] == p:
            for m in range(p, n, p):
                phi[m] -= phi[m] // p
    return 1 + sum(phi[2:])


def bincount_pairs(n: int, q: int) -> int:
    """The pair count by a bincount of every lo and hi > lo over all c.

    Builds the (d, r) list in one pass and counts with two int64 floor
    divisions per fraction: any q, no key array, no sort, no runs.
    """
    if q >= n * n:
        return 0
    r = np.repeat(np.arange(1, n, dtype=np.int64), np.arange(1, n))
    d = np.arange(r.size, dtype=np.int64) - (r - 1) * r // 2
    keep = np.gcd(d, r) == 1
    d, r = d[keep], r[keep]
    num = d * (2 * q)
    lo = -((r - num) // (2 * r))
    hi = (num + r) // (2 * r)
    k = (np.bincount(lo, minlength=q + 1)
         + np.bincount(hi[hi > lo], minlength=q + 1))[:q]
    return int((k @ k - k.sum()) // 2)


def reduced_fractions(n: int) -> list:
    return [Fraction(d, r) for r in range(1, n) for d in range(r)
            if math.gcd(d, r) == 1]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 150), s=st.integers(1, 12))
def test_pair_counter_matches_definition(n, s):
    # 2q < n, where midpoint fractions (2c + 1)/(2q) exist, for s <= 6
    assert count_indistinguishable_pairs(n, 1 << s) == definition_pairs(
        n, 1 << s
    )
    assert count_fractions(n) == totient_sieve_fractions(n)
    keys = auditor._fraction_keys(n)
    assert keys.tolist() == [
        f.numerator * 2**32 // f.denominator
        for f in sorted(reduced_fractions(n))
    ]


@pytest.mark.parametrize("n", [15, 33, 221, 1001])
def test_pair_counter_matches_bincount_at_every_grid_width(n):
    # the bench grid's moduli, every s up to 2 ceil(log2 n) + 1
    for s in range(1, 2 * (n - 1).bit_length() + 2):
        assert count_indistinguishable_pairs(n, 1 << s) == bincount_pairs(
            n, 1 << s
        ), s


@pytest.mark.parametrize("n,s", [(9, 1), (9, 2), (17, 3), (40, 4), (65, 5),
                                 (130, 6), (64, 5), (65, 6)])
def test_midpoint_fractions_are_the_odd_multiples_of_one_over_2q(n, s):
    # lo = ceil(dq/r - 1/2) < hi = floor(dq/r + 1/2) exactly at the q
    # fractions (2c + 1)/(2q), one per c < q, when 2q < n, and nowhere
    # else; hi is the shift of the fraction's key
    q = 1 << s
    sh = 32 - s
    keys = auditor._fraction_keys(n).tolist()
    midpoints = {}
    for f, key in zip(sorted(reduced_fractions(n)), keys):
        lo = math.ceil(f * q - Fraction(1, 2))
        hi = math.floor(f * q + Fraction(1, 2))
        assert hi == (key + (1 << (sh - 1))) >> sh
        if lo != hi:
            assert hi == lo + 1
            midpoints[f] = lo
    if 2 * q < n:
        assert midpoints == {Fraction(2 * c + 1, 2 * q): c for c in range(q)}
    else:
        assert midpoints == {}
    assert count_indistinguishable_pairs(n, q) == definition_pairs(n, q)


def test_pair_counter_shift_headroom_at_the_largest_modulus():
    # at the largest accepted n, the widest q below n^2 still leaves a
    # shift of at least 1, and every key numerator d 2^32 fits int64
    n = auditor.MAX_FRACTION_MODULUS
    s = (n * n - 1).bit_length() - 1
    assert 1 << s < n * n <= 1 << (s + 1)
    assert 32 - s >= 1
    assert (n - 2) * 2**32 < 2**48 < 2**63


def test_pair_counter_rejects_q_not_a_power_of_two():
    for q in (0, 3, 12, 100):
        with pytest.raises(ValueError, match="power of two"):
            count_indistinguishable_pairs(15, q)


def test_fraction_cache_stays_bounded():
    for n in range(3, 40):
        audit(RegisterConfig(n=n, register1_qubits=3, register2_qubits=6))
    info = auditor._fraction_keys.cache_info()
    assert info.maxsize == 4
    assert info.currsize <= info.maxsize


def test_audit_at_sufficient_width_builds_no_fraction_list():
    # q >= n^2 needs only the fraction count, so n above the list's limit
    # audits in O(n) memory.
    n = auditor.MAX_FRACTION_MODULUS + 2
    misses = auditor._fraction_keys.cache_info().misses
    report = audit(RegisterConfig(n=n, register1_qubits=32,
                                  register2_qubits=16))
    c = report.check(COND_CFE_DISTINGUISH)
    assert c.evidence["fraction_count"] == totient_sieve_fractions(n)
    assert c.evidence["indistinguishable_pairs"] == 0
    assert report.verdict is Verdict.COMPLIANT
    assert auditor._fraction_keys.cache_info().misses == misses


def test_fraction_keys_are_read_only_int64_and_size_checked():
    keys = auditor._fraction_keys(15)
    assert keys.dtype == np.int64 and not keys.flags.writeable
    with pytest.raises(ValueError, match="fraction list supports n <="):
        auditor._fraction_keys(auditor.MAX_FRACTION_MODULUS + 1)


def blocked_fraction_keys(n: int, block: int) -> np.ndarray:
    """The sorted fraction keys, built by blocks of about ``block``
    candidates d < r over consecutive denominators, with coprimality from
    ``np.gcd``: the build ``auditor._fraction_keys`` used before it went
    one denominator at a time, kept as the reference."""
    keys = np.empty(count_fractions(n), dtype=np.int64)
    filled = 0
    r0 = 1
    while r0 < n:
        # the denominators r0 .. r1 - 1 hold (r1 - r0)(r1 + r0 - 1)/2
        # candidates, about block
        r1 = min(n, max(r0 + 1, math.isqrt(r0 * r0 + 2 * block)))
        counts = np.arange(r0, r1, dtype=np.int32)
        r = np.repeat(counts, counts)
        d = np.arange(r.size, dtype=np.int32)
        d -= np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts)
        keep = np.gcd(d, r) == 1
        chunk = keys[filled:filled + np.count_nonzero(keep)]
        np.left_shift(d[keep], 32, out=chunk, dtype=np.int64)
        np.floor_divide(chunk, r[keep], out=chunk)
        filled += chunk.size
        r0 = r1
    assert filled == keys.size, (filled, keys.size)
    keys.sort()
    return keys


@pytest.mark.parametrize("n,block", [
    (3, 37), (4, 37), (15, 37), (200, 37), (221, 37),
    (1001, 1 << 20), (3233, 1 << 20),
])
def test_fraction_keys_equal_the_blocked_build_bytewise(n, block):
    # blocks of a few dozen candidates split the denominators at many
    # places; 2^20 is the block size the blocked build ran with
    keys = auditor._fraction_keys(n)
    want = blocked_fraction_keys(n, block)
    assert keys.dtype == want.dtype and keys.shape == want.shape
    assert keys.tobytes() == want.tobytes()


def test_pair_counter_zero_at_sufficient_width():
    assert count_indistinguishable_pairs(15, 256) == 0
    assert count_indistinguishable_pairs(9, 128) == 0
    assert count_indistinguishable_pairs(21, 512) == 0


def test_count_fractions():
    for n in (2, 3, 9, 15, 21):
        direct = 1 + sum(euler_phi(r) for r in range(2, n))
        assert count_fractions(n) == direct
    assert count_fractions(15) == 64


def test_audit_compliant_reference_config():
    report = audit(RegisterConfig(n=15, register1_qubits=8, register2_qubits=4))
    assert report.verdict is Verdict.COMPLIANT
    assert all(c.passed for c in report.checks)
    assert report.narrative == ()
    assert report.notes == ()


def test_audit_single_qubit_register():
    report = audit(RegisterConfig(n=15, register1_qubits=1, register2_qubits=4))
    assert report.verdict is Verdict.NON_COMPLIANT
    a = report.check(COND_Q_GE_N2)
    assert not a.passed and a.hard
    assert a.evidence == {"q": 2, "n_squared": 225}
    c = report.check(COND_CFE_DISTINGUISH)
    assert not c.passed
    assert c.evidence["indistinguishable_pairs"] == brute_pairs(15, 2) == 664
    assert c.evidence["fraction_count"] == 64
    assert "{0, 1}" in c.description
    assert COND_Q_GE_N2 in report.narrative
    assert report.notes == (SINGLE_QUBIT_NOTE,)


def test_audit_intermediate_width():
    report = audit(RegisterConfig(n=15, register1_qubits=4, register2_qubits=4))
    assert report.verdict is Verdict.NON_COMPLIANT
    assert report.check(COND_Q_GE_N2).evidence == {"q": 16, "n_squared": 225}
    assert report.notes == ()


def test_audit_narrow_function_register():
    report = audit(RegisterConfig(n=15, register1_qubits=8, register2_qubits=2))
    assert report.verdict is Verdict.NON_COMPLIANT
    d = report.check(COND_REG2_WIDTH)
    assert not d.passed and d.hard
    assert d.evidence == {"register2_qubits": 2, "ell": 4}


def test_audit_advisory_checks_do_not_gate():
    # s = 9 overshoots q < 2 n^2 at n = 15 but remains recoverable
    report = audit(RegisterConfig(n=15, register1_qubits=9, register2_qubits=4))
    assert report.verdict is Verdict.COMPLIANT
    b = report.check(COND_Q_LT_2N2)
    assert not b.passed and not b.hard
    assert COND_Q_LT_2N2 in report.narrative
    e = report.check(COND_TOTAL_QUBITS)
    assert e.passed  # 9 + 4 >= 12


def test_audit_total_qubits_evidence():
    report = audit(RegisterConfig(n=15, register1_qubits=1, register2_qubits=4))
    e = report.check(COND_TOTAL_QUBITS)
    assert not e.passed and not e.hard
    assert e.evidence == {"total_qubits": 5, "three_ell": 12}


def test_audit_reference_configs_pass_for_many_n():
    for n in (15, 21, 33, 35, 55):
        s, _ = choose_q(n)
        ell = (n - 1).bit_length()
        report = audit(
            RegisterConfig(n=n, register1_qubits=s, register2_qubits=ell)
        )
        for cond in (COND_Q_GE_N2, COND_Q_LT_2N2, COND_CFE_DISTINGUISH,
                     COND_REG2_WIDTH):
            assert report.check(cond).passed
        assert report.verdict is Verdict.COMPLIANT


def test_audit_single_qubit_always_fails_a():
    for n in range(4, 40):
        report = audit(
            RegisterConfig(n=n, register1_qubits=1, register2_qubits=8)
        )
        assert not report.check(COND_Q_GE_N2).passed


def test_audit_monotone_in_s():
    for s in range(1, 16):
        report = audit(
            RegisterConfig(n=15, register1_qubits=s, register2_qubits=4)
        )
        if report.check(COND_Q_GE_N2).passed:
            wider = audit(
                RegisterConfig(n=15, register1_qubits=s + 1,
                               register2_qubits=4)
            )
            assert wider.check(COND_Q_GE_N2).passed


def test_audit_pure_function():
    config = RegisterConfig(n=15, register1_qubits=1, register2_qubits=4)
    assert audit(config) == audit(config)


def test_evidence_values_are_exact_integers():
    report = audit(RegisterConfig(n=15, register1_qubits=1, register2_qubits=4))
    for check in report.checks:
        for value in check.evidence.values():
            assert type(value) is int


def test_verdict_follows_hard_checks_only():
    for s in range(1, 12):
        for reg2 in (2, 4, 6):
            report = audit(
                RegisterConfig(n=15, register1_qubits=s,
                               register2_qubits=reg2)
            )
            hard_ok = all(c.passed for c in report.checks if c.hard)
            expected = Verdict.COMPLIANT if hard_ok else Verdict.NON_COMPLIANT
            assert report.verdict is expected


# Each check's stated rule, read from its description and evaluated on its
# own evidence. COND_CFE_DISTINGUISH is left out: it passes iff q >= n^2,
# not iff its pair count is 0, so today its verdict can contradict its
# evidence (ROADMAP item 2).
STATED_RULES = {
    COND_Q_GE_N2: ("q >= n^2", lambda e: e["q"] >= e["n_squared"]),
    COND_Q_LT_2N2: ("q < 2 n^2", lambda e: e["q"] < e["two_n_squared"]),
    COND_REG2_WIDTH: (
        "register2_qubits >= ceil(log2 n)",
        lambda e: e["register2_qubits"] >= e["ell"],
    ),
    COND_TOTAL_QUBITS: (
        "s + register2_qubits >= 3 * ceil(log2 n)",
        lambda e: e["total_qubits"] >= e["three_ell"],
    ),
}


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 400), s=st.integers(1, 24), reg2=st.integers(1, 24))
def test_checks_pass_by_the_rule_their_description_states(n, s, reg2):
    report = audit(
        RegisterConfig(n=n, register1_qubits=s, register2_qubits=reg2)
    )
    q, ell = 2**s, math.ceil(math.log2(n))
    evidence = {
        COND_Q_GE_N2: {"q": q, "n_squared": n * n},
        COND_Q_LT_2N2: {"q": q, "two_n_squared": 2 * n * n},
        COND_REG2_WIDTH: {"register2_qubits": reg2, "ell": ell},
        COND_TOTAL_QUBITS: {"total_qubits": s + reg2, "three_ell": 3 * ell},
    }
    for condition_id, (stated, rule) in STATED_RULES.items():
        check = report.check(condition_id)
        assert stated in check.description
        assert check.evidence == evidence[condition_id]
        assert check.passed is rule(check.evidence)


def test_applicability_single_qubit():
    config = RegisterConfig(n=15, register1_qubits=1, register2_qubits=4)
    report = bound_argument_applicability(config, 7)
    assert not report.applicable
    assert report.r == 4 and report.q == 2
    assert report.r_over_q == 2.0
    assert report.p_min is None


def test_applicability_full_width():
    config = RegisterConfig(n=15, register1_qubits=8, register2_qubits=4)
    report = bound_argument_applicability(config, 7)
    assert report.applicable
    assert report.p_min == 0.0625
    assert report.one_third_bound == pytest.approx(1 / 48)
    assert report.p_min > report.one_third_bound


def test_applicability_rejects_nonunit():
    config = RegisterConfig(n=15, register1_qubits=8, register2_qubits=4)
    with pytest.raises(NotAUnitError) as err:
        bound_argument_applicability(config, 5)
    assert err.value.factor == 5


@pytest.mark.parametrize("s", [1, 8])
def test_applicability_runs_order_oracle_once(monkeypatch, s):
    # One instance serves both r and, at s = 8 where q >= n^2, the bound
    # check, so the brute-force oracle runs once at either width.
    calls = []
    oracle = numtheory.order_oracle

    def counting(x, n):
        calls.append((x, n))
        return oracle(x, n)

    monkeypatch.setattr(numtheory, "order_oracle", counting)
    config = RegisterConfig(n=15, register1_qubits=s, register2_qubits=4)
    report = bound_argument_applicability(config, 7)
    assert report.r == 4
    assert calls == [(7, 15)]


# BLAKE2b-128 of the JSON list of outcomes for s = 1 .. 2*ell + 1 at
# register2_qubits = ell: each outcome is the report's fields, or
# [exception type, message]. The bases are 0, 1, 2, n - 1, n and a non-unit;
# 0, 1 and n fail at every width with "base must be in [2, n - 1]".
# (21, 2) and (33, 2), where r does not divide q, were re-recorded when the
# inapplicable explanation's term count became the largest class's size.
APPLICABILITY_DIGESTS = {
    (15, 0): "7dec4d42810b0e54ca92c07df22d2cc9",
    (15, 1): "cab41937543672dda5461b4bfe63ce01",
    (15, 2): "272f799f0b424bb5214b8a4c473fbe24",
    (15, 14): "08af97ea716877c9522b8910cf5f2011",
    (15, 15): "2ac6fa39125f553b7ceeb2485c2c3be9",
    (15, 3): "646418024afa50e63248fb173adf92f1",
    (21, 0): "2419abc9135555c49dcb7b81c8e43ba0",
    (21, 1): "99db4796b468f0326ee4f3d42e9b54d5",
    (21, 2): "56629bc0670ba101135c0337587e528e",
    (21, 20): "0b4fd4691fb5800ba294449ff07c4b7d",
    (21, 21): "a614729de9b29f3204922ae20ee8fbd5",
    (21, 3): "58a24c832cbc69b8d4bbbc9ff62c68b1",
    (33, 0): "dfaaece78eef5e7952c53efb5d283f4f",
    (33, 1): "403f10cd820ec26bc0f1c537281e60c2",
    (33, 2): "f6181c228e3e0b7d414fc1ad2e4639dd",
    (33, 32): "10b2e6e2e1303c01d3fe676dca6e9c63",
    (33, 33): "b244a52277e349514c9c997deb7fa3d8",
    (33, 3): "a75efd36563cb02b0bf0318542782168",
}


@pytest.mark.parametrize("n,x", list(APPLICABILITY_DIGESTS))
def test_applicability_pinned(n, x):
    ell = (n - 1).bit_length()
    outcomes = []
    for s in range(1, 2 * ell + 2):
        config = RegisterConfig(n, s, ell)
        try:
            report = bound_argument_applicability(config, x)
        except ValueError as exc:
            outcomes.append([type(exc).__name__, str(exc)])
        else:
            outcomes.append(dataclasses.asdict(report))
    digest = hashlib.blake2b(
        json.dumps(outcomes).encode(), digest_size=16
    ).hexdigest()
    assert digest == APPLICABILITY_DIGESTS[n, x]


@pytest.mark.parametrize("n,s,x,terms", [
    (21, 3, 2, 2),  # r = 6 does not divide q = 8: class 0 holds a = 0, 6
    (15, 3, 7, 2),  # r = 4 divides q = 8
    (33, 3, 2, 1),  # q = 8 < r = 10
])
def test_applicability_counts_the_largest_residue_class(n, s, x, terms):
    config = RegisterConfig(n, s, (n - 1).bit_length())
    report = bound_argument_applicability(config, x)
    assert report.explanation.endswith(
        f"at most {terms} terms per residue class"
    )


@pytest.mark.parametrize("n,x", [(15, 2), (21, 2), (33, 2), (35, 3), (65, 2)])
def test_applicability_term_count_matches_class_sizes(n, x):
    # Class k holds the exponents a = k, k + r, ... below q; the
    # explanation names the size of the largest, at every inapplicable s.
    ell = (n - 1).bit_length()
    for s in range(1, 2 * ell):
        report = bound_argument_applicability(RegisterConfig(n, s, ell), x)
        if report.applicable:
            continue
        largest = max(len(range(k, report.q, report.r))
                      for k in range(report.r))
        assert report.explanation.endswith(
            f"at most {largest} terms per residue class"
        ), (n, x, s)


@pytest.mark.parametrize("x", [0, 1, 15])
def test_applicability_rejects_base_out_of_range_at_every_width(x):
    for s in range(1, 10):
        config = RegisterConfig(n=15, register1_qubits=s, register2_qubits=4)
        with pytest.raises(ValueError, match=r"base must be in \[2, 14\]"):
            bound_argument_applicability(config, x)


def test_register_config_validation():
    with pytest.raises(ValueError):
        RegisterConfig(n=2, register1_qubits=8, register2_qubits=4)
    with pytest.raises(ValueError):
        RegisterConfig(n=15, register1_qubits=0, register2_qubits=4)
    with pytest.raises(ValueError):
        RegisterConfig(n=15, register1_qubits=8, register2_qubits=0)


def test_report_text_contains_conditions():
    report = audit(RegisterConfig(n=15, register1_qubits=1, register2_qubits=4))
    text = report.to_text()
    for cond in (COND_Q_GE_N2, COND_Q_LT_2N2, COND_CFE_DISTINGUISH,
                 COND_REG2_WIDTH, COND_TOTAL_QUBITS):
        assert cond in text
    assert "non_compliant" in text
    assert "225" in text
