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
from fractions import Fraction

import pytest

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
    assert c.evidence["indistinguishable_pairs"] == brute_pairs(15, 2)
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


# BLAKE2b-128 of the JSON list of outcomes for s = 1 .. 2*ell + 1 at
# register2_qubits = ell: each outcome is the report's fields, or
# [exception type, message]. The bases are 0, 1, 2, n - 1, n and a non-unit.
APPLICABILITY_DIGESTS = {
    (15, 0): "d97907e05ffa13f69b921b915cc664ad",
    (15, 1): "e3047627cf40ab3e7a3923dea0896c5f",
    (15, 2): "272f799f0b424bb5214b8a4c473fbe24",
    (15, 14): "08af97ea716877c9522b8910cf5f2011",
    (15, 15): "0010d418fb04d0230903983316a6c98c",
    (15, 3): "646418024afa50e63248fb173adf92f1",
    (21, 0): "3a581003945a34d13000826bd69c84d6",
    (21, 1): "73e7339b2c6e56095898b5e8b7483310",
    (21, 2): "5fed865f10e9b97513df4fbde2f93b9a",
    (21, 20): "0b4fd4691fb5800ba294449ff07c4b7d",
    (21, 21): "30c5c015b317ac88cba95bec9a9df61e",
    (21, 3): "58a24c832cbc69b8d4bbbc9ff62c68b1",
    (33, 0): "fde8ae96f6cd4d17ac7b8b7a9f5b38aa",
    (33, 1): "1ba3dc31b40d760e2ffa86fe864ad440",
    (33, 2): "7980f2b11fd7198ac6e82899c0a12189",
    (33, 32): "10b2e6e2e1303c01d3fe676dca6e9c63",
    (33, 33): "9306290e4d21279e623c506c74dbd06b",
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
