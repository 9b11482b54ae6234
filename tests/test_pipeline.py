"""End-to-end pipeline tests: seeded traces, classification, estimator."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shorsim import (
    FactoringInstance,
    FailureReason,
    NotAUnitError,
    RunTrace,
    SpectrumTable,
    build_spectrum,
    choose_q,
    estimate_success,
    run_once,
    run_trials,
    success_bound,
)
from shorsim import pipeline
from shorsim.pipeline import recover_order, validate_modulus


def test_choose_q_examples():
    assert choose_q(15) == (8, 256)
    assert choose_q(21) == (9, 512)
    assert choose_q(3) == (4, 16)


@given(st.integers(min_value=3, max_value=10**6))
def test_choose_q_window(n):
    s, q = choose_q(n)
    assert q == 1 << s
    assert n * n <= q < 2 * n * n


def test_sample_measurement_support_and_determinism():
    table = build_spectrum(FactoringInstance.create(15, 7), 256)
    for seed in range(30):
        c, k = table.sample(np.random.default_rng(seed))
        assert c in {0, 64, 128, 192}
        assert 0 <= k < 4
        assert (c, k) == table.sample(np.random.default_rng(seed))


def test_sample_measurement_degenerate_support():
    # r = 2 at q = 256: only two support points
    table = build_spectrum(FactoringInstance.create(15, 14), 256)
    seen = {table.sample(np.random.default_rng(seed))[0] for seed in range(40)}
    assert seen <= {0, 128}


def test_sample_measurement_never_draws_empty_class():
    # q = 2, r = 4: residue classes k >= 2 contain no exponents (m_k = 0)
    table = build_spectrum(FactoringInstance.create(15, 7), 2)
    for seed in range(60):
        c, k = table.sample(np.random.default_rng(seed))
        assert c in {0, 1}
        assert k in {0, 1}


def test_sample_measurement_frequencies():
    # marginals are exactly 1/4 each; 2e5 draws, 0.005 is a 5-sigma band
    table = build_spectrum(FactoringInstance.create(15, 7), 256)
    rng = np.random.default_rng(777)
    counts = {0: 0, 64: 0, 128: 0, 192: 0}
    draws = 2 * 10**5
    for _ in range(draws):
        c, _ = table.sample(rng)
        counts[c] += 1
    for c, count in counts.items():
        assert abs(count / draws - 0.25) < 0.005


def _grid(size):
    """Midpoints of ``size`` equal steps of [0, 1)."""
    return (np.arange(size) + 0.5) / size


# q % r: 0, 2, 1, 16 and 2 (r = 4 > q = 2, where classes k >= 2 are empty).
@pytest.mark.parametrize("n,x,q", [(15, 7, 256), (21, 2, 512), (57, 7, 4096),
                                   (221, 2, 65536), (15, 7, 2)])
def test_inverse_cdf_on_a_grid_matches_probabilities_exactly(n, x, q):
    # The exact counterpart of the frequency test: a grid of N uniforms
    # mapped through inverse_cdf hits each c within one grid step of
    # N P(c), and, given c, each k group within one step of its share.
    table = build_spectrum(FactoringInstance.create(n, x), q)
    size = 1 << 20
    u = _grid(size)
    c = table.inverse_cdf(u, np.zeros(size))[0]
    counts = np.bincount(c, minlength=q)
    assert np.abs(counts - size * table.marginals).max() <= 1.0
    r, b = table.r, q % table.r
    if b == 0:
        # The high group [0, B) is empty: every draw takes k from [0, r).
        _, lo, hi = table.inverse_cdf(u, u[::-1])
        assert lo.dtype == hi.dtype == np.int64
        assert (lo == 0).all() and (hi == r).all()
        assert tuple(map(int, table.inverse_cdf(0.3, 0.9)[1:])) == (0, r)
        return
    reached = np.flatnonzero(counts)
    steps = 1 << 16
    for target in reached[::-(-len(reached) // 4)].tolist():
        u_c = np.full(steps, u[np.argmax(c == target)])
        c_v, lo, hi = table.inverse_cdf(u_c, _grid(steps))
        assert (c_v == target).all()
        high = b * table.joint(target, 0)
        share = high / (high + (r - b) * table.joint(target, b))
        assert np.isin(lo, (0, b)).all() and (hi == np.where(lo, r, b)).all()
        assert abs(np.count_nonzero(lo == 0) - steps * share) <= 1.0, target


def support_restricted_sample(table, rng):
    """The sampler as it was before the full cumulative.

    Inverse CDF over the cumsum of the marginals gathered at the support,
    with the index clamped to the last support element.
    """
    support = table.support
    cum = np.cumsum(table.marginals[support])
    u = rng.random() * cum[-1]
    idx = min(int(np.searchsorted(cum, u, side="right")), len(support) - 1)
    c = int(support[idx])
    r, b = table.r, table.q % table.r
    if b == 0:
        return c, int(rng.integers(0, r))
    group_hi = b * table.joint(c, 0)
    group_lo = (r - b) * table.joint(c, b)
    if rng.random() * (group_hi + group_lo) < group_hi:
        return c, int(rng.integers(0, b))
    return c, int(rng.integers(b, r))


# The last three: r = 24 > q = 16; gcd(r, q) = q = 8, a one-c period; and
# r = 192 with gcd(r, q) = 64.
SAMPLER_CASES = [(15, 7, 256), (15, 14, 256), (21, 2, 512), (221, 2, 65536),
                 (15, 7, 2), (221, 2, 16), (221, 2, 8), (579, 5, 16384)]


@pytest.mark.parametrize("n,x,q", SAMPLER_CASES)
def test_sampler_matches_support_restricted_inverse_cdf(n, x, q):
    table = build_spectrum(FactoringInstance.create(n, x), q)
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        expected = support_restricted_sample(table, rng)
        assert table.sample(np.random.default_rng(seed)) == expected, seed


class _TopOfRange:
    """Generator stub: random() returns one value, integers() the low end."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value

    def integers(self, lo, hi):
        return lo


@pytest.mark.parametrize("n,x,q", SAMPLER_CASES)
def test_sampler_top_of_range_draws_last_support_c(n, x, q):
    table = build_spectrum(FactoringInstance.create(n, x), q)
    last = int(table.support[-1])
    # 1 - 2^-53 is the largest value random() returns; 1.0 lies beyond it
    # and is the draw that reaches the clamp
    for value in (1.0 - 2.0**-53, 1.0):
        c, k = table.sample(_TopOfRange(value))
        assert c == last
        assert (c, k) == support_restricted_sample(table, _TopOfRange(value))


def test_recover_order_examples():
    assert recover_order(192, 256, 15) == (3, 4)
    assert recover_order(0, 256, 15) is None
    assert recover_order(128, 256, 15) == (1, 2)


def test_run_once_success_trace():
    trace = run_once(15, 7, 2)
    assert trace.sampled_c == 64
    assert trace.recovered == (1, 4)
    assert trace.order_verified
    assert trace.factors == (3, 5)
    assert trace.failure_reason is None
    assert trace.succeeded


def test_run_once_bad_c_trace():
    trace = run_once(15, 7, 3)
    assert trace.sampled_c == 0
    assert trace.recovered is None
    assert not trace.order_verified
    assert trace.failure_reason is FailureReason.BAD_C_NO_RECOVERY


def test_run_once_understated_order_trace():
    # c = 128 recovers 1/2: the true fraction 2/4 lost its factor of 2
    trace = run_once(15, 7, 0)
    assert trace.sampled_c == 128
    assert trace.recovered == (1, 2)
    assert not trace.order_verified
    assert (
        trace.failure_reason is FailureReason.D_R_NOT_COPRIME_UNDERSTATES_R
    )


def test_run_once_minus_one_trace():
    # r = 2 and 14^1 = -1 mod 15: extraction dead end
    trace = run_once(15, 14, 0)
    assert trace.sampled_c == 128
    assert trace.recovered == (1, 2)
    assert trace.order_verified
    assert trace.failure_reason is FailureReason.X_POW_HALF_R_IS_MINUS_ONE


def test_run_once_odd_order_trace():
    # order of 4 mod 21 is 3
    trace = run_once(21, 4, 0)
    assert trace.recovered == (1, 3)
    assert trace.order_verified
    assert trace.failure_reason is FailureReason.ODD_ORDER


def test_run_once_deterministic():
    assert run_once(15, 7, 12345) == run_once(15, 7, 12345)


def test_forced_trivial_gcd(monkeypatch):
    # c = 85 at q = 512 recovers 1/6, a proper multiple of the true order 3;
    # 4^3 = 1 mod 21, so both gcds collapse
    monkeypatch.setattr(SpectrumTable, "sample", lambda t, g: (85, 0))
    trace = run_once(21, 4, 0)
    assert trace.recovered == (1, 6)
    assert trace.order_verified
    assert trace.factors is None
    assert trace.failure_reason is FailureReason.TRIVIAL_GCD


def test_forced_order_check_failed(monkeypatch):
    # c = 102 at q = 512 recovers 1/5; 4^5 = 16 != 1 mod 21 and 5 does not
    # divide the true order 3
    monkeypatch.setattr(SpectrumTable, "sample", lambda t, g: (102, 0))
    trace = run_once(21, 4, 0)
    assert trace.recovered == (1, 5)
    assert not trace.order_verified
    assert trace.failure_reason is FailureReason.ORDER_CHECK_FAILED


def test_run_trials_reproducible_and_shares_instance():
    a = run_trials(15, 7, 10, 99)
    b = run_trials(15, 7, 10, 99)
    assert a == b
    assert len({id(t.instance) for t in a}) == 1


def test_run_trials_classifies_each_distinct_c_once(monkeypatch):
    calls = Counter()
    recover = pipeline.recover_order

    def counting(c, q, n):
        calls[c] += 1
        return recover(c, q, n)

    monkeypatch.setattr(pipeline, "recover_order", counting)
    traces = run_trials(221, 2, 2000, 31)
    sampled = {t.sampled_c for t in traces}
    assert len(sampled) < len(traces)
    assert calls == Counter(sampled)
    instance, q = traces[0].instance, traces[0].q
    for t in traces:
        outcome = (t.recovered, t.order_verified, t.factors, t.failure_reason)
        assert outcome == pipeline._classify(instance, q, t.sampled_c)


def _copy(master):
    """A fresh SeedSequence in the same state, spawn counter included."""
    return np.random.SeedSequence(
        master.entropy, spawn_key=master.spawn_key,
        pool_size=master.pool_size,
        n_children_spawned=master.n_children_spawned,
    )


def _spawned(master, count):
    master.spawn(count)
    return master


SS = np.random.SeedSequence
SEEDING_MASTERS = {
    "0": lambda: SS(0),
    "1": lambda: SS(1),
    "1729": lambda: SS(1729),
    "2^32": lambda: SS(2**32),
    "2^40+7": lambda: SS(2**40 + 7),
    "2^130+5": lambda: SS(2**130 + 5),
    "[3,4]": lambda: SS([3, 4]),
    "strings": lambda: SS(["12", "0x1f"]),
    "None": lambda: SS(None),
    "sweep-child": lambda: SS(1729).spawn(3)[2],
    "pool-8": lambda: SS(5, pool_size=8),
    "spawned-3": lambda: _spawned(SS(1729), 3),
}


def _seeded(master, count):
    """Each of master's next ``count`` children's PCG64 (state, inc)."""
    return pipeline._pcg64_seeded(pipeline._child_seeds(master, 0, count))


@pytest.mark.parametrize("count", [1, 2, 1000])
@pytest.mark.parametrize("name", list(SEEDING_MASTERS))
def test_pcg64_words_match_random_raw(name, count):
    master = SEEDING_MASTERS[name]()
    want = [np.random.default_rng(child).bit_generator.random_raw(3).tolist()
            for child in _copy(master).spawn(count)]
    words = pipeline._pcg64_words(*_seeded(master, count), 3)
    assert np.stack(words, axis=1).tolist() == want


def reference_run_trials(n, x, trials, seed):
    """run_trials as it was: one spawned child and default_rng per trial."""
    instance, q, table = pipeline._setup(n, x)
    if isinstance(seed, np.random.SeedSequence):
        master = seed
    else:
        master = np.random.SeedSequence(seed)
    traces = []
    for child in master.spawn(trials):
        c, k = table.sample(np.random.default_rng(child))
        outcome = pipeline._classify(instance, q, c)
        traces.append(RunTrace(instance, q, c, k, *outcome))
    return traces


def _records(traces):
    return [t.to_record() for t in traces]


# q % r: 0, 0, 2 and 16; then 1 (r = 3), r - 1 for r = 33 and r = 3 (a
# group of one k, which consumes no output), and 128 at gcd(r, q) = 64.
@pytest.mark.parametrize("n,x", [(15, 7), (15, 14), (21, 2), (221, 2),
                                 (57, 7), (161, 2), (171, 7), (579, 5)])
def test_run_trials_matches_reference_loop(n, x):
    for seed in range(200):
        assert _records(run_trials(n, x, 12, seed)) == _records(
            reference_run_trials(n, x, 12, seed)
        ), seed
    master = SS(1729).spawn(3)[2]
    want = _records(reference_run_trials(n, x, 300, _copy(master)))
    assert _records(run_trials(n, x, 300, master)) == want


def _count_samples(monkeypatch):
    """Count ``SpectrumTable.sample`` calls in the returned list."""
    calls = []
    sample = SpectrumTable.sample

    def counting_sample(table, rng):
        calls.append(1)
        return sample(table, rng)

    monkeypatch.setattr(SpectrumTable, "sample", counting_sample)
    return calls


def _flag_every_draw(monkeypatch):
    """Make ``run_trials`` redraw every trial from its own Generator."""
    lemire = pipeline._lemire32

    def flag_all(words, span):
        return lemire(words, span)[0], np.ones(len(words), bool)

    monkeypatch.setattr(pipeline, "_lemire32", flag_all)


@pytest.mark.parametrize("n,x", [(15, 7), (21, 2), (57, 7), (171, 7)])
def test_run_trials_exact_redraw_path(monkeypatch, n, x):
    want = [_records(reference_run_trials(n, x, 40, seed))
            for seed in range(5)]
    _flag_every_draw(monkeypatch)
    calls = _count_samples(monkeypatch)
    assert [_records(run_trials(n, x, 40, seed)) for seed in range(5)] == want
    assert len(calls) == 5 * 40


@pytest.mark.parametrize("count", [1, 2, 1000])
@pytest.mark.parametrize("name", list(SEEDING_MASTERS))
def test_trial_generators_match_spawned_default_rng(monkeypatch, name, count):
    # Every trial is redrawn from the Generator of its spawned child, in
    # blocks of 7, so children after the first block are numbered too.
    master = SEEDING_MASTERS[name]()
    want = _records(reference_run_trials(21, 2, count, _copy(master)))
    _flag_every_draw(monkeypatch)
    monkeypatch.setattr(pipeline, "_BLOCK", 7)
    calls = _count_samples(monkeypatch)
    assert _records(run_trials(21, 2, count, master)) == want
    assert len(calls) == count


def test_run_trials_samples_only_flagged_trials(monkeypatch):
    # 20 000 trials span several blocks; numpy flags a draw with
    # probability below r / 2^32, so almost surely none is redrawn.
    want = _records(reference_run_trials(221, 2, 20000, 7))
    flagged = []
    lemire = pipeline._lemire32

    def counting_lemire(words, span):
        draws, redraw = lemire(words, span)
        flagged.append(int(redraw.sum()))
        return draws, redraw

    monkeypatch.setattr(pipeline, "_lemire32", counting_lemire)
    calls = _count_samples(monkeypatch)
    assert _records(run_trials(221, 2, 20000, 7)) == want
    assert len(flagged) == -(-20000 // pipeline._BLOCK) > 1
    assert len(calls) == sum(flagged)


def test_run_trials_redraws_a_rejected_k_exactly(monkeypatch):
    # Child 3 252 730 of SeedSequence(0) draws k for (851, 2) from a group
    # of 364 values; numpy rejects its first 32-bit output (leftover 180,
    # below the threshold 2^32 mod 364 = 256) and draws again.
    master = SS(0, n_children_spawned=3252730)
    want = _records(reference_run_trials(851, 2, 3, _copy(master)))
    calls = _count_samples(monkeypatch)
    assert _records(run_trials(851, 2, 3, master)) == want
    assert len(calls) == 1


def test_run_trials_does_not_advance_seed_sequence():
    master = SS(99)
    first = _records(run_trials(21, 2, 50, master))
    assert master.n_children_spawned == 0
    assert _records(run_trials(21, 2, 50, master)) == first
    # Trial i on its own, by the documented recipe.
    child = SS(99).spawn(50)[7]
    assert run_once(21, 2, child).to_record() == first[7]


def test_run_trials_rejects_more_children_than_numpy_can_count():
    # Raised before any per-trial array is allocated.
    with pytest.raises(ValueError, match=r"2\*\*32 - 1 - n_children_spawned"):
        run_trials(15, 7, 2**32, 0)
    with pytest.raises(ValueError, match=r"= 4294967292, got 4294967293"):
        run_trials(15, 7, 2**32 - 3, _spawned(SS(0), 3))


def _failures(bad_c, understated, order_check, minus_one):
    return {
        "bad_c_no_recovery": bad_c,
        "d_r_not_coprime_understates_r": understated,
        "order_check_failed": order_check,
        "odd_order": 0,
        "x_pow_half_r_is_minus_one": minus_one,
        "trivial_gcd": 0,
    }


# Recorded before the per-c classification was memoised; seeded aggregates
# must stay bit-identical.
PINNED_ESTIMATES = [
    dict(n=15, x=7, r=4, q=256, trials=2000, order_recovery_count=1012,
         order_recovery_rate=0.506, factor_count=1012, factor_rate=0.506,
         success_bound=0.16666666666666666, bound_satisfied=True, phi_r=2,
         phi_over_r_loglog=0.16331712998914047,
         failure_counts=_failures(481, 507, 0, 0)),
    dict(n=21, x=2, r=6, q=512, trials=2000, order_recovery_count=426,
         order_recovery_rate=0.213, factor_count=426, factor_rate=0.213,
         success_bound=0.1111111111111111, bound_satisfied=True, phi_r=2,
         phi_over_r_loglog=0.1943993602608864,
         failure_counts=_failures(754, 802, 18, 0)),
    dict(n=33, x=2, r=10, q=2048, trials=2000, order_recovery_count=571,
         order_recovery_rate=0.2855, factor_count=0, factor_rate=0.0,
         success_bound=0.13333333333333333, bound_satisfied=True, phi_r=4,
         phi_over_r_loglog=0.3336129780991824,
         failure_counts=_failures(621, 804, 4, 571)),
    dict(n=91, x=2, r=12, q=16384, trials=2000, order_recovery_count=454,
         order_recovery_rate=0.227, factor_count=454, factor_rate=0.227,
         success_bound=0.1111111111111111, bound_satisfied=True, phi_r=4,
         phi_over_r_loglog=0.30341169778844196,
         failure_counts=_failures(617, 927, 2, 0)),
    dict(n=221, x=2, r=24, q=65536, trials=2000, order_recovery_count=453,
         order_recovery_rate=0.2265, factor_count=453, factor_rate=0.2265,
         success_bound=0.1111111111111111, bound_satisfied=True, phi_r=8,
         phi_over_r_loglog=0.38542300213551584,
         failure_counts=_failures(502, 1043, 2, 0)),
]


@pytest.mark.parametrize(
    "want", PINNED_ESTIMATES, ids=lambda w: f"{w['n']}-{w['x']}"
)
def test_estimate_success_pinned(want):
    est = estimate_success(want["n"], want["x"], 2000, 1729)
    got = dataclasses.asdict(est)
    assert got == want
    assert list(got["failure_counts"]) == list(want["failure_counts"])


def test_success_bound_examples():
    assert success_bound(4) == pytest.approx(1 / 6)
    assert success_bound(1) == pytest.approx(1 / 3)
    assert success_bound(12) == pytest.approx(1 / 9)


def test_estimate_success_x7():
    est = estimate_success(15, 7, 2000, 4242)
    assert est.r == 4 and est.q == 256
    assert abs(est.order_recovery_rate - 0.5) < 0.05
    assert est.order_recovery_rate >= est.success_bound
    assert est.bound_satisfied
    assert est.factor_count == est.order_recovery_count
    assert est.failure_counts["odd_order"] == 0
    assert sum(est.failure_counts.values()) + est.factor_count == est.trials


def test_estimate_success_x14_never_factors():
    est = estimate_success(15, 14, 2000, 4242)
    assert est.r == 2
    assert abs(est.order_recovery_rate - 0.5) < 0.05
    assert est.factor_count == 0
    assert est.failure_counts["x_pow_half_r_is_minus_one"] > 0
    assert est.failure_counts["x_pow_half_r_is_minus_one"] == (
        est.order_recovery_count
    )


def test_estimate_success_single_trial():
    est = estimate_success(15, 7, 1, 2)
    assert est.trials == 1
    assert est.order_recovery_rate in (0.0, 1.0)


def test_estimate_success_rejects_zero_trials():
    with pytest.raises(ValueError):
        estimate_success(15, 7, 0, 1)


def test_validate_modulus_errors():
    with pytest.raises(ValueError, match="odd"):
        validate_modulus(8)
    with pytest.raises(ValueError, match="prime"):
        validate_modulus(13)
    with pytest.raises(ValueError, match="prime power"):
        validate_modulus(9)
    with pytest.raises(ValueError, match="prime power"):
        validate_modulus(27)
    with pytest.raises(ValueError):
        validate_modulus(1)
    validate_modulus(15)
    validate_modulus(45)


def test_run_once_nonunit_base_reveals_factor():
    with pytest.raises(NotAUnitError) as err:
        run_once(15, 5, 0)
    assert err.value.factor == 5
    assert err.value.n == 15


def test_trace_record_shape():
    record = run_once(15, 7, 2).to_record()
    assert record["n"] == 15 and record["x"] == 7
    assert record["factor_1"] == 3 and record["factor_2"] == 5
    assert record["failure_reason"] is None
    assert list(record.items()) == [
        ("n", 15), ("x", 7), ("ell", 4), ("r", 4), ("q", 256),
        ("sampled_c", 64), ("sampled_k", 0), ("recovered_d", 1),
        ("recovered_r", 4), ("order_verified", True), ("factor_1", 3),
        ("factor_2", 5), ("failure_reason", None),
    ]
    missing = run_once(15, 7, 3).to_record()
    assert missing["recovered_d"] is None
    assert missing["failure_reason"] == "bad_c_no_recovery"


def test_trace_invariants_enforced():
    instance = FactoringInstance.create(15, 7)
    with pytest.raises(ValueError):
        RunTrace(
            instance=instance, q=256, sampled_c=64, sampled_k=0,
            recovered=(1, 4), order_verified=True,
            factors=(3, 5), failure_reason=FailureReason.TRIVIAL_GCD,
        )
    with pytest.raises(ValueError):
        RunTrace(
            instance=instance, q=256, sampled_c=64, sampled_k=0,
            recovered=(1, 4), order_verified=True,
            factors=(2, 7), failure_reason=None,
        )


def test_emitted_factors_always_split_n():
    for n, x in [(15, 2), (15, 8), (21, 2), (35, 2), (33, 2)]:
        for trace in run_trials(n, x, 60, 5):
            if trace.factors:
                f1, f2 = trace.factors
                assert 1 < f1 < n and 1 < f2 < n
                assert f1 * f2 == n


def test_good_c_recovery_is_exact():
    # for every good c the recovery returns the witness fraction d/r in
    # lowest terms; when the witness d is coprime to r the candidate is the
    # true order exactly
    from shorsim import good_c_set

    for n, x in [(15, 7), (21, 2), (33, 2), (35, 3), (39, 7)]:
        r = FactoringInstance.create(n, x).r
        q = choose_q(n).q
        for c in sorted(good_c_set(r, q)):
            d = (2 * r * c + q) // (2 * q)  # nearest integer to rc/q
            assert 2 * abs(d * q - r * c) <= r
            if c == 0:
                assert recover_order(c, q, n) is None
            else:
                g = math.gcd(d, r)
                assert recover_order(c, q, n) == (d // g, r // g)
