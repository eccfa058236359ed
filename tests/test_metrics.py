import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import random_batch
from softcal import (
    BINNED,
    LABEL_BINNED,
    BinningSpec,
    EvalSet,
    SoftBinningSpec,
    bin_stats_hard,
    ece,
    eval_convention_ece,
    reliability_table,
    sb_ece,
    sb_ece_grad,
    summarize,
)
from softcal.binning import soft_membership
from softcal.metrics import confidence_logit_jacobian


def summary_from_conf(conf, acc):
    """Two-class logits whose confidence is exactly conf and whose
    correctness is acc: z = [log(c/(1-c)), 0], label = argmax or the other."""
    conf = np.asarray(conf, dtype=np.float64)
    acc = np.asarray(acc)
    z = np.stack([np.log(conf / (1.0 - conf)), np.zeros_like(conf)], axis=1)
    labels = np.where(acc.astype(bool), 0, 1)
    return summarize(EvalSet(z, labels))


FIXTURE = summary_from_conf([0.6, 0.6, 0.8, 0.8], [1, 0, 1, 1])


def test_four_point_fixture_bin_stats():
    stats, _ = bin_stats_hard(FIXTURE, BinningSpec(scheme="equal-width", num_bins=2))
    assert stats.size.tolist() == [0.0, 4.0]
    assert np.isnan(stats.mean_conf[0]) and np.isnan(stats.mean_acc[0])
    assert stats.mean_conf[1] == pytest.approx(0.7, abs=1e-15)
    assert stats.mean_acc[1] == pytest.approx(0.75, abs=1e-15)


def test_four_point_fixture_ece_values():
    spec = BinningSpec(scheme="equal-width", num_bins=2)
    assert ece(FIXTURE, spec, p=1.0, mode=BINNED).value == pytest.approx(0.05, abs=1e-12)
    assert ece(FIXTURE, spec, p=1.0, mode=LABEL_BINNED).value == pytest.approx(0.10, abs=1e-12)


def test_ece_parameter_validation():
    spec = BinningSpec(scheme="equal-width", num_bins=2)
    with pytest.raises(ValueError):
        ece(FIXTURE, spec, p=0.5)
    with pytest.raises(ValueError):
        ece(FIXTURE, spec, mode="soft")


def test_ece_matches_reference_on_random_data():
    rng = np.random.default_rng(5)
    for _ in range(25):
        z, y = random_batch(rng, n_lo=8, n_hi=64, scale=1.5)
        s = summarize(EvalSet(z, y))
        for scheme in ("equal-width", "equal-mass"):
            for p in (1.0, 2.0):
                for mode in (BINNED, LABEL_BINNED):
                    got = ece(s, BinningSpec(scheme=scheme, num_bins=7), p=p, mode=mode).value
                    want = oracles.hard_ece_ld(s.confidence, s.accuracy, 7, scheme, p, mode)
                    assert got == pytest.approx(float(want), rel=1e-12)


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.integers(1, 12), st.sampled_from([1.0, 2.0]),
       st.sampled_from(["equal-width", "equal-mass"]))
def test_jensen_ordering(seed, m, p, scheme):
    rng = np.random.default_rng(seed)
    z, y = random_batch(rng, n_lo=4, n_hi=48, scale=2.0)
    s = summarize(EvalSet(z, y))
    spec = BinningSpec(scheme=scheme, num_bins=m)
    lb = ece(s, spec, p=p, mode=LABEL_BINNED).value
    bn = ece(s, spec, p=p, mode=BINNED).value
    assert lb >= bn - 1e-12
    assert 0.0 <= bn <= 1.0 and 0.0 <= lb <= 1.0


def test_sb_ece_matches_reference():
    rng = np.random.default_rng(6)
    for _ in range(25):
        z, y = random_batch(rng, n_lo=8, n_hi=40)
        s = summarize(EvalSet(z, y))
        for mode in (BINNED, LABEL_BINNED):
            for p in (1.0, 2.0):
                spec = SoftBinningSpec(num_bins=10, temperature=0.05, p=p, mode=mode)
                got = sb_ece(s.confidence, s.accuracy, spec).value
                want = oracles.sb_ece_ld(z, y, 10, 0.05, p, mode)
                assert got == pytest.approx(float(want), rel=1e-11)


def test_sb_ece_one_hot_membership_reduces_to_hard():
    # plugging indicator memberships into the soft formulas reproduces the
    # hard equal-width metric exactly
    rng = np.random.default_rng(7)
    z, y = random_batch(rng, n_lo=32, n_hi=32, scale=1.0)
    s = summarize(EvalSet(z, y))
    m = 6
    from softcal import assign_hard

    idx = assign_hard(s.confidence, BinningSpec(scheme="equal-width", num_bins=m))
    u = np.zeros((s.n, m))
    u[np.arange(s.n), idx] = 1.0
    size = u.sum(axis=0)
    safe = np.maximum(size, 1.0)
    a_mean = (u * s.accuracy[:, None]).sum(axis=0) / safe
    c_mean = (u * s.confidence[:, None]).sum(axis=0) / safe
    for p in (1.0, 2.0):
        hard_bin = ece(s, BinningSpec(scheme="equal-width", num_bins=m), p=p, mode=BINNED).value
        soft_form = (((size / s.n) * np.abs(a_mean - c_mean) ** p).sum()) ** (1 / p)
        assert soft_form == pytest.approx(hard_bin, abs=1e-15)
        hard_lb = ece(s, BinningSpec(scheme="equal-width", num_bins=m), p=p, mode=LABEL_BINNED).value
        soft_lb = ((u * np.abs(a_mean[None, :] - s.confidence[:, None]) ** p).sum() / s.n) ** (1 / p)
        assert soft_lb == pytest.approx(hard_lb, abs=1e-15)


def test_sb_ece_soft_to_hard_limit():
    rng = np.random.default_rng(8)
    m = 10
    # keep confidences clear of the bin boundaries so the limit is unambiguous
    conf = rng.uniform(0, 1, size=400)
    conf = np.clip(conf, 1 / 2, 1 - 1e-3)
    shift = np.abs(conf * m - np.round(conf * m))
    conf = np.where(shift < 1e-2, conf + 5e-3, conf)
    acc = rng.random(400) < conf
    s = summary_from_conf(conf, acc)
    for p in (1.0, 2.0):
        spec = SoftBinningSpec(num_bins=m, temperature=1e-5, p=p, mode=BINNED)
        soft = sb_ece(s.confidence, s.accuracy, spec).value
        hard = ece(s, BinningSpec(scheme="equal-width", num_bins=m), p=p, mode=BINNED).value
        assert soft == pytest.approx(hard, abs=1e-4)


def test_m_equals_one_label_binned_closed_form():
    # M = 1: every example fully occupies the single bin, so the metric is
    # ((1/N) sum |mean(acc) - c_i|^p)^(1/p) and the gradient has a closed form
    rng = np.random.default_rng(9)
    z, y = random_batch(rng, n_lo=12, n_hi=12)
    s = summarize(EvalSet(z, y))
    p = 2.0
    spec = SoftBinningSpec(num_bins=1, temperature=0.01, p=p, mode=LABEL_BINNED)
    value = sb_ece(s.confidence, s.accuracy, spec).value
    a_bar = s.accuracy.mean()
    expect = ((np.abs(a_bar - s.confidence) ** p).mean()) ** (1 / p)
    assert value == pytest.approx(expect, rel=1e-14)
    _, grad = sb_ece_grad(s, spec)
    r = (np.abs(a_bar - s.confidence) ** p).mean()
    closed = (1 / p) * r ** (1 / p - 1) * (-p * np.abs(a_bar - s.confidence) ** (p - 1) * np.sign(a_bar - s.confidence)) / s.n
    np.testing.assert_allclose(grad, closed[:, None] * confidence_logit_jacobian(s), rtol=1e-12)


def test_perfectly_calibrated_gradient_is_zero():
    # all-confidence-one, all-accurate: value 0 sits at the minimum
    s = summary_from_conf([1 - 1e-12] * 4, [1, 1, 1, 1])
    v, g = sb_ece_grad(s, SoftBinningSpec(num_bins=2, temperature=0.1))
    assert v == pytest.approx(0.0, abs=1e-9)
    assert np.all(g == 0.0) or np.abs(g).max() < 1e-9


@pytest.mark.parametrize("logits", [[[50.0, 0.0]], [[50.0, 0.0], [0.0, 60.0]]])
def test_saturated_correct_predictions_give_an_exact_zero_and_a_zero_gradient(logits):
    # Confidences round to exactly 1.0 and every prediction is right, so r is
    # exactly 0 in binned mode; the r ** (1/p - 1) chain rule would be 0 * inf.
    z = np.array(logits)
    v, g = sb_ece_grad(summarize(EvalSet(z, z.argmax(axis=1))), SoftBinningSpec(mode=BINNED))
    assert v == 0.0
    assert g.shape == z.shape and np.isfinite(g).all() and not g.any()


def test_sb_ece_gradient_small_sweep():
    rng = np.random.default_rng(10)
    for mode in (LABEL_BINNED, BINNED):
        worst = 0.0
        for _ in range(20):
            z, y = random_batch(rng)
            s = summarize(EvalSet(z, y))
            spec = SoftBinningSpec(num_bins=8, temperature=0.05, p=2.0, mode=mode)
            _, grad = sb_ece_grad(s, spec)
            fd = oracles.fd_grad(lambda q: oracles.sb_ece_ld(q, y, 8, 0.05, 2.0, mode), z)
            worst = max(worst, oracles.max_rel_err(grad, fd))
        assert worst <= 1e-6, f"{mode}: {worst}"


@pytest.mark.parametrize("mode", [LABEL_BINNED, BINNED])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_value_and_gradient_apis_share_one_forward(mode, p):
    rng = np.random.default_rng(18)
    for _ in range(20):
        s = summarize(EvalSet(*random_batch(rng, n_hi=64)))
        spec = SoftBinningSpec(num_bins=int(rng.integers(1, 16)), temperature=float(10 ** rng.uniform(-2.5, -0.5)),
                               p=p, mode=mode)
        value = sb_ece(s.confidence, s.accuracy, spec).value
        assert value == sb_ece_grad(s, spec)[0]


@pytest.mark.parametrize("mode", [LABEL_BINNED, BINNED])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_sb_ece_arrays_into_reused_buffers_matches_a_fresh_call(mode, p):
    rng = np.random.default_rng(19)
    spec = SoftBinningSpec(num_bins=15, temperature=0.01, p=p, mode=mode)
    n = 400
    pair = (np.full((15, n), np.nan), np.full((15, n), np.nan))
    for conf in (rng.uniform(0.1, 1.0, n), np.where(rng.random(n) < 0.4, 1.0, rng.uniform(0.5, 1.0, n))):
        acc = (rng.random(n) < conf).astype(np.float64)
        got = sb_ece(conf, acc, spec, out=pair)
        want = sb_ece(conf, acc, spec)
        assert got.value == want.value
        for field in ("size", "mean_conf", "mean_acc"):
            np.testing.assert_array_equal(getattr(got.bin_stats, field), getattr(want.bin_stats, field))


def test_only_binned_soft_reports_carry_the_bin_mean_confidence():
    rng = np.random.default_rng(21)
    s = summarize(EvalSet(*random_batch(rng, n_lo=64, n_hi=64)))
    spec = SoftBinningSpec(num_bins=10, temperature=0.05, mode=LABEL_BINNED)
    assert sb_ece(s.confidence, s.accuracy, spec).bin_stats.mean_conf is None
    u = soft_membership(s.confidence, spec)  # (N, M)
    want = (u * s.confidence[:, None]).sum(axis=0) / u.sum(axis=0)
    got = sb_ece(s.confidence, s.accuracy, replace(spec, mode=BINNED)).bin_stats.mean_conf
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor-fault counts")
def test_sb_ece_arrays_into_reused_buffers_adds_no_page_faults():
    import resource

    rng = np.random.default_rng(20)
    n = 50_000
    conf = rng.uniform(0.1, 1.0, n)
    acc = (rng.random(n) < conf).astype(np.float64)
    spec = SoftBinningSpec()
    pair = (np.empty((spec.num_bins, n)), np.empty((spec.num_bins, n)))
    sb_ece(conf, acc, spec, out=pair)  # first touch of the buffers
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        sb_ece(conf, acc, spec, out=pair)
    # Fresh (M, N) arrays fault in ~1,400 pages per call.
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def test_eval_convention_is_equal_mass_l2_binned():
    rng = np.random.default_rng(11)
    z, y = random_batch(rng, n_lo=64, n_hi=64, scale=2.0)
    s = summarize(EvalSet(z, y))
    direct = ece(s, BinningSpec(scheme="equal-mass", num_bins=15), p=2.0, mode=BINNED).value
    assert eval_convention_ece(s) == direct


def test_reliability_table_rows_and_weights():
    rows = reliability_table(FIXTURE, BinningSpec(scheme="equal-width", num_bins=2))
    assert rows[0] == (0, None, None, 0.0)
    assert rows[1][1] == pytest.approx(0.7)
    assert rows[1][2] == pytest.approx(0.75)
    assert sum(r[3] for r in rows) == pytest.approx(1.0)
