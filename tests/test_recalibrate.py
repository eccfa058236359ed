import numpy as np
import pytest

from softcal import (
    EvalSet,
    SoftBinningSpec,
    apply_temperature,
    eval_convention_ece,
    fit_temperature,
    nll,
    sb_ece,
    summarize,
)
from softcal.recalibrate import T_MAX, T_MIN, golden_section_minimize


def scaled_posterior_set(rng, n, k, scale, spread=1.5):
    """Labels drawn from the softmax posterior of latent logits v; emitted
    logits are v * scale, so temperature `scale` recovers calibration."""
    v = rng.normal(0.0, spread, size=(n, k))
    p = np.exp(v - v.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    y = (p.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1)
    return EvalSet(v * scale, y)


def test_apply_temperature_preserves_accuracy():
    rng = np.random.default_rng(30)
    es = scaled_posterior_set(rng, 500, 5, 2.0)
    base = apply_temperature(es, 1.0).accuracy
    for t in (0.1, 0.5, 3.0, 9.0):
        np.testing.assert_array_equal(apply_temperature(es, t).accuracy, base)


def test_golden_section_on_convex_scalar():
    t, v, evals = golden_section_minimize(lambda x: (x - 1.7) ** 2, 0.5, 3.0, 1e-6)
    assert t == pytest.approx(1.7, abs=1e-5)
    assert v == pytest.approx(0.0, abs=1e-9)
    assert len(evals) > 10
    assert min(e[1] for e in evals) == v  # returns the best point actually seen


def test_fit_recovers_known_temperature():
    rng = np.random.default_rng(31)
    for scale in (0.5, 3.0):
        es = scaled_posterior_set(rng, 8000, 4, scale)
        fit = fit_temperature(es, objective="nll")
        assert fit.t_star == pytest.approx(scale, rel=0.05)
        assert not fit.at_bound


def test_fit_on_calibrated_logits_is_near_one():
    rng = np.random.default_rng(32)
    es = scaled_posterior_set(rng, 8000, 4, 1.0)
    fit = fit_temperature(es, objective="nll")
    assert fit.t_star == pytest.approx(1.0, abs=0.05)


def test_fit_reports_eval_convention_eces():
    rng = np.random.default_rng(33)
    es = scaled_posterior_set(rng, 2000, 4, 2.5)
    fit = fit_temperature(es, objective="nll")
    assert fit.ece_before == eval_convention_ece(apply_temperature(es, 1.0))
    assert fit.ece_after == eval_convention_ece(apply_temperature(es, fit.t_star))
    assert fit.ece_after < fit.ece_before  # overconfident input, so TS helps


def test_fit_optimality_on_dense_grid():
    rng = np.random.default_rng(34)
    es = scaled_posterior_set(rng, 1500, 4, 2.0)
    dense = np.exp(np.linspace(np.log(T_MIN), np.log(T_MAX), 256))
    for objective in ("nll", "sb-ece"):
        fit = fit_temperature(es, objective=objective)
        assert T_MIN <= fit.t_star <= T_MAX
        if objective == "nll":
            vals = [nll(summarize(es, t), es.labels)[0] for t in dense]
        else:
            spec = SoftBinningSpec(num_bins=15, temperature=0.01)
            vals = [sb_ece(summarize(es, t), spec).value for t in dense]
        assert min(vals) >= fit.objective_value - 1e-6


def test_fit_trace_covers_grid_and_refinement():
    rng = np.random.default_rng(35)
    es = scaled_posterior_set(rng, 500, 3, 2.0)
    fit = fit_temperature(es, objective="nll")
    assert len(fit.trace) > 64
    ts = [t for t, _ in fit.trace]
    assert min(ts) >= T_MIN - 1e-12 and max(ts) <= T_MAX + 1e-12


@pytest.mark.parametrize(
    "objective, mode, p",
    [
        ("nll", "label-binned", 2.0),
        ("sb-ece", "binned", 1.0),
        ("sb-ece", "binned", 2.0),
        ("sb-ece", "label-binned", 1.0),
        ("sb-ece", "label-binned", 2.0),
    ],
)
def test_fit_trace_matches_the_summarize_path(objective, mode, p):
    # The fit evaluates on precomputed logit shifts; every traced value must
    # agree with the objective computed from a full summary at that t.
    rng = np.random.default_rng(36)
    es = scaled_posterior_set(rng, 2000, 5, 2.0)
    spec = SoftBinningSpec(num_bins=15, temperature=0.01)
    fit = fit_temperature(es, objective=objective, sb_spec=spec, p=p, mode=mode)
    for t, v in fit.trace:
        s = summarize(es, t)
        ref = nll(s, es.labels)[0] if objective == "nll" else sb_ece(s, spec, p=p, mode=mode).value
        assert v == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("objective", ["nll", "sb-ece"])
@pytest.mark.parametrize("layout", ["one-row", "fortran"])
def test_fit_leaves_input_logits_unchanged(objective, layout):
    # A 1-row or F-ordered logit matrix has a C-contiguous transpose, the
    # case where the fit's shift array could alias the caller's logits.
    rng = np.random.default_rng(38)
    es = scaled_posterior_set(rng, 1 if layout == "one-row" else 200, 4, 2.0)
    logits = np.asfortranarray(es.logits)
    before = logits.copy()
    es = EvalSet(logits, es.labels)
    fit_temperature(es, objective=objective)
    np.testing.assert_array_equal(logits, before)
    np.testing.assert_array_equal(es.logits, before)


def test_fit_pinned_at_t_max_reports_at_bound():
    # Every label is its row's lowest logit, so p_y rises with t towards 1/K
    # and NLL falls monotonically: the minimum lies beyond T_MAX.
    rng = np.random.default_rng(37)
    logits = rng.normal(0.0, 2.0, size=(300, 4))
    fit = fit_temperature(EvalSet(logits, logits.argmin(axis=1)), objective="nll")
    assert fit.t_star <= T_MAX
    assert fit.at_bound


def test_fit_rejects_unknown_objective():
    es = EvalSet(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError):
        fit_temperature(es, objective="brier")
