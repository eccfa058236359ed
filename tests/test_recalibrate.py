import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import softcal

from softcal import (
    BinningSpec,
    EvalSet,
    SoftBinningSpec,
    fit_temperature,
    nll,
    sb_ece,
    summarize,
)
from softcal.metrics import LABEL_BINNED
from softcal.recalibrate import GRID_POINTS, REFINE_TOL, T_MAX, T_MIN, _exp_row_sum, _objective_fn, brent_minimize


def scaled_posterior_set(rng, n, k, scale, spread=1.5):
    """Labels drawn from the softmax posterior of latent logits v; emitted
    logits are v * scale, so temperature `scale` recovers calibration."""
    v = rng.normal(0.0, spread, size=(n, k))
    p = np.exp(v - v.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    y = (p.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1)
    return EvalSet(v * scale, y)


def mixed_scale_set(rng, n=5000, k=4, spread=1.5, scales=(1.5, 5.0)):
    """Criterion 6's split: posterior labels, each row scaled by one of two
    factors, so the NLL- and ECE-optimal temperatures differ."""
    v = rng.normal(0.0, spread, size=(n, k))
    p = np.exp(v - v.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    y = (p.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1)
    s = np.where(rng.random(n) < 0.5, scales[0], scales[1])
    return EvalSet(v * s[:, None], y)


def test_apply_temperature_preserves_accuracy():
    rng = np.random.default_rng(30)
    es = scaled_posterior_set(rng, 500, 5, 2.0)
    base = summarize(es, 1.0).accuracy
    for t in (0.1, 0.5, 3.0, 9.0):
        np.testing.assert_array_equal(summarize(es, t).accuracy, base)


def test_brent_on_convex_scalar():
    t, v, evals = brent_minimize(lambda x: (x - 1.7) ** 2, 0.5, 3.0, 1e-6)
    assert t == pytest.approx(1.7, abs=1e-5)
    assert v == pytest.approx(0.0, abs=1e-9)
    assert len(evals) <= 10  # the parabola step lands on the minimum
    assert min(e[1] for e in evals) == v  # returns the best point actually seen


def test_brent_converges_on_a_kink():
    # |x - a| has no parabola to fit at its minimum; the golden fallback
    # must still close the bracket on it.
    t, v, evals = brent_minimize(lambda x: abs(x - 1.3), 0.5, 3.0, 1e-6)
    assert t == pytest.approx(1.3, abs=1e-6)
    assert v == min(e[1] for e in evals)
    assert len(evals) < 60


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_brent_on_a_monotone_function_ends_at_the_bracket_edge(sign):
    lo, hi = 0.5, 3.0
    t, v, evals = brent_minimize(lambda x: sign * x, lo, hi, 1e-4)
    edge = lo if sign > 0 else hi
    assert abs(t - edge) <= 1e-4
    assert lo <= min(x for x, _ in evals) and max(x for x, _ in evals) <= hi
    assert v == min(e[1] for e in evals)


def test_brent_never_returns_a_non_finite_value():
    # NaN on the left part of the bracket, where the first (golden) point
    # lands; the finite minimum lies to the right.
    def fn(x):
        return float("nan") if x < 1.6 else (x - 2.0) ** 2

    t, v, evals = brent_minimize(fn, 0.5, 3.0, 1e-6)
    assert np.isnan(evals[0][1])
    assert np.isfinite(v) and v == min(e[1] for e in evals if np.isfinite(e[1]))
    assert t == pytest.approx(2.0, abs=1e-5)


@pytest.mark.parametrize("objective", ["nll", "sb-ece"])
def test_fit_agrees_with_the_reference_search(objective):
    # The criterion-5 sets and ten criterion-6 validation splits, searched
    # by the 64-point grid plus golden section in oracles.
    sets = [
        scaled_posterior_set(np.random.default_rng(500 + i), 50000, 4, scale)
        for i, scale in enumerate((0.5, 2.0, 3.0))
    ]
    sets += [mixed_scale_set(np.random.default_rng(1000 + seed)) for seed in range(10)]
    spec = SoftBinningSpec(num_bins=15, temperature=0.01)
    for es in sets:
        fit = fit_temperature(es, objective=objective, sb_spec=spec)
        fn = _objective_fn(es, objective, spec, 2.0, LABEL_BINNED)
        t_ref, v_ref = oracles.reference_temperature_search(fn, T_MIN, T_MAX, tol=REFINE_TOL)
        assert abs(fit.t_star - t_ref) <= REFINE_TOL
        assert fit.objective_value <= v_ref + 1e-9


def loaded_by_import(module: str) -> bool:
    """Whether a fresh interpreter has module loaded after `import softcal`."""
    code = f"import sys, softcal; print({module!r} in sys.modules)"
    src = str(Path(softcal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120)
    return {"True": True, "False": False}[out.stdout.strip()]


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize roughly doubles the package's import time, which every
    # CLI call pays.
    assert not loaded_by_import("scipy.optimize")


def test_import_leaves_concurrent_futures_unloaded():
    # The thread pool that splits per-example work loads it on the first
    # call large enough to use it; a CLI call on a small file never does.
    assert not loaded_by_import("concurrent.futures")


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
            summaries = (summarize(es, t) for t in dense)
            vals = [sb_ece(s.confidence, s.accuracy, spec).value for s in summaries]
        assert min(vals) >= fit.objective_value - 1e-6


def test_fit_trace_covers_grid_and_refinement():
    rng = np.random.default_rng(35)
    es = scaled_posterior_set(rng, 500, 3, 2.0)
    fit = fit_temperature(es, objective="nll")
    ts = np.array([t for t, _ in fit.trace])
    grid = np.exp(np.linspace(np.log(T_MIN), np.log(T_MAX), GRID_POINTS))
    np.testing.assert_allclose(ts[:GRID_POINTS], grid, rtol=1e-14)
    assert ts[0] == T_MIN and ts[GRID_POINTS - 1] == T_MAX
    best = int(np.argmin([v for _, v in fit.trace[:GRID_POINTS]]))
    lo, hi = ts[max(best - 1, 0)], ts[min(best + 1, GRID_POINTS - 1)]
    assert all(lo < t < hi for t in ts[GRID_POINTS:])
    assert len(fit.trace) <= 30
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
        if objective == "nll":
            ref = nll(s, es.labels)[0]
        else:
            ref = sb_ece(s.confidence, s.accuracy, spec, p=p, mode=mode).value
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


@pytest.mark.parametrize("k", [2, 3, 10, 16, 100, 257])
@pytest.mark.parametrize("n", [1, 7, 4097])
def test_row_accumulated_normalizer_is_the_axis_0_sum_bit_for_bit(k, n):
    # The fit adds exp(shifts / t) one class row at a time; t* stays the same
    # only while numpy's sum(axis=0) adds the rows in that order too.
    rng = np.random.default_rng(1000 * k + n)
    z = rng.normal(0.0, 3.0, size=(k, n))
    shifts = z - z.max(axis=0)
    for t in (0.05, 1.0, 10.0):
        got = _exp_row_sum(shifts, t, np.empty(n), np.empty(n), n)
        np.testing.assert_array_equal(got, np.exp(shifts / t).sum(axis=0))


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


@pytest.mark.parametrize("objective", ["nll", "sb-ece"])
@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"sb_spec": BinningSpec()}, "sb_spec"),
        ({"sb_spec": 15}, "sb_spec"),
        ({"p": -5}, "p"),
        ({"p": 0.5}, "p"),
        ({"p": "2"}, "p"),
        ({"mode": "junk"}, "mode"),
        ({"mode": None}, "mode"),
    ],
)
def test_fit_refuses_bad_arguments_before_any_evaluation(monkeypatch, objective, kwargs, name):
    # Both objectives check every argument, even those only the other reads,
    # and before the first evaluation.
    import softcal.recalibrate

    monkeypatch.setattr(softcal.recalibrate, "_objective_fn", lambda *a: pytest.fail("evaluated"))
    es = EvalSet(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError, match=f"^{name} must"):
        fit_temperature(es, objective=objective, **kwargs)
