import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import avuc_batch, random_batch
from softcal import (
    BINNED,
    EvalSet,
    LossSpec,
    SoftBinningSpec,
    avuc_grad,
    composite_loss,
    focal,
    mse,
    nll,
    s_avuc_grad,
    sb_ece_grad,
    summarize,
)
from softcal.data import summarize_arrays


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(primary="hinge")
    with pytest.raises(ValueError):
        LossSpec(secondary="mmce")
    with pytest.raises(ValueError):
        LossSpec(primary="focal", gamma=-1.0)
    with pytest.raises(ValueError):
        LossSpec(p=0.5)


def test_loss_spec_warns_on_inconsistent_beta():
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        LossSpec(secondary="sb-ece", beta=0.0)
        LossSpec(secondary="none", beta=2.0)
    assert len(w) == 2
    # The warning names the line that built the spec, not dataclass internals.
    assert [x.filename for x in w] == [__file__, __file__]


def test_the_inert_secondary_warning_names_the_caller_of_replace_too():
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        LossSpec(secondary="sb-ece")
        replace(LossSpec(), secondary="sb-ece")
    assert [x.filename for x in w] == [__file__, __file__]


def test_nll_value_and_gradient():
    rng = np.random.default_rng(20)
    z, y = random_batch(rng)
    s = summarize(EvalSet(z, y))
    v, g = nll(s, y)
    assert v == pytest.approx(float(oracles.nll_ld(z, y)), rel=1e-13)
    fd = oracles.fd_grad(lambda q: oracles.nll_ld(q, y), z)
    assert oracles.max_rel_err(g, fd) <= 1e-6


def test_focal_hand_value():
    # p_y = 0.5, gamma = 2: (1 - 0.5)^2 * ln 2 = 0.25 ln 2
    z = np.array([[0.0, 0.0]])  # p = (1/2, 1/2)
    s = summarize(EvalSet(z, np.array([0])))
    v, _ = focal(s, np.array([0]), gamma=2.0)
    assert v == pytest.approx(0.25 * np.log(2.0), abs=1e-16)


def test_focal_gamma_zero_is_nll():
    rng = np.random.default_rng(21)
    z, y = random_batch(rng, n_lo=16, n_hi=16, scale=2.0)
    s = summarize(EvalSet(z, y))
    v_f, g_f = focal(s, y, gamma=0.0)
    v_n, g_n = nll(s, y)
    assert abs(v_f - v_n) <= 1e-12
    assert np.abs(g_f - g_n).max() <= 1e-12


def test_focal_gradient():
    rng = np.random.default_rng(22)
    for gamma in (0.5, 2.0, 3.0):
        worst_v, worst_g = 0.0, 0.0
        for _ in range(10):
            z, y = random_batch(rng)
            s = summarize(EvalSet(z, y))
            v, g = focal(s, y, gamma=gamma)
            worst_v = max(worst_v, abs(v - float(oracles.focal_ld(z, y, gamma))))
            fd = oracles.fd_grad(lambda q: oracles.focal_ld(q, y, gamma), z)
            worst_g = max(worst_g, oracles.max_rel_err(g, fd))
        assert worst_v <= 1e-12
        assert worst_g <= 1e-6, (gamma, worst_g)


def test_focal_saturated_row_is_finite():
    # p_y -> 1 drives (1 - p)^(gamma - 1) log p into 0 * -0; must stay finite
    z = np.array([[60.0, 0.0, 0.0]])
    s = summarize(EvalSet(z, np.array([0])))
    v, g = focal(s, np.array([0]), gamma=3.0)
    assert np.isfinite(v) and np.isfinite(g).all()


def test_mse_value_and_gradient():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(10):
        z, y = random_batch(rng)
        s = summarize(EvalSet(z, y))
        v, g = mse(s, y)
        assert v == pytest.approx(float(oracles.mse_ld(z, y)), rel=1e-13)
        fd = oracles.fd_grad(lambda q: oracles.mse_ld(q, y), z)
        worst = max(worst, oracles.max_rel_err(g, fd))
    assert worst <= 1e-6, worst


def test_mse_is_brier_score():
    z = np.array([[np.log(0.7) - np.log(0.3), 0.0]])
    s = summarize(EvalSet(z, np.array([0])))
    v, _ = mse(s, np.array([0]))
    assert v == pytest.approx((0.7 - 1) ** 2 + 0.3**2, rel=1e-12)


def test_composite_decomposition_identity():
    rng = np.random.default_rng(24)
    z, y = random_batch(rng, n_lo=16, n_hi=16)
    spec = LossSpec(primary="focal", gamma=2.0, secondary="sb-ece", beta=0.7, lam=0.01)
    out = composite_loss(z, y, spec, weight_sq_norm=3.5)
    assert out.value == pytest.approx(
        out.primary_value + 0.7 * out.secondary_value + 0.01 * out.l2_value, abs=1e-15
    )
    assert out.l2_value == 3.5


def test_composite_gradient_linearity():
    rng = np.random.default_rng(25)
    z, y = random_batch(rng, n_lo=16, n_hi=16)
    base = dict(primary="nll", secondary="s-avuc", kappa=0.5, soft_temperature=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g0 = composite_loss(z, y, LossSpec(**base, beta=0.0)).grad_logits
    g_sec = composite_loss(z, y, LossSpec(**base, beta=1.0)).grad_logits - g0
    g_mix = composite_loss(z, y, LossSpec(**base, beta=2.5)).grad_logits
    np.testing.assert_allclose(g_mix, g0 + 2.5 * g_sec, atol=1e-15)


def test_composite_skips_secondary_when_beta_zero():
    rng = np.random.default_rng(26)
    z, y = random_batch(rng)
    out = composite_loss(z, y, LossSpec())
    assert out.secondary_value == 0.0
    v, _ = nll(summarize(EvalSet(z, y)), y)
    assert out.value == pytest.approx(v, abs=1e-16)


def test_composite_loss_passes_each_secondary_its_settings():
    # At beta = 1 the composite's secondary value and gradient are the
    # kernel's own, on settings that are all off their defaults.
    rng = np.random.default_rng(28)
    z, y, kappa = avuc_batch(rng)
    s = summarize_arrays(z, y)
    cases = {
        "avuc": (dict(kappa=kappa), lambda kappa: avuc_grad(s, kappa)),
        "avuc-gs": (dict(kappa=kappa), lambda kappa: avuc_grad(s, kappa, gradient_stopping=True)),
        "s-avuc": (dict(kappa=0.3, soft_temperature=0.4),
                   lambda kappa, soft_temperature: s_avuc_grad(s, kappa, soft_temperature)),
        "sb-ece": (dict(bins=7, bin_temperature=0.05, p=3.0, mode=BINNED),
                   lambda bins, bin_temperature, p, mode: sb_ece_grad(s, SoftBinningSpec(bins, bin_temperature), p, mode)),
    }
    _, primary_grad = nll(s, y)
    for secondary, (settings, kernel) in cases.items():
        out = composite_loss(z, y, LossSpec(secondary=secondary, beta=1.0, **settings))
        value, grad = kernel(**settings)
        assert out.secondary_value == value, secondary
        np.testing.assert_array_equal(out.grad_logits, primary_grad + grad)
        # A setting dropped on the way, so that the kernel saw its default,
        # would change the kernel's output, and the checks above would fail.
        for name in settings:
            value_at_default, grad_at_default = kernel(**(settings | {name: getattr(LossSpec(), name)}))
            assert value_at_default != value or not np.array_equal(grad_at_default, grad), (secondary, name)
    assert not np.array_equal(avuc_grad(s, kappa)[1], avuc_grad(s, kappa, gradient_stopping=True)[1])


def test_composite_gradient_against_reference():
    rng = np.random.default_rng(27)
    spec = LossSpec(primary="focal", gamma=2.0, secondary="sb-ece", beta=0.7,
                    lam=0.02, bins=6, bin_temperature=0.05)
    worst = 0.0
    for _ in range(10):
        z, y = random_batch(rng)
        out = composite_loss(z, y, spec, weight_sq_norm=1.25)
        assert out.value == pytest.approx(
            float(oracles.composite_ld(z, y, primary="focal", gamma=2.0,
                                       secondary="sb-ece", beta=0.7, lam=0.02,
                                       weight_sq_norm=1.25, bins=6,
                                       bin_temperature=0.05)),
            rel=1e-12,
        )
        fd = oracles.fd_grad(
            lambda q: oracles.composite_ld(q, y, primary="focal", gamma=2.0,
                                           secondary="sb-ece", beta=0.7,
                                           bins=6, bin_temperature=0.05),
            z,
        )
        worst = max(worst, oracles.max_rel_err(out.grad_logits, fd))
    assert worst <= 1e-4, worst
