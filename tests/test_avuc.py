import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import avuc_batch, random_batch
from softcal import (
    DegenerateBatchError,
    EvalSet,
    PredictionSummary,
    avuc_grad,
    s_avuc_grad,
    soft_uncertainty,
    summarize,
)
from softcal.avuc import _HSTAR_HI, _HSTAR_LO, _avuc_forward, _s_avuc_forward, _soft_uncertainty_slope


def raw_summary(conf, entropy, acc, k=2):
    """Hand-built summary for fixtures whose (confidence, entropy) pair no
    softmax row can realize; probs/predicted are placeholders."""
    conf = np.asarray(conf, dtype=np.float64)
    n = conf.shape[0]
    summary = PredictionSummary(
        probs=np.full((n, k), 1.0 / k),
        confidence=conf,
        predicted=np.zeros(n, dtype=np.int64),
        accuracy=np.asarray(acc, dtype=np.float64),
    )
    summary.__dict__["entropy"] = np.asarray(entropy, dtype=np.float64)  # read by the cached property
    return summary


def test_avuc_kernels_refuse_a_bad_kappa_or_temperature_naming_it():
    s = raw_summary([0.7], [0.3], [1])
    with pytest.raises(ValueError, match="^kappa must be > 0, got 0.0"):
        avuc_grad(s, 0.0)
    with pytest.raises(ValueError, match="^temperature must be > 0, got -1.0"):
        s_avuc_grad(s, 0.5, -1.0)


# The checks the deleted AvucSpec made of kappa and temperature, now made by
# the kernels: a bool, a string or None is a ValueError naming the argument.
@pytest.mark.parametrize("value", [None, True, "1"])
@pytest.mark.parametrize(
    "kernel, name",
    [(lambda s, v: avuc_grad(s, v), "kappa"),
     (lambda s, v: s_avuc_grad(s, v, 1.0), "kappa"),
     (lambda s, v: s_avuc_grad(s, 0.5, v), "temperature")],
    ids=["avuc-kappa", "s-avuc-kappa", "s-avuc-temperature"],
)
def test_avuc_kernels_refuse_a_bool_a_string_or_none_naming_it(kernel, name, value):
    s = raw_summary([0.7], [0.3], [1])
    with pytest.raises(ValueError, match=f"^{name} must .*, got {value!r} \\(not a number\\)$"):
        kernel(s, value)


def test_avuc_two_point_fixture():
    # one accurate-certain and one inaccurate-certain example, both c=0.75,
    # same entropy: the tanh factors cancel and the loss is log(4/3)
    s = raw_summary([0.75, 0.75], [0.2, 0.2], [1, 0])
    value, _ = avuc_grad(s, 0.5)
    _, n_au, _, n_iu = _avuc_forward(s, 0.5)[3]
    assert value == pytest.approx(np.log(4.0 / 3.0), abs=1e-15)
    assert n_au == 0.0 and n_iu == 0.0


def test_avuc_entropy_equal_to_kappa_counts_certain():
    s = raw_summary([0.9, 0.9], [0.5, 0.7], [1, 0])
    n_ac, n_au, _, _ = _avuc_forward(s, 0.5)[3]
    assert n_ac > 0.0  # the h = kappa example landed in the certain cell
    assert n_au == 0.0


def test_avuc_degenerate_batch_raises():
    # every example inaccurate and certain: denominator n_AC + n_IU is empty
    s = raw_summary([0.9, 0.8], [0.1, 0.1], [0, 0])
    with pytest.raises(DegenerateBatchError):
        avuc_grad(s, 0.5)


def test_avuc_nonnegative_and_matches_reference():
    rng = np.random.default_rng(12)
    for _ in range(20):
        z, y, kappa = avuc_batch(rng)
        s = summarize(EvalSet(z, y))
        value, _ = avuc_grad(s, kappa)
        assert value >= 0.0
        assert value == pytest.approx(float(oracles.avuc_ld(z, y, kappa)), rel=1e-12)


def test_gradient_stopping_preserves_forward_value():
    rng = np.random.default_rng(13)
    for _ in range(10):
        z, y, kappa = avuc_batch(rng)
        s = summarize(EvalSet(z, y))
        v_plain, _ = avuc_grad(s, kappa)
        v_gs, _ = avuc_grad(s, kappa, gradient_stopping=True)
        assert v_plain == v_gs


def test_avuc_gradient():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(20):
        z, y, kappa = avuc_batch(rng)
        s = summarize(EvalSet(z, y))
        _, grad = avuc_grad(s, kappa)
        fd = oracles.fd_grad(lambda q: oracles.avuc_ld(q, y, kappa), z)
        worst = max(worst, oracles.max_rel_err(grad, fd))
    assert worst <= 1e-4, worst


def test_avuc_gs_gradient_matches_frozen_confidence_oracle():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(20):
        z, y, kappa = avuc_batch(rng)
        s = summarize(EvalSet(z, y))
        _, grad = avuc_grad(s, kappa, gradient_stopping=True)
        conf0 = s.confidence.copy()
        fd = oracles.fd_grad(lambda q: oracles.avuc_ld(q, y, kappa, frozen_conf=conf0), z)
        worst = max(worst, oracles.max_rel_err(grad, fd))
    assert worst <= 1e-4, worst


def test_value_and_gradient_apis_share_one_forward():
    rng = np.random.default_rng(19)
    for _ in range(20):
        z, y, kappa = avuc_batch(rng)
        s = summarize(EvalSet(z, y))
        for stopped in (False, True):
            assert _avuc_forward(s, kappa)[0] == avuc_grad(s, kappa, stopped)[0]
        soft = (float(rng.uniform(0.1, 0.9)), float(10 ** rng.uniform(-1.0, 0.5)))
        assert _s_avuc_forward(s, *soft)[0] == s_avuc_grad(s, *soft)[0]


def test_soft_uncertainty_frozen_value():
    # kappa=0.25, T=0.5, h*=0.75: logit gap is 2 ln 3, scaled by 2 -> 81/82
    assert soft_uncertainty(0.75, 0.25, 0.5) == pytest.approx(81.0 / 82.0, abs=1e-15)


@given(st.floats(0.01, 0.99), st.floats(0.05, 5.0))
def test_soft_uncertainty_half_at_threshold(kappa, temperature):
    assert soft_uncertainty(kappa, kappa, temperature) == 0.5


def test_soft_uncertainty_identity_map():
    grid = np.linspace(1e-7, 1 - 1e-7, 1001)
    t = soft_uncertainty(grid, 0.5, 1.0)
    assert np.abs(t - grid).max() <= 1e-12


@given(st.floats(0.05, 0.95), st.floats(0.1, 3.0))
def test_soft_uncertainty_monotone(kappa, temperature):
    grid = np.linspace(1e-7, 1 - 1e-7, 301)
    t = soft_uncertainty(grid, kappa, temperature)
    assert (np.diff(t) >= 0).all()
    # strict increase away from the float64 rounding plateau at the tails
    interior = (t[:-1] > 1e-13) & (t[1:] < 1 - 1e-13)
    assert (np.diff(t)[interior] > 0).all()


def test_soft_uncertainty_limits_and_step():
    assert soft_uncertainty(1e-7, 0.5, 1.0) < 0.01
    assert soft_uncertainty(1 - 1e-7, 0.5, 1.0) > 0.99
    # T = 1e-3 is already step-like away from the threshold
    grid = np.linspace(0.01, 0.99, 197)
    keep = np.abs(grid - 0.5) >= 0.05
    t = soft_uncertainty(grid[keep], 0.5, 1e-3)
    step = (grid[keep] > 0.5).astype(float)
    assert np.abs(t - step).max() <= 1e-3


def test_soft_uncertainty_grad_zero_in_clamp_region():
    def slope(h):
        return _soft_uncertainty_slope(h, soft_uncertainty(h, 0.5, 1.0), 1.0)

    assert slope(0.0) == 0.0
    assert slope(1.0) == 0.0
    assert slope(0.5) > 0.0
    # The clamp edges themselves are inside; one ulp beyond each is not.
    assert slope(_HSTAR_LO) > 0.0 and slope(_HSTAR_HI) > 0.0
    assert slope(np.nextafter(_HSTAR_LO, 0.0)) == 0.0
    assert slope(np.nextafter(_HSTAR_HI, 1.0)) == 0.0


def test_s_avuc_requires_temperature():
    # the signature requires the argument; None, the old "hard" marker, is refused
    s = raw_summary([0.7], [0.3], [1])
    with pytest.raises(ValueError, match="^temperature must be > 0, got None"):
        s_avuc_grad(s, 0.5, None)


def test_s_avuc_single_example_fixture():
    # accurate example at h* = 1/2 with the identity uncertainty map:
    # t = 1/2 and tanh(ln2 / 2) = 1/3 exactly, so the loss is log(3/2)
    s = raw_summary([0.9], [0.5 * np.log(2)], [1], k=2)
    value, _ = s_avuc_grad(s, 0.5, 1.0)
    numerator = _s_avuc_forward(s, 0.5, 1.0)[1]
    assert value == pytest.approx(np.log(1.5), abs=1e-15)
    assert numerator == pytest.approx(0.5 * (1.0 / 3.0), abs=1e-16)


def test_s_avuc_nonnegative_and_matches_reference():
    rng = np.random.default_rng(16)
    for _ in range(20):
        z, y = random_batch(rng)
        s = summarize(EvalSet(z, y))
        value, _ = s_avuc_grad(s, 0.4, 0.7)
        assert value >= 0.0
        assert value == pytest.approx(float(oracles.s_avuc_ld(z, y, 0.4, 0.7)), rel=1e-12)


def test_s_avuc_gradient():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        z, y = random_batch(rng)
        s = summarize(EvalSet(z, y))
        _, grad = s_avuc_grad(s, 0.6, 0.5)
        fd = oracles.fd_grad(lambda q: oracles.s_avuc_ld(q, y, 0.6, 0.5), z)
        worst = max(worst, oracles.max_rel_err(grad, fd))
    assert worst <= 1e-4, worst
