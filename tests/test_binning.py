import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from softcal import BinningSpec, SoftBinningSpec, assign_hard, soft_membership
from softcal.binning import membership_derivative

conf_arrays = arrays(
    np.float64, st.integers(1, 60), elements=st.floats(0, 1, allow_nan=False)
)


def test_spec_validation():
    with pytest.raises(ValueError):
        BinningSpec(scheme="quantile", num_bins=10)
    with pytest.raises(ValueError):
        BinningSpec(num_bins=0)
    with pytest.raises(ValueError):
        SoftBinningSpec(num_bins=15, temperature=0.0)
    with pytest.raises(ValueError):
        SoftBinningSpec(num_bins=0)
    SoftBinningSpec(num_bins=1)  # M = 1 is a legitimate degenerate reduction


SHAPE, VALUES = "confidences must be a non-empty 1-d array", "confidences must be finite and lie in [0, 1]"


# One case per clause of each check, so a clause that stops refusing is caught.
@pytest.mark.parametrize("conf, message", [
    (np.array([[0.2, 0.4]]), SHAPE),
    (np.array([]), SHAPE),
    (np.array([0.2, np.nan]), VALUES),
    (np.array([0.2, -0.1]), VALUES),
    (np.array([0.2, 1.1]), VALUES),
], ids=["2-d", "empty", "nan", "below-0", "above-1"])
@pytest.mark.parametrize("scheme", ["equal-width", "equal-mass"])
def test_assign_hard_refuses_each_kind_of_bad_confidences(conf, message, scheme):
    with pytest.raises(ValueError) as err:
        assign_hard(conf, BinningSpec(scheme=scheme, num_bins=3))
    assert str(err.value) == message


def test_soft_centers():
    np.testing.assert_array_equal(
        SoftBinningSpec(num_bins=4, temperature=0.1).centers,
        [0.125, 0.375, 0.625, 0.875],
    )


def test_equal_width_hand_cases():
    spec = BinningSpec(scheme="equal-width", num_bins=2)
    np.testing.assert_array_equal(
        assign_hard(np.array([0.1, 0.6, 0.9]), spec), [0, 1, 1]
    )
    # boundary lands in the upper bin; c = 1.0 stays in the last bin
    np.testing.assert_array_equal(assign_hard(np.array([0.5]), spec), [1])
    np.testing.assert_array_equal(assign_hard(np.array([1.0]), spec), [1])


@given(conf_arrays, st.integers(1, 20))
def test_equal_width_is_floor_rule(conf, m):
    idx = assign_hard(conf, BinningSpec(scheme="equal-width", num_bins=m))
    np.testing.assert_array_equal(
        idx, np.minimum((conf * m).astype(np.int64), m - 1)
    )


def test_equal_mass_hand_case():
    spec = BinningSpec(scheme="equal-mass", num_bins=2)
    np.testing.assert_array_equal(
        assign_hard(np.array([0.2, 0.4, 0.6, 0.8]), spec), [0, 0, 1, 1]
    )


def test_equal_mass_duplicate_confidences_split_by_position():
    idx = assign_hard(np.full(4, 0.5), BinningSpec(scheme="equal-mass", num_bins=2))
    np.testing.assert_array_equal(idx, [0, 0, 1, 1])


@given(conf_arrays, st.integers(1, 12))
def test_equal_mass_sizes_balanced(conf, m):
    idx = assign_hard(conf, BinningSpec(scheme="equal-mass", num_bins=m))
    sizes = np.bincount(idx, minlength=m)
    if conf.size >= m:
        assert sizes.max() - sizes.min() <= 1
    assert sizes.sum() == conf.size


@given(conf_arrays, st.integers(1, 12))
def test_equal_mass_matches_split_rule(conf, m):
    idx = assign_hard(conf, BinningSpec(scheme="equal-mass", num_bins=m))
    np.testing.assert_array_equal(idx, oracles.hard_bin_index(conf, m, "equal-mass"))


@given(conf_arrays, st.integers(2, 12))
def test_equal_mass_respects_order(conf, m):
    idx = assign_hard(conf, BinningSpec(scheme="equal-mass", num_bins=m))
    order = np.argsort(conf, kind="stable")
    assert (np.diff(idx[order]) >= 0).all()


@pytest.mark.parametrize("n", [1, 768, 5_000, 50_000])
def test_equal_mass_matches_the_stable_split_rule_under_heavy_ties(n):
    rng = np.random.default_rng(n)
    cases = [
        rng.random(n),
        rng.choice([0.1, 0.5, 0.9], size=n),  # three runs of equal values
        np.where(rng.random(n) < 0.4, 1.0, rng.random(n)),  # 40% exact 1.0
        rng.choice([0.0, -0.0, 0.3, 1.0], size=n),  # 0.0 and -0.0 compare equal
        np.round(rng.random(n), 3),
    ]
    for conf in cases:
        for m in (1, 7, 15, 40):
            idx = assign_hard(conf, BinningSpec(scheme="equal-mass", num_bins=m))
            np.testing.assert_array_equal(idx, oracles.hard_bin_index(conf, m, "equal-mass"))


def test_soft_membership_into_a_reused_buffer_matches_a_fresh_call():
    rng = np.random.default_rng(12)
    spec = SoftBinningSpec(num_bins=15, temperature=0.01)
    out = np.full((15, 500), np.nan)
    for conf in (rng.random(500), np.where(rng.random(500) < 0.4, 1.0, rng.random(500))):
        u = soft_membership(conf, spec, out=out)
        assert u.base is out
        np.testing.assert_array_equal(u, soft_membership(conf, spec))


def test_membership_frozen_value():
    # M=3, c=0.1, T=0.01: scores -(c-center)^2/T are -4/9, -16, -484/9.
    u = soft_membership(0.1, SoftBinningSpec(num_bins=3, temperature=0.01))
    expect = np.array([0.99999982448752800519, 1.7551247199480783e-07, 6.8806197168431e-24])
    np.testing.assert_allclose(u, expect, rtol=1e-12)


def test_membership_shapes():
    spec = SoftBinningSpec(num_bins=5, temperature=0.1)
    assert soft_membership(0.3, spec).shape == (5,)
    assert soft_membership(np.array(0.3), spec).shape == (5,)  # a 0-d array is a scalar too
    assert soft_membership(np.array([0.3, 0.7]), spec).shape == (2, 5)


@given(st.floats(0, 1), st.integers(2, 20), st.floats(1e-4, 10))
def test_membership_is_a_distribution(c, m, t):
    u = soft_membership(c, SoftBinningSpec(num_bins=m, temperature=t))
    assert abs(u.sum() - 1.0) < 1e-12
    assert (u >= 0).all()
    if t >= 0.01:
        # strict positivity holds until exp underflow at extreme temperatures
        assert (u > 0).all()


def test_membership_equidistant_point_splits_evenly():
    # c = 0.5 sits exactly between the two centers of M = 2.
    u = soft_membership(0.5, SoftBinningSpec(num_bins=2, temperature=1e-5))
    np.testing.assert_array_equal(u, [0.5, 0.5])


@given(st.floats(1e-3, 1 - 1e-3), st.integers(2, 10))
def test_membership_hard_limit_matches_equal_width(c, m):
    # away from bin boundaries the T -> 0 limit picks the containing bin
    if np.min(np.abs(c * m - np.round(c * m))) < 1e-3 * m:
        return
    u = soft_membership(c, SoftBinningSpec(num_bins=m, temperature=1e-5))
    hard = assign_hard(np.array([c]), BinningSpec(scheme="equal-width", num_bins=m))
    assert int(u.argmax()) == hard[0]


@given(st.floats(0, 1), st.integers(2, 10), st.floats(1e-3, 1.0))
def test_membership_center_distance_ordering(c, m, t):
    # the strictly closer of two centers always gets the larger membership
    u = soft_membership(c, SoftBinningSpec(num_bins=m, temperature=t))
    centers = SoftBinningSpec(num_bins=m, temperature=t).centers
    d = np.abs(centers - c)
    for i in range(m):
        for j in range(m):
            if d[i] < d[j] - 1e-12:
                assert u[i] > u[j]


@given(st.integers(2, 10), st.floats(1e-3, 1.0))
def test_membership_unimodal_along_confidence(m, t):
    # each bin's membership, as a function of c, rises to one peak and falls;
    # note the normalized form cannot have every du_j/dc > 0 left of center
    # (the derivatives sum to zero), so unimodality is the testable reading
    spec = SoftBinningSpec(num_bins=m, temperature=t)
    grid = np.linspace(0.0, 1.0, 201)
    u = soft_membership(grid, spec)
    for j in range(m):
        d = np.diff(u[:, j])
        falls = np.nonzero(d < -1e-14)[0]
        if falls.size:
            assert (d[falls[0] :] <= 1e-14).all()


def test_membership_grad_matches_reference():
    rng = np.random.default_rng(4)
    spec = SoftBinningSpec(num_bins=8, temperature=0.05)
    c = rng.random(20)
    du = membership_derivative(soft_membership(c, spec).T, c, spec).T
    for i in range(20):
        fd = oracles.fd_grad(
            lambda x: oracles.membership_ld(x[0, 0], 8, 0.05)[i % 8],
            np.array([[c[i]]]),
        )[0, 0]
        assert abs(du[i, i % 8] - fd) <= 1e-8 * max(1.0, abs(fd))
