"""Synthetic task generators: validation, determinism, splits, geometry."""

import re

import numpy as np
import pytest

from softcal import TASK_KINDS, TaskSpec, make_synthetic_task


def blob_means(classes, separation, dim):
    # Same circle geometry the generator promises: adjacent means sit
    # `separation` apart in the first two coordinates.
    radius = separation / (2.0 * np.sin(np.pi / classes))
    angles = 2.0 * np.pi * np.arange(classes) / classes
    means = np.zeros((classes, dim))
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


def stacked(task):
    x = np.concatenate([task.x_train, task.x_val, task.x_test])
    y = np.concatenate([task.y_train, task.y_val, task.y_test])
    return x, y


def test_kind_validation():
    assert set(TASK_KINDS) == {"gaussian-blobs", "noisy-moons", "label-noise-blobs"}
    with pytest.raises(ValueError):
        make_synthetic_task("spirals", 200, seed=0)


def test_size_and_split_validation():
    with pytest.raises(ValueError):
        make_synthetic_task("gaussian-blobs", 99, seed=0)
    with pytest.raises(ValueError):
        make_synthetic_task("gaussian-blobs", 200, seed=0, splits=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        make_synthetic_task("gaussian-blobs", 200, seed=0, splits=(0.5, 0.5, 0.0))
    with pytest.raises(ValueError):
        make_synthetic_task("gaussian-blobs", 200, seed=0, classes=1)


def test_split_sizes_follow_fractions():
    task = make_synthetic_task("gaussian-blobs", 1000, seed=3)
    assert (len(task.y_train), len(task.y_val), len(task.y_test)) == (500, 250, 250)

    # Rounded sizes with the remainder going to test.
    task = make_synthetic_task("gaussian-blobs", 997, seed=3, splits=(0.6, 0.2, 0.2))
    assert len(task.y_train) == int(round(0.6 * 997))
    assert len(task.y_val) == int(round(0.2 * 997))
    assert len(task.y_train) + len(task.y_val) + len(task.y_test) == 997


@pytest.mark.parametrize("n, splits, sizes", [
    (100, (0.5, 0.495, 0.005), (50, 50, 0)),
    (100, (0.004, 0.5, 0.496), (0, 50, 50)),
    (100, (0.5, 0.004, 0.496), (50, 0, 50)),
])
def test_splits_that_leave_a_part_empty_are_refused(n, splits, sizes):
    with pytest.raises(ValueError, match=rf"^splits must leave .* at n = {n}, got sizes {re.escape(str(sizes))}$"):
        make_synthetic_task("gaussian-blobs", n, seed=0, splits=splits)
    # The same fractions leave every part non-empty at a larger n.
    task = make_synthetic_task("gaussian-blobs", 10 * n, seed=0, splits=splits)
    assert min(len(task.y_train), len(task.y_val), len(task.y_test)) >= 1
    assert TaskSpec(n=10 * n, splits=splits).split_sizes == (len(task.y_train), len(task.y_val), len(task.y_test))


def test_same_seed_reproduces_every_array():
    for kind in TASK_KINDS:
        classes = 2 if kind == "noisy-moons" else 3  # moons are binary
        a = make_synthetic_task(kind, 300, seed=11, classes=classes)
        b = make_synthetic_task(kind, 300, seed=11, classes=classes)
        for name in ("x_train", "y_train", "x_val", "y_val", "x_test", "y_test"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        c = make_synthetic_task(kind, 300, seed=12, classes=classes)
        assert not np.array_equal(a.x_train, c.x_train)


def test_label_ranges_and_dims():
    task = make_synthetic_task("gaussian-blobs", 400, seed=0, classes=5, dim=7)
    assert task.num_classes == 5
    assert task.x_train.shape[1] == 7
    x, y = stacked(task)
    assert x.shape == (400, 7)
    assert y.min() >= 0 and y.max() <= 4
    assert np.issubdtype(y.dtype, np.integer)

    # Moons are 2-d and binary: another class count or dimension is refused
    # by name rather than ignored.
    for name, value in (("classes", 5), ("dim", 7)):
        with pytest.raises(ValueError, match=rf"^{name} must be 2 for noisy-moons, got {value}$"):
            make_synthetic_task("noisy-moons", 400, seed=0, **{name: value})
    task = make_synthetic_task("noisy-moons", 400, seed=0)
    assert task.num_classes == 2
    assert task.x_train.shape[1] == 2
    _, y = stacked(task)
    assert set(np.unique(y)) == {0, 1}


def test_blob_geometry_matches_circle():
    sep, k = 6.0, 4
    task = make_synthetic_task(
        "gaussian-blobs", 2000, seed=5, classes=k, dim=3, noise=0.3, separation=sep
    )
    x, y = stacked(task)
    means = blob_means(k, sep, 3)
    d = np.linalg.norm(x[:, None, :] - means[None, :, :], axis=2)
    nearest = d.argmin(axis=1)
    # noise = 0.3 against separation 6 leaves essentially no overlap.
    assert (nearest == y).mean() > 0.999
    # Trailing coordinates carry no structure beyond the noise.
    assert abs(x[:, 2].mean()) < 0.05
    assert abs(x[:, 2].std() - 0.3) < 0.05


def test_label_noise_flips_about_the_requested_fraction():
    sep, k = 6.0, 4
    task = make_synthetic_task(
        "label-noise-blobs", 4000, seed=7, classes=k, noise=0.3,
        separation=sep, flip_rate=0.2,
    )
    x, y = stacked(task)
    means = blob_means(k, sep, 2)
    clean = np.linalg.norm(x[:, None, :] - means[None, :, :], axis=2).argmin(axis=1)
    mismatch = (clean != y).mean()
    assert 0.15 < mismatch < 0.25
    # Flips always land on a different class, so every class stays populated.
    assert set(np.unique(y)) == set(range(k))


def test_moons_are_two_offset_half_circles():
    task = make_synthetic_task("noisy-moons", 1000, seed=2, noise=0.05)
    x, y = stacked(task)
    upper, lower = x[y == 0], x[y == 1]
    # Low-noise moons hug unit circles centred at (0, 0) and (1, 0.5).
    r_upper = np.linalg.norm(upper, axis=1)
    r_lower = np.linalg.norm(lower - np.array([1.0, 0.5]), axis=1)
    assert abs(np.median(r_upper) - 1.0) < 0.05
    assert abs(np.median(r_lower) - 1.0) < 0.05
    assert upper[:, 1].min() > -0.3 and lower[:, 1].max() < 0.8
