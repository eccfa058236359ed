"""Synthetic 2-d classification tasks for desk-scale experiments.

gaussian-blobs:    K isotropic Gaussians with means on a circle; nearly
                   separable at the default spacing, Bayes accuracy ~ 1.
noisy-moons:       the classic interleaved half-circles with Gaussian noise.
label-noise-blobs: gaussian-blobs with labels flipped to a random other
                   class with the given rate; with well-separated blobs the
                   Bayes accuracy is about 1 - flip_rate, so a calibrated
                   model should not be confident beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_choice, check_int, check_real

TASK_KINDS = ("gaussian-blobs", "noisy-moons", "label-noise-blobs")


@dataclass(frozen=True)
class SyntheticTask:
    kind: str
    num_classes: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def _blob_means(classes: int, separation: float, dim: int) -> np.ndarray:
    # Means on a circle in the first two coordinates, spaced so adjacent
    # means sit `separation` apart.
    radius = separation / (2.0 * np.sin(np.pi / classes)) if classes > 1 else 0.0
    angles = 2.0 * np.pi * np.arange(classes) / classes
    means = np.zeros((classes, dim))
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    return means


def _sample_blobs(
    n: int, classes: int, dim: int, noise: float, separation: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    means = _blob_means(classes, separation, dim)
    y = rng.integers(0, classes, size=n)
    x = means[y] + noise * rng.standard_normal((n, dim))
    return x, y


def _sample_moons(n: int, noise: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    n_upper = n // 2
    n_lower = n - n_upper
    t_upper = np.pi * rng.random(n_upper)
    t_lower = np.pi * rng.random(n_lower)
    x = np.concatenate(
        [
            np.column_stack([np.cos(t_upper), np.sin(t_upper)]),
            np.column_stack([1.0 - np.cos(t_lower), 0.5 - np.sin(t_lower)]),
        ]
    )
    y = np.concatenate([np.zeros(n_upper, dtype=np.int64), np.ones(n_lower, dtype=np.int64)])
    x += noise * rng.standard_normal(x.shape)
    perm = rng.permutation(n)
    return x[perm], y[perm]


def _flip_labels(
    y: np.ndarray, classes: int, flip_rate: float, rng: np.random.Generator
) -> np.ndarray:
    flip = rng.random(y.size) < flip_rate
    offsets = rng.integers(1, classes, size=y.size)
    return np.where(flip, (y + offsets) % classes, y)


def check_task_args(
    kind: str, n: int, classes: int, dim: int, noise: float, separation: float, flip_rate: float, splits: tuple
) -> None:
    """Raise the ValueError make_synthetic_task gives for these arguments, if any."""
    check_choice("kind", kind, TASK_KINDS)
    for name, value, least in (("n", n, 100), ("classes", classes, 2), ("dim", dim, 2)):
        check_int(name, value, least)
    check_real("noise", noise, 0)
    check_real("separation", separation, 0)
    check_real("flip_rate", flip_rate, 0, 1)
    if not (isinstance(splits, (list, tuple)) and len(splits) == 3
            and abs(sum(check_real("splits entry", s, 0, 1, strict=True) for s in splits) - 1.0) <= 1e-9):
        raise ValueError(f"splits must be three positive fractions summing to 1, got {splits!r}")


def make_synthetic_task(
    kind: str,
    n: int,
    seed: int,
    classes: int = 2,
    dim: int = 2,
    noise: float = 1.0,
    separation: float = 6.0,
    flip_rate: float = 0.2,
    splits: tuple[float, float, float] = (0.5, 0.25, 0.25),
) -> SyntheticTask:
    """Sample n examples and split them train/val/test by the given fractions."""
    check_task_args(kind, n, classes, dim, noise, separation, flip_rate, splits)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    if kind == "noisy-moons":
        classes = 2
        x, y = _sample_moons(n, noise, rng)
    else:
        x, y = _sample_blobs(n, classes, dim, noise, separation, rng)
        if kind == "label-noise-blobs":
            y = _flip_labels(y, classes, flip_rate, rng)

    n_train = int(round(splits[0] * n))
    n_val = int(round(splits[1] * n))
    perm = rng.permutation(n)
    tr, va, te = perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]
    return SyntheticTask(
        kind=kind,
        num_classes=classes,
        x_train=x[tr],
        y_train=y[tr],
        x_val=x[va],
        y_val=y[va],
        x_test=x[te],
        y_test=y[te],
    )
