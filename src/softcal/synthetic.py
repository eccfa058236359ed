"""Synthetic 2-d classification tasks for desk-scale experiments.

gaussian-blobs:    K isotropic Gaussians with means on a circle; nearly
                   separable at the default spacing, Bayes accuracy ~ 1.
noisy-moons:       the classic interleaved half-circles with Gaussian noise;
                   2-d and binary, so classes and dim must be 2.
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
class TaskSpec:
    """The settings of make_synthetic_task but its seed, checked when built."""

    kind: str = "gaussian-blobs"
    n: int = 2000
    classes: int = 2
    dim: int = 2
    noise: float = 1.0
    separation: float = 6.0
    flip_rate: float = 0.2
    splits: tuple = (0.5, 0.25, 0.25)

    def __post_init__(self):
        check_choice("kind", self.kind, TASK_KINDS)
        for name, least in (("n", 100), ("classes", 2), ("dim", 2)):
            check_int(name, getattr(self, name), least)
        if self.kind == "noisy-moons" and (self.classes, self.dim) != (2, 2):
            name = "classes" if self.classes != 2 else "dim"
            raise ValueError(f"{name} must be 2 for noisy-moons, got {getattr(self, name)!r}")
        check_real("noise", self.noise, 0)
        check_real("separation", self.separation, 0)
        check_real("flip_rate", self.flip_rate, 0, 1)
        if not (isinstance(self.splits, (list, tuple)) and len(self.splits) == 3
                and abs(sum(check_real("splits entry", s, 0, 1, strict=True) for s in self.splits) - 1.0) <= 1e-9):
            raise ValueError(f"splits must be three positive fractions summing to 1, got {self.splits!r}")
        if min(self.split_sizes) < 1:
            raise ValueError(f"splits must leave train, val and test non-empty at n = {self.n}, "
                             f"got sizes {self.split_sizes}")

    @property
    def split_sizes(self) -> tuple[int, int, int]:
        """The train, val and test sizes: the first two fractions of n rounded, the rest test."""
        n_train = int(round(self.splits[0] * self.n))
        n_val = int(round(self.splits[1] * self.n))
        return n_train, n_val, self.n - n_train - n_val


@dataclass(frozen=True)
class SyntheticTask:
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


def _sample_blobs(spec: TaskSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    means = _blob_means(spec.classes, spec.separation, spec.dim)
    y = rng.integers(0, spec.classes, size=spec.n)
    x = means[y] + spec.noise * rng.standard_normal((spec.n, spec.dim))
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


def _flip_labels(y: np.ndarray, spec: TaskSpec, rng: np.random.Generator) -> np.ndarray:
    flip = rng.random(y.size) < spec.flip_rate
    offsets = rng.integers(1, spec.classes, size=y.size)
    return np.where(flip, (y + offsets) % spec.classes, y)


def make_synthetic_task(kind: str, n: int, seed: int, **settings) -> SyntheticTask:
    """Sample n examples of the task TaskSpec(kind, n, **settings) describes
    and split them train/val/test by its split sizes."""
    spec = TaskSpec(kind, n, **settings)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    if kind == "noisy-moons":
        x, y = _sample_moons(n, spec.noise, rng)
    else:
        x, y = _sample_blobs(spec, rng)
        if kind == "label-noise-blobs":
            y = _flip_labels(y, spec, rng)

    perm = rng.permutation(n)
    tr, va, te = np.split(perm, np.cumsum(spec.split_sizes[:2]))
    return SyntheticTask(
        num_classes=spec.classes,
        x_train=x[tr],
        y_train=y[tr],
        x_val=x[va],
        y_val=y[va],
        x_test=x[te],
        y_test=y[te],
    )
