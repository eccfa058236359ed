"""Hard and soft binning of confidence values on [0, 1].

Hard schemes: equal-width (boundaries j/M, last bin closed on the right) and
equal-mass (stable sort by confidence, split at ceil(i*N/M)).  The soft
scheme is a temperature-controlled softmax over squared distances to fixed
equal-width bin centers; as the temperature goes to 0 it recovers the hard
equal-width assignment away from bin boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EQUAL_WIDTH = "equal-width"
EQUAL_MASS = "equal-mass"
_SCHEMES = (EQUAL_WIDTH, EQUAL_MASS)


@dataclass(frozen=True)
class BinningSpec:
    scheme: str = EQUAL_MASS
    num_bins: int = 15

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.num_bins < 1:
            raise ValueError(f"num_bins must be >= 1, got {self.num_bins}")


@dataclass(frozen=True)
class SoftBinningSpec:
    """Soft equal-width binning: centers (j + 0.5)/M, softmax temperature > 0."""

    num_bins: int = 15
    temperature: float = 0.01

    def __post_init__(self):
        if self.num_bins < 1:
            raise ValueError(f"num_bins must be >= 1, got {self.num_bins}")
        if not np.isfinite(self.temperature) or self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")

    @property
    def centers(self) -> np.ndarray:
        m = self.num_bins
        return (np.arange(m) + 0.5) / m


@dataclass(frozen=True)
class HardAssignment:
    """Result of a hard binning pass.

    bin_index:      per-example bin in [0, M)
    boundaries:     M + 1 non-decreasing reals spanning [0, 1]
    has_empty_bins: True when some bin received no examples (possible for
                    equal-mass with N < M, or equal-width with sparse data)
    """

    bin_index: np.ndarray
    boundaries: np.ndarray
    has_empty_bins: bool


def _check_confidences(conf: np.ndarray) -> np.ndarray:
    conf = np.asarray(conf, dtype=np.float64)
    if conf.ndim != 1 or conf.size == 0:
        raise ValueError("confidences must be a non-empty 1-d array")
    if not np.all(np.isfinite(conf)) or conf.min() < 0.0 or conf.max() > 1.0:
        raise ValueError("confidences must be finite and lie in [0, 1]")
    return conf


def assign_hard(conf: np.ndarray, spec: BinningSpec) -> HardAssignment:
    """Assign each confidence to one of M bins.

    Equal-width: bins [j/M, (j+1)/M), the last bin closed at 1.
    Equal-mass:  stable sort by (confidence, original index), split the sorted
                 order at positions ceil(i*N/M); bin sizes differ by at most 1.
    """
    conf = _check_confidences(conf)
    n, m = conf.size, spec.num_bins
    if spec.scheme == EQUAL_WIDTH:
        idx = np.minimum((conf * m).astype(np.int64), m - 1)
        boundaries = np.arange(m + 1, dtype=np.float64) / m
    else:
        order = np.argsort(conf, kind="stable")
        splits = np.ceil(np.arange(1, m) * n / m).astype(np.int64)
        # Sorted rank r lands in bin sum(splits <= r), the ceil-split rule.
        ranks = np.empty(n, dtype=np.int64)
        ranks[order] = np.arange(n)
        idx = np.searchsorted(splits, ranks, side="right")
        csort = conf[order]
        boundaries = np.empty(m + 1, dtype=np.float64)
        boundaries[0], boundaries[m] = 0.0, 1.0
        for j, s in enumerate(splits, start=1):
            if s <= 0:
                boundaries[j] = 0.0
            elif s >= n:
                boundaries[j] = 1.0
            else:
                boundaries[j] = 0.5 * (csort[s - 1] + csort[s])
        boundaries = np.maximum.accumulate(boundaries)
    sizes = np.bincount(idx, minlength=m)
    return HardAssignment(
        bin_index=idx,
        boundaries=boundaries,
        has_empty_bins=bool((sizes == 0).any()),
    )


def soft_membership(conf, spec: SoftBinningSpec) -> np.ndarray:
    """Soft bin memberships softmax(-(c - centers)^2 / T).

    Accepts a scalar (returns shape (M,)) or a 1-d array (returns (N, M)).
    Rows sum to 1 and every entry is strictly positive.  The (N, M) result is
    a transposed view of a C-contiguous (M, N) array: `.T` gives bins-major.
    """
    scalar = np.isscalar(conf) or np.ndim(conf) == 0
    c = np.atleast_1d(np.asarray(conf, dtype=np.float64))
    g = np.subtract.outer(spec.centers, c)
    g **= 2
    g /= -spec.temperature
    g -= g.max(axis=0)
    np.exp(g, out=g)
    g /= g.sum(axis=0)
    return g[:, 0] if scalar else g.T


def soft_membership_grad(conf, spec: SoftBinningSpec) -> np.ndarray:
    """d membership / d confidence, same shape conventions as soft_membership.

    With g_j = -(c - xi_j)^2 / T and u = softmax(g):
    du_j/dc = u_j * (g'_j - sum_k u_k g'_k), g'_j = -2 (c - xi_j) / T.
    """
    scalar = np.isscalar(conf) or np.ndim(conf) == 0
    c = np.atleast_1d(np.asarray(conf, dtype=np.float64))
    u = np.atleast_2d(soft_membership(c, spec))
    gprime = -2.0 * (c[:, None] - spec.centers[None, :]) / spec.temperature
    mean_gprime = (u * gprime).sum(axis=1, keepdims=True)
    du = u * (gprime - mean_gprime)
    return du[0] if scalar else du
