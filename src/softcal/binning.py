"""Hard and soft binning of confidence values on [0, 1].

Hard schemes: equal-width (boundaries j/M, last bin closed on the right) and
equal-mass (order by confidence, ties by index, split at ceil(i*N/M)).  The
soft scheme is a temperature-controlled softmax over squared distances to
fixed equal-width bin centers; as the temperature goes to 0 it recovers the
hard equal-width assignment away from bin boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _blocks, check_choice, check_int, check_real

EQUAL_WIDTH = "equal-width"
EQUAL_MASS = "equal-mass"
SCHEMES = (EQUAL_WIDTH, EQUAL_MASS)

# The reduction modes of an ECE: see metrics.
BINNED = "binned"
LABEL_BINNED = "label-binned"
MODES = (BINNED, LABEL_BINNED)


@dataclass(frozen=True)
class BinningSpec:
    scheme: str = EQUAL_MASS
    num_bins: int = 15

    def __post_init__(self):
        check_choice("scheme", self.scheme, SCHEMES)
        check_int("num_bins", self.num_bins, 1)


@dataclass(frozen=True)
class SoftBinningSpec:
    """SB-ECE's settings: soft equal-width binning (centers (j + 0.5)/M,
    softmax temperature > 0), the l_p exponent p >= 1 and the reduction mode.
    Memberships read only num_bins and temperature."""

    num_bins: int = 15
    temperature: float = 0.01
    p: float = 2.0
    mode: str = LABEL_BINNED

    def __post_init__(self):
        check_int("num_bins", self.num_bins, 1)
        check_real("bin_temperature", self.temperature, 0, strict=True)
        object.__setattr__(self, "p", float(check_real("p", self.p, 1)))
        check_choice("mode", self.mode, MODES)

    @property
    def centers(self) -> np.ndarray:
        m = self.num_bins
        return (np.arange(m) + 0.5) / m


def _check_confidences(conf: np.ndarray) -> np.ndarray:
    conf = np.asarray(conf, dtype=np.float64)
    if conf.ndim != 1 or conf.size == 0:
        raise ValueError("confidences must be a non-empty 1-d array")
    if not np.all(np.isfinite(conf)) or conf.min() < 0.0 or conf.max() > 1.0:
        raise ValueError("confidences must be finite and lie in [0, 1]")
    return conf


def assign_hard(conf: np.ndarray, spec: BinningSpec) -> np.ndarray:
    """Assign each confidence to one of M bins; returns the int64 bin-index
    array, one entry in [0, M) per confidence.

    Equal-width: bins [j/M, (j+1)/M), the last bin closed at 1.
    Equal-mass:  order by (confidence, original index), so equal values
                 (0.0 and -0.0 among them) keep their input order, and split
                 the order at positions ceil(i*N/M); bin sizes differ by at
                 most 1.  The order comes from numpy's default sort, plus one
                 sort of the unique keys (run of equal values, index) when
                 neighbours tie.  Each bin's slice of the order is written
                 directly, so no N-long rank or bin array is built.
    """
    conf = _check_confidences(conf)
    n, m = conf.size, spec.num_bins
    if spec.scheme == EQUAL_WIDTH:
        idx = np.minimum((conf * m).astype(np.int64), m - 1)
    else:
        order = np.argsort(conf)
        sorted_conf = conf[order]
        if (sorted_conf[1:] == sorted_conf[:-1]).any():
            # Re-order by the unique key (run of equal values, index).
            key = np.concatenate(([0], np.cumsum(sorted_conf[1:] != sorted_conf[:-1])))
            key *= n
            key += order
            order = order[np.argsort(key)]
            del key
        del sorted_conf  # before idx, so the two are never live together
        idx = np.empty(n, dtype=np.int64)
        bounds = -(-np.arange(m + 1) * n // m)  # ceil(j*N/M)
        for j in range(m):
            idx[order[bounds[j]:bounds[j + 1]]] = j
    return idx


def soft_membership(conf, spec: SoftBinningSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Soft bin memberships softmax(-(c - centers)^2 / T).

    Accepts a scalar (returns shape (M,)) or a 1-d array (returns (N, M)).
    Rows sum to 1 and every entry is strictly positive.  The (N, M) result is
    a transposed view of a C-contiguous (M, N) array: `.T` gives bins-major.

    out, when given, is a caller-owned C-contiguous float64 (M, N) array
    that the memberships are built in, so a repeated call of the same size
    allocates nothing; the result is then a view of out, and the next call
    overwrites it.  The values are bit-identical to a call without out.
    """
    scalar = np.isscalar(conf) or np.ndim(conf) == 0
    c = np.atleast_1d(np.asarray(conf, dtype=np.float64))
    n, centers = c.shape[0], spec.centers
    g = np.empty((centers.shape[0], n)) if out is None else out

    def block(lo: int, hi: int) -> None:
        b = np.subtract.outer(centers, c[lo:hi], out=g[:, lo:hi])
        b **= 2
        b /= -spec.temperature
        b -= b.max(axis=0)
        np.exp(b, out=b)
        # As the whole array's sum(axis=0) adds: pairwise if n is 1, else row by row.
        b /= b.cumsum(axis=0)[-1] if b.shape[1] == 1 < n else b.sum(axis=0)

    _blocks(n, block)
    return g[:, 0] if scalar else g.T


def membership_derivative(u: np.ndarray, conf: np.ndarray, spec: SoftBinningSpec) -> np.ndarray:
    """du_ji / dc_i, bins-major (M, N), from the memberships u = soft_membership(conf).T.

    With g_j = -(c - xi_j)^2 / T and u = softmax(g):
    du_j/dc = u_j * (g'_j - sum_k u_k g'_k), g'_j = -2 (c - xi_j) / T.
    """
    gprime = -2.0 * (conf[None, :] - spec.centers[:, None]) / spec.temperature
    gprime -= (u * gprime).sum(axis=0)
    gprime *= u
    return gprime
