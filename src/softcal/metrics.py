"""Expected calibration error, hard and soft-binned, with analytic gradients.

Two reduction modes exist for every metric here:

  binned:       ( sum_j (S_j / N) * |A_j - C_j|^p )^(1/p)
  label-binned: ( (1/N) sum_i |A_{b(i)} - c_i|^p )^(1/p)

where S_j / C_j / A_j are per-bin mass, mean confidence and mean accuracy.
The label-binned form replaces the bin's mean confidence with each example's
own confidence, so by Jensen it always dominates the binned form for the same
partition.  The soft-binned variants use softmax memberships instead of
indicator assignments, which makes the metric differentiable in the
confidences; the gradient is taken through c_i = max_k softmax(logits_i)_k
(accuracies are treated as constants).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binning import BinningSpec, SoftBinningSpec, assign_hard, membership_derivative, soft_membership
from .data import PredictionSummary, _blocks, check_choice, check_real

BINNED = "binned"
LABEL_BINNED = "label-binned"
MODES = (BINNED, LABEL_BINNED)

# Mass floor used before dividing by soft bin mass; memberships are strictly
# positive so this only guards pathological underflow.
_MASS_FLOOR = 1e-30


@dataclass(frozen=True)
class BinStats:
    """Per-bin mass and means. mean_conf/mean_acc are NaN for empty hard bins
    and must not be consumed there; size is a float because soft mass is.
    mean_conf is None in soft label-binned reports, which never read it."""

    size: np.ndarray
    mean_conf: np.ndarray | None
    mean_acc: np.ndarray


@dataclass(frozen=True)
class EceReport:
    value: float
    bin_stats: BinStats


def bin_stats_hard(summary: PredictionSummary, spec: BinningSpec) -> tuple[BinStats, np.ndarray]:
    """Counts and means per hard bin, and the bin index of each example.
    Empty bins get size 0 and NaN means."""
    idx = assign_hard(summary.confidence, spec)
    m = spec.num_bins
    size = np.bincount(idx, minlength=m).astype(np.float64)
    conf_sum = np.bincount(idx, weights=summary.confidence, minlength=m)
    acc_sum = np.bincount(idx, weights=summary.accuracy, minlength=m)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_conf = np.where(size > 0, conf_sum / np.maximum(size, 1.0), np.nan)
        mean_acc = np.where(size > 0, acc_sum / np.maximum(size, 1.0), np.nan)
    return BinStats(size=size, mean_conf=mean_conf, mean_acc=mean_acc), idx


def ece(
    summary: PredictionSummary,
    spec: BinningSpec,
    p: float = 2.0,
    mode: str = BINNED,
) -> EceReport:
    """Hard-binned expected calibration error with an l_p reduction."""
    p = float(check_real("p", p, 1))
    check_choice("mode", mode, MODES)
    stats, bin_index = bin_stats_hard(summary, spec)
    n = summary.n
    occupied = stats.size > 0
    if mode == BINNED:
        gap = np.abs(stats.mean_acc[occupied] - stats.mean_conf[occupied])
        r = ((stats.size[occupied] / n) * gap**p).sum()
    else:
        per_bin_acc = stats.mean_acc[bin_index]
        r = (np.abs(per_bin_acc - summary.confidence) ** p).mean()
    return EceReport(value=float(r ** (1.0 / p)), bin_stats=stats)


def sb_ece(
    confidence: np.ndarray,
    accuracy: np.ndarray,
    spec: SoftBinningSpec,
    p: float = 2.0,
    mode: str = LABEL_BINNED,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> EceReport:
    """Soft-binned ECE, the differentiable relaxation of the equal-width
    metric, on per-example confidence and 0/1 accuracy arrays.

    out, when given, is a caller-owned pair of C-contiguous float64 (M, N)
    arrays: the first holds the memberships, the second the label-binned
    gaps |A_j - c_i|^p (unused in binned mode).  A repeated call of the same
    size then allocates no (M, N) array, and the next call overwrites both.
    The value is bit-identical to a call without out.
    """
    p = float(check_real("p", p, 1))
    check_choice("mode", mode, MODES)
    r, _, stats = _sb_ece_forward(confidence, accuracy, spec, p, mode, out)
    return EceReport(value=float(r ** (1.0 / p)), bin_stats=stats)


def _sb_ece_forward(
    confidence: np.ndarray, accuracy: np.ndarray, spec: SoftBinningSpec, p: float, mode: str,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray, BinStats]:
    """SB-ECE to the power p, the bins-major (M, N) memberships u and the
    soft bin statistics: the forward half shared by value and gradient.
    out is the (memberships, gaps) buffer pair of sb_ece."""
    u_out, d_out = (None, None) if out is None else out
    u = soft_membership(confidence, spec, out=u_out).T  # (M, N)
    s = u.sum(axis=1)
    sf = np.maximum(s, _MASS_FLOOR)
    # einsum rather than BLAS, whose threads spin-wait when the cores are busy.
    mean_conf = np.einsum("mn,n->m", u, confidence) / sf if mode == BINNED else None
    mean_acc = np.einsum("mn,n->m", u, accuracy) / sf
    stats = BinStats(size=s, mean_conf=mean_conf, mean_acc=mean_acc)
    n = confidence.shape[0]
    if mode == BINNED:
        gap = np.abs(stats.mean_acc - stats.mean_conf)
        r = ((stats.size / n) * gap**p).sum()
    else:
        d = np.empty(u.shape) if d_out is None else d_out

        def gaps(lo: int, hi: int) -> None:  # a column block of u * |A_j - c_i|^p
            b = np.subtract.outer(stats.mean_acc, confidence[lo:hi], out=d[:, lo:hi])
            if p == 2.0:
                np.square(b, out=b)  # |x|^2 is x^2 bit for bit
            else:
                np.abs(b, out=b)
                b **= p
            b *= u[:, lo:hi]

        _blocks(n, gaps)
        r = d.sum() / n
    return r, u, stats


def _pow_grad(gap_signed: np.ndarray, p: float) -> np.ndarray:
    """d|x|^p / dx = p |x|^{p-1} sign(x); sign(0) = 0 picks the subgradient."""
    return p * np.abs(gap_signed) ** (p - 1.0) * np.sign(gap_signed)


def confidence_logit_jacobian(summary: PredictionSummary) -> np.ndarray:
    """d c_i / d z_ik for c_i = softmax(z_i)_{argmax}, where z are the
    logits the summary was computed from (divided by its temperature).

    Returns an (N, K) array: row i is the softmax Jacobian row of the argmax
    coordinate.
    """
    probs = summary.probs
    n = summary.n
    onehot_pred = np.zeros_like(probs)
    onehot_pred[np.arange(n), summary.predicted] = 1.0
    return summary.confidence[:, None] * (onehot_pred - probs)


def entropy_logit_jacobian(summary: PredictionSummary) -> np.ndarray:
    """d h_i / d z_ik = -(p_ik h_i + p_ik ln p_ik), z as in
    confidence_logit_jacobian."""
    from scipy.special import xlogy  # scipy loads only for the AvUC family
    probs = summary.probs
    return -(probs * summary.entropy[:, None] + xlogy(probs, probs))


def sb_ece_grad(
    summary: PredictionSummary,
    spec: SoftBinningSpec,
    p: float = 2.0,
    mode: str = LABEL_BINNED,
) -> tuple[float, np.ndarray]:
    """SB-ECE value and gradient with respect to the logits, shape (N, K).

    Accuracies are constants; memberships, bin masses and bin means are all
    functions of the confidences and are differentiated exactly, then
    chained through confidence_logit_jacobian.
    """
    p = float(check_real("p", p, 1))
    check_choice("mode", mode, MODES)
    c = summary.confidence
    a = summary.accuracy
    n = summary.n
    r, u, stats = _sb_ece_forward(c, a, spec, p, mode)
    value = r ** (1.0 / p)
    if r <= 0.0:
        # Perfectly calibrated: a zero gradient, its zeros signed by the Jacobian.
        dc = np.zeros_like(c)
        return float(value), dc[:, None] * confidence_logit_jacobian(summary)

    # Bins-major (M, N) throughout: row j is bin j, column i example i.
    du = membership_derivative(u, c, spec)
    s, acc_mean = stats.size[:, None], stats.mean_acc[:, None]
    sf = np.maximum(s, _MASS_FLOOR)
    dmean_acc = du * (a - acc_mean) / sf
    if mode == LABEL_BINNED:
        gap = acc_mean - c
        ue = u * _pow_grad(gap, p)                       # dD/dA = -dD/dc
        g_bin = ue.sum(axis=1, keepdims=True)
        dr_dc = (du * np.abs(gap) ** p - ue + dmean_acc * g_bin).sum(axis=0) / n
    else:
        conf_mean = stats.mean_conf[:, None]
        gap = acc_mean - conf_mean                       # (M, 1)
        dmean_conf = (du * (c - conf_mean) + u) / sf
        dr_dc = (du * np.abs(gap) ** p + s * _pow_grad(gap, p) * (dmean_acc - dmean_conf)).sum(axis=0) / n

    dc = (1.0 / p) * r ** (1.0 / p - 1.0) * dr_dc
    return float(value), dc[:, None] * confidence_logit_jacobian(summary)


def eval_convention_ece(summary: PredictionSummary, num_bins: int = 15) -> float:
    """Reporting convention used everywhere: l2, equal-mass bins, binned mode."""
    return ece(summary, BinningSpec(scheme="equal-mass", num_bins=num_bins), p=2.0, mode=BINNED).value


def reliability_table(
    summary: PredictionSummary, spec: BinningSpec
) -> list[tuple[int, float | None, float | None, float]]:
    """Rows (bin, mean_conf, mean_acc, weight) for all M bins. Empty bins
    carry None means and weight 0."""
    stats, _ = bin_stats_hard(summary, spec)
    return [(j, float(stats.mean_conf[j]), float(stats.mean_acc[j]), float(stats.size[j] / summary.n))
            if stats.size[j] > 0 else (j, None, None, 0.0) for j in range(spec.num_bins)]
