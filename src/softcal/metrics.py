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
from scipy.special import xlogy

from .binning import BinningSpec, HardAssignment, SoftBinningSpec, assign_hard, soft_membership, soft_membership_grad
from .data import PredictionSummary

BINNED = "binned"
LABEL_BINNED = "label-binned"
_MODES = (BINNED, LABEL_BINNED)

# Mass floor used before dividing by soft bin mass; memberships are strictly
# positive so this only guards pathological underflow.
_MASS_FLOOR = 1e-30


@dataclass(frozen=True)
class BinStats:
    """Per-bin mass and means. mean_conf/mean_acc are NaN for empty hard bins
    and must not be consumed there; size is a float because soft mass is."""

    size: np.ndarray
    mean_conf: np.ndarray
    mean_acc: np.ndarray

    @property
    def num_bins(self) -> int:
        return self.size.shape[0]


@dataclass(frozen=True)
class EceReport:
    value: float
    p: float
    mode: str
    num_bins: int
    scheme: str
    n: int
    bin_stats: BinStats


def check_p(p: float) -> float:
    """The l_p exponent as a float; raises ValueError unless finite and >= 1."""
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    return p


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    return mode


def bin_stats_hard(summary: PredictionSummary, spec: BinningSpec) -> tuple[BinStats, HardAssignment]:
    """Counts and means per hard bin. Empty bins get size 0 and NaN means."""
    assignment = assign_hard(summary.confidence, spec)
    m = spec.num_bins
    idx = assignment.bin_index
    size = np.bincount(idx, minlength=m).astype(np.float64)
    conf_sum = np.bincount(idx, weights=summary.confidence, minlength=m)
    acc_sum = np.bincount(idx, weights=summary.accuracy, minlength=m)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_conf = np.where(size > 0, conf_sum / np.maximum(size, 1.0), np.nan)
        mean_acc = np.where(size > 0, acc_sum / np.maximum(size, 1.0), np.nan)
    return BinStats(size=size, mean_conf=mean_conf, mean_acc=mean_acc), assignment


def bin_stats_soft(summary: PredictionSummary, spec: SoftBinningSpec) -> BinStats:
    """Soft-mass analogue: S_j = sum_i u_ij, means weighted by membership."""
    return sb_ece_arrays(summary.confidence, summary.accuracy, spec, mode=BINNED).bin_stats


def ece(
    summary: PredictionSummary,
    spec: BinningSpec,
    p: float = 2.0,
    mode: str = BINNED,
) -> EceReport:
    """Hard-binned expected calibration error with an l_p reduction."""
    p = check_p(p)
    mode = _check_mode(mode)
    stats, assignment = bin_stats_hard(summary, spec)
    n = summary.n
    occupied = stats.size > 0
    if mode == BINNED:
        gap = np.abs(stats.mean_acc[occupied] - stats.mean_conf[occupied])
        r = ((stats.size[occupied] / n) * gap**p).sum()
    else:
        per_bin_acc = stats.mean_acc[assignment.bin_index]
        r = (np.abs(per_bin_acc - summary.confidence) ** p).mean()
    return EceReport(
        value=float(r ** (1.0 / p)),
        p=p,
        mode=mode,
        num_bins=spec.num_bins,
        scheme=spec.scheme,
        n=n,
        bin_stats=stats,
    )


def sb_ece(
    summary: PredictionSummary,
    spec: SoftBinningSpec,
    p: float = 2.0,
    mode: str = LABEL_BINNED,
) -> EceReport:
    """Soft-binned ECE: differentiable relaxation of the equal-width metric."""
    return sb_ece_arrays(summary.confidence, summary.accuracy, spec, p=p, mode=mode)


def sb_ece_arrays(
    confidence: np.ndarray,
    accuracy: np.ndarray,
    spec: SoftBinningSpec,
    p: float = 2.0,
    mode: str = LABEL_BINNED,
) -> EceReport:
    """sb_ece on per-example confidence and 0/1 accuracy arrays."""
    p = check_p(p)
    mode = _check_mode(mode)
    u = soft_membership(confidence, spec).T  # (M, N)
    s = u.sum(axis=1)
    sf = np.maximum(s, _MASS_FLOOR)
    # einsum rather than BLAS, whose threads spin-wait when the cores are busy.
    mean_conf = np.einsum("mn,n->m", u, confidence) / sf
    mean_acc = np.einsum("mn,n->m", u, accuracy) / sf
    stats = BinStats(size=s, mean_conf=mean_conf, mean_acc=mean_acc)
    n = confidence.shape[0]
    if mode == BINNED:
        gap = np.abs(stats.mean_acc - stats.mean_conf)
        r = ((stats.size / n) * gap**p).sum()
    else:
        d = np.subtract.outer(stats.mean_acc, confidence)
        np.abs(d, out=d)
        d **= p
        d *= u
        r = d.sum() / n
    return EceReport(
        value=float(r ** (1.0 / p)),
        p=p,
        mode=mode,
        num_bins=spec.num_bins,
        scheme="soft-equal-width",
        n=n,
        bin_stats=stats,
    )


def _pow_grad(gap_signed: np.ndarray, p: float) -> np.ndarray:
    """d|x|^p / dx = p |x|^{p-1} sign(x); sign(0) = 0 picks the subgradient."""
    return p * np.abs(gap_signed) ** (p - 1.0) * np.sign(gap_signed)


def sb_ece_confidence_grad(
    summary: PredictionSummary,
    spec: SoftBinningSpec,
    p: float = 2.0,
    mode: str = LABEL_BINNED,
) -> tuple[float, np.ndarray]:
    """SB-ECE value and its gradient with respect to each confidence c_i.

    Accuracies are constants; memberships, bin masses and bin means are all
    functions of the confidences and are differentiated exactly.
    """
    p = check_p(p)
    mode = _check_mode(mode)
    c = summary.confidence
    a = summary.accuracy
    n = summary.n
    u = soft_membership(c, spec)            # (N, M)
    du = soft_membership_grad(c, spec)      # (N, M), d u_ij / d c_i
    s = u.sum(axis=0)
    sf = np.maximum(s, _MASS_FLOOR)
    acc_mean = (u * a[:, None]).sum(axis=0) / sf

    if mode == LABEL_BINNED:
        gap = acc_mean[None, :] - c[:, None]             # (N, M)
        d = np.abs(gap) ** p
        r = (u * d).sum() / n
        e = _pow_grad(gap, p)                            # dD/dA = -dD/dc
        g_bin = (u * e).sum(axis=0)                      # (M,)
        dmean_acc = du * (a[:, None] - acc_mean[None, :]) / sf[None, :]
        dr_dc = ((du * d).sum(axis=1) - (u * e).sum(axis=1) + (dmean_acc * g_bin[None, :]).sum(axis=1)) / n
    else:
        conf_mean = (u * c[:, None]).sum(axis=0) / sf
        gap = acc_mean - conf_mean                       # (M,)
        d = np.abs(gap) ** p
        r = ((s / n) * d).sum()
        e = _pow_grad(gap, p)
        dmean_acc = du * (a[:, None] - acc_mean[None, :]) / sf[None, :]
        dmean_conf = (du * (c[:, None] - conf_mean[None, :]) + u) / sf[None, :]
        dr_dc = (du * d[None, :] + (s * e)[None, :] * (dmean_acc - dmean_conf)).sum(axis=1) / n

    value = r ** (1.0 / p)
    if r <= 0.0:
        # Perfectly calibrated: the objective sits at its minimum of 0.
        return float(value), np.zeros_like(c)
    dvalue_dr = (1.0 / p) * r ** (1.0 / p - 1.0)
    return float(value), dvalue_dr * dr_dc


def confidence_logit_jacobian(summary: PredictionSummary) -> np.ndarray:
    """d c_i / d logits_ik for c_i = softmax(logits_i / t)_{argmax}.

    Returns an (N, K) array: row i is the softmax Jacobian row of the argmax
    coordinate, including the 1/t factor from temperature scaling.
    """
    probs = summary.probs
    n = summary.n
    onehot_pred = np.zeros_like(probs)
    onehot_pred[np.arange(n), summary.predicted] = 1.0
    return (summary.confidence[:, None] * (onehot_pred - probs)) / summary.temperature


def entropy_logit_jacobian(summary: PredictionSummary) -> np.ndarray:
    """d h_i / d logits_ik = -(p_ik h_i + p_ik ln p_ik) / t."""
    probs = summary.probs
    return -(probs * summary.entropy[:, None] + xlogy(probs, probs)) / summary.temperature


def sb_ece_grad(
    summary: PredictionSummary,
    spec: SoftBinningSpec,
    p: float = 2.0,
    mode: str = LABEL_BINNED,
) -> tuple[float, np.ndarray]:
    """SB-ECE value and gradient with respect to the logits, shape (N, K)."""
    value, dc = sb_ece_confidence_grad(summary, spec, p, mode)
    return value, dc[:, None] * confidence_logit_jacobian(summary)


def eval_convention_ece(summary: PredictionSummary, num_bins: int = 15) -> float:
    """Reporting convention used everywhere: l2, equal-mass bins, binned mode."""
    return ece(summary, BinningSpec(scheme="equal-mass", num_bins=num_bins), p=2.0, mode=BINNED).value


def reliability_table(
    summary: PredictionSummary, spec: BinningSpec
) -> tuple[list[tuple[int, float | None, float | None, float]], dict]:
    """Rows (bin, mean_conf, mean_acc, weight) for all M bins, plus overall
    mean confidence/accuracy. Empty bins carry None means and weight 0."""
    stats, _ = bin_stats_hard(summary, spec)
    n = summary.n
    rows = []
    for j in range(spec.num_bins):
        if stats.size[j] > 0:
            rows.append((j, float(stats.mean_conf[j]), float(stats.mean_acc[j]), float(stats.size[j] / n)))
        else:
            rows.append((j, None, None, 0.0))
    overall = {
        "mean_confidence": float(summary.confidence.mean()),
        "accuracy": float(summary.accuracy.mean()),
        "n": n,
    }
    return rows, overall
