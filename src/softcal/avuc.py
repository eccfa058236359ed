"""Accuracy-versus-uncertainty calibration losses.

The hard loss partitions a batch by accuracy and by an entropy threshold
kappa (entropy in nats; h <= kappa counts as certain) and rewards mass in
the accurate-certain and inaccurate-uncertain cells:

    loss = log(1 + (n_AU + n_IC) / (n_AC + n_IU))

with counts weighted by confidence and tanh(entropy).  The gradient-stopped
variant (AvUC-GS) has the same forward value but treats the confidence
multiplicands c_i and (1 - c_i) as constants in the backward pass, removing
the incentive to inflate confidence on inaccurate-certain examples.

The soft loss (S-AvUC) replaces the entropy indicator with a smooth
uncertainty score t in (0, 1) obtained by a temperature-scaled logistic on
the log-odds of the normalized entropy against the threshold, so only the
accuracy partition stays hard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PredictionSummary, check_real
from .metrics import confidence_logit_jacobian, entropy_logit_jacobian

# Normalized entropy is clamped to this interval before the log-odds.
_HSTAR_LO = 1e-7
_HSTAR_HI = 1.0 - 1e-7


class DegenerateBatchError(ValueError):
    """The denominator count (n_AC + n_IU) vanished, so the loss is undefined."""


@dataclass(frozen=True)
class AvucSpec:
    """kappa: entropy threshold (nats for the hard loss, normalized-entropy
    fraction in (0, 1) for the soft loss).  temperature: softness of the
    uncertainty score, required by the soft loss.  gradient_stopping: freeze
    the confidence multiplicands in the hard loss's backward pass."""

    kappa: float = 0.5
    temperature: float | None = None
    gradient_stopping: bool = False

    def __post_init__(self):
        check_real("kappa", self.kappa, 0, strict=True)
        if self.temperature is not None:
            check_real("soft_temperature", self.temperature, 0, strict=True)


@dataclass(frozen=True)
class AvucCounts:
    """Weighted mass per accuracy x certainty cell."""

    n_ac: float
    n_au: float
    n_ic: float
    n_iu: float

    @property
    def numerator(self) -> float:
        return self.n_au + self.n_ic

    @property
    def denominator(self) -> float:
        return self.n_ac + self.n_iu


def soft_uncertainty(hstar, kappa: float, temperature: float):
    """Smooth uncertainty score in (0, 1) from normalized entropy.

    t = logistic((1/T) * [logit(h*) - logit(kappa)]), with h* clamped to
    [1e-7, 1 - 1e-7].  t(kappa) = 0.5 for every temperature, and
    kappa = 0.5, T = 1 gives the identity t(h*) = h*.
    """
    from scipy.special import expit  # scipy loads only for the AvUC family
    check_real("kappa", kappa, 0, 1, strict=True)
    check_real("temperature", temperature, 0, strict=True)
    h = np.clip(np.asarray(hstar, dtype=np.float64), _HSTAR_LO, _HSTAR_HI)
    # Writing the argument as a difference of identical expressions makes
    # t(kappa) exactly 0.5 in floating point.
    z = (np.log(h / (1.0 - h)) - np.log(kappa / (1.0 - kappa))) / temperature
    out = expit(z)
    return float(out) if np.ndim(hstar) == 0 else out


def _soft_uncertainty_slope(hstar, t, temperature: float) -> np.ndarray:
    """dt/dh* from t = soft_uncertainty(h*, kappa, temperature)."""
    h_raw = np.asarray(hstar, dtype=np.float64)
    h = np.clip(h_raw, _HSTAR_LO, _HSTAR_HI)
    grad = t * (1.0 - t) / (temperature * h * (1.0 - h))
    return np.where((h_raw < _HSTAR_LO) | (h_raw > _HSTAR_HI), 0.0, grad)


def _loss_from(counts: AvucCounts) -> float:
    if counts.denominator <= 0.0:
        raise DegenerateBatchError(
            f"denominator count n_AC + n_IU = {counts.denominator}; batch has no "
            "accurate-certain or inaccurate-uncertain mass"
        )
    return float(np.log1p(counts.numerator / counts.denominator))


def _avuc_forward(summary: PredictionSummary, spec: AvucSpec):
    """Loss, counts, tanh(h) and the accurate and certain masks of the hard
    loss: the forward half shared by avuc and avuc_grad."""
    c = summary.confidence
    w = np.tanh(summary.entropy)
    a = summary.accuracy.astype(bool)
    certain = summary.entropy <= spec.kappa
    counts = AvucCounts(
        n_ac=float((c * (1.0 - w))[a & certain].sum()),
        n_au=float((c * w)[a & ~certain].sum()),
        n_ic=float(((1.0 - c) * (1.0 - w))[~a & certain].sum()),
        n_iu=float(((1.0 - c) * w)[~a & ~certain].sum()),
    )
    return _loss_from(counts), counts, w, a, certain


def avuc(summary: PredictionSummary, spec: AvucSpec) -> tuple[float, AvucCounts]:
    """Hard-threshold AvUC loss; h = kappa counts as certain."""
    value, counts, _, _, _ = _avuc_forward(summary, spec)
    return value, counts


def avuc_grad(summary: PredictionSummary, spec: AvucSpec) -> tuple[float, np.ndarray]:
    """AvUC value and gradient with respect to the logits, shape (N, K).

    With spec.gradient_stopping the confidence factors are held constant, so
    gradient flows only through tanh(h); the forward value is unchanged.
    """
    value, counts, w, a, certain = _avuc_forward(summary, spec)
    c = summary.confidence
    q, d = counts.numerator, counts.denominator
    dl_dq = 1.0 / (q + d)
    dl_dd = 1.0 / (q + d) - 1.0 / d

    # Per-example derivative of its cell term with respect to c_i and h_i,
    # scaled by the loss derivative for the count the cell feeds: AC and IU
    # feed the denominator, AU and IC the numerator.
    slope = np.where(a == certain, dl_dd, dl_dq)
    dh = np.where(certain, -slope, slope) * np.where(a, c, 1.0 - c) * (1.0 - w**2)
    grad = dh[:, None] * entropy_logit_jacobian(summary)
    if not spec.gradient_stopping:
        dc = np.where(a, slope, -slope) * np.where(certain, 1.0 - w, w)
        grad += dc[:, None] * confidence_logit_jacobian(summary)
    return value, grad


def _s_avuc_forward(summary: PredictionSummary, spec: AvucSpec):
    """Loss, counts, soft uncertainty t, tanh(h) and accuracy of S-AvUC: the
    forward half shared by s_avuc and s_avuc_grad.  Every example feeds
    both its numerator and its denominator cell, weighted by t and (1 - t)."""
    if spec.temperature is None:
        raise ValueError("s_avuc requires AvucSpec.temperature")
    t = soft_uncertainty(summary.norm_entropy, spec.kappa, spec.temperature)
    w = np.tanh(summary.entropy)
    a = summary.accuracy.astype(bool)
    tw = t * w
    cw = (1.0 - t) * (1.0 - w)
    counts = AvucCounts(
        n_ac=float(cw[a].sum()),
        n_au=float(tw[a].sum()),
        n_ic=float(cw[~a].sum()),
        n_iu=float(tw[~a].sum()),
    )
    return _loss_from(counts), counts, t, w, a


def s_avuc(summary: PredictionSummary, spec: AvucSpec) -> tuple[float, AvucCounts]:
    """Soft AvUC: entropy indicator replaced by the smooth uncertainty score."""
    value, counts, _, _, _ = _s_avuc_forward(summary, spec)
    return value, counts


def s_avuc_grad(summary: PredictionSummary, spec: AvucSpec) -> tuple[float, np.ndarray]:
    """S-AvUC value and gradient with respect to the logits, shape (N, K)."""
    value, counts, t, w, a = _s_avuc_forward(summary, spec)
    sech2 = 1.0 - w**2
    dt_dh = _soft_uncertainty_slope(summary.norm_entropy, t, spec.temperature) / np.log(summary.num_classes)
    q, d = counts.numerator, counts.denominator
    dl_dq = 1.0 / (q + d)
    dl_dd = 1.0 / (q + d) - 1.0 / d

    # d(t w)/dh and d((1-t)(1-w))/dh; accurate examples feed t*w into the
    # numerator and (1-t)(1-w) into the denominator, inaccurate the reverse.
    d_tw = dt_dh * w + t * sech2
    d_cw = -dt_dh * (1.0 - w) - (1.0 - t) * sech2
    dh = np.where(a, dl_dq * d_tw + dl_dd * d_cw, dl_dq * d_cw + dl_dd * d_tw)

    grad = dh[:, None] * entropy_logit_jacobian(summary)
    return value, grad
