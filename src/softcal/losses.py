"""Primary training losses and the composite primary + secondary objective.

All losses are means over the batch and return both the scalar value and the
analytic gradient with respect to the logits.  The composite adds
beta * secondary + lam * ||weights||^2; the L2 term lives in parameter space,
so its gradient is the trainer's job and only its value appears here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .avuc import AvucSpec, avuc_grad, s_avuc_grad
from .binning import SoftBinningSpec
from .data import EvalSet, PredictionSummary, summarize
from .metrics import BINNED, LABEL_BINNED, sb_ece_grad

PRIMARIES = ("nll", "focal", "mse")
SECONDARIES = ("none", "sb-ece", "avuc", "avuc-gs", "s-avuc")


@dataclass(frozen=True)
class LossSpec:
    """Composite-loss configuration.

    gamma is the focal exponent (gamma = 0 reduces focal to NLL exactly).
    bins / bin_temperature / p / mode parameterize the SB-ECE secondary;
    kappa / soft_temperature parameterize the AvUC family.  lam weights an
    L2 penalty on network weights (never biases).
    """

    primary: str = "nll"
    gamma: float = 3.0
    secondary: str = "none"
    beta: float = 0.0
    lam: float = 0.0
    bins: int = 15
    bin_temperature: float = 0.01
    p: float = 2.0
    mode: str = LABEL_BINNED
    kappa: float = 0.5
    soft_temperature: float = 1.0

    def __post_init__(self):
        if self.primary not in PRIMARIES:
            raise ValueError(f"primary must be one of {PRIMARIES}, got {self.primary!r}")
        if self.secondary not in SECONDARIES:
            raise ValueError(f"secondary must be one of {SECONDARIES}, got {self.secondary!r}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.beta < 0 or self.lam < 0:
            raise ValueError("beta and lam must be >= 0")
        if self.mode not in (BINNED, LABEL_BINNED):
            raise ValueError(f"mode must be binned or label-binned, got {self.mode!r}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins}")
        if self.bin_temperature <= 0 or self.soft_temperature <= 0:
            raise ValueError("bin_temperature and soft_temperature must be > 0")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if self.secondary == "s-avuc" and not self.kappa < 1:
            # S-AvUC thresholds normalized entropy, which lies in [0, 1].
            raise ValueError(f"kappa must lie in (0, 1) for s-avuc, got {self.kappa}")
        if (self.beta == 0) != (self.secondary == "none"):
            warnings.warn(
                f"beta = {self.beta} with secondary = {self.secondary!r}: the "
                "secondary term is inert or unweighted",
                stacklevel=2,
            )


@dataclass(frozen=True)
class LossValueGrad:
    """value = primary_value + beta * secondary_value + lam * l2_value."""

    value: float
    grad_logits: np.ndarray
    primary_value: float
    secondary_value: float
    l2_value: float


def _label_onehot(summary: PredictionSummary, labels: np.ndarray) -> np.ndarray:
    onehot = np.zeros_like(summary.probs)
    onehot[np.arange(summary.n), labels] = 1.0
    return onehot


def _log_probs(summary: PredictionSummary) -> np.ndarray:
    # log-softmax recomputed from probabilities would lose precision for
    # saturated rows; the probs here come from a max-subtracted softmax, so
    # log(p) is accurate except at hard zeros, which we floor.
    return np.log(np.maximum(summary.probs, 1e-300))


def nll(summary: PredictionSummary, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log likelihood; gradient is (probs - onehot) / (N t)."""
    n = summary.n
    logp = _log_probs(summary)[np.arange(n), labels]
    value = float(-logp.mean())
    grad = (summary.probs - _label_onehot(summary, labels)) / (n * summary.temperature)
    return value, grad


def focal(summary: PredictionSummary, labels: np.ndarray, gamma: float) -> tuple[float, np.ndarray]:
    """Mean focal loss -(1 - p_y)^gamma log p_y."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    n = summary.n
    rows = np.arange(n)
    p_y = summary.probs[rows, labels]
    omp = 1.0 - p_y
    logp = _log_probs(summary)[rows, labels]
    value = float(-(omp**gamma * logp).mean())

    # dL_i/dz_k = [gamma (1-p)^{g-1} log p - (1-p)^g / p] * p (delta_ky - p_k) / t
    if gamma == 0.0:
        coef = -1.0 / np.maximum(p_y, 1e-300)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = gamma * omp ** (gamma - 1.0) * logp
        t1 = np.where(omp > 0, t1, 0.0)  # limit of the saturated case
        coef = t1 - omp**gamma / np.maximum(p_y, 1e-300)
    onehot = _label_onehot(summary, labels)
    jac = (p_y[:, None] * (onehot - summary.probs)) / summary.temperature
    grad = coef[:, None] * jac / n
    return value, grad


def mse(summary: PredictionSummary, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Multiclass Brier score: mean over examples of sum_k (p_k - y_k)^2."""
    n = summary.n
    r = summary.probs - _label_onehot(summary, labels)
    value = float((r**2).sum(axis=1).mean())
    s = (r * summary.probs).sum(axis=1, keepdims=True)
    grad = 2.0 * summary.probs * (r - s) / (n * summary.temperature)
    return value, grad


def primary_loss(
    summary: PredictionSummary, labels: np.ndarray, spec: LossSpec
) -> tuple[float, np.ndarray]:
    if spec.primary == "nll":
        return nll(summary, labels)
    if spec.primary == "focal":
        return focal(summary, labels, spec.gamma)
    return mse(summary, labels)


def secondary_loss(summary: PredictionSummary, spec: LossSpec) -> tuple[float, np.ndarray]:
    """Value and logit gradient of the configured secondary; raises
    DegenerateBatchError when an AvUC denominator vanishes."""
    if spec.secondary == "sb-ece":
        sbspec = SoftBinningSpec(num_bins=spec.bins, temperature=spec.bin_temperature)
        return sb_ece_grad(summary, sbspec, p=spec.p, mode=spec.mode)
    if spec.secondary in ("avuc", "avuc-gs"):
        aspec = AvucSpec(kappa=spec.kappa, gradient_stopping=spec.secondary == "avuc-gs")
        return avuc_grad(summary, aspec)
    if spec.secondary == "s-avuc":
        aspec = AvucSpec(kappa=spec.kappa, temperature=spec.soft_temperature)
        return s_avuc_grad(summary, aspec)
    raise ValueError(f"no secondary loss configured: {spec.secondary!r}")


def composite_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    spec: LossSpec,
    weight_sq_norm: float = 0.0,
) -> LossValueGrad:
    """Primary + beta * secondary + lam * ||W||^2 at temperature 1.

    grad_logits covers the primary and secondary terms; the L2 gradient is
    parameter-space and is added by the trainer.
    """
    summary = summarize(EvalSet(logits, labels))
    pv, pg = primary_loss(summary, labels, spec)
    if spec.secondary != "none" and spec.beta != 0.0:
        sv, sg = secondary_loss(summary, spec)
    else:
        sv, sg = 0.0, np.zeros_like(pg)
    value = pv + spec.beta * sv + spec.lam * weight_sq_norm
    return LossValueGrad(
        value=float(value),
        grad_logits=pg + spec.beta * sg,
        primary_value=float(pv),
        secondary_value=float(sv),
        l2_value=float(weight_sq_norm),
    )
