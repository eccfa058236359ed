"""Primary training losses and the composite primary + secondary objective.

All losses are means over the batch and return both the scalar value and the
analytic gradient with respect to the logits.  The composite adds
beta * secondary + lam * ||weights||^2; the L2 term lives in parameter space,
so its gradient is the trainer's job and only its value appears here.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .avuc import avuc_grad, s_avuc_grad
from .binning import SoftBinningSpec
from .data import PredictionSummary, check_choice, check_int, check_real, summarize_arrays
from .metrics import LABEL_BINNED, MODES, sb_ece_grad

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
        check_choice("primary", self.primary, PRIMARIES)
        check_choice("secondary", self.secondary, SECONDARIES)
        for name in ("gamma", "beta", "lam"):
            check_real(name, getattr(self, name), 0)
        check_choice("mode", self.mode, MODES)
        check_real("p", self.p, 1)
        check_int("bins", self.bins, 1)
        for name in ("bin_temperature", "kappa", "soft_temperature"):
            check_real(name, getattr(self, name), 0, strict=True)
        if self.secondary == "s-avuc":
            # S-AvUC thresholds normalized entropy, which lies in [0, 1].
            check_real("kappa", self.kappa, 0, 1, strict=True, suffix=" for s-avuc")
        if (self.beta == 0) != (self.secondary == "none"):
            level = 3  # the caller of __init__, or of dataclasses.replace if that called it
            while sys._getframe(level - 1).f_globals.get("__name__") == "dataclasses":
                level += 1
            warnings.warn(
                f"beta = {float(self.beta)} with secondary = {self.secondary!r}: the "
                "secondary term is inert or unweighted",
                stacklevel=level,
            )


@dataclass(frozen=True)
class LossValueGrad:
    """value = primary_value + beta * secondary_value + lam * l2_value."""

    value: float
    grad_logits: np.ndarray
    primary_value: float
    secondary_value: float
    l2_value: float


def nll(summary: PredictionSummary, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log likelihood; gradient is (probs - onehot) / N."""
    n = summary.n
    rows = np.arange(n)
    # The probs come from a max-subtracted softmax, so log(p) is accurate
    # except at hard zeros, which are floored.
    value = float(-np.log(np.maximum(summary.probs[rows, labels], 1e-300)).mean())
    grad = summary.probs.copy()  # probs - onehot
    grad[rows, labels] -= 1.0
    grad /= n
    return value, grad


def focal(summary: PredictionSummary, labels: np.ndarray, gamma: float) -> tuple[float, np.ndarray]:
    """Mean focal loss -(1 - p_y)^gamma log p_y."""
    check_real("gamma", gamma, 0)
    n = summary.n
    rows = np.arange(n)
    p_y = summary.probs[rows, labels]
    omp = 1.0 - p_y
    logp = np.log(np.maximum(p_y, 1e-300))
    value = float(-(omp**gamma * logp).mean())

    # dL_i/dz_k = [gamma (1-p)^{g-1} log p - (1-p)^g / p] * p (delta_ky - p_k)
    if gamma == 0.0:
        coef = -1.0 / np.maximum(p_y, 1e-300)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = gamma * omp ** (gamma - 1.0) * logp
        t1 = np.where(omp > 0, t1, 0.0)  # limit of the saturated case
        coef = t1 - omp**gamma / np.maximum(p_y, 1e-300)
    # onehot - probs as 0.0 - probs, which keeps the sign of zero entries
    # that -probs would flip, plus 1 at the labels.
    delta = 0.0 - summary.probs
    delta[rows, labels] += 1.0
    jac = p_y[:, None] * delta
    grad = coef[:, None] * jac / n
    return value, grad


def mse(summary: PredictionSummary, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Multiclass Brier score: mean over examples of sum_k (p_k - y_k)^2."""
    n = summary.n
    r = summary.probs.copy()  # probs - onehot
    r[np.arange(n), labels] -= 1.0
    value = float((r**2).sum(axis=1).mean())
    s = (r * summary.probs).sum(axis=1, keepdims=True)
    grad = 2.0 * summary.probs * (r - s) / n
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
        return avuc_grad(summary, spec.kappa, spec.secondary == "avuc-gs")
    if spec.secondary == "s-avuc":
        return s_avuc_grad(summary, spec.kappa, spec.soft_temperature)
    raise ValueError(f"no secondary loss configured: {spec.secondary!r}")


def composite_loss(
    logits: np.ndarray, labels: np.ndarray, spec: LossSpec, weight_sq_norm: float = 0.0
) -> LossValueGrad:
    """Primary + beta * secondary + lam * ||W||^2 at temperature 1, on logits
    and labels checked as summarize_arrays requires.

    grad_logits covers the primary and secondary terms; the L2 gradient is
    parameter-space and is added by the trainer.
    """
    summary = summarize_arrays(logits, labels)
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
