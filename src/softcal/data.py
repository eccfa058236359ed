"""Evaluation-set container and per-prediction quantities derived from logits.

Everything downstream (metrics, losses, recalibration) consumes the
PredictionSummary produced here, so the conventions are pinned in one place:
float64 throughout, stable softmax, entropy in nats with 0*log(0) = 0,
argmax ties broken toward the lowest class index.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class IngestionError(ValueError):
    """Logits or labels failed validation on ingestion."""


# The one rule for a scalar setting: a bool or a string is never a number, a
# numpy scalar is, and a refusal is a ValueError that names the field.  The
# builtin types come first in each isinstance tuple, so they skip the slower
# numbers ABC lookup on the per-batch checks.

_INT64_MAX = 2**63 - 1


def check_int(name: str, value, least: int):
    """value, if it is an integer >= least that int64 holds."""
    if isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool) and least <= value <= _INT64_MAX:
        return value
    rule = {0: "a non-negative integer", 1: "a positive integer"}.get(least, f"an integer >= {least}")
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_real(name: str, value, lo, hi=math.inf, strict: bool = False, suffix: str = ""):
    """value, if it is a real in [lo, hi], or in (lo, hi) when strict, that
    float64 holds finitely; suffix follows the rule in the error message."""
    real = isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)
    finite = real and (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value))
    if finite and (lo < value < hi if strict else lo <= value <= hi):
        return value
    rule = (f"be {'>' if strict else '>='} {lo}" if hi == math.inf
            else f"lie in {'(' if strict else '['}{lo}, {hi}{')' if strict else ']'}")
    raise ValueError(f"{name} must {rule}{suffix}, got {value!r}" + ("" if real else " (not a number)"))


def check_choice(name: str, value, choices: tuple) -> None:
    """Refuse value unless it is one of the strings in choices."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def check_labels(labels, n: int) -> np.ndarray:
    """The labels as int64 once they pass the EvalSet rules that need no
    class count: shape (n,) and integer values (NaN and inf are not)."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n:
        raise IngestionError(f"labels must have shape ({n},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        if not (np.isfinite(labels).all() and (labels == np.floor(labels)).all()):
            raise IngestionError("labels must be integers")
    return labels.astype(np.int64)


@dataclass(frozen=True)
class EvalSet:
    """An N x K float64 logit matrix plus N integer labels in [0, K)."""

    logits: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=np.float64)
        if logits.ndim != 2 or logits.shape[0] < 1 or logits.shape[1] < 2:
            raise IngestionError(
                f"logits must be N x K with N >= 1 and K >= 2, got shape {logits.shape}"
            )
        if not np.all(np.isfinite(logits)):
            raise IngestionError("logits contain non-finite values")
        labels = check_labels(self.labels, logits.shape[0])
        if labels.min() < 0 or labels.max() >= logits.shape[1]:
            raise IngestionError(
                f"labels must lie in [0, {logits.shape[1]}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.logits.shape[0]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]


@dataclass(frozen=True)
class PredictionSummary:
    """Per-example quantities computed from (possibly temperature-scaled) logits.

    probs:        N x K softmax probabilities
    confidence:   max probability per row
    predicted:    argmax class (ties -> lowest index)
    accuracy:     1.0 where predicted == label else 0.0
    temperature:  the temperature the logits were divided by; gradients taken
                  with respect to the raw logits must chain through 1/temperature
    entropy:      Shannon entropy in nats, computed from probs on first read
    norm_entropy: entropy / ln(K), in [0, 1], computed on first read
    """

    probs: np.ndarray
    confidence: np.ndarray
    predicted: np.ndarray
    accuracy: np.ndarray
    temperature: float

    @cached_property
    def entropy(self) -> np.ndarray:
        return entropy_nats(self.probs)

    @cached_property
    def norm_entropy(self) -> np.ndarray:
        return self.entropy / np.log(self.num_classes)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


def entropy_nats(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy per row in nats; 0 * log(0) treated as 0.  Summed in
    blocks of about 65,536 entries, each row by the same reduction as whole."""
    from scipy.special import xlogy  # scipy loads only when entropy is read
    out = np.empty(probs.shape[0])
    rows = max(1, 65536 // probs.shape[1])
    for s in range(0, len(out), rows):
        xlogy(probs[s:s + rows], probs[s:s + rows]).sum(axis=1, out=out[s:s + rows])
    return np.negative(out, out=out)


def summarize(eval_set: EvalSet, temperature: float = 1.0) -> PredictionSummary:
    """Compute the prediction summary of an EvalSet at a given temperature.

    Temperature t divides the logits before the softmax, so summarize(s, t)
    is bit-identical to summarize on pre-divided logits at t = 1.
    """
    return summarize_arrays(eval_set.logits, eval_set.labels, temperature)


def summarize_arrays(logits: np.ndarray, labels: np.ndarray, temperature: float = 1.0) -> PredictionSummary:
    """summarize on a finite float64 N x K logit matrix and N labels in [0, K)
    that the caller has checked, without an EvalSet.  The softmax runs in
    place in the one new array logits / temperature; logits is never written.
    Rows where that division overflows are shifted first, to their limit."""
    check_real("temperature", temperature, 0, strict=True)
    probs = logits / temperature
    top = probs.max(axis=1, keepdims=True)
    if not np.isfinite(top).all():
        wide = ~np.isfinite(top[:, 0])
        rows = logits[wide]
        probs[wide], top[wide] = (rows - rows.max(axis=1, keepdims=True)) / temperature, 0.0
    probs -= top
    del top  # held through the exp it raised recalibrate-50k peak RSS by 6.6 MB (heap layout)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    predicted = np.argmax(probs, axis=1)
    confidence = probs[np.arange(probs.shape[0]), predicted]
    accuracy = (predicted == labels).astype(np.float64)
    return PredictionSummary(probs=probs, confidence=confidence, predicted=predicted,
                             accuracy=accuracy, temperature=float(temperature))
