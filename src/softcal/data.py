"""Evaluation-set container and per-prediction quantities derived from logits.

Everything downstream (metrics, losses, recalibration) consumes the
PredictionSummary produced here, so the conventions are pinned in one place:
float64 throughout, stable softmax, entropy in nats with 0*log(0) = 0,
argmax ties broken toward the lowest class index.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class IngestionError(ValueError):
    """An input file could not be read or parsed, or logits or labels failed
    validation; CLI exit code 2."""


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


def check_labels(labels, n: int, num_classes: int | None = None) -> np.ndarray:
    """The labels as int64 once they pass the label rule: shape (n,), integer
    values (NaN and inf are not) that int64 holds, checked before the cast,
    and, given a class count, all in [0, num_classes)."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n:
        raise IngestionError(f"labels must have shape ({n},), got {labels.shape}")
    kind = labels.dtype.kind
    if kind not in "biuf" or (kind == "f" and not (np.isfinite(labels).all() and (labels == np.floor(labels)).all())):
        raise IngestionError("labels must be integers")
    lo, hi = (int(labels.min()), int(labels.max())) if n else (0, 0)
    if num_classes is not None and (lo < 0 or hi >= num_classes):
        raise IngestionError(f"labels must lie in [0, {num_classes}), got range [{lo}, {hi}]")
    if lo < -(2**63) or hi > _INT64_MAX:
        raise IngestionError(f"labels must lie in int64's range, got range [{lo}, {hi}]")
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
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "labels", check_labels(self.labels, *logits.shape))

    @property
    def n(self) -> int:
        return self.logits.shape[0]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]


@dataclass(frozen=True)
class PredictionSummary:
    """Per-example quantities computed from logits z, or from z / t when a
    temperature t scaled them; gradients taken from a summary are with
    respect to those scaled logits, so they chain through 1/t to the raw ones.

    probs:        N x K softmax probabilities
    confidence:   max probability per row
    predicted:    argmax class (ties -> lowest index)
    accuracy:     1.0 where predicted == label else 0.0
    entropy:      Shannon entropy in nats, computed from probs on first read
    norm_entropy: entropy / ln(K), in [0, 1], computed on first read
    """

    probs: np.ndarray
    confidence: np.ndarray
    predicted: np.ndarray
    accuracy: np.ndarray

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
    that the caller has checked, without an EvalSet.  The softmax runs by row
    blocks, in place in the one new array logits / temperature; logits is never
    written.  Rows where that division overflows are shifted to their limit."""
    check_real("temperature", temperature, 0, strict=True)
    n = logits.shape[0]
    probs, predicted, confidence, accuracy = np.empty(logits.shape), np.empty(n, np.intp), np.empty(n), np.empty(n)

    def block(lo: int, hi: int) -> None:
        p = np.divide(logits[lo:hi], temperature, out=probs[lo:hi])
        top = p.max(axis=1, keepdims=True)
        if not np.isfinite(top).all():
            wide = ~np.isfinite(top[:, 0])
            rows = logits[lo:hi][wide]
            p[wide], top[wide] = (rows - rows.max(axis=1, keepdims=True)) / temperature, 0.0
        p -= top
        del top  # held through the exp it raised recalibrate-50k peak RSS by 6.6 MB (heap layout)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        pred = np.argmax(p, axis=1, out=predicted[lo:hi])
        confidence[lo:hi] = p[np.arange(hi - lo), pred]
        np.equal(pred, labels[lo:hi], out=accuracy[lo:hi])

    _blocks(n, block)
    return PredictionSummary(probs=probs, confidence=confidence, predicted=predicted, accuracy=accuracy)


_MIN_BLOCK_ROWS = 8192
_pool: list = []  # the thread pool, made on first use; a forked child drops it
if hasattr(os, "register_at_fork"):  # not on Windows, which has no fork
    os.register_at_fork(after_in_child=_pool.clear)


def _blocks(n: int, fn) -> None:
    """Call fn(lo, hi) on contiguous slices covering range(n), at most one per
    usable CPU and each at least _MIN_BLOCK_ROWS long (the crossover measured
    in the README): the first in the calling thread, the rest on the pool, in
    copies of the caller's context (so np.errstate holds), and no thread for
    one slice.  fn writes only its own slice, so no output depends on the
    slicing.  Raises what a slice raised, once every slice has ended."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    k = max(1, min(cpus, n // _MIN_BLOCK_ROWS))
    if k == 1:
        return fn(0, n)
    from concurrent.futures import ThreadPoolExecutor, wait
    if not _pool:
        _pool.append(ThreadPoolExecutor(thread_name_prefix="softcal"))
    jobs = [_pool[0].submit(contextvars.copy_context().run, fn, n * i // k, n * (i + 1) // k) for i in range(1, k)]
    try:
        fn(0, n // k)
    finally:
        wait(jobs)
    for job in jobs:
        job.result()
