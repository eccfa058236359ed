"""Post-hoc temperature scaling.

A single scalar t > 0 divides the logits.  Fitting minimizes either NLL
(classic temperature scaling) or SB-ECE over a coarse log-spaced grid on
[0.05, 10] followed by golden-section refinement of the bracketing interval.
The returned t is the best point ever evaluated, so its objective value never
exceeds any trace entry.

Every evaluation works from the logit shifts z - max_k z, computed once per
fit.  With s(t) = sum_k exp(shift_k / t), the top-class confidence is
1 / s(t) and the label's log-probability is shift_y / t - log s(t).  Two
conventions follow:

- accuracy is the argmax of the raw logits (ties to the lowest index), which
  no positive temperature changes;
- NLL is the exact log-sum-exp, unfloored, so it differs from losses.nll only
  where p_y < 1e-300, the floor nll applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .binning import SoftBinningSpec
from .data import EvalSet, PredictionSummary, summarize
from .metrics import LABEL_BINNED, eval_convention_ece, sb_ece_arrays

OBJECTIVES = ("nll", "sb-ece")

T_MIN = 0.05
T_MAX = 10.0
GRID_POINTS = 64
REFINE_TOL = 1e-4

# 2 / (1 + sqrt(5)), the fraction of the bracket discarded per iteration.
_INV_PHI = 2.0 / (1.0 + np.sqrt(5.0))


class FitError(RuntimeError):
    """The objective was non-finite at every grid point."""


@dataclass(frozen=True)
class TemperatureFit:
    t_star: float
    objective: str
    objective_value: float
    ece_before: float
    ece_after: float
    trace: list = field(default_factory=list)  # (t, objective value) in eval order

    @property
    def at_bound(self) -> bool:
        """t* lies within REFINE_TOL of T_MIN or T_MAX, so the objective's
        minimum may lie outside the searched range."""
        return min(self.t_star - T_MIN, T_MAX - self.t_star) <= REFINE_TOL


def apply_temperature(eval_set: EvalSet, temperature: float) -> PredictionSummary:
    """Summary of the set with logits divided by the given temperature."""
    return summarize(eval_set, temperature)


def golden_section_minimize(
    fn: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float, list[tuple[float, float]]]:
    """Golden-section search on [lo, hi]; returns the best evaluated point,
    its value, and every (x, f) pair seen."""
    evals: list[tuple[float, float]] = []

    def f(x: float) -> float:
        v = float(fn(x))
        evals.append((x, v))
        return v

    a, b = float(lo), float(hi)
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    finite = [(x, v) for x, v in evals if np.isfinite(v)]
    best_x, best_v = min(finite, key=lambda xv: xv[1]) if finite else (0.5 * (a + b), np.inf)
    return best_x, best_v, evals


def _objective_fn(
    val_set: EvalSet,
    objective: str,
    sb_spec: SoftBinningSpec,
    p: float,
    mode: str,
) -> Callable[[float], float]:
    logits = val_set.logits
    # Always a copy: the in-place subtraction must not reach the caller's logits.
    shifts = np.array(logits.T, order="C")  # (K, N), entries <= 0
    shifts -= logits.max(axis=1)
    buf = np.empty_like(shifts)

    def norm(t: float) -> np.ndarray:
        """s(t) per example; the top class contributes exp(0) = 1."""
        np.divide(shifts, t, out=buf)
        np.exp(buf, out=buf)
        return buf.sum(axis=0)

    if objective == "nll":
        shift_y = shifts[val_set.labels, np.arange(val_set.n)]

        def fn(t: float) -> float:
            return float(np.mean(np.log(norm(t)) - shift_y / t))
    else:
        accuracy = (np.argmax(logits, axis=1) == val_set.labels).astype(np.float64)

        def fn(t: float) -> float:
            return sb_ece_arrays(1.0 / norm(t), accuracy, sb_spec, p=p, mode=mode).value
    return fn


def fit_temperature(
    val_set: EvalSet,
    objective: str = "nll",
    sb_spec: SoftBinningSpec | None = None,
    p: float = 2.0,
    mode: str = LABEL_BINNED,
) -> TemperatureFit:
    """Fit the scaling temperature on a validation set.

    objective "nll" is classic temperature scaling; "sb-ece" minimizes the
    soft-binned ECE of the post-temperature confidences (defaults: 15 bins,
    bin temperature 0.01, p = 2, label-binned).
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if sb_spec is None:
        sb_spec = SoftBinningSpec(num_bins=15, temperature=0.01)
    fn = _objective_fn(val_set, objective, sb_spec, p, mode)

    grid = np.exp(np.linspace(np.log(T_MIN), np.log(T_MAX), GRID_POINTS))
    grid[0], grid[-1] = T_MIN, T_MAX  # exp(log(t)) misses both ends in the last bit
    trace: list[tuple[float, float]] = []
    values = []
    for t in grid:
        v = float(fn(t))
        trace.append((float(t), v))
        values.append(v)
    values = np.asarray(values)
    if not np.isfinite(values).any():
        raise FitError("objective non-finite at every grid temperature")
    best = int(np.nanargmin(np.where(np.isfinite(values), values, np.nan)))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    t_ref, v_ref, refine_evals = golden_section_minimize(fn, lo, hi, REFINE_TOL)
    trace.extend((float(x), float(v)) for x, v in refine_evals)
    del fn  # frees the shift buffers before the ECE summaries below

    t_star, v_star = (t_ref, v_ref) if v_ref <= values[best] else (float(grid[best]), float(values[best]))
    return TemperatureFit(
        t_star=float(t_star),
        objective=objective,
        objective_value=float(v_star),
        ece_before=eval_convention_ece(summarize(val_set, 1.0)),
        ece_after=eval_convention_ece(summarize(val_set, t_star)),
        trace=trace,
    )
