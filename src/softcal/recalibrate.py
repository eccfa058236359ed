"""Post-hoc temperature scaling.

A single scalar t > 0 divides the logits.  Fitting minimizes either NLL
(classic temperature scaling) or SB-ECE over a 16-point log-spaced grid on
[0.05, 10] followed by a bounded Brent search (parabolic interpolation with a
golden-section fallback) of the interval bracketing the best grid point.  The
returned t is the best point ever evaluated, so its objective value never
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
GRID_POINTS = 16
REFINE_TOL = 1e-4

# (3 - sqrt(5)) / 2, the golden-section step as a fraction of the larger part.
_GOLDEN = 0.5 * (3.0 - 5.0**0.5)
_SQRT_EPS = 2.0**-26  # sqrt of the float64 machine epsilon


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


def brent_minimize(
    fn: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float, list[tuple[float, float]]]:
    """Bounded Brent search on (lo, hi), as in fminbound: a parabola through
    the three best points when its step is acceptable, else a golden-section
    step.  Returns the best evaluated point, its value and every (x, f) pair
    seen.  A non-finite value counts as +inf, so the search moves away from
    it, and the value returned is inf only when no evaluation was finite."""
    evals: list[tuple[float, float]] = []

    def f(x: float) -> float:
        v = float(fn(x))
        evals.append((x, v))
        return v if np.isfinite(v) else np.inf

    a, b = float(lo), float(hi)
    # x is the best point so far, w the second best and v the previous w;
    # d is the last step and e the one before it.
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        if abs(x - mid) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p = -p if q > 0.0 else p
            q, e_prev, e = abs(q), e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if min(x + d - a, b - x - d) < 2.0 * tol1:
                    d = tol1 if mid >= x else -tol1
        if golden:
            e = (a if x >= mid else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d >= 0.0 else -tol1))
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (a, u) if u >= x else (u, b)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, evals


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
    t_ref, v_ref, refine_evals = brent_minimize(fn, lo, hi, REFINE_TOL)
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
