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
from .data import EvalSet, _blocks, check_choice
from .metrics import sb_ece

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
    objective_value: float
    trace: list = field(default_factory=list)  # (t, objective value) in eval order

    @property
    def at_bound(self) -> bool:
        """t* lies within REFINE_TOL of T_MIN or T_MAX, so the objective's
        minimum may lie outside the searched range."""
        return min(self.t_star - T_MIN, T_MAX - self.t_star) <= REFINE_TOL


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


def _exp_row_sum(shifts: np.ndarray, t: float, row: np.ndarray, out: np.ndarray, n: int) -> np.ndarray:
    """s(t) = sum_k exp(shifts[k] / t) into out for a column block of the (K, n)
    shifts, one class row at a time through row, as the whole sum(axis=0) adds."""
    if n == 1:  # sum(axis=0) adds a single column pairwise
        return np.exp(shifts / t).sum(axis=0, out=out)
    s = np.exp(np.divide(shifts[0], t, out=row), out=out)
    for z in shifts[1:]:
        s += np.exp(np.divide(z, t, out=row), out=row)
    return s


def _objective_fn(val_set: EvalSet, objective: str, sb_spec: SoftBinningSpec) -> Callable[[float], float]:
    logits = val_set.logits
    # Always a copy: the in-place subtraction must not reach the caller's logits.
    shifts = np.array(logits.T, order="C")  # (K, N), entries <= 0
    shifts -= shifts.max(axis=0)
    n, m = shifts.shape[1], sb_spec.num_bins
    row, per_example = np.empty(n), np.empty(n)
    shift_y = shifts[val_set.labels, np.arange(n)]

    def fill(t: float) -> np.ndarray:  # log s(t) - shift_y / t (NLL) or 1 / s(t), by column blocks
        def block(lo: int, hi: int) -> None:
            s = _exp_row_sum(shifts[:, lo:hi], t, row[lo:hi], per_example[lo:hi], n)
            if objective == "nll":
                np.subtract(np.log(s, out=s), np.divide(shift_y[lo:hi], t, out=row[lo:hi]), out=s)
            else:
                np.divide(1.0, s, out=s)

        _blocks(n, block)
        return per_example

    if objective == "nll":
        return lambda t: float(np.mean(fill(t)))
    accuracy = (np.argmax(logits, axis=1) == val_set.labels).astype(np.float64)
    # Membership and gap buffers, filled in place by every evaluation.
    pair = (np.empty((m, n)), np.empty((m, n)))
    return lambda t: sb_ece(fill(t), accuracy, sb_spec, out=pair).value


def fit_temperature(
    val_set: EvalSet,
    objective: str = "nll",
    sb_spec: SoftBinningSpec = SoftBinningSpec(),
) -> TemperatureFit:
    """Fit the scaling temperature on a validation set.

    objective "nll" is classic temperature scaling; "sb-ece" minimizes the
    soft-binned ECE of the post-temperature confidences, binned and reduced
    as sb_spec says (SoftBinningSpec's defaults unless given).
    """
    check_choice("objective", objective, OBJECTIVES)
    if not isinstance(sb_spec, SoftBinningSpec):
        raise ValueError(f"sb_spec must be a SoftBinningSpec, got {sb_spec!r}")
    fn = _objective_fn(val_set, objective, sb_spec)

    grid = np.exp(np.linspace(np.log(T_MIN), np.log(T_MAX), GRID_POINTS))
    grid[0], grid[-1] = T_MIN, T_MAX  # exp(log(t)) misses both ends in the last bit
    trace = [(float(t), float(fn(t))) for t in grid]
    values = np.array([v for _, v in trace])
    if not np.isfinite(values).any():
        raise FitError("objective non-finite at every grid temperature")
    best = int(np.nanargmin(np.where(np.isfinite(values), values, np.nan)))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    t_ref, v_ref, refine_evals = brent_minimize(fn, lo, hi, REFINE_TOL)
    trace.extend((float(x), float(v)) for x, v in refine_evals)

    t_star, v_star = (t_ref, v_ref) if v_ref <= values[best] else (float(grid[best]), float(values[best]))
    return TemperatureFit(t_star=float(t_star), objective_value=float(v_star), trace=trace)
