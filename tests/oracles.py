"""Long-double reference implementations that the tests difference against.

Everything here is written straight from the definitions (loops where that is
clearest) and never imports the package, so agreement between the two is
evidence rather than tautology.  Values are carried in np.longdouble: central
differences at step 1e-5 over these functions resolve relative errors near
1e-10, which is what lets the smooth primaries be held to 1e-6.
"""

import numpy as np

LD = np.longdouble


def _ld(x):
    return np.asarray(x, dtype=LD)


def softmax_ld(z):
    z = _ld(z)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def predictions_ld(z):
    """(probs, confidence, predicted) with first-index tie breaking."""
    p = softmax_ld(z)
    pred = p.argmax(axis=-1)
    conf = np.take_along_axis(p, pred[..., None], axis=-1)[..., 0]
    return p, conf, pred


def entropy_ld(probs):
    p = _ld(probs)
    mask = p > 0
    terms = np.where(mask, p * np.log(np.where(mask, p, 1.0)), LD(0.0))
    return -terms.sum(axis=-1)


def membership_ld(conf, num_bins, temperature):
    """Softmax over -(c - center_j)^2 / T, centers at (j + 0.5) / M."""
    c = _ld(conf)
    centers = (np.arange(num_bins, dtype=LD) + LD(0.5)) / LD(num_bins)
    g = -((c[..., None] - centers) ** 2) / LD(temperature)
    g = g - g.max(axis=-1, keepdims=True)
    e = np.exp(g)
    return e / e.sum(axis=-1, keepdims=True)


def sb_ece_ld(z, y, num_bins, temperature, p, mode):
    probs, conf, pred = predictions_ld(np.atleast_2d(z))
    acc = (pred == np.asarray(y)).astype(LD)
    u = membership_ld(conf, num_bins, temperature)
    n = LD(u.shape[0])
    s = u.sum(axis=0)
    sf = np.maximum(s, LD(1e-30))
    a_mean = (u * acc[:, None]).sum(axis=0) / sf
    q = LD(p)
    if mode == "label-binned":
        gap = np.abs(a_mean[None, :] - conf[:, None])
        r = (u * gap**q).sum() / n
    elif mode == "binned":
        c_mean = (u * conf[:, None]).sum(axis=0) / sf
        r = ((s / n) * np.abs(a_mean - c_mean) ** q).sum()
    else:
        raise ValueError(mode)
    return r ** (LD(1.0) / q)


def hard_bin_index(conf, num_bins, scheme):
    """Bin assignment from the written rules: equal-width floors c*M with the
    top edge closed; equal-mass splits the stable confidence order at
    ceil(i*N/M)."""
    conf = np.asarray(conf, dtype=np.float64)
    n = conf.shape[0]
    if scheme == "equal-width":
        return np.minimum((conf * num_bins).astype(np.int64), num_bins - 1)
    order = np.argsort(conf, kind="stable")
    splits = np.ceil(np.arange(1, num_bins) * n / num_bins).astype(np.int64)
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    return np.searchsorted(splits, ranks, side="right")


def hard_ece_ld(conf, acc, num_bins, scheme, p, mode):
    idx = hard_bin_index(conf, num_bins, scheme)
    conf = _ld(conf)
    acc = _ld(acc)
    n = LD(conf.shape[0])
    q = LD(p)
    r = LD(0.0)
    for j in range(num_bins):
        sel = idx == j
        if not sel.any():
            continue
        a = acc[sel].mean()
        if mode == "binned":
            r += (LD(sel.sum()) / n) * np.abs(a - conf[sel].mean()) ** q
        else:
            r += (np.abs(a - conf[sel]) ** q).sum() / n
    return r ** (LD(1.0) / q)


def avuc_ld(z, y, kappa, frozen_conf=None):
    """Hard AvUC; passing frozen_conf holds the confidence factors constant,
    which is exactly the function the gradient-stopped variant differentiates."""
    probs, conf, pred = predictions_ld(np.atleast_2d(z))
    if frozen_conf is not None:
        conf = _ld(frozen_conf)
    h = entropy_ld(probs)
    acc = pred == np.asarray(y)
    w = np.tanh(h)
    certain = h <= LD(kappa)
    n_ac = (conf * (1 - w))[acc & certain].sum()
    n_au = (conf * w)[acc & ~certain].sum()
    n_ic = ((1 - conf) * (1 - w))[~acc & certain].sum()
    n_iu = ((1 - conf) * w)[~acc & ~certain].sum()
    return np.log1p((n_au + n_ic) / (n_ac + n_iu))


def soft_uncertainty_ld(hstar, kappa, temperature):
    h = np.clip(_ld(hstar), LD(1e-7), LD(1.0) - LD(1e-7))
    lo = np.log(h / (1 - h)) - np.log(LD(kappa) / (1 - LD(kappa)))
    return 1 / (1 + np.exp(-lo / LD(temperature)))


def s_avuc_ld(z, y, kappa, temperature):
    probs, conf, pred = predictions_ld(np.atleast_2d(z))
    h = entropy_ld(probs)
    t = soft_uncertainty_ld(h / np.log(LD(probs.shape[-1])), kappa, temperature)
    acc = pred == np.asarray(y)
    w = np.tanh(h)
    tw = t * w
    cw = (1 - t) * (1 - w)
    q = tw[acc].sum() + cw[~acc].sum()
    d = cw[acc].sum() + tw[~acc].sum()
    return np.log1p(q / d)


def nll_ld(z, y):
    p, _, _ = predictions_ld(np.atleast_2d(z))
    rows = np.arange(p.shape[0])
    return -np.log(p[rows, y]).mean()


def focal_ld(z, y, gamma):
    p, _, _ = predictions_ld(np.atleast_2d(z))
    rows = np.arange(p.shape[0])
    p_y = p[rows, y]
    return -((1 - p_y) ** LD(gamma) * np.log(p_y)).mean()


def mse_ld(z, y):
    p, _, _ = predictions_ld(np.atleast_2d(z))
    onehot = np.zeros_like(p)
    onehot[np.arange(p.shape[0]), y] = LD(1.0)
    return ((p - onehot) ** 2).sum(axis=-1).mean()


def composite_ld(z, y, primary="nll", gamma=3.0, secondary="none", beta=0.0,
                 lam=0.0, weight_sq_norm=0.0, bins=15, bin_temperature=0.01,
                 p=2.0, mode="label-binned", kappa=0.5, soft_temperature=1.0,
                 frozen_conf=None):
    if primary == "nll":
        value = nll_ld(z, y)
    elif primary == "focal":
        value = focal_ld(z, y, gamma)
    else:
        value = mse_ld(z, y)
    if secondary != "none" and beta != 0.0:
        if secondary == "sb-ece":
            sv = sb_ece_ld(z, y, bins, bin_temperature, p, mode)
        elif secondary in ("avuc", "avuc-gs"):
            sv = avuc_ld(z, y, kappa, frozen_conf=frozen_conf)
        elif secondary == "s-avuc":
            sv = s_avuc_ld(z, y, kappa, soft_temperature)
        else:
            raise ValueError(secondary)
        value = value + LD(beta) * sv
    return value + LD(lam) * LD(weight_sq_norm)


def fd_grad(fn, z, step=1e-5):
    """Central differences of a scalar function of the logits, evaluated in
    long double so the subtraction keeps ~18 significant digits."""
    z = np.asarray(z, dtype=np.float64)
    s = LD(step)
    grad = np.zeros(z.shape, dtype=LD)
    it = np.nditer(z, flags=["multi_index"])
    for _ in it:
        ij = it.multi_index
        zp = _ld(z)
        zp[ij] += s
        zm = _ld(z)
        zm[ij] -= s
        grad[ij] = (fn(zp) - fn(zm)) / (2 * s)
    return np.asarray(grad, dtype=np.float64)


def max_rel_err(analytic, numeric, floor=1e-8):
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def reference_temperature_search(fn, t_min, t_max, grid_points=64, tol=1e-4):
    """The exhaustive temperature search the fitter is held to: a log grid of
    grid_points on [t_min, t_max], then golden-section search of the interval
    between the best grid point's neighbours down to width tol.  fn is the
    objective of t; returns the best finite (t, fn(t)) evaluated."""
    grid = np.exp(np.linspace(np.log(t_min), np.log(t_max), grid_points))
    grid[0], grid[-1] = t_min, t_max
    seen = [(float(t), float(fn(t))) for t in grid]
    best = min(range(grid_points), key=lambda i: seen[i][1] if np.isfinite(seen[i][1]) else np.inf)
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, grid_points - 1)]
    inv_phi = 2.0 / (1.0 + np.sqrt(5.0))
    x1, x2 = b - inv_phi * (b - a), a + inv_phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    seen += [(x1, f1), (x2, f2)]
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = fn(x1)
            seen.append((x1, f1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = fn(x2)
            seen.append((x2, f2))
    return min((tv for tv in seen if np.isfinite(tv[1])), key=lambda tv: tv[1])
