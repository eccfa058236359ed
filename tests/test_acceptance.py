"""The ten go/no-go checks, one test per criterion.

Each test computes its verdict plus a one-line detail and records both
through the shared criterion log, so a single pytest run doubles as the
acceptance report (the lines print in the terminal summary).  The empirical
checks (6-8) use frozen seeds and settings; they were chosen once, from
mechanism-level reasoning about when the secondary losses help, and are not
tuned per run.
"""

import json
import time

import numpy as np
import pytest

import oracles
from conftest import avuc_batch, random_batch, record_line

from softcal import (
    BinningSpec,
    EvalSet,
    LossSpec,
    SoftBinningSpec,
    TrainConfig,
    avuc_grad,
    composite_loss,
    ece,
    eval_convention_ece,
    fit_temperature,
    focal,
    make_synthetic_task,
    mse,
    nll,
    s_avuc_grad,
    sb_ece,
    sb_ece_grad,
    soft_uncertainty,
    summarize,
    sweep_one_at_a_time,
    train,
)
from softcal.cli import main
from softcal.io import read_logits_csv, write_logits_csv
from softcal.metrics import BINNED, LABEL_BINNED


def confidence_rows(conf, acc, k=10):
    """Logits whose softmax puts mass conf on class 0 and the rest uniform;
    the label makes the prediction right or wrong as requested."""
    conf = np.asarray(conf, dtype=np.float64)
    z = np.concatenate(
        [np.log(conf)[:, None], np.tile(np.log((1.0 - conf) / (k - 1))[:, None], (1, k - 1))],
        axis=1,
    )
    labels = np.where(np.asarray(acc, dtype=bool), 0, 1)
    return EvalSet(z, labels)


def scaled_posterior_set(rng, n, k, scale, spread=1.5):
    v = rng.normal(0.0, spread, size=(n, k))
    p = np.exp(v - v.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    y = (p.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1)
    return EvalSet(v * scale, y)


def test_01_soft_binning_limits_to_hard_ece(criterion_log):
    bin_counts = (2, 10, 15)
    boundaries = np.unique(np.concatenate([np.arange(1, m) / m for m in bin_counts]))
    rng = np.random.default_rng(101)
    conf = []
    while len(conf) < 1000:
        c = rng.uniform(0.12, 0.995)
        if np.abs(boundaries - c).min() >= 1e-3:
            conf.append(c)
    s = summarize(confidence_rows(np.array(conf), rng.random(1000) < 0.7))

    t0 = time.time()
    worst = 0.0
    for m in bin_counts:
        soft_spec = SoftBinningSpec(num_bins=m, temperature=1e-5)
        hard_spec = BinningSpec(scheme="equal-width", num_bins=m)
        for p in (1.0, 2.0):
            for mode in (BINNED, LABEL_BINNED):
                soft = sb_ece(s.confidence, s.accuracy, soft_spec, p=p, mode=mode).value
                hard = ece(s, hard_spec, p=p, mode=mode).value
                worst = max(worst, abs(soft - hard))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 5.0
    assert criterion_log(
        1, "soft binning limits to hard ECE", ok,
        f"max |SB-ECE(T=1e-5) - hard| = {worst:.2e} over M in {bin_counts}, "
        f"p in (1,2), both reductions ({elapsed:.1f}s)",
    )


def test_02_label_binned_upper_bounds_binned(criterion_log):
    rng = np.random.default_rng(202)
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(10, 200))
        k = int(rng.integers(2, 9))
        s = summarize(EvalSet(rng.normal(0.0, 1.5, size=(n, k)), rng.integers(0, k, size=n)))
        m = int(rng.integers(1, 21))
        for scheme in ("equal-width", "equal-mass"):
            spec = BinningSpec(scheme=scheme, num_bins=m)
            for p in (1.0, 2.0):
                gap = ece(s, spec, p=p, mode=BINNED).value - ece(s, spec, p=p, mode=LABEL_BINNED).value
                worst = max(worst, gap)
    ok = worst <= 1e-12
    assert criterion_log(
        2, "label-binned ECE upper-bounds binned ECE", ok,
        f"max (binned - label-binned) = {worst:.2e} over 1000 datasets, both schemes",
    )


def _grad_case(rng, family):
    """One conditioned batch: analytic (value, grad) from the package and the
    matching longdouble value function for finite differences."""
    if family in ("nll", "focal", "mse"):
        z, y = random_batch(rng, n_hi=64, k_hi=10)
        s = summarize(EvalSet(z, y))
        if family == "nll":
            return nll(s, y)[1], lambda q: oracles.nll_ld(q, y), z
        if family == "focal":
            gamma = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
            return focal(s, y, gamma)[1], lambda q: oracles.focal_ld(q, y, gamma), z
        return mse(s, y)[1], lambda q: oracles.mse_ld(q, y), z

    if family.startswith("sb-ece"):
        z, y = random_batch(rng, n_hi=24)
        s = summarize(EvalSet(z, y))
        m = int(rng.integers(2, 11))
        t = float(10 ** rng.uniform(-1.5, -0.5))
        mode = LABEL_BINNED if family.endswith("lb") else BINNED
        spec = SoftBinningSpec(num_bins=m, temperature=t)
        grad = sb_ece_grad(s, spec, p=2.0, mode=mode)[1]
        return grad, lambda q: oracles.sb_ece_ld(q, y, m, t, 2.0, mode), z

    if family in ("avuc", "avuc-gs"):
        z, y, kappa = avuc_batch(rng)
        s = summarize(EvalSet(z, y))
        stopped = family == "avuc-gs"
        grad = avuc_grad(s, kappa, gradient_stopping=stopped)[1]
        frozen = np.asarray(oracles.predictions_ld(z)[1]) if stopped else None
        return grad, lambda q: oracles.avuc_ld(q, y, kappa, frozen_conf=frozen), z

    if family == "s-avuc":
        z, y = random_batch(rng, n_hi=24)
        s = summarize(EvalSet(z, y))
        kappa = float(rng.uniform(0.1, 0.9))
        t = float(10 ** rng.uniform(-1.0, 0.0))
        grad = s_avuc_grad(s, kappa, t)[1]
        return grad, lambda q: oracles.s_avuc_ld(q, y, kappa, t), z

    assert family == "composite"
    if rng.random() < 0.5:
        z, y = random_batch(rng, n_hi=24)
        spec = LossSpec(
            primary="focal", gamma=2.0, secondary="sb-ece", beta=0.7, lam=0.02,
            bins=6, bin_temperature=0.05, p=2.0, mode=BINNED,
        )
    else:
        z, y = random_batch(rng, n_hi=24)
        spec = LossSpec(
            primary="nll", secondary="s-avuc", beta=0.7, lam=0.02,
            kappa=0.4, soft_temperature=0.3,
        )
    grad = composite_loss(z, y, spec, weight_sq_norm=0.0).grad_logits

    def fn(q):
        return oracles.composite_ld(
            q, y, spec.primary, spec.gamma, spec.secondary, spec.beta, spec.lam,
            0.0, spec.bins, spec.bin_temperature, spec.p, spec.mode,
            spec.kappa, spec.soft_temperature,
        )

    return grad, fn, z


def test_03_analytic_gradients_match_finite_differences(criterion_log):
    tolerances = {
        "nll": 1e-6, "focal": 1e-6, "mse": 1e-6,
        "sb-ece-lb": 1e-4, "sb-ece-bin": 1e-4,
        "avuc": 1e-4, "avuc-gs": 1e-4, "s-avuc": 1e-4, "composite": 1e-4,
    }
    t0 = time.time()
    report = []
    all_ok = True
    for offset, (family, tol) in enumerate(tolerances.items()):
        rng = np.random.default_rng(300 + offset)
        worst = 0.0
        for _ in range(100):
            analytic, fn, z = _grad_case(rng, family)
            numeric = np.asarray(oracles.fd_grad(fn, z), dtype=np.float64)
            worst = max(worst, oracles.max_rel_err(analytic, numeric))
        all_ok &= worst <= tol
        report.append(f"{family} {worst:.1e}")
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 60.0
    assert criterion_log(
        3, "gradient suite vs central differences", ok,
        f"worst rel err per family ({'; '.join(report)}) 100 batches each ({elapsed:.0f}s)",
    )


def test_04_soft_uncertainty_identities(criterion_log):
    rng = np.random.default_rng(404)
    worst_half = 0.0
    for _ in range(50):
        kappa = float(rng.uniform(0.05, 0.95))
        temperature = float(10 ** rng.uniform(-3.0, 1.0))
        worst_half = max(worst_half, abs(soft_uncertainty(kappa, kappa, temperature) - 0.5))

    grid = np.linspace(1e-7, 1.0 - 1e-7, 1001)
    worst_identity = float(np.abs(soft_uncertainty(grid, 0.5, 1.0) - grid).max())
    ok = worst_half <= 1e-12 and worst_identity <= 1e-12
    assert criterion_log(
        4, "soft uncertainty fixed point and identity map", ok,
        f"|t(kappa) - 0.5| <= {worst_half:.1e} (50 draws); "
        f"max |t(h*) - h*| = {worst_identity:.1e} on 1001 points",
    )


def test_05_temperature_recovery_at_scale(criterion_log):
    details = []
    ok = True
    for i, scale in enumerate((0.5, 2.0, 3.0)):
        rng = np.random.default_rng(500 + i)
        es = scaled_posterior_set(rng, 50000, 4, scale)
        t0 = time.time()
        fit = fit_temperature(es, objective="nll")
        elapsed = time.time() - t0
        rel = abs(fit.t_star / scale - 1.0)
        ok &= rel <= 0.02 and elapsed < 10.0
        details.append(f"s={scale}: t*={fit.t_star:.3f} ({100 * rel:.2f}%, {elapsed:.1f}s)")
    assert criterion_log(5, "temperature recovery within 2% at N=50000", ok, "; ".join(details))


def test_06_sb_ece_objective_beats_nll_objective(criterion_log):
    # Mixed per-example scaling makes the NLL-optimal temperature differ
    # from the ECE-optimal one, which is where the SB-ECE objective earns
    # its keep.
    def make_split(rng, n=5000, k=4, spread=1.5, scales=(1.5, 5.0)):
        v = rng.normal(0.0, spread, size=(n, k))
        p = np.exp(v - v.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        y = (p.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1)
        s = np.where(rng.random(n) < 0.5, scales[0], scales[1])
        return EvalSet(v * s[:, None], y)

    t0 = time.time()
    wins = 0
    gains = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        val, test = make_split(rng), make_split(rng)
        t_nll = fit_temperature(val, objective="nll").t_star
        t_sb = fit_temperature(val, objective="sb-ece").t_star
        e_nll = eval_convention_ece(summarize(test, t_nll))
        e_sb = eval_convention_ece(summarize(test, t_sb))
        wins += e_sb <= e_nll + 0.002
        gains.append(e_nll - e_sb)
    elapsed = time.time() - t0
    ok = wins >= 40
    assert criterion_log(
        6, "SB-ECE-fitted temperature vs NLL-fitted", ok,
        f"{wins}/50 seeds within tolerance, median held-out ECE gain "
        f"{np.median(gains):.4f} ({elapsed:.0f}s)",
    )


def _label_noise_task(seed):
    return make_synthetic_task(
        "label-noise-blobs", 2048, seed=seed, flip_rate=0.2, splits=(0.125, 0.375, 0.5)
    )


def _noise_config(loss, seed):
    return TrainConfig(
        loss=loss, epochs=400, hidden=(128, 128), learning_rate=0.1,
        lr_drop_epochs=(300,), seed=seed,
    )


def _test_metrics(task, model):
    s = summarize(EvalSet(model.forward(task.x_test)[0], task.y_test))
    return float(s.accuracy.mean()), eval_convention_ece(s)


def _noise_arm(task, loss, seed):
    model, _ = train(
        (task.x_train, task.y_train), (task.x_val, task.y_val), _noise_config(loss, seed),
        task.num_classes,
    )
    return _test_metrics(task, model)


@pytest.fixture(scope="module")
def label_noise_arms():
    """Criterion 7's ten seeds: per seed the task, the plain-NLL model and the
    sweep's winner with their test accuracy and ECE, and the loop's seconds.
    Criterion 7 and the temperature-scaling check below read these models."""
    # Flipped labels put a ceiling on justified confidence; plain NLL trains
    # past it, the swept soft secondary should not.
    grids = {
        "kappa": [0.75, 0.85, 0.95],
        "soft_temperature": [0.1, 0.15, 0.25],
        "beta": [3.0, 10.0],
        "lam": [0.0, 1e-3, 1e-2],
    }
    t0 = time.time()
    runs = []
    for seed in range(10):
        task = _label_noise_task(seed)
        models = {}  # keyed like the sweep's cache, so the winner is not trained again
        models["nll"], _ = train(
            (task.x_train, task.y_train), (task.x_val, task.y_val), _noise_config(LossSpec(), seed),
            task.num_classes,
        )

        base = TrainConfig(
            loss=LossSpec(secondary="s-avuc", beta=3.0, kappa=0.85,
                          soft_temperature=0.15, lam=1e-3),
            epochs=400, hidden=(128, 128), learning_rate=0.1,
            lr_drop_epochs=(300,), seed=seed,
        )

        def train_fn(cfg):
            models[cfg.loss], rep = train(
                (task.x_train, task.y_train), (task.x_val, task.y_val), cfg, task.num_classes
            )
            return rep.final_val_accuracy, rep.final_val_ece

        best_cfg, _ = sweep_one_at_a_time(base, grids, train_fn)
        assert best_cfg == _noise_config(best_cfg.loss, seed)
        runs.append({
            "task": task, "nll_model": models["nll"], "swept_model": models[best_cfg.loss],
            "nll": _test_metrics(task, models["nll"]), "swept": _test_metrics(task, models[best_cfg.loss]),
        })
    return {"runs": runs, "seconds": time.time() - t0}


def test_07_swept_composite_halves_ece_on_label_noise(criterion_log, label_noise_arms):
    runs = label_noise_arms["runs"]
    nll_acc, nll_ece = zip(*(r["nll"] for r in runs))
    swept_acc, swept_ece = zip(*(r["swept"] for r in runs))
    elapsed = label_noise_arms["seconds"]
    ratio = np.median(nll_ece) / np.median(swept_ece)
    acc_ok = np.median(swept_acc) >= 0.99 * np.median(nll_acc)
    ok = ratio >= 1.5 and acc_ok and elapsed < 600.0
    assert criterion_log(
        7, "swept composite vs plain NLL on flipped labels", ok,
        f"median test ECE ratio {ratio:.2f} (nll {np.median(nll_ece):.4f} / "
        f"swept {np.median(swept_ece):.4f}), median acc {np.median(nll_acc):.3f} "
        f"vs {np.median(swept_acc):.3f} ({elapsed:.0f}s)",
    )


def test_swept_composite_beats_temperature_scaled_nll(label_noise_arms):
    # The paper also measures its gain against post-hoc temperature scaling
    # (Guo et al. 2017).  Each model gets a temperature fitted on its own
    # validation logits, by NLL and by SB-ECE; criterion 7's 1.5x bar must
    # hold against the scaled NLL arm too.
    medians = {}
    for arm in ("nll", "swept"):
        for objective in ("raw", "nll", "sb-ece"):
            eces = []
            for run in label_noise_arms["runs"]:
                task, model = run["task"], run[f"{arm}_model"]
                t = 1.0
                if objective != "raw":
                    t = fit_temperature(EvalSet(model.forward(task.x_val)[0], task.y_val), objective).t_star
                test_set = EvalSet(model.forward(task.x_test)[0], task.y_test)
                eces.append(eval_convention_ece(summarize(test_set, t)))
            medians[arm, objective] = float(np.median(eces))
    ratios = [medians["nll", obj] / medians["swept", "raw"] for obj in ("nll", "sb-ece")]
    record_line(7, "temperature-scaled NLL vs swept composite: median test ECE " + "; ".join(
        f"{arm} {medians[arm, 'raw']:.4f}, +TS(nll) {medians[arm, 'nll']:.4f}, "
        f"+TS(sb-ece) {medians[arm, 'sb-ece']:.4f}" for arm in ("nll", "swept")
    ) + f"; NLL+TS / swept ratio {ratios[0]:.2f} (nll fit), {ratios[1]:.2f} (sb-ece fit)")
    assert min(ratios) >= 1.5, ratios


def test_08_gradient_stopping_tames_plain_avuc(criterion_log):
    t0 = time.time()
    wins = 0
    for seed in range(10):
        task = _label_noise_task(seed)
        results = {}
        for secondary in ("avuc", "avuc-gs"):
            loss = LossSpec(secondary=secondary, beta=1.0, kappa=0.5, lam=1e-3)
            results[secondary] = _noise_arm(task, loss, seed)
        wins += results["avuc-gs"][1] <= results["avuc"][1]
    elapsed = time.time() - t0
    ok = wins >= 7
    assert criterion_log(
        8, "AvUC-GS beats plain AvUC on test ECE", ok,
        f"GS wins {wins}/10 seeds ({elapsed:.0f}s)",
    )


def test_09_determinism_and_round_trip(criterion_log, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "seed": 5,
        "data": {"n": 240},
        "model": {"hidden": [8]},
        "train": {"epochs": 2, "batch_size": 32},
    }))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    reports_identical = outs[0] == outs[1]

    rng = np.random.default_rng(909)
    es = EvalSet(rng.standard_normal((10000, 7)) * 10, rng.integers(0, 7, size=10000))
    path = tmp_path / "big.csv"
    write_logits_csv(str(path), es)
    back = read_logits_csv(str(path))
    round_trip = np.array_equal(back.logits, es.logits) and np.array_equal(back.labels, es.labels)

    ok = reports_identical and round_trip
    assert criterion_log(
        9, "seeded reruns and logits files are exact", ok,
        f"report.json byte-identical: {reports_identical}; "
        f"10000-row write/read value-identical: {round_trip}",
    )


def test_10_four_point_fixture_is_exact(criterion_log):
    conf = np.array([0.6, 0.6, 0.8, 0.8])
    z = np.stack([np.log(conf / (1.0 - conf)), np.zeros(4)], axis=1)
    s = summarize(EvalSet(z, np.array([0, 1, 0, 0])))
    spec = BinningSpec(scheme="equal-width", num_bins=2)
    binned = ece(s, spec, p=1.0, mode=BINNED).value
    label_binned = ece(s, spec, p=1.0, mode=LABEL_BINNED).value
    ok = abs(binned - 0.05) <= 1e-12 and abs(label_binned - 0.10) <= 1e-12
    assert criterion_log(
        10, "four-point ECE fixture", ok,
        f"binned {binned:.17f} (want 0.05), label-binned {label_binned:.17f} (want 0.10)",
    )
