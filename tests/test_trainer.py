"""Trainer and MLP: gradients, the momentum update, determinism, the sweep."""

import copy
import pickle
import sys

import numpy as np
import pytest

from softcal import (
    IngestionError,
    LossSpec,
    MlpModel,
    SweepRow,
    TrainConfig,
    TrainingDivergedError,
    composite_loss,
    forward_backward,
    make_synthetic_task,
    summarize,
    sweep_one_at_a_time,
    train,
)
import softcal.trainer as trainer_module
from softcal.data import EvalSet
from softcal.metrics import eval_convention_ece

from oracles import fd_grad, max_rel_err


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------- MlpModel


def test_init_shapes_and_scaling():
    rng = np.random.default_rng(0)
    model = MlpModel.init([3, 5, 2], rng)
    assert len(model.weights) == 2
    assert model.weights[0].shape == (3, 5) and model.weights[1].shape == (5, 2)
    assert np.abs(model.weights[0]).max() <= 1.0 / np.sqrt(3)
    assert np.abs(model.weights[1]).max() <= 1.0 / np.sqrt(5)
    assert all((b == 0).all() for b in model.biases)
    with pytest.raises(ValueError):
        MlpModel.init([4], rng)


def test_params_are_the_weights_then_the_biases_and_copies_own_theirs():
    rng = np.random.default_rng(1)
    model = MlpModel.init([2, 4, 3], rng)
    for b in model.biases:
        b[:] = rng.standard_normal(b.shape)
    assert model.params.shape == (2 * 4 + 4 * 3 + 4 + 3,)
    np.testing.assert_array_equal(
        model.params, np.concatenate([a.ravel() for a in model.weights + model.biases])
    )
    model.weights[1][2, 1] = 5.0
    assert model.params[2 * 4 + 2 * 3 + 1] == 5.0
    original = model.params.copy()
    for twin in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        np.testing.assert_array_equal(twin.params, original)
        twin.params[:] = -np.arange(twin.params.size)
        np.testing.assert_array_equal(
            np.concatenate([a.ravel() for a in twin.weights + twin.biases]), twin.params
        )
        np.testing.assert_array_equal(model.params, original)
        for view in (twin.params, *twin.weights, *twin.biases):
            assert not np.shares_memory(view, model.params)
    with pytest.raises(ValueError):
        MlpModel([2, 4, 3], original[:-1])


def test_no_hidden_layer_is_softmax_regression():
    # Closed form for the linear model: dL/dW = X^T (P - Y) / N.
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 3))
    y = rng.integers(0, 4, size=20)
    model = MlpModel.init([3, 4], rng)
    lvg, grad = forward_backward(model, x, y, LossSpec())
    grads = MlpModel(model.layer_sizes, grad)

    p = softmax_rows(x @ model.weights[0] + model.biases[0])
    onehot = np.eye(4)[y]
    np.testing.assert_allclose(grads.weights[0], x.T @ (p - onehot) / 20, rtol=0, atol=1e-14)
    np.testing.assert_allclose(grads.biases[0], (p - onehot).sum(axis=0) / 20, rtol=0, atol=1e-14)


def test_l2_hits_weights_only():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 2))
    y = rng.integers(0, 3, size=12)
    model = MlpModel.init([2, 6, 3], rng)
    model.biases[0][:] = rng.standard_normal(6)

    g0, g1 = (MlpModel(model.layer_sizes, forward_backward(model, x, y, LossSpec(lam=lam))[1])
              for lam in (0.0, 0.01))
    for a, b, w in zip(g0.weights, g1.weights, model.weights):
        np.testing.assert_allclose(b - a, 2 * 0.01 * w, rtol=0, atol=1e-15)
    for a, b in zip(g0.biases, g1.biases):
        np.testing.assert_array_equal(a, b)


def test_parameter_gradients_match_finite_differences():
    # Composite loss through the net; inputs re-drawn until every ReLU
    # pre-activation and every top-2 probability gap clears the FD step by
    # a wide margin, so no kink is crossed.
    spec = LossSpec(
        primary="focal", gamma=2.0, secondary="sb-ece", beta=0.5, lam=0.01,
        bins=4, bin_temperature=0.1,
    )
    rng = np.random.default_rng(4)
    model = MlpModel.init([2, 6, 3], rng)
    for _ in range(200):
        x = rng.standard_normal((10, 2))
        y = rng.integers(0, 3, size=10)
        pre = x @ model.weights[0]
        logits = model.forward(x)[0]
        p = np.sort(softmax_rows(logits), axis=1)
        if np.abs(pre).min() > 1e-3 and (p[:, -1] - p[:, -2]).min() > 1e-3:
            break
    else:
        raise AssertionError("no well-conditioned batch found")

    def loss_of(flat):
        m = copy.deepcopy(model)
        m.params[:] = np.asarray(flat, dtype=np.float64)
        return forward_backward(m, x, y, spec)[0].value

    _, analytic = forward_backward(model, x, y, spec)
    numeric = np.asarray(fd_grad(loss_of, model.params.copy()), dtype=np.float64)
    assert max_rel_err(analytic, numeric) < 1e-4


def _layer_buffers(model, rows):
    return [np.empty((rows, w.shape[1])) for w in model.weights]


@pytest.mark.parametrize("sizes", [[3, 4], [3, 7, 4], [3, 7, 5, 4]])
def test_buffered_forward_matches_fresh_forward(sizes):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((33, 3))
    models = [MlpModel.init(sizes, rng) for _ in range(2)]
    for model in models:
        for b in model.biases:
            b[:] = rng.standard_normal(b.shape)
    out = _layer_buffers(models[0], len(x))
    for b in out:
        b.fill(np.nan)
    # The second model reuses the buffers the first one filled.
    for model in models:
        logits, activations = model.forward(x, out=out)
        ref_logits, ref_activations = model.forward(x)
        assert logits is out[-1]
        np.testing.assert_array_equal(logits, ref_logits)
        assert len(activations) == len(ref_activations) == len(sizes) - 1
        for a, ref in zip(activations, ref_activations):
            np.testing.assert_array_equal(a, ref)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor-fault counts")
def test_buffered_forward_adds_no_page_faults():
    import resource

    rng = np.random.default_rng(6)
    model = MlpModel.init([2, 128, 128, 2], rng)
    x = rng.standard_normal((768, 2))
    out = _layer_buffers(model, len(x))
    model.forward(x, out=out)  # first touch of the buffers
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        model.forward(x, out=out)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


def test_zero_lam_skips_the_weight_norm_only():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((12, 2))
    y = rng.integers(0, 3, size=12)
    model = MlpModel.init([2, 6, 3], rng)
    spec = LossSpec(secondary="sb-ece", beta=0.5)
    lvg, _ = forward_backward(model, x, y, spec)
    full = composite_loss(model.forward(x)[0], y, spec, weight_sq_norm=model.weight_sq_norm())
    assert lvg.value == full.value and lvg.l2_value == 0.0
    np.testing.assert_array_equal(lvg.grad_logits, full.grad_logits)


# ------------------------------------------------------------------ train


def test_two_epochs_match_hand_computed_momentum():
    # Replicates init, shuffling and both heavy-ball updates by hand,
    # including the scheduled lr drop at the second epoch.
    n, lr = 16, 0.5
    rng = np.random.default_rng(8)
    x = rng.standard_normal((n, 1))
    y = (x[:, 0] > 0).astype(np.int64)
    cfg = TrainConfig(
        hidden=(), learning_rate=lr, epochs=2, batch_size=n, seed=4,
        lr_drop_epochs=(1,), lr_drop_factor=0.1,
    )
    model, report = train((x, y), (x, y), cfg, num_classes=2)

    r = np.random.default_rng(4)
    w = r.uniform(-1.0, 1.0, size=(1, 2)) / np.sqrt(1)
    b = np.zeros(2)
    vw, vb = np.zeros_like(w), np.zeros_like(b)
    for epoch_lr in (lr, lr * 0.1):
        perm = r.permutation(n)
        xb, yb = x[perm], y[perm]
        p = softmax_rows(xb @ w + b)
        g = (p - np.eye(2)[yb]) / n
        vw = 0.9 * vw - epoch_lr * (xb.T @ g)
        vb = 0.9 * vb - epoch_lr * g.sum(axis=0)
        w = w + vw
        b = b + vb
    np.testing.assert_allclose(model.weights[0], w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.biases[0], b, rtol=0, atol=1e-12)
    assert len(report.train_loss) == len(report.val_accuracy) == len(report.val_ece) == 2


def test_train_is_deterministic_and_report_is_consistent():
    task = make_synthetic_task("gaussian-blobs", 400, seed=6, noise=1.5)
    cfg = TrainConfig(hidden=(8,), epochs=3, batch_size=32, seed=1)
    model_a, rep_a = train((task.x_train, task.y_train), (task.x_val, task.y_val), cfg)
    model_b, rep_b = train((task.x_train, task.y_train), (task.x_val, task.y_val), cfg)
    assert rep_a == rep_b
    np.testing.assert_array_equal(model_a.params, model_b.params)

    summary = summarize(EvalSet(model_a.forward(task.x_val)[0], task.y_val))
    assert rep_a.final_val_accuracy == float(summary.accuracy.mean())
    assert rep_a.final_val_ece == eval_convention_ece(summary, cfg.eval_bins)
    assert rep_a.final_val_ece == rep_a.val_ece[-1]


def test_degenerate_batches_are_skipped_not_fatal():
    # kappa ~ 0 marks everything uncertain; once the easy task is learnt,
    # all-accurate batches have an empty AvUC denominator.
    task = make_synthetic_task("gaussian-blobs", 240, seed=9, noise=0.1)
    cfg = TrainConfig(
        loss=LossSpec(secondary="avuc", beta=1.0, kappa=1e-12),
        hidden=(8,), epochs=4, batch_size=16, seed=0,
    )
    model, report = train((task.x_train, task.y_train), (task.x_val, task.y_val), cfg)
    assert report.skipped_batches > 0
    assert report.final_val_accuracy > 0.9
    assert model.forward(task.x_val)[0].shape == (len(task.y_val), 2)


def test_skips_are_rare_at_normal_settings():
    task = make_synthetic_task("gaussian-blobs", 600, seed=10)
    cfg = TrainConfig(
        loss=LossSpec(secondary="avuc", beta=1.0, kappa=0.5),
        hidden=(16,), epochs=3, batch_size=64, seed=2,
    )
    _, report = train((task.x_train, task.y_train), (task.x_val, task.y_val), cfg)
    total = 3 * int(np.ceil(len(task.y_train) / 64))
    assert report.skipped_batches <= 0.01 * total


def test_divergence_raises():
    task = make_synthetic_task("gaussian-blobs", 300, seed=11)
    cfg = TrainConfig(hidden=(8,), learning_rate=1e8, epochs=5, batch_size=32, seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
        train((task.x_train, task.y_train), (task.x_val, task.y_val), cfg)


def test_divergence_in_the_validation_pass_raises():
    # 32 training rows make one batch per epoch: its loss is still finite,
    # and the step it takes sends the validation logits to inf/nan.
    task = make_synthetic_task("gaussian-blobs", 256, seed=11, splits=(0.125, 0.375, 0.5))
    assert len(task.y_train) == 32
    cfg = TrainConfig(hidden=(8,), learning_rate=1e300, epochs=2, batch_size=32, seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="epoch 0"):
        train((task.x_train, task.y_train), (task.x_val, task.y_val), cfg)


def test_bad_validation_data_is_an_ingestion_error():
    task = make_synthetic_task("gaussian-blobs", 300, seed=11)
    cfg = TrainConfig(hidden=(8,), epochs=1, seed=0)
    x_nan = task.x_val.copy()
    x_nan[3, 0] = np.nan
    for x_val, y_val in ((x_nan, task.y_val), (task.x_val, task.y_val + 5)):
        with pytest.raises(IngestionError):
            train((task.x_train, task.y_train), (x_val, y_val), cfg, num_classes=2)


@pytest.mark.parametrize("fault", ["label out of range", "non-integer label", "nan feature", "nan label",
                                   "inf label", "narrower validation features"])
def test_bad_training_data_is_an_ingestion_error_before_the_first_epoch(fault, monkeypatch):
    task = make_synthetic_task("gaussian-blobs", 300, seed=11)
    x, y, x_val = task.x_train.copy(), task.y_train.astype(np.float64), task.x_val
    # A label the class count is derived from must be checked before use.
    num_classes = None if fault in ("nan label", "inf label") else 2
    if fault == "label out of range":
        y[5] = 2
    elif fault == "non-integer label":
        y[5] = 0.5
    elif fault == "nan feature":
        x[3, 0] = np.nan
    elif fault == "nan label":
        y[5] = np.nan
    elif fault == "inf label":
        y[5] = np.inf
    else:
        x_val = x_val[:, :1]

    def no_batches(*args):
        raise AssertionError("a batch ran on unchecked training data")

    monkeypatch.setattr(trainer_module, "forward_backward", no_batches)
    with pytest.raises(IngestionError):
        train((x, y), (x_val, task.y_val), TrainConfig(hidden=(8,), epochs=1), num_classes=num_classes)


def test_train_builds_one_eval_set_the_validation_buffer(monkeypatch):
    task = make_synthetic_task("gaussian-blobs", 300, seed=11)
    built = []
    monkeypatch.setattr(trainer_module, "EvalSet", lambda *args: built.append(EvalSet(*args)) or built[-1])
    train((task.x_train, task.y_train), (task.x_val, task.y_val), TrainConfig(hidden=(8,), epochs=1))
    assert [s.logits.shape for s in built] == [(len(task.y_val), 2)]


def test_config_validation():
    for bad in (
        dict(learning_rate=0.0),
        dict(learning_rate=-1.0),
        dict(epochs=0),
        dict(batch_size=0),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


@pytest.mark.parametrize(
    "bad",
    [
        dict(epochs=1.5),
        dict(epochs=True),
        dict(batch_size=2.5),
        dict(batch_size=-1),
        dict(hidden=(0,)),
        dict(hidden=(-3,)),
        dict(hidden=(8, 2.0)),
        dict(hidden=(True,)),
    ],
)
def test_sizes_must_be_positive_integers(bad):
    with pytest.raises(ValueError, match="positive integer"):
        TrainConfig(**bad)


def test_numpy_integer_sizes_are_accepted():
    cfg = TrainConfig(hidden=(np.int64(8),), epochs=np.int32(3), batch_size=np.int64(16))
    assert cfg.hidden == (8,) and cfg.epochs == 3 and cfg.batch_size == 16


# ------------------------------------------------------------------ sweep


def scripted_train_fn(table, calls):
    """Looks up (accuracy, ece) by the loss fields named in the table keys."""

    def fn(config):
        calls.append(config.loss)
        for fields, result in table:
            if all(getattr(config.loss, k) == v for k, v in fields.items()):
                return result
        raise AssertionError(f"unexpected config {config.loss}")

    return fn


def test_sweep_rejects_unknown_parameters():
    with pytest.raises(ValueError, match="unknown sweep parameters"):
        sweep_one_at_a_time(TrainConfig(), {"gamma": [1.0]}, lambda c: (1.0, 0.0))


@pytest.mark.filterwarnings("ignore:beta = 0")
def test_sweep_prefers_low_ece_within_the_accuracy_band():
    # A beta grid may legitimately probe 0 (secondary off); that candidate
    # warns once and is otherwise treated like any other.
    base = TrainConfig(loss=LossSpec(secondary="s-avuc", beta=1.0, soft_temperature=0.1))
    table = [
        ({"beta": 0.0}, (0.900, 0.10)),
        ({"beta": 1.0}, (0.899, 0.02)),   # within 1% of best accuracy
        ({"beta": 2.0}, (0.850, 0.01)),   # best ECE but ineligible
    ]
    calls = []
    cfg, rows = sweep_one_at_a_time(base, {"beta": [0.0, 1.0, 2.0]}, scripted_train_fn(table, calls))
    assert cfg.loss.beta == 1.0
    assert [r.selected for r in rows] == [False, True, False]
    assert rows[1] == SweepRow("beta", 1.0, 0.899, 0.02, True)


def test_exact_accuracy_boundary_is_eligible():
    base = TrainConfig(loss=LossSpec(secondary="s-avuc", beta=1.0, soft_temperature=0.1))
    table = [
        ({"beta": 1.0}, (1.00, 0.05)),
        ({"beta": 2.0}, (0.99, 0.01)),
    ]
    cfg, _ = sweep_one_at_a_time(base, {"beta": [1.0, 2.0]}, scripted_train_fn(table, []))
    assert cfg.loss.beta == 2.0


def test_sweep_stages_run_in_fixed_order_with_caching():
    base = TrainConfig(loss=LossSpec(secondary="s-avuc", beta=1.0, soft_temperature=0.1, lam=0.0))
    table = [
        ({"kappa": 0.3}, (0.90, 0.05)),
        ({"kappa": 0.7, "lam": 0.0}, (0.90, 0.03)),
        ({"kappa": 0.7, "lam": 0.01}, (0.90, 0.02)),
    ]
    calls = []
    # Grids given lam-first on purpose; kappa must still run first.
    grids = {"lam": [0.0, 0.01], "kappa": [0.3, 0.7]}
    cfg, rows = sweep_one_at_a_time(base, grids, scripted_train_fn(table, calls))
    assert [r.stage for r in rows] == ["kappa", "kappa", "lam", "lam"]
    assert cfg.loss.kappa == 0.7 and cfg.loss.lam == 0.01
    # The lam=0.0 candidate equals the kappa-stage winner, so it is cached.
    assert len(calls) == 3


def test_a_repeated_grid_value_is_selected_once_per_stage():
    base = TrainConfig(loss=LossSpec(secondary="s-avuc", beta=1.0, soft_temperature=0.1))
    table = [
        ({"kappa": 0.3}, (0.90, 0.02)),
        ({"kappa": 0.7}, (0.90, 0.05)),
        ({"beta": 0.5}, (0.90, 0.01)),
        ({"beta": 1.0}, (0.90, 0.04)),
    ]
    grids = {"kappa": [0.3, 0.7, 0.3], "beta": [0.5, 0.5, 1.0]}
    cfg, rows = sweep_one_at_a_time(base, grids, scripted_train_fn(table, []))
    assert cfg.loss.kappa == 0.3 and cfg.loss.beta == 0.5
    assert [r.selected for r in rows] == [True, False, False, True, False, False]


def test_empty_or_missing_grids_are_skipped():
    base = TrainConfig()
    cfg, rows = sweep_one_at_a_time(base, {"beta": []}, lambda c: (1.0, 0.0))
    assert cfg == base and rows == []
