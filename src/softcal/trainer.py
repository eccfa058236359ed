"""Deterministic SGD trainer and the one-at-a-time hyperparameter sweep.

Momentum is the classic heavy-ball form with mu fixed at 0.9:

    v <- mu v - lr g;  theta <- theta + v

Batches whose AvUC denominator vanishes are skipped and counted rather than
treated as failures; a non-finite loss aborts the run.  The sweep tunes one
hyperparameter at a time in the fixed order kappa, soft_temperature, beta,
lam, keeping the winner of each stage, where a stage winner is the lowest
validation ECE among configs within 1% relative accuracy of the stage's best.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .avuc import DegenerateBatchError
from .data import EvalSet, IngestionError, summarize
from .losses import LossSpec, LossValueGrad, composite_loss
from .metrics import eval_convention_ece
from .mlp import MlpModel

MOMENTUM = 0.9

SWEEP_ORDER = ("kappa", "soft_temperature", "beta", "lam")


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    loss: LossSpec = field(default_factory=LossSpec)
    hidden: tuple = (64, 64)
    learning_rate: float = 0.1
    epochs: int = 40
    batch_size: int = 64
    seed: int = 0
    lr_drop_epochs: tuple = ()
    lr_drop_factor: float = 0.1
    eval_bins: int = 15

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        for name, value in (("epochs", self.epochs), ("batch_size", self.batch_size),
                            ("eval_bins", self.eval_bins),
                            *(("hidden width", width) for width in self.hidden)):
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        for epoch in self.lr_drop_epochs:
            if not isinstance(epoch, numbers.Integral) or isinstance(epoch, bool) or epoch < 0:
                raise ValueError(f"lr_drop_epochs must be non-negative integers, got {epoch!r}")


@dataclass
class TrainReport:
    train_loss: list
    val_accuracy: list
    val_ece: list
    skipped_batches: int
    final_val_accuracy: float
    final_val_ece: float

    def to_dict(self) -> dict:
        return {
            "train_loss": self.train_loss,
            "val_accuracy": self.val_accuracy,
            "val_ece": self.val_ece,
            "skipped_batches": self.skipped_batches,
            "final_val_accuracy": self.final_val_accuracy,
            "final_val_ece": self.final_val_ece,
        }


def forward_backward(
    model: MlpModel, x: np.ndarray, y: np.ndarray, spec: LossSpec
) -> tuple[LossValueGrad, list, list]:
    """Composite loss on one batch plus parameter gradients (L2 included;
    with lam == 0 the weight norm is skipped and l2_value reads 0.0)."""
    logits, activations = model.forward(x)
    sq_norm = model.weight_sq_norm() if spec.lam != 0.0 else 0.0
    lvg = composite_loss(logits, y, spec, weight_sq_norm=sq_norm)
    grads_w, grads_b = model.backward(activations, lvg.grad_logits)
    if spec.lam != 0.0:
        grads_w = [gw + 2.0 * spec.lam * w for gw, w in zip(grads_w, model.weights)]
    return lvg, grads_w, grads_b


def _epoch_lr(config: TrainConfig, epoch: int) -> float:
    drops = sum(1 for e in config.lr_drop_epochs if epoch >= e)
    return config.learning_rate * config.lr_drop_factor**drops


def train(
    train_xy: tuple[np.ndarray, np.ndarray],
    val_xy: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
    num_classes: int | None = None,
) -> tuple[MlpModel, TrainReport]:
    """SGD with momentum on the composite loss; fully seeded and deterministic.

    Malformed validation data raises IngestionError before the first epoch;
    non-finite logits or loss raise TrainingDivergedError naming the epoch.
    """
    x_train, y_train = np.asarray(train_xy[0], dtype=np.float64), np.asarray(train_xy[1])
    x_val, y_val = np.asarray(val_xy[0], dtype=np.float64), np.asarray(val_xy[1])
    if num_classes is None:
        num_classes = int(max(y_train.max(), y_val.max())) + 1

    if x_val.ndim != 2 or not np.isfinite(x_val).all():
        raise IngestionError(f"validation features must be finite and 2-d, got shape {x_val.shape}")
    # The labels pass the EvalSet rules once, here.  Every epoch's forward
    # writes its logits into val_set.logits, the last of the buffers in
    # val_out, so the validation pass allocates no per-epoch arrays.
    val_set = EvalSet(np.zeros((x_val.shape[0], num_classes)), y_val)
    val_out = [np.empty((x_val.shape[0], width)) for width in config.hidden] + [val_set.logits]

    rng = np.random.default_rng(config.seed)
    layer_sizes = [x_train.shape[1], *config.hidden, num_classes]
    model = MlpModel.init(layer_sizes, rng)
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]

    n = x_train.shape[0]
    report = TrainReport([], [], [], 0, 0.0, 0.0)
    for epoch in range(config.epochs):
        lr = _epoch_lr(config, epoch)
        perm = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            try:
                lvg, grads_w, grads_b = forward_backward(model, x_train[idx], y_train[idx], config.loss)
            except DegenerateBatchError:
                report.skipped_batches += 1
                continue
            except IngestionError as err:
                raise TrainingDivergedError(
                    f"non-finite logits at epoch {epoch}: {err}"
                ) from err
            if not np.isfinite(lvg.value):
                raise TrainingDivergedError(f"loss became {lvg.value} at epoch {epoch}")
            for l in range(model.num_layers):
                vel_w[l] = MOMENTUM * vel_w[l] - lr * grads_w[l]
                vel_b[l] = MOMENTUM * vel_b[l] - lr * grads_b[l]
                model.weights[l] += vel_w[l]
                model.biases[l] += vel_b[l]
            batch_losses.append(lvg.value)

        model.forward(x_val, out=val_out)
        if not np.isfinite(val_set.logits).all():
            raise TrainingDivergedError(f"non-finite validation logits at epoch {epoch}")
        val_summary = summarize(val_set)
        report.train_loss.append(float(np.mean(batch_losses)) if batch_losses else float("nan"))
        report.val_accuracy.append(float(val_summary.accuracy.mean()))
        report.val_ece.append(eval_convention_ece(val_summary, config.eval_bins))

    report.final_val_accuracy = report.val_accuracy[-1]
    report.final_val_ece = report.val_ece[-1]
    return model, report


@dataclass(frozen=True)
class SweepRow:
    stage: str
    value: float
    val_accuracy: float
    val_ece: float
    selected: bool


def sweep_one_at_a_time(
    base_config: TrainConfig,
    grids: dict,
    train_fn,
) -> tuple[TrainConfig, list[SweepRow]]:
    """Tune loss hyperparameters one at a time in the order kappa,
    soft_temperature, beta, lam, retaining each stage's winner.

    train_fn(config) -> (val_accuracy, val_ece).  Results are cached by the
    loss spec, so re-evaluating the incumbent value costs nothing.
    """
    unknown = set(grids) - set(SWEEP_ORDER)
    if unknown:
        raise ValueError(f"unknown sweep parameters: {sorted(unknown)}")

    cache: dict[LossSpec, tuple[float, float]] = {}

    def evaluate(config: TrainConfig) -> tuple[float, float]:
        key = config.loss
        if key not in cache:
            cache[key] = train_fn(config)
        return cache[key]

    current = base_config
    rows: list[SweepRow] = []
    for param in SWEEP_ORDER:
        if param not in grids or not grids[param]:
            continue
        candidates = []
        for value in grids[param]:
            cfg = replace(current, loss=replace(current.loss, **{param: value}))
            acc, ece_val = evaluate(cfg)
            candidates.append((value, cfg, acc, ece_val))
        best_acc = max(c[2] for c in candidates)
        eligible = [c for c in candidates if c[2] >= best_acc * 0.99]
        winner = min(eligible, key=lambda c: c[3])
        for value, _, acc, ece_val in candidates:
            rows.append(SweepRow(param, float(value), acc, ece_val, value == winner[0]))
        current = winner[1]
    return current, rows
