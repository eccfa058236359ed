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

from dataclasses import dataclass, field, replace

import numpy as np

from .avuc import DegenerateBatchError
from .data import EvalSet, IngestionError, check_int, check_labels, check_real, summarize
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
        check_real("learning_rate", self.learning_rate, 0, strict=True)
        check_real("lr_drop_factor", self.lr_drop_factor, 0, strict=True)
        for name in ("hidden", "lr_drop_epochs"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        for name, value, least in (("epochs", self.epochs, 1), ("batch_size", self.batch_size, 1),
                                   ("eval_bins", self.eval_bins, 1), ("seed", self.seed, 0),
                                   *(("hidden width", width, 1) for width in self.hidden),
                                   *(("lr_drop_epochs entry", e, 0) for e in self.lr_drop_epochs)):
            check_int(name, value, least)


@dataclass
class TrainReport:
    train_loss: list  # None for an epoch whose batches were all skipped
    val_accuracy: list
    val_ece: list
    skipped_batches: int
    final_val_accuracy: float
    final_val_ece: float


def forward_backward(
    model: MlpModel, x: np.ndarray, y: np.ndarray, spec: LossSpec
) -> tuple[LossValueGrad, np.ndarray]:
    """Composite loss on one batch plus its gradient, laid out like params
    (L2 included; with lam == 0 the weight norm is skipped and l2_value reads
    0.0).  y holds checked labels; non-finite logits raise TrainingDivergedError."""
    logits, activations = model.forward(x)
    if not np.isfinite(logits).all():
        raise TrainingDivergedError("non-finite logits")
    sq_norm = model.weight_sq_norm() if spec.lam != 0.0 else 0.0
    lvg = composite_loss(logits, y, spec, weight_sq_norm=sq_norm)
    grad = model.backward(activations, lvg.grad_logits)
    if spec.lam != 0.0:
        n_weights = sum(w.size for w in model.weights)
        grad[:n_weights] += 2.0 * spec.lam * model.params[:n_weights]
    return lvg, grad


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

    Malformed training or validation data, feature widths that differ
    between the two included, raises IngestionError before the first epoch;
    non-finite logits or loss raise TrainingDivergedError naming the epoch.
    """
    x_train, x_val = (np.asarray(xy[0], dtype=np.float64) for xy in (train_xy, val_xy))
    for name, x in (("training", x_train), ("validation", x_val)):
        if x.ndim != 2 or x.shape[0] < 1 or not np.isfinite(x).all():
            raise IngestionError(f"{name} features must be finite, 2-d and non-empty, got shape {x.shape}")
    if x_val.shape[1] != x_train.shape[1]:
        raise IngestionError(f"validation features have {x_val.shape[1]} columns, training {x_train.shape[1]}")
    y_train = check_labels(train_xy[1], x_train.shape[0])
    y_val = check_labels(val_xy[1], x_val.shape[0])
    if num_classes is None:
        num_classes = int(max(y_train.max(), y_val.max())) + 1

    # Both label sets pass the EvalSet rules once, here, so the batches skip
    # them.  Every epoch's forward writes its logits into val_set.logits, the
    # last of the buffers in val_out, so the validation pass allocates no
    # per-epoch arrays.
    y_train = EvalSet(np.zeros((x_train.shape[0], num_classes)), y_train).labels
    val_set = EvalSet(np.zeros((x_val.shape[0], num_classes)), y_val)
    val_out = [np.empty((x_val.shape[0], width)) for width in config.hidden] + [val_set.logits]

    rng = np.random.default_rng(config.seed)
    layer_sizes = [x_train.shape[1], *config.hidden, num_classes]
    model = MlpModel.init(layer_sizes, rng)
    velocity = np.zeros_like(model.params)

    n = x_train.shape[0]
    report = TrainReport([], [], [], 0, 0.0, 0.0)
    # A diverging run overflows on its way to the isfinite checks below;
    # those checks, not numpy's warnings, report it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            lr = _epoch_lr(config, epoch)
            perm = rng.permutation(n)
            batch_losses = []
            for start in range(0, n, config.batch_size):
                idx = perm[start : start + config.batch_size]
                try:
                    lvg, grad = forward_backward(model, x_train[idx], y_train[idx], config.loss)
                except DegenerateBatchError:
                    report.skipped_batches += 1
                    continue
                except TrainingDivergedError as err:
                    raise TrainingDivergedError(f"{err} at epoch {epoch}") from None
                if not np.isfinite(lvg.value):
                    raise TrainingDivergedError(f"loss became {lvg.value} at epoch {epoch}")
                velocity *= MOMENTUM
                velocity -= lr * grad
                model.params += velocity
                batch_losses.append(lvg.value)

            model.forward(x_val, out=val_out)
            if not np.isfinite(val_set.logits).all():
                raise TrainingDivergedError(f"non-finite validation logits at epoch {epoch}")
            val_summary = summarize(val_set)
            report.train_loss.append(float(np.mean(batch_losses)) if batch_losses else None)
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
        # The winner itself, not its value: a repeated grid value is selected once.
        for c in candidates:
            rows.append(SweepRow(param, float(c[0]), c[2], c[3], c is winner))
        current = winner[1]
    return current, rows
