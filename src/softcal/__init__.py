"""Soft calibration objectives: differentiable ECE and AvUC relaxations,
temperature scaling, and a small deterministic numpy trainer."""

from .avuc import (
    DegenerateBatchError,
    avuc_grad,
    s_avuc_grad,
    soft_uncertainty,
)
from .binning import (
    BinningSpec,
    SoftBinningSpec,
    assign_hard,
    soft_membership,
)
from .data import EvalSet, IngestionError, PredictionSummary, summarize
from .losses import LossSpec, LossValueGrad, composite_loss, focal, mse, nll
from .metrics import (
    BINNED,
    LABEL_BINNED,
    BinStats,
    EceReport,
    bin_stats_hard,
    ece,
    eval_convention_ece,
    reliability_table,
    sb_ece,
    sb_ece_grad,
)
from .mlp import MlpModel
from .recalibrate import TemperatureFit, fit_temperature
from .synthetic import TASK_KINDS, SyntheticTask, TaskSpec, make_synthetic_task
from .trainer import (
    SweepRow,
    TrainConfig,
    TrainingDivergedError,
    TrainReport,
    forward_backward,
    sweep_one_at_a_time,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BINNED",
    "LABEL_BINNED",
    "BinStats",
    "BinningSpec",
    "DegenerateBatchError",
    "EceReport",
    "EvalSet",
    "IngestionError",
    "LossSpec",
    "LossValueGrad",
    "MlpModel",
    "PredictionSummary",
    "SoftBinningSpec",
    "SweepRow",
    "SyntheticTask",
    "TASK_KINDS",
    "TaskSpec",
    "TemperatureFit",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergedError",
    "assign_hard",
    "avuc_grad",
    "bin_stats_hard",
    "composite_loss",
    "ece",
    "eval_convention_ece",
    "fit_temperature",
    "focal",
    "forward_backward",
    "make_synthetic_task",
    "mse",
    "nll",
    "reliability_table",
    "s_avuc_grad",
    "sb_ece",
    "sb_ece_grad",
    "soft_membership",
    "soft_uncertainty",
    "summarize",
    "sweep_one_at_a_time",
    "train",
]
