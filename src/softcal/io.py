"""File formats: the logits CSV and the JSON run configuration.

Logits CSV: no header; each row is `label,z1,...,zK` with K >= 2 constant
across rows.  Floats are written with Python's shortest round-trip repr, so
write -> read is value-identical.  A file is parsed in one np.loadtxt pass;
one that pass refuses is parsed again line by line with the csv module, int()
and float(), and that scan alone defines the accepted syntax and the error
messages, so both paths return the same arrays or raise the same error.

Run config JSON: four optional sections (data, model, train, loss) plus a
seed.  Unknown keys anywhere are rejected rather than ignored, since a typo
silently falling back to a default is the worst failure mode a config can
have.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import EvalSet, IngestionError
from .losses import LossSpec
from .synthetic import check_task_args
from .trainer import TrainConfig


class UsageError(Exception):
    """Bad flags or config schema; CLI exit code 64."""


class DataError(Exception):
    """Unreadable or malformed input data; CLI exit code 2."""


def read_logits_csv(path: str) -> EvalSet:
    """Parse a logits CSV into an EvalSet, reporting 1-based line numbers.

    Files that _loadtxt_logits refuses, and pipes, go to _scan_logits_csv,
    which defines what is valid and writes every error message.
    """
    try:
        handle = open(path, newline="")
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from err
    with handle:
        if handle.seekable():
            try:
                return _loadtxt_logits(handle)
            except ValueError:  # refusals, loadtxt's parse errors, IngestionError, UnicodeDecodeError
                handle.seek(0)
        return _scan_logits_csv(path, handle)


def _loadtxt_logits(handle) -> EvalSet:
    """One np.loadtxt pass, with K taken from the first line; ValueError
    where it refuses the file.

    np.loadtxt strips \\x1c-\\x1f and reads some non-ASCII text as digits
    where int() and float() refuse them, so it refuses text with those
    characters, and a first line with under two logits (blank ones included).
    """
    for chunk in iter(lambda: handle.read(1 << 20), ""):
        if not chunk.isascii() or any(c in chunk for c in "\x1c\x1d\x1e\x1f"):
            raise ValueError("text outside what np.loadtxt parses as int() and float() do")
    handle.seek(0)
    width = handle.readline().count(",") + 1
    if width < 3:
        raise ValueError("under two logits on the first line")
    handle.seek(0)
    record = np.dtype([("label", np.int64), ("logits", np.float64, (width - 1,))])
    with warnings.catch_warnings():
        # numpy 1.23-1.26 read a label written "1.5" as 1 with only this
        # DeprecationWarning; as an error, loadtxt raises ValueError instead.
        warnings.simplefilter("error", DeprecationWarning)
        rows = np.loadtxt(handle, dtype=record, delimiter=",", comments=None, ndmin=1)
    return EvalSet(np.ascontiguousarray(rows["logits"]), rows["label"].copy())


def _scan_logits_csv(path: str, handle) -> EvalSet:
    """The reference line-by-line parse behind read_logits_csv; path names
    the file in error messages."""
    labels: list[int] = []
    rows: list[list[float]] = []
    width = None
    for lineno, row in enumerate(csv.reader(handle), start=1):
        if not row:
            continue
        if len(row) < 3:
            raise DataError(
                f"{path}:{lineno}: need a label and at least 2 logits, got {len(row)} fields"
            )
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(
                f"{path}:{lineno}: expected {width} fields, got {len(row)}"
            )
        try:
            label = int(row[0])
        except ValueError:
            raise DataError(f"{path}:{lineno}: label {row[0]!r} is not an integer") from None
        try:
            logits = [float(v) for v in row[1:]]
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric logit") from None
        if not all(np.isfinite(logits)):
            raise DataError(f"{path}:{lineno}: non-finite logit")
        if not 0 <= label < width - 1:
            raise DataError(
                f"{path}:{lineno}: label {label} outside [0, {width - 1})"
            )
        labels.append(label)
        rows.append(logits)
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        return EvalSet(np.asarray(rows, dtype=np.float64), np.asarray(labels, dtype=np.int64))
    except IngestionError as err:
        raise DataError(f"{path}: {err}") from err


_WRITE_BLOCK_ROWS = 4096


def write_logits_csv(path: str, eval_set: EvalSet) -> None:
    # Rows go through .tolist() a block at a time: Python floats repr as the
    # shortest round-trip string, and one list of every row would hold
    # ~0.4 KB per 10-logit row at once.
    with open(path, "w", newline="") as handle:
        for start in range(0, eval_set.n, _WRITE_BLOCK_ROWS):
            block = slice(start, start + _WRITE_BLOCK_ROWS)
            for label, row in zip(eval_set.labels[block].tolist(), eval_set.logits[block].tolist()):
                handle.write(f"{label},{','.join(map(repr, row))}\n")


_LOSS_DEFAULTS = {f.name: f.default for f in fields(LossSpec)}
_DATA_DEFAULTS = {
    "kind": "gaussian-blobs",
    "n": 2000,
    "classes": 2,
    "dim": 2,
    "noise": 1.0,
    "separation": 6.0,
    "flip_rate": 0.2,
    "splits": [0.5, 0.25, 0.25],
}
_MODEL_DEFAULTS = {"hidden": [64, 64]}
_TRAIN_DEFAULTS = {
    "learning_rate": 0.1,
    "epochs": 40,
    "batch_size": 64,
    "lr_drop_epochs": [],
    "lr_drop_factor": 0.1,
    "eval_bins": 15,
}
_TOP_KEYS = ("seed", "data", "model", "train", "loss")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with every default filled in."""

    seed: int
    data: dict
    model: dict
    train: dict
    loss: dict

    def loss_spec(self) -> LossSpec:
        return LossSpec(**self.loss)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            loss=self.loss_spec(),
            hidden=tuple(self.model["hidden"]),
            learning_rate=self.train["learning_rate"],
            epochs=self.train["epochs"],
            batch_size=self.train["batch_size"],
            seed=self.seed,
            lr_drop_epochs=tuple(self.train["lr_drop_epochs"]),
            lr_drop_factor=self.train["lr_drop_factor"],
            eval_bins=self.train["eval_bins"],
        )

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=int(seed))

    def with_loss(self, loss_spec: LossSpec) -> "RunConfig":
        loss = {name: getattr(loss_spec, name) for name in _LOSS_DEFAULTS}
        return replace(self, loss=loss)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "data": dict(self.data),
            "model": dict(self.model),
            "train": dict(self.train),
            "loss": dict(self.loss),
        }


def _merge_section(name: str, given: dict, defaults: dict) -> dict:
    if not isinstance(given, dict):
        raise UsageError(f"config section {name!r} must be an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise UsageError(f"unknown key(s) in config section {name!r}: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(given)
    return merged


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise UsageError("run config must be a JSON object")
    unknown = set(doc) - set(_TOP_KEYS)
    if unknown:
        raise UsageError(f"unknown top-level config key(s): {sorted(unknown)}")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise UsageError(f"seed must be an integer, got {seed!r}")
    try:
        cfg = RunConfig(
            seed=seed,
            data=_merge_section("data", doc.get("data", {}), _DATA_DEFAULTS),
            model=_merge_section("model", doc.get("model", {}), _MODEL_DEFAULTS),
            train=_merge_section("train", doc.get("train", {}), _TRAIN_DEFAULTS),
            loss=_merge_section("loss", doc.get("loss", {}), _LOSS_DEFAULTS),
        )
        # Construct the typed objects eagerly so bad values fail at load time.
        cfg.train_config()
        check_task_args(cfg.data["kind"], cfg.data["n"], cfg.data["classes"], tuple(cfg.data["splits"]))
    except (TypeError, ValueError) as err:
        raise UsageError(f"invalid config value: {err}") from err
    return cfg


def load_json(path: str):
    """The parsed JSON document at path; unreadable or invalid files are data errors."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise DataError(f"{path} is not valid JSON: {err}") from err


def load_run_config(path: str) -> RunConfig:
    return run_config_from_dict(load_json(path))
