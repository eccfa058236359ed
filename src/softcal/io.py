"""File formats: the logits CSV and the JSON run configuration.

Logits CSV: no header; each row is `label,z1,...,zK` with K >= 2 constant
across rows.  Floats are written with Python's shortest round-trip repr, so
write -> read is value-identical.  A file is parsed in one np.loadtxt pass;
one that pass refuses is parsed again line by line with the csv module, int()
and float(), and that scan alone defines the accepted syntax and the error
messages, so both paths return the same arrays or raise the same error.

Run config JSON: four optional sections (data, model, train, loss) plus a
seed, read into a RunConfig of a TaskSpec and a TrainConfig.  Unknown keys
anywhere are rejected rather than ignored, since a typo silently falling
back to a default is the worst failure mode a config can have.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import EvalSet, IngestionError
from .losses import LossSpec
from .synthetic import TaskSpec
from .trainer import TrainConfig


class UsageError(Exception):
    """Bad flags or config schema; CLI exit code 64."""


def read_logits_csv(path: str) -> EvalSet:
    """Parse a logits CSV into an EvalSet, reporting 1-based line numbers.

    Files that _loadtxt_logits refuses, and pipes, go to _scan_logits_csv,
    which defines what is valid and writes every error message.
    """
    try:
        handle = open(path, newline="")
    except OSError as err:
        raise IngestionError(f"cannot read {path}: {err}") from err
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
    """The reference line-by-line parse behind read_logits_csv: its checks
    include all of EvalSet's, and path names the file in error messages."""
    labels: list[int] = []
    rows: list[list[float]] = []
    width = None
    reader = csv.reader(handle)
    try:
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) < 3:
                raise IngestionError(f"{path}:{lineno}: need a label and at least 2 logits, got {len(row)} fields")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise IngestionError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            try:
                label = int(row[0])
            except ValueError:
                raise IngestionError(f"{path}:{lineno}: label {row[0]!r} is not an integer") from None
            try:
                logits = [float(v) for v in row[1:]]
            except ValueError:
                raise IngestionError(f"{path}:{lineno}: non-numeric logit") from None
            if not all(np.isfinite(logits)):
                raise IngestionError(f"{path}:{lineno}: non-finite logit")
            if not 0 <= label < width - 1:
                raise IngestionError(f"{path}:{lineno}: label {label} outside [0, {width - 1})")
            labels.append(label)
            rows.append(logits)
    except UnicodeDecodeError as err:  # where the decoder stopped is not a line number
        raise IngestionError(f"{path}: cannot decode as {err.encoding}: {err.reason}") from None
    except csv.Error as err:  # a field over csv.field_size_limit(), for one
        raise IngestionError(f"{path}:{reader.line_num}: {err}") from None
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    return EvalSet(np.asarray(rows, dtype=np.float64), np.asarray(labels, dtype=np.int64))


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


# The file layout: which JSON section holds which dataclass fields.  data is
# the TaskSpec, loss the LossSpec, and model and train hold the TrainConfig
# fields but the loss and the seed, which sits at the top level.  Every key
# and default is a field of those dataclasses, and no two share a name.
_SECTION_KEYS = {
    "data": tuple(f.name for f in fields(TaskSpec)),
    "model": ("hidden",),
    "train": tuple(f.name for f in fields(TrainConfig) if f.name not in ("loss", "seed", "hidden")),
    "loss": tuple(f.name for f in fields(LossSpec)),
}


@dataclass(frozen=True)
class RunConfig:
    """A checked run config: the task, and the training settings with the loss and seed."""

    task: TaskSpec
    train: TrainConfig

    @property
    def seed(self) -> int:
        return self.train.seed

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, train=replace(self.train, seed=int(seed)))

    def as_json(self) -> dict:
        """The config file's layout, every default filled in."""
        values = {**asdict(self.task), **asdict(self.train), **asdict(self.train.loss)}
        return {"seed": self.seed} | {name: {key: values[key] for key in keys} for name, keys in _SECTION_KEYS.items()}


def _section(doc: dict, name: str) -> dict:
    """The keys given in one section, JSON lists as tuples like the list
    settings of TaskSpec and TrainConfig; loss has none and quotes a list as given."""
    given = doc.get(name, {})
    if not isinstance(given, dict):
        raise UsageError(f"config section {name!r} must be an object")
    unknown = set(given) - set(_SECTION_KEYS[name])
    if unknown:
        raise UsageError(f"unknown key(s) in config section {name!r}: {sorted(unknown)}")
    if name == "loss":
        return given
    return {key: tuple(value) if isinstance(value, list) else value for key, value in given.items()}


def run_config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise UsageError("run config must be a JSON object")
    unknown = set(doc) - {"seed", *_SECTION_KEYS}
    if unknown:
        raise UsageError(f"unknown top-level config key(s): {sorted(unknown)}")
    data, model, train, loss = (_section(doc, name) for name in _SECTION_KEYS)
    # Building the dataclasses checks every value, so bad ones fail at load time.
    try:
        train = TrainConfig(loss=LossSpec(**loss), seed=doc.get("seed", 0), **model, **train)
        return RunConfig(task=TaskSpec(**data), train=train)
    except (TypeError, ValueError) as err:
        raise UsageError(f"invalid config value: {err}") from err


def load_json(path: str):
    """The parsed JSON document at path; unreadable or invalid files are data errors."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as err:
        raise IngestionError(f"cannot read {path}: {err}") from err
    except (ValueError, RecursionError) as err:  # JSONDecodeError, UnicodeDecodeError, deep nesting
        raise IngestionError(f"{path} is not valid JSON: {err}") from err


def load_run_config(path: str) -> RunConfig:
    return run_config_from_dict(load_json(path))
