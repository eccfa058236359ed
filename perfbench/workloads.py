"""The three workloads, their output checks, and the closed measuring loop.

Each workload is one caller issuing one op at a time.  An op is one call a
user makes (a 400-epoch training, a temperature fit with its before/after
ECE, a `softcal` subprocess); its kind names the per-kind median the run
reports.  `ops()` returns one cycle, one op of each kind per input.  Checks
run outside the timed region, and an op whose check fails, or that raises,
counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import softcal.data
import softcal.io
import softcal.metrics
import softcal.recalibrate
import softcal.synthetic
import softcal.trainer
from softcal import EvalSet, LossSpec, TrainConfig
from tracing import Tracer, installed, load_spans

PLANTED_TOLERANCE = 0.02
SUBPROCESS_TIMEOUT_S = 150


@dataclass
class Op:
    kind: str
    run: Callable[[Tracer | None], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Outcome:
    samples: dict = field(default_factory=dict)  # kind -> seconds per op
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def medians(self) -> dict:
        return {kind: statistics.median(v) for kind, v in self.samples.items()}


def run_op(op: Op, outcome: Outcome, tracer: Tracer | None = None) -> float:
    """Time one op, traced when a tracer is given, then check its output."""
    elapsed = None
    start = perf_counter()
    try:
        if tracer is None:
            result = op.run(None)
        else:
            with installed(tracer):
                result = op.run(tracer)
        elapsed = perf_counter() - start
        problems = [f"{op.kind}: {p}" for p in op.check(result)]
    except Exception as err:  # the loop must go on; the op counts as failed
        problems = [f"{op.kind}: raised {type(err).__name__}: {err}"]
    if elapsed is None:
        elapsed = perf_counter() - start
    outcome.samples.setdefault(op.kind, []).append(elapsed)
    outcome.attempted += 1
    if problems:
        outcome.failed += 1
        outcome.problems.extend(problems)
    return elapsed


def measure(ops: list[Op], seconds: float) -> Outcome:
    """Cycle through `ops` for `seconds`: always one full cycle, then each
    further op only if its kind's median so far still fits before the
    deadline."""
    outcome = Outcome()
    deadline = perf_counter() + seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        if i >= len(ops) and perf_counter() + statistics.median(outcome.samples[op.kind]) > deadline:
            return outcome
        run_op(op, outcome)
        i += 1


def run_cycle(ops: list[Op], outcome: Outcome, tracer: Tracer | None) -> float:
    """One op of each kind; returns the summed op time."""
    total = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        total += run_op(op, outcome, tracer)
    return total


def child_env(root: Path) -> dict:
    """This process's environment, thread pins included, with softcal's
    sources first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""))


def posterior_logits(rng: np.random.Generator, n: int, k: int, spread: float):
    """Latent logits v and labels drawn from softmax(v), so v is calibrated
    and v * s is miscalibrated by exactly the temperature s."""
    v = rng.normal(0.0, spread, size=(n, k))
    p = np.exp(v - v.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    y = (p.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1)
    return v, np.minimum(y, k - 1)


def _digest(model) -> str:
    h = hashlib.sha256()
    for a in (*model.weights, *model.biases):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _relu_net_logits(model, x: np.ndarray) -> np.ndarray:
    """The MLP's logits without MlpModel.forward, so the accuracy check does
    not rest on the code it checks."""
    a = x
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w + b
        if l < len(model.weights) - 1:
            a = np.maximum(a, 0.0)
    return a


def check_training(model, report, x_val, y_val, previous_digest: str | None) -> list[str]:
    problems = []
    if not all(math.isfinite(v) for v in report.train_loss):
        problems.append("non-finite training loss")
    acc = float(np.mean(np.argmax(_relu_net_logits(model, x_val), axis=1) == y_val))
    if acc != report.final_val_accuracy:
        problems.append(f"val accuracy {acc} by argmax, {report.final_val_accuracy} reported")
    if previous_digest is not None and _digest(model) != previous_digest:
        problems.append("parameters differ from an earlier run of the same seed and loss")
    return problems


def check_fit(fit, ece_before: float, ece_after: float, planted_scale: float | None,
              previous_t: float | None) -> list[str]:
    problems = []
    if not (math.isfinite(fit.t_star) and fit.t_star > 0):
        problems.append(f"t* = {fit.t_star}")
    if planted_scale is not None and abs(fit.t_star / planted_scale - 1.0) > PLANTED_TOLERANCE:
        problems.append(f"t* = {fit.t_star} vs planted scale {planted_scale}")
    finite = [v for _, v in fit.trace if math.isfinite(v)]
    if not finite or fit.objective_value > min(finite):
        problems.append(f"objective {fit.objective_value} above the best trace entry")
    if not (math.isfinite(ece_before) and math.isfinite(ece_after)):
        problems.append(f"ECE before/after {ece_before}/{ece_after}")
    if previous_t is not None and fit.t_star != previous_t:
        problems.append(f"t* = {fit.t_star} on rerun, {previous_t} before")
    return problems


def check_cli(proc, expected_keys: set, expected: dict) -> list[str]:
    """Exit code 0, a JSON object on stdout holding `expected_keys`, and the
    values in `expected` exactly."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return [f"stdout is not JSON: {proc.stdout[:200]!r}"]
    if not isinstance(doc, dict):
        return ["stdout JSON is not an object"]
    problems = [f"stdout lacks {sorted(expected_keys - set(doc))}"] if expected_keys - set(doc) else []
    problems += [f"{k} = {doc.get(k)!r}, expected {v!r}" for k, v in expected.items() if doc.get(k) != v]
    return problems


class Workload:
    name = ""
    children_rss = False  # peak RSS is the largest child's, not this process's

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.env = child_env(root)

    def setup(self) -> None:
        """Generate the inputs from the seed; timed as setup_s."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def probes(self) -> list[Op]:
        """Extra ops a traced run times on their own (cli start-up)."""
        return []


class TrainLabelNoise(Workload):
    """Repeated 400-epoch trainings on the criterion-7 task, one per loss."""

    name = "train-label-noise"
    LOSSES = {
        "train_nll_s": {},
        "train_savuc_s": dict(secondary="s-avuc", beta=3.0, kappa=0.85, soft_temperature=0.15, lam=1e-3),
        "train_avucgs_s": dict(secondary="avuc-gs", beta=1.0, kappa=0.5, lam=1e-3),
        "train_sbece_s": dict(secondary="sb-ece", beta=1.0, lam=0.0),
    }

    def __init__(self, seed: int, root: Path, workdir: Path):
        super().__init__(seed, root, workdir)
        self.digests: dict = {}

    def setup(self) -> None:
        self.task = softcal.synthetic.make_synthetic_task(
            "label-noise-blobs", 2048, self.seed, flip_rate=0.2, splits=(0.125, 0.375, 0.5)
        )
        self.configs = {
            kind: TrainConfig(loss=LossSpec(**loss), hidden=(128, 128), epochs=400,
                              learning_rate=0.1, lr_drop_epochs=(300,), seed=self.seed)
            for kind, loss in self.LOSSES.items()
        }

    def _train(self, kind, tracer):
        t = self.task
        return softcal.trainer.train(
            (t.x_train, t.y_train), (t.x_val, t.y_val), self.configs[kind], t.num_classes
        )

    def _check(self, kind, result):
        model, report = result
        problems = check_training(model, report, self.task.x_val, self.task.y_val,
                                  self.digests.get(kind))
        self.digests.setdefault(kind, _digest(model))
        return problems

    def ops(self) -> list[Op]:
        return [Op(k, partial(self._train, k), partial(self._check, k)) for k in self.LOSSES]


class Recalibrate50k(Workload):
    """fit_temperature with both objectives on 50k x 10 validation sets, then
    ECE before and after on a paired test set.  One set has a single planted
    temperature; the other mixes two per-example scales, so the NLL and SB-ECE
    optima differ."""

    name = "recalibrate-50k"
    N, K = 50_000, 10
    OBJECTIVES = {"nll": "fit_nll_s", "sb-ece": "fit_sbece_s"}

    def __init__(self, seed: int, root: Path, workdir: Path):
        super().__init__(seed, root, workdir)
        self.t_stars: dict = {}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        scale = float(rng.uniform(1.0, 3.0))

        def planted():
            v, y = posterior_logits(rng, self.N, self.K, spread=2.5)
            return EvalSet(v * scale, y)

        def mixed():
            v, y = posterior_logits(rng, self.N, self.K, spread=1.5)
            s = np.where(rng.random(self.N) < 0.5, 1.5, 5.0)
            return EvalSet(v * s[:, None], y)

        self.sets = {"planted": (scale, planted(), planted()), "mixed": (None, mixed(), mixed())}

    def _fit(self, set_name, objective, tracer):
        _, val, test = self.sets[set_name]
        fit = softcal.recalibrate.fit_temperature(val, objective=objective)
        ece = softcal.metrics.eval_convention_ece
        before = ece(softcal.data.summarize(test, 1.0))
        after = ece(softcal.data.summarize(test, fit.t_star))
        return fit, before, after

    def _check(self, set_name, objective, result):
        fit, before, after = result
        scale = self.sets[set_name][0] if objective == "nll" else None
        key = (set_name, objective)
        problems = check_fit(fit, before, after, scale, self.t_stars.get(key))
        self.t_stars.setdefault(key, fit.t_star)
        return problems

    def ops(self) -> list[Op]:
        return [
            Op(kind, partial(self._fit, s, obj), partial(self._check, s, obj))
            for s in ("planted", "mixed")
            for obj, kind in self.OBJECTIVES.items()
        ]


class Cli(Workload):
    """`python -m softcal` subprocesses, one at a time: `train` on an
    all-defaults config plus a seed, and `metrics` on a 100k x 10 CSV."""

    name = "cli"
    children_rss = True
    ROWS, K = 100_000, 10
    TRAIN_KEYS = {"out", "test_accuracy", "test_ece_percent"}
    METRICS_KEYS = {"n", "bins", "scheme", "p", "mode", "soft", "ece_percent",
                    "accuracy", "mean_confidence", "mean_entropy"}

    def __init__(self, seed: int, root: Path, workdir: Path):
        super().__init__(seed, root, workdir)
        self.child = str(Path(__file__).resolve().parent / "cli_child.py")
        self.workdir = workdir
        self.csv = str(workdir / "logits.csv")
        self.config = str(workdir / "run.json")
        self.out = workdir / "train-out"
        self.report_bytes = None
        self.ece_percent = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        v, y = posterior_logits(rng, self.ROWS, self.K, spread=1.5)
        self.eval_set = EvalSet(v * 2.0, y)
        softcal.io.write_logits_csv(self.csv, self.eval_set)
        with open(self.config, "w") as handle:
            json.dump({"seed": self.seed}, handle)

    def _subprocess(self, argv: list[str], tracer: Tracer | None):
        if tracer is None:
            cmd = [sys.executable, "-m", "softcal", *argv]
        else:
            spans = str(self.workdir / f"spans-{tracer.op}.json")
            cmd = [sys.executable, self.child, spans, *argv]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        if tracer is not None and proc.returncode == 0:
            tracer.extend(load_spans(spans, tracer.op))
        return proc

    def _check_train(self, proc):
        problems = check_cli(proc, self.TRAIN_KEYS, {})
        if problems:
            return problems
        path = self.out / "report.json"
        report = path.read_bytes()
        path.unlink()  # so a later run that writes nothing cannot pass
        if self.report_bytes is None:
            self.report_bytes = report
        elif report != self.report_bytes:
            return ["report.json differs from the first run's"]
        return []

    def _check_metrics(self, proc):
        if self.ece_percent is None:
            spec = softcal.BinningSpec(scheme="equal-mass", num_bins=15)
            report = softcal.metrics.ece(softcal.data.summarize(self.eval_set), spec, p=2.0, mode="binned")
            self.ece_percent = 100.0 * report.value
        return check_cli(proc, self.METRICS_KEYS, {"ece_percent": self.ece_percent})

    def ops(self) -> list[Op]:
        train = ["train", "--config", self.config, "--out", str(self.out)]
        metrics = ["metrics", "--logits", self.csv]
        return [
            Op("cli_train_s", partial(self._subprocess, train), self._check_train),
            Op("cli_metrics_s", partial(self._subprocess, metrics), self._check_metrics),
        ]

    def probes(self) -> list[Op]:
        """Start-up cost alone: `softcal --help` and a bare import."""

        def run(cmd, tracer):
            return subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)

        def ok(proc):
            return [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]

        return [
            Op("cli.startup_s", partial(run, [sys.executable, "-m", "softcal", "--help"]), ok),
            Op("cli.import_s", partial(run, [sys.executable, "-c", "import softcal"]), ok),
        ]


WORKLOADS = {w.name: w for w in (TrainLabelNoise, Recalibrate50k, Cli)}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
