"""Self-tests for the benchmark: span arithmetic, failure counting, and the
agreement between BENCHMARK.json and the code that emits its metrics."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import softcal.data  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, installed, self_times  # noqa: E402
from workloads import Op, Outcome, check_cli, check_fit, check_training, measure, run_op  # noqa: E402


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: [1, 6] is covered once
        Span("c", 8.0, 12.0, 0, 0),  # runs past the parent: only [8, 10] counts
        Span("a.child", 2.0, 3.0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_layer_metrics_from_a_hand_built_trace():
    spans = [
        Span("trainer.train", 0.0, 1.0, -1, 0),
        Span("trainer.forward_backward", 0.0, 0.4, 0, 0),
        Span("mlp.forward.batch", 0.0, 0.1, 1, 0, work=2e8),
        Span("losses.secondary", 0.1, 0.2, 1, 0),
        Span("avuc.avuc_grad", 0.1, 0.2, 3, 0, error="DegenerateBatchError"),
        Span("mlp.backward", 0.2, 0.3, 1, 0, work=4e8),
        Span("mlp.forward.eval", 0.5, 0.6, 0, 0, work=3e8),
        Span("data.EvalSet", 0.6, 0.65, 0, 0),
        Span("data.summarize", 0.65, 0.7, 0, 0),
        Span("metrics.eval_convention_ece", 0.7, 0.8, 0, 0),
        Span("recalibrate.fit", 2.0, 3.0, -1, 1, work=80),
    ]
    m = layers.layer_metrics(spans, {"trace.base_s": 5.0})
    assert list(m) == [name for name, *_ in layers.LAYER_METRICS]
    assert m["trainer.batches"] == 1
    assert m["avuc.skipped_batches"] == 1
    assert m["trainer.val_pass_ms"] == pytest.approx(300.0)
    assert m["trainer.train.self_ms"] == pytest.approx(300.0)
    assert m["mlp.gflop_s"] == pytest.approx(9e8 / 0.3 / 1e9)
    assert m["recalibrate.fit.evals"] == 80
    assert m["recalibrate.ms_per_eval"] == pytest.approx(1000.0 / 80)
    assert m["io.read.rows_per_s"] == 0.0
    assert m["trace.base_s"] == 5.0 and m["cli.startup_s"] == 0.0


def test_installed_records_spans_and_restores_the_originals():
    original = softcal.data.summarize
    es = softcal.data.EvalSet(np.array([[2.0, 0.0], [0.0, 1.0]]), np.array([0, 0]))
    tracer = Tracer()
    tracer.op = 3
    with installed(tracer):
        softcal.data.summarize(es)
    assert softcal.data.summarize is original
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [("data.summarize", -1, 3)]


def _op(kind, result, check):
    return Op(kind, lambda tracer: result, check)


def test_a_nonzero_cli_exit_counts_as_a_failure():
    bad = subprocess.CompletedProcess(["softcal"], 1, stdout="", stderr="internal error: boom")
    good = subprocess.CompletedProcess(["softcal"], 0, stdout='{"ece_percent": 1.5, "n": 3}', stderr="")
    outcome = Outcome()
    run_op(_op("cli_metrics_s", bad, lambda p: check_cli(p, {"n"}, {"ece_percent": 1.5})), outcome)
    run_op(_op("cli_metrics_s", good, lambda p: check_cli(p, {"n"}, {"ece_percent": 1.5})), outcome)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert "exit code 1" in outcome.problems[0]
    assert check_cli(good, {"n"}, {"ece_percent": 1.25}) != []


def test_a_temperature_five_percent_off_the_planted_scale_counts_as_a_failure():
    def fit(t):
        return SimpleNamespace(t_star=t, objective_value=0.5, trace=[(1.0, 0.7), (t, 0.5)])

    outcome = Outcome()
    for t in (2.0 * 1.05, 2.0 * 1.01):
        run_op(_op("fit_nll_s", fit(t), lambda f: check_fit(f, 0.1, 0.05, 2.0, None)), outcome)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert check_fit(fit(2.0), 0.1, 0.05, 2.0, previous_t=2.001) != []
    below_trace = SimpleNamespace(t_star=2.0, objective_value=0.6, trace=[(1.0, 0.5)])
    assert check_fit(below_trace, 0.1, 0.05, None, None) != []


def test_training_checks_catch_a_misreported_accuracy_and_a_changed_digest():
    model = SimpleNamespace(weights=[np.eye(2)], biases=[np.zeros(2)])
    x, y = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 0])
    report = SimpleNamespace(train_loss=[0.5, 0.4], final_val_accuracy=0.5)
    misreported = SimpleNamespace(train_loss=[0.5], final_val_accuracy=1.0)
    diverged = SimpleNamespace(train_loss=[float("nan")], final_val_accuracy=0.5)
    assert check_training(model, report, x, y, None) == []
    assert check_training(model, misreported, x, y, None)
    assert check_training(model, diverged, x, y, None)
    assert check_training(model, report, x, y, previous_digest="0" * 64)


def test_measure_keeps_going_after_a_raising_op_and_runs_a_full_cycle():
    def boom(tracer):
        raise RuntimeError("boom")

    ops = [Op("a", boom, lambda r: []), _op("b", 1, lambda r: [])]
    outcome = measure(ops, seconds=0.0)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert set(outcome.samples) == {"a", "b"}


def test_benchmark_json_matches_the_emitted_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in layers.LAYER_METRICS
    ]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for *_, on in layers.LAYER_METRICS:
        assert set(on) <= set(workloads.WORKLOADS)


def test_benchmark_json_names_units_and_bounds_are_well_formed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = doc["end_to_end"] + doc["per_layer"]
    names = [m["name"] for m in metrics + doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_run_fails_without_printing_a_result_when_softcal_is_absent(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "_work-*", "_traces")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
