"""End-to-end CLI coverage: every subcommand plus the exit-code contract."""

import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import softcal
import softcal.cli
import softcal.data
from softcal import LossSpec
from softcal.cli import main
from softcal.data import EvalSet, entropy_nats
from softcal.io import read_logits_csv, write_logits_csv
from softcal.recalibrate import GRID_POINTS, fit_temperature


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("CALREF_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def logit(c):
    return float(np.log(c / (1.0 - c)))


def scaled_posterior_csv(path, rng, n, k, scale, spread=1.5):
    v = rng.normal(0.0, spread, size=(n, k))
    p = np.exp(v - v.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    y = (p.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1)
    write_logits_csv(str(path), EvalSet(v * scale, y))
    return str(path)


@pytest.fixture(scope="module")
def four_row_csv(tmp_path_factory):
    # confidences .6 .6 .8 .8 with accuracies 1 0 1 1; with two equal-width
    # bins and p = 1 the ECE is exactly |0.7 - 0.75| = 5 percent.
    rows = np.array([[logit(0.6), 0.0]] * 2 + [[logit(0.8), 0.0]] * 2)
    labels = np.array([0, 1, 0, 0])
    path = tmp_path_factory.mktemp("metrics") / "four.csv"
    write_logits_csv(str(path), EvalSet(rows, labels))
    return str(path)


@pytest.fixture(scope="module")
def recal_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("recal")
    rng = np.random.default_rng(40)
    return {
        "val2": scaled_posterior_csv(root / "val2.csv", rng, 4000, 3, 2.0),
        "test2": scaled_posterior_csv(root / "test2.csv", rng, 4000, 3, 2.0),
        "val1": scaled_posterior_csv(root / "val1.csv", rng, 4000, 3, 1.0),
        "test1": scaled_posterior_csv(root / "test1.csv", rng, 4000, 3, 1.0),
    }


@pytest.fixture(scope="module")
def train_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(
        json.dumps(
            {
                "seed": 5,
                "data": {"n": 240},
                "model": {"hidden": [8]},
                "train": {"epochs": 2, "batch_size": 32, "eval_bins": 10},
            }
        )
    )
    return str(path)


# ----------------------------------------------------------------- metrics


def test_metrics_reports_the_hand_computed_ece(capsys, four_row_csv):
    code, out, err = run_cli(
        capsys, "metrics", "--logits", four_row_csv,
        "--bins", "2", "--scheme", "equal-width", "--p", "1", "--mode", "binned",
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["ece_percent"] == pytest.approx(5.0, abs=1e-9)
    assert doc["accuracy"] == 0.75
    assert doc["mean_confidence"] == pytest.approx(0.7, abs=1e-12)
    assert doc["n"] == 4 and doc["bins"] == 2 and doc["soft"] is False


def test_metrics_soft_matches_hard_at_tiny_temperature(capsys, four_row_csv):
    code, out, _ = run_cli(
        capsys, "metrics", "--logits", four_row_csv, "--soft", "--bin-temp", "1e-5",
        "--bins", "2", "--p", "1", "--mode", "binned",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["soft"] is True
    assert doc["ece_percent"] == pytest.approx(5.0, abs=1e-6)


def test_metrics_optional_val_block(capsys, four_row_csv):
    code, out, _ = run_cli(
        capsys, "metrics", "--logits", four_row_csv, "--val-logits", four_row_csv,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["val"]["ece_percent"] == doc["ece_percent"]


def test_metrics_stdout_is_byte_identical_across_runs(capsys, four_row_csv):
    args = ("metrics", "--logits", four_row_csv, "--bins", "4")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_data_problems_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "metrics", "--logits", str(tmp_path / "nope.csv"))
    assert code == 2 and err.startswith("data error:")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run_cli(capsys, "metrics", "--logits", str(empty))
    assert code == 2 and err.startswith("data error:")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("metrics", "--bins", "0"),
        ("metrics", "--bins", str(2**63)),
        ("metrics", "--p", "0.5"),
        ("metrics", "--p", "nan"),
        ("metrics", "--bin-temp", "-1"),
        ("metrics", "--bin-temp", "0"),
        ("reliability", "--bins", "0"),
        ("recalibrate", "--bins", "0"),
        ("recalibrate", "--p", "0.5"),
        ("recalibrate", "--bin-temp", "-1"),
        ("recalibrate", "--bin-temp", "0"),
    ],
)
def test_bad_binning_flags_exit_64_before_any_file_is_read(capsys, tmp_path, command, flag, value):
    # The logits paths do not exist: reading them first would exit 2.
    missing = str(tmp_path / "missing.csv")
    files = {
        "metrics": ["--logits", missing],
        "reliability": ["--logits", missing],
        "recalibrate": ["--val-logits", missing, "--test-logits", missing],
    }[command]
    code, out, err = run_cli(capsys, command, *files, flag, value)
    assert code == 64 and out == ""
    assert err.startswith("usage error:")
    # Named as typed, not by the spec field the flag sets.
    assert re.search(rf"(?<!\w){re.escape(flag)}(?!\w)", err), err


def test_usage_problems_exit_64(capsys, four_row_csv):
    code, _, err = run_cli(capsys, "unknown-command")
    assert code == 64 and err.startswith("usage error:")
    code, _, err = run_cli(capsys, "metrics")
    assert code == 64
    code, _, err = run_cli(
        capsys, "metrics", "--logits", four_row_csv, "--scheme", "diagonal"
    )
    assert code == 64


# ------------------------------------------------------------- reliability


def test_reliability_prints_all_bins(capsys, four_row_csv):
    code, out, _ = run_cli(
        capsys, "reliability", "--logits", four_row_csv, "--bins", "2",
        "--scheme", "equal-width",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "bin,mean_conf,mean_acc,weight"
    assert len(lines) == 3

    empty = lines[1].split(",")
    assert empty == ["0", "", "", "0.0"]
    full = lines[2].split(",")
    assert full[0] == "1"
    assert float(full[1]) == pytest.approx(0.7, abs=1e-12)
    assert float(full[2]) == 0.75
    assert float(full[3]) == 1.0
    assert sum(float(row.split(",")[3]) for row in lines[1:]) == 1.0


# ------------------------------------------------------------- recalibrate


def test_recalibrate_overconfident_logits(capsys, recal_files):
    code, out, err = run_cli(
        capsys, "recalibrate", "--val-logits", recal_files["val2"],
        "--test-logits", recal_files["test2"],
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"tStar", "objective", "eceBefore", "eceAfter"}
    assert doc["objective"] == "nll"
    assert 1.5 < doc["tStar"] < 2.5
    assert doc["eceAfter"] < doc["eceBefore"]

    # One stderr line describes the fit; stdout keeps its key set.
    assert err.count("\n") == 1 and err.startswith("recalibrate: ")
    fields = dict(item.split("=") for item in err.split()[1:])
    assert fields["objective"] == "nll"
    assert float(fields["t_star"]) == doc["tStar"]
    es = read_logits_csv(recal_files["val2"])
    assert int(fields["evaluations"]) == len(fit_temperature(es, objective="nll").trace) > GRID_POINTS
    assert fields["at_bound"] == "False"


def test_recalibrate_leaves_calibrated_logits_alone(capsys, recal_files):
    code, out, _ = run_cli(
        capsys, "recalibrate", "--val-logits", recal_files["val1"],
        "--test-logits", recal_files["test1"],
    )
    assert code == 0
    assert 0.85 < json.loads(out)["tStar"] < 1.15


def test_recalibrate_sb_objective_and_trace(capsys, recal_files, tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, err = run_cli(
        capsys, "recalibrate", "--val-logits", recal_files["val2"],
        "--test-logits", recal_files["test2"], "--objective", "sb-ece",
        "--bins", "8", "--trace", str(trace),
    )
    assert code == 0
    assert json.loads(out)["objective"] == "sb-ece"
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "temperature,objective"
    assert len(lines) - 1 == int(err.split("evaluations=")[1].split()[0])
    for line in lines[1:]:
        t, v = line.split(",")
        assert float(t) > 0 and np.isfinite(float(v))


def test_trace_into_a_missing_directory_exits_64_before_the_fit(capsys, monkeypatch, recal_files, tmp_path):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran")

    monkeypatch.setattr(softcal.cli, "fit_temperature", no_fit)
    trace = tmp_path / "missing" / "t.csv"
    code, out, err = run_cli(
        capsys, "recalibrate", "--val-logits", recal_files["val2"],
        "--test-logits", recal_files["test2"], "--trace", str(trace),
    )
    assert code == 64 and out == ""
    assert err.startswith(f"usage error: cannot write {trace}:")
    assert not trace.parent.exists()


def test_recalibrate_missing_file_exits_2(capsys, recal_files, tmp_path):
    code, _, err = run_cli(
        capsys, "recalibrate", "--val-logits", recal_files["val2"],
        "--test-logits", str(tmp_path / "gone.csv"),
    )
    assert code == 2 and err.startswith("data error:")


# ------------------------------------------------------------------- train


def test_train_writes_report_model_and_logits(capsys, train_config, tmp_path):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "train", "--config", train_config, "--out", str(out_dir))
    assert code == 0
    stdout_doc = json.loads(out)
    assert 0.0 <= stdout_doc["test_accuracy"] <= 1.0

    doc = json.loads((out_dir / "report.json").read_text())
    assert set(doc) == {"config", "report", "test_accuracy", "test_ece_percent"}
    assert set(doc["config"]) == {"seed", "data", "model", "train", "loss"}
    assert set(doc["report"]) == {
        "train_loss", "val_accuracy", "val_ece", "skipped_batches", "final_val_accuracy", "final_val_ece"
    }
    assert doc["config"]["seed"] == 5
    assert len(doc["report"]["train_loss"]) == 2
    assert doc["test_ece_percent"] == stdout_doc["test_ece_percent"]

    weights = np.load(out_dir / "model.npz")
    assert set(weights.files) == {"w0", "b0", "w1", "b1"}
    assert weights["w0"].shape == (2, 8) and weights["w1"].shape == (8, 2)

    # The emitted test logits feed straight back into the metrics command.
    code, out, _ = run_cli(capsys, "metrics", "--logits", str(out_dir / "test_logits.csv"))
    assert code == 0
    assert json.loads(out)["n"] == 60


def test_an_epoch_with_every_batch_skipped_is_null_in_strict_json(capsys, tmp_path):
    # kappa 1e-12 leaves no example certain and this well-separated task none
    # inaccurate, so every batch's AvUC denominator n_AC + n_IU vanishes.
    config = tmp_path / "skip.json"
    config.write_text(json.dumps({
        "seed": 0, "data": {"kind": "gaussian-blobs", "n": 200, "noise": 0.1}, "model": {"hidden": [8]},
        "loss": {"secondary": "avuc", "beta": 1.0, "kappa": 1e-12}, "train": {"epochs": 6, "batch_size": 128},
    }))
    code, _, _ = run_cli(capsys, "train", "--config", str(config), "--out", str(tmp_path / "run"))
    assert code == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    doc = json.loads((tmp_path / "run" / "report.json").read_text(), parse_constant=refuse)
    assert doc["report"]["skipped_batches"] == 6
    assert doc["report"]["train_loss"] == [None] * 6


def test_train_runs_are_reproducible(capsys, train_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, "train", "--config", train_config, "--out", str(a))[0] == 0
    assert run_cli(capsys, "train", "--config", train_config, "--out", str(b))[0] == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "test_logits.csv").read_bytes() == (b / "test_logits.csv").read_bytes()


def test_train_output_does_not_depend_on_blas_threads(tmp_path):
    # 200 validation and test rows through two 64-wide hidden layers: products
    # large enough for OpenBLAS to split across threads.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 3, "data": {"n": 800}, "model": {"hidden": [64, 64]},
                                  "train": {"epochs": 3}}))
    src = str(Path(softcal.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        env.pop("CALREF_SEED", None)
        proc = subprocess.run(
            [sys.executable, "-m", "softcal", "train", "--config", str(config), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        # model.npz is a zip whose members carry their write time, so its
        # arrays' bytes are compared rather than the file's.
        with np.load(out / "model.npz") as arrays:
            params = {k: (arrays[k].dtype.str, arrays[k].shape, arrays[k].tobytes()) for k in arrays.files}
        runs.append(((out / "report.json").read_bytes(), (out / "test_logits.csv").read_bytes(), params))
    assert runs[0] == runs[1]


def test_seed_precedence_flag_env_config(capsys, train_config, tmp_path, monkeypatch):
    def run_seed(out, *extra):
        code, _, _ = run_cli(capsys, "train", "--config", train_config, "--out", str(out), *extra)
        assert code == 0
        return json.loads((out / "report.json").read_text())["config"]["seed"]

    monkeypatch.setenv("CALREF_SEED", "9")
    assert run_seed(tmp_path / "env") == 9
    assert run_seed(tmp_path / "flag", "--seed", "11") == 11

    monkeypatch.setenv("CALREF_SEED", "abc")
    code, _, err = run_cli(
        capsys, "train", "--config", train_config, "--out", str(tmp_path / "bad")
    )
    assert code == 64 and "CALREF_SEED" in err


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("source", ["config", "flag", "env"])
def test_a_negative_seed_exits_64_before_the_output_directory_is_made(
    capsys, monkeypatch, sweep_inputs, tmp_path, command, source
):
    cfg, grid = sweep_inputs
    doc = json.loads(Path(cfg).read_text())
    if source == "config":
        doc["seed"] = -1
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "o"
    argv = [command, "--config", str(config), "--out", str(out_dir)]
    argv += ["--grid", grid] if command == "sweep" else []
    argv += ["--seed", "-5"] if source == "flag" else []
    if source == "env":
        monkeypatch.setenv("CALREF_SEED", "-3")
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("usage error:") and "non-negative integer" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("source", ["flag", "env"])
def test_a_seed_past_int64_exits_64_before_the_output_directory_is_made(
    capsys, monkeypatch, train_config, tmp_path, source
):
    out_dir = tmp_path / "o"
    argv = ["train", "--config", train_config, "--out", str(out_dir)]
    argv += ["--seed", str(2**63)] if source == "flag" else []
    if source == "env":
        monkeypatch.setenv("CALREF_SEED", str(2**63))
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"usage error: {'--seed' if source == 'flag' else 'CALREF_SEED'} must be a non-negative")
    assert not out_dir.exists()


def test_warnings_are_printed_once_each_on_success(capsys, tmp_path):
    inert = "beta = 0.0 with secondary = 'sb-ece': the secondary term is inert or unweighted"
    config = tmp_path / "run.json"
    doc = {"data": {"n": 120}, "model": {"hidden": [4]}, "train": {"epochs": 1}, "loss": {"secondary": "sb-ece"}}
    config.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "train", "--config", str(config), "--out", str(tmp_path / "t"))
    assert code == 0 and err == f"warning: {inert}\n"

    # The base spec and the grid's first candidate warn alike; one line is printed.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"beta": [0.0, 1.0]}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--grid", str(grid), "--out", str(tmp_path / "s"))
    assert code == 0 and err == f"warning: {inert}\n"


def test_an_integer_grid_beta_warns_as_the_config_float_does(capsys, tmp_path):
    # The config's default beta 0.0 and the grid's 0 are one condition: one line.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"data": {"n": 200}, "train": {"epochs": 1}, "loss": {"secondary": "sb-ece"}}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"beta": [0, 1]}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--grid", str(grid), "--out", str(tmp_path / "s"))
    assert code == 0
    assert err == "warning: beta = 0.0 with secondary = 'sb-ece': the secondary term is inert or unweighted\n"


def test_train_config_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"trian": {}}')
    code, _, err = run_cli(capsys, "train", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert code == 64 and err.startswith("usage error:")
    code, _, err = run_cli(
        capsys, "train", "--config", str(tmp_path / "gone.json"), "--out", str(tmp_path / "o")
    )
    assert code == 2


@pytest.mark.parametrize(
    "section",
    [
        {"train": {"epochs": 1.5}},
        {"train": {"batch_size": 2.5}},
        {"train": {"epochs": True}},
        {"model": {"hidden": [-3]}},
        {"model": {"hidden": [0]}},
        {"model": {"hidden": [8, 4.0]}},
    ],
)
def test_non_integer_or_non_positive_sizes_exit_64_before_training(capsys, tmp_path, section):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(section))
    out_dir = tmp_path / "o"
    code, _, err = run_cli(capsys, "train", "--config", str(bad), "--out", str(out_dir))
    assert code == 64 and err.startswith("usage error:") and "positive integer" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "section",
    [
        {"train": {"eval_bins": 0}},
        {"train": {"eval_bins": 2.5}},
        {"train": {"lr_drop_epochs": ["x"]}},
        {"data": {"n": 50}},
        {"data": {"n": 150.5}},
        {"data": {"kind": "nope"}},
        {"data": {"splits": [1, 0, 0]}},
        {"data": {"splits": [1]}},
        {"data": {"classes": 1}},
        {"data": {"dim": 1}},
        {"data": {"dim": 2.5}},
        {"data": {"noise": "x"}},
        {"data": {"noise": float("nan")}},
        {"data": {"separation": -1.0}},
        {"data": {"flip_rate": 1.5}},
        {"loss": {"p": float("inf")}},
        {"loss": {"bin_temperature": float("nan")}},
        {"loss": {"secondary": "sb-ece", "beta": 1.0, "bins": 2.5}},
        {"loss": {"secondary": "avuc", "beta": 1.0, "kappa": float("nan")}},
        {"loss": {"secondary": "avuc", "beta": float("nan")}},
        {"loss": {"primary": "focal", "gamma": float("nan")}},
        {"loss": {"lam": float("nan")}},
        {"train": {"learning_rate": float("nan")}},
        {"train": {"lr_drop_factor": "x"}},
        {"train": {"learning_rate": 10**400}},
        # Splits that leave the test, train or val part empty at this n.
        {"data": {"n": 100, "splits": [0.5, 0.495, 0.005]}},
        {"data": {"n": 100, "splits": [0.004, 0.5, 0.496]}},
        {"data": {"n": 100, "splits": [0.5, 0.004, 0.496]}},
        # Integers past int64.
        {"data": {"n": 10**400}},
        {"data": {"classes": 10**400}},
        {"data": {"dim": 10**400}},
        {"model": {"hidden": [10**400]}},
        {"train": {"eval_bins": 10**400}},
        {"loss": {"secondary": "sb-ece", "beta": 1.0, "bins": 10**400}},
        {"seed": 2**63},
    ],
)
def test_config_values_training_would_refuse_exit_64_at_load_time(capsys, tmp_path, section):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(section))
    out_dir = tmp_path / "o"
    code, _, err = run_cli(capsys, "train", "--config", str(bad), "--out", str(out_dir))
    assert code == 64 and err.startswith("usage error: invalid config value:")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "section, field",
    [
        ({"train": {"learning_rate": True}}, "learning_rate"),
        ({"train": {"lr_drop_factor": True}}, "lr_drop_factor"),
        ({"loss": {"beta": True}}, "beta"),
        ({"loss": {"p": "2"}}, "p"),
        ({"loss": {"kappa": "0.5"}}, "kappa"),
        ({"loss": {"bin_temperature": True}}, "bin_temperature"),
        ({"data": {"flip_rate": True}}, "flip_rate"),
        ({"data": {"noise": "1"}}, "noise"),
        ({"loss": {"soft_temperature": None}}, "soft_temperature"),
        ({"model": {"hidden": 5}}, "hidden"),
        ({"model": {"hidden": None}}, "hidden"),
        ({"train": {"lr_drop_epochs": 3}}, "lr_drop_epochs"),
        ({"data": {"splits": None}}, "splits"),
        ({"data": {"splits": ["a", 0.5, 0.5]}}, "splits entry"),
        ({"loss": {"bins": 0}}, "bins"),
        ({"loss": {"bins": True}}, "bins"),
        # Moons are 2-d and binary; the config's example from the README.
        ({"data": {"kind": "noisy-moons", "classes": 5, "dim": 7}}, "classes"),
        ({"data": {"kind": "noisy-moons", "dim": 3}}, "dim"),
    ],
)
def test_a_bool_or_a_string_for_a_number_exits_64_naming_the_field(capsys, tmp_path, section, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(section))
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "train", "--config", str(bad), "--out", str(out_dir))
    assert code == 64 and out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"usage error: invalid config value: {field} must ") and "ufunc" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command, output",
    [
        pytest.param("train", None, id="train"),
        pytest.param("sweep", None, id="sweep"),
        *(pytest.param("train", name, id=f"train-{name}-is-a-directory")
          for name in ("report.json", "model.npz", "test_logits.csv")),
        *(pytest.param("sweep", name, id=f"sweep-{name}-is-a-directory")
          for name in ("results.csv", "selected_config.json")),
    ],
)
def test_out_naming_an_existing_file_exits_64_before_training(
    capsys, monkeypatch, train_config, sweep_inputs, tmp_path, command, output
):
    # Either --out is a file, or one file the command writes is a directory.
    def no_training(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr(softcal.cli, "train", no_training)
    cfg, grid = sweep_inputs
    inputs = ["--config", cfg, "--grid", grid] if command == "sweep" else ["--config", train_config]
    if output is None:
        out_dir = blocker = tmp_path / "file"
        blocker.write_text("x")
    else:
        out_dir = tmp_path / "o"
        blocker = out_dir / output
        blocker.mkdir(parents=True)
    code, out, err = run_cli(capsys, command, *inputs, "--out", str(out_dir))
    assert code == 64 and out == ""
    assert err.startswith(f"usage error: cannot write {blocker}:")
    if output is None:
        assert blocker.read_text() == "x"
    else:
        assert list(out_dir.iterdir()) == [blocker] and not any(blocker.iterdir())


def test_a_diverging_run_leaves_earlier_outputs_as_they_were(capsys, tmp_path):
    out_dir = tmp_path / "o"
    out_dir.mkdir()
    (out_dir / "report.json").write_text("earlier")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "data": {"n": 128, "splits": [0.25, 0.375, 0.375]},
        "model": {"hidden": [8]},
        "train": {"epochs": 2, "batch_size": 32, "learning_rate": 1e300},
    }))
    code, _, _ = run_cli(capsys, "train", "--config", str(config), "--out", str(out_dir))
    assert code == 3
    assert [p.name for p in out_dir.iterdir()] == ["report.json"]
    assert (out_dir / "report.json").read_text() == "earlier"


def test_a_diverging_run_exits_3(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "data": {"n": 128, "splits": [0.25, 0.375, 0.375]},  # 32 training rows
        "model": {"hidden": [8]},
        "train": {"epochs": 2, "batch_size": 32, "learning_rate": 1e300},
    }))
    code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(tmp_path / "o"))
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("training diverged:")


def test_a_run_whose_test_logits_diverge_exits_3(capsys, tmp_path):
    # The weights blow up in the one epoch while the validation logits stay
    # finite, so the test logits are the first to show it.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "seed": 0,
        "data": {"n": 181, "noise": 0.5, "separation": 0},
        "model": {"hidden": [1]},
        "train": {"learning_rate": 1e300, "epochs": 1, "batch_size": 16},
    }))
    code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(tmp_path / "o"))
    assert (code, out, err) == (3, "", "training diverged: non-finite test logits\n")


def softcal_subprocess(*argv, code="sys.exit(main(sys.argv[1:]))"):
    """Run `code` in a fresh interpreter with softcal.cli.main imported and
    argv as sys.argv[1:]."""
    src = str(Path(softcal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("CALREF_SEED", None)
    script = f"import sys\nfrom softcal.cli import main\n{code}"
    return subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, timeout=300)


def test_a_diverging_run_writes_one_stderr_line_in_a_fresh_process(tmp_path):
    # In a fresh interpreter numpy's overflow warnings would reach stderr;
    # the trainer silences them and reports the divergence on one line.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "data": {"n": 128, "splits": [0.25, 0.375, 0.375]},
        "model": {"hidden": [8]},
        "train": {"epochs": 2, "batch_size": 32, "learning_rate": 1e300},
    }))
    proc = softcal_subprocess("train", "--config", str(config), "--out", str(tmp_path / "o"))
    assert proc.returncode == 3 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("training diverged:")


def test_a_failing_run_prints_its_error_line_and_no_warning_in_a_fresh_process(tmp_path):
    # The config warns that its secondary is inert before epochs = 0 is refused.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"train": {"epochs": 0}, "loss": {"secondary": "sb-ece"}}))
    proc = softcal_subprocess("train", "--config", str(config), "--out", str(tmp_path / "o"))
    assert proc.returncode == 64 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("usage error:"), proc.stderr


def test_only_commands_that_read_entropy_load_scipy(tmp_path, four_row_csv):
    # scipy.special costs about a quarter second of start-up; it is needed
    # only for entropy (metrics prints mean_entropy) and the AvUC family.
    base = {"seed": 2, "data": {"n": 200}, "model": {"hidden": [4]}, "train": {"epochs": 1}}
    configs = {}
    for name, loss in (("nll", {}), ("sb-ece", {"secondary": "sb-ece", "beta": 1.0})):
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps({**base, "loss": loss}))
    commands = {
        "train nll": (["train", "--config", str(configs["nll"]), "--out", str(tmp_path / "a")], False),
        "train sb-ece": (["train", "--config", str(configs["sb-ece"]), "--out", str(tmp_path / "b")], False),
        "recalibrate": (["recalibrate", "--val-logits", four_row_csv, "--test-logits", four_row_csv], False),
        "reliability": (["reliability", "--logits", four_row_csv], False),
        "metrics": (["metrics", "--logits", four_row_csv], True),
    }
    report = "code = main(sys.argv[1:]); print('scipy' in sys.modules); sys.exit(code)"
    for name, (argv, loads_scipy) in commands.items():
        proc = softcal_subprocess(*argv, code=report)
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout.splitlines()[-1] == str(loads_scipy), name


def test_metrics_releases_the_logits_before_entropy_is_read(monkeypatch, four_row_csv, tmp_path):
    # Only the summary is needed once it exists; the N x K logits must not
    # be alive when the entropy temporaries are made.
    val = tmp_path / "val.csv"
    val.write_text("1,0.5,2.0\n0,3.0,-1.0\n")
    refs = []

    def read(path):
        eval_set = read_logits_csv(path)
        refs.append((weakref.ref(eval_set), weakref.ref(eval_set.logits)))
        return eval_set

    def entropy(probs):
        assert all(ref() is None for pair in refs for ref in pair)
        return entropy_nats(probs)

    monkeypatch.setattr(softcal.cli, "read_logits_csv", read)
    monkeypatch.setattr(softcal.data, "entropy_nats", entropy)
    assert main(["metrics", "--logits", four_row_csv, "--val-logits", str(val)]) == 0
    assert len(refs) == 2


OVERFLOWING_CSV = "1,1e308,-1e308\n0,-1e308,1e308\n1,2.0,1.0\n"


def test_logits_past_the_float64_range_print_no_warnings(tmp_path):
    # Shifts z - max z overflow to -inf, whose exp is the intended 0.  The
    # nll fit is +inf at every temperature: a data error, not a crash.
    path = tmp_path / "overflow.csv"
    path.write_text(OVERFLOWING_CSV)
    proc = softcal_subprocess("recalibrate", "--val-logits", str(path), "--test-logits", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("data error:")
    proc = softcal_subprocess("metrics", "--logits", str(path))
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["n"] == 3


def test_metrics_reads_logits_from_a_pipe(four_row_csv):
    # A pipe cannot be rewound, so the file goes straight to the line scanner.
    text = Path(four_row_csv).read_text()
    cmd = [sys.executable, "-m", "softcal", "metrics", "--bins", "2", "--scheme", "equal-width", "--p", "1"]
    src = str(Path(softcal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    piped = subprocess.run([*cmd, "--logits", "/dev/stdin"], input=text, capture_output=True,
                           text=True, env=env, timeout=120)
    from_file = subprocess.run([*cmd, "--logits", four_row_csv], capture_output=True,
                               text=True, env=env, timeout=120)
    assert piped.returncode == 0, piped.stderr
    assert json.loads(piped.stdout) == json.loads(from_file.stdout)
    assert json.loads(piped.stdout)["ece_percent"] == pytest.approx(5.0)


# ------------------------------------------------------------------- sweep


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    cfg = root / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 3,
                "data": {"n": 240},
                "model": {"hidden": [8]},
                "train": {"epochs": 2, "batch_size": 32},
                "loss": {"secondary": "s-avuc", "beta": 1.0, "soft_temperature": 0.1},
            }
        )
    )
    grid = root / "grid.json"
    grid.write_text(json.dumps({"beta": [0.5, 1.0]}))
    return str(cfg), str(grid)


def test_sweep_writes_results_and_a_reusable_config(capsys, sweep_inputs, tmp_path):
    cfg, grid = sweep_inputs
    out_dir = tmp_path / "sweep"
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg, "--grid", grid, "--out", str(out_dir))
    assert code == 0
    assert json.loads(out)["selected_loss"]["beta"] in (0.5, 1.0)

    lines = (out_dir / "results.csv").read_text().strip().split("\n")
    assert lines[0] == "stage,value,val_accuracy,val_ece_percent,selected"
    assert len(lines) == 3
    assert sum(line.split(",")[4] == "1" for line in lines[1:]) == 1
    assert all(line.split(",")[0] == "beta" for line in lines[1:])

    selected = out_dir / "selected_config.json"
    assert set(json.loads(selected.read_text())["loss"]) == {f.name for f in fields(LossSpec)}
    code, _, _ = run_cli(capsys, "train", "--config", str(selected), "--out", str(tmp_path / "re"))
    assert code == 0


def test_sweep_grid_validation(capsys, sweep_inputs, tmp_path):
    cfg, _ = sweep_inputs
    bad = tmp_path / "bad.json"
    bad.write_text('{"gamma": [1.0]}')
    code, _, err = run_cli(capsys, "sweep", "--config", cfg, "--grid", str(bad), "--out", str(tmp_path / "o"))
    assert code == 64 and "unknown sweep parameter" in err

    bad.write_text('{"beta": 1.0}')
    code, _, _ = run_cli(capsys, "sweep", "--config", cfg, "--grid", str(bad), "--out", str(tmp_path / "o"))
    assert code == 64

    code, _, _ = run_cli(capsys, "sweep", "--config", cfg, "--grid", str(tmp_path / "gone.json"), "--out", str(tmp_path / "o"))
    assert code == 2


@pytest.mark.parametrize(
    "grid, fragment",
    [
        ({"kappa": [0.5, 0.0]}, "kappa must be > 0"),
        ({"kappa": [1.5]}, "kappa must lie in (0, 1) for s-avuc"),
        ({"soft_temperature": [-1.0]}, "soft_temperature must be > 0"),
        ({"beta": [1.0, -0.5]}, "beta must be >= 0"),
        ({"lam": [-1e-3]}, "lam must be >= 0"),
        ({"kappa": ["x"]}, "kappa must be > 0, got 'x' (not a number)"),
        ({"beta": [True]}, "beta must be >= 0, got True (not a number)"),
        ({"soft_temperature": [None]}, "soft_temperature must be > 0, got None (not a number)"),
    ],
)
def test_grid_values_the_loss_refuses_exit_64_before_training(capsys, sweep_inputs, tmp_path, grid, fragment):
    cfg, _ = sweep_inputs
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(grid))
    out_dir = tmp_path / "o"
    code, _, err = run_cli(capsys, "sweep", "--config", cfg, "--grid", str(bad), "--out", str(out_dir))
    assert code == 64 and err.startswith("usage error: grid value") and fragment in err
    assert not out_dir.exists()
