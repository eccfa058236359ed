"""End-to-end CLI coverage: every subcommand plus the exit-code contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import softcal
from softcal.cli import main
from softcal.data import EvalSet
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
        ("metrics", "--p", "0.5"),
        ("metrics", "--bin-temp", "-1"),
        ("reliability", "--bins", "0"),
        ("recalibrate", "--bins", "0"),
        ("recalibrate", "--p", "0.5"),
        ("recalibrate", "--bin-temp", "-1"),
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
    ],
)
def test_config_values_training_would_refuse_exit_64_at_load_time(capsys, tmp_path, section):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(section))
    out_dir = tmp_path / "o"
    code, _, err = run_cli(capsys, "train", "--config", str(bad), "--out", str(out_dir))
    assert code == 64 and err.startswith("usage error: invalid config value:")
    assert not out_dir.exists()


def test_unwritable_out_dir_is_an_internal_error(capsys, train_config, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code, _, err = run_cli(capsys, "train", "--config", train_config, "--out", str(blocker))
    assert code == 1 and err.startswith("internal error:")


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
        ({"beta": [1.0, -0.5]}, "beta and lam must be >= 0"),
        ({"lam": [-1e-3]}, "beta and lam must be >= 0"),
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
