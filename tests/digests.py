"""SHA-256 digests of softcal's outputs, to show that a change keeps the same numbers.

    python tests/digests.py > change.json
    python tests/digests.py --src ../parent/src > parent.json
    python tests/digests.py --compare parent.json > change.json

Each digest covers one output, bit for bit:
  train/<loss>/seed<s>     the weights and biases, then asdict(report), of the
                           four train-label-noise trainings at seeds 7 and 11
  fit/<set>/<objective>    fit_temperature's t*, value and trace on a planted
                           and a mixed-scale set, 50k x 10
  csv/<name>               the bytes write_logits_csv gives a 100k x 10 set
  cli/<command>            stdout and stderr of `python -m softcal`
                           metrics (hard and --soft), reliability and
                           recalibrate (both objectives) on those files
  train-cli/<file>         the criterion-9 `softcal train` report.json,
                           test_logits.csv and model arrays
  sweep/<file>             a small `softcal sweep`'s results.csv and
                           selected_config.json

--quick trains for 2 epochs and uses 5k-row sets, in a few seconds.
--compare FILE prints this run's JSON, names on stderr each digest that
differs from FILE's, and exits 1 if any does.  Digests depend on the BLAS
kernels of the machine, so compare only runs made on one machine; BLAS runs
single-threaded here and in the children.  The tool uses only softcal names
that older trees have too, and `python -m softcal`, so --src can point it at
an older checkout's sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent

LOSSES = {
    "nll": {},
    "s-avuc": dict(secondary="s-avuc", beta=3.0, kappa=0.85, soft_temperature=0.15, lam=1e-3),
    "avuc-gs": dict(secondary="avuc-gs", beta=1.0, kappa=0.5, lam=1e-3),
    "sb-ece": dict(secondary="sb-ece", beta=1.0, lam=0.0),
}
CRITERION_9 = {"seed": 5, "data": {"n": 240}, "model": {"hidden": [8]},
               "train": {"epochs": 2, "batch_size": 32}}
SWEEP_GRID = {"kappa": [0.6, 0.8], "beta": [1.0, 3.0]}


def sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def posterior_logits(np, rng, n: int, k: int, spread: float):
    """Latent logits v and labels drawn from softmax(v)."""
    v = rng.normal(0.0, spread, size=(n, k))
    p = np.exp(v - v.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    y = (p.cumsum(axis=1) < rng.random(n)[:, None]).sum(axis=1)
    return v, np.minimum(y, k - 1)


def training_digests(softcal, epochs: int) -> dict:
    out = {}
    for seed in (7, 11):
        task = softcal.make_synthetic_task("label-noise-blobs", 2048, seed, flip_rate=0.2,
                                           splits=(0.125, 0.375, 0.5))
        for name, loss in LOSSES.items():
            config = softcal.TrainConfig(loss=softcal.LossSpec(**loss), hidden=(128, 128), epochs=epochs,
                                         learning_rate=0.1, lr_drop_epochs=(300,), seed=seed)
            model, report = softcal.train((task.x_train, task.y_train), (task.x_val, task.y_val),
                                          config, task.num_classes)
            arrays = [a.tobytes() for a in (*model.weights, *model.biases)]
            out[f"train/{name}/seed{seed}"] = sha256(*arrays, asdict(report))
    return out


def fit_digests(np, softcal, n: int) -> dict:
    rng = np.random.default_rng(1)
    scale = float(rng.uniform(1.0, 3.0))
    v, y = posterior_logits(np, rng, n, 10, spread=2.5)
    planted = softcal.EvalSet(v * scale, y)
    v, y = posterior_logits(np, rng, n, 10, spread=1.5)
    mixed = softcal.EvalSet(v * np.where(rng.random(n) < 0.5, 1.5, 5.0)[:, None], y)
    out = {}
    for set_name, val in (("planted", planted), ("mixed", mixed)):
        for objective in ("nll", "sb-ece"):
            fit = softcal.fit_temperature(val, objective=objective)
            out[f"fit/{set_name}/{objective}"] = sha256([fit.t_star, fit.objective_value, fit.trace])
    return out


def run_cli(env: dict, work: Path, *argv: str) -> str:
    """The digest of a `softcal` run's output, with the scratch directory's
    name, which differs from run to run, taken out."""
    proc = subprocess.run([sys.executable, "-m", "softcal", *argv], env=env, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:  # a failure on both sides would digest the same
        raise SystemExit(f"digests: softcal {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return sha256([text.replace(str(work), "<work>") for text in (proc.stdout, proc.stderr)])


def cli_digests(np, softcal, env: dict, work: Path, n: int, sweep_epochs: int) -> dict:
    from softcal.io import write_logits_csv

    rng = np.random.default_rng(2)
    out = {}
    for name in ("val.csv", "test.csv"):
        v, y = posterior_logits(np, rng, n, 10, spread=1.5)
        write_logits_csv(str(work / name), softcal.EvalSet(v * 2.0, y))
        out[f"csv/{name}"] = sha256((work / name).read_bytes())
    test, val = str(work / "test.csv"), str(work / "val.csv")
    out["cli/metrics"] = run_cli(env, work, "metrics", "--logits", test)
    out["cli/metrics-soft"] = run_cli(env, work, "metrics", "--logits", test, "--soft")
    out["cli/reliability"] = run_cli(env, work, "reliability", "--logits", test)
    for objective in ("nll", "sb-ece"):
        out[f"cli/recalibrate-{objective}"] = run_cli(
            env, work, "recalibrate", "--val-logits", val, "--test-logits", test, "--objective", objective)

    (work / "c9.json").write_text(json.dumps(CRITERION_9))
    out["cli/train"] = run_cli(env, work, "train", "--config", str(work / "c9.json"),
                               "--out", str(work / "c9"))
    for name in ("report.json", "test_logits.csv"):
        out[f"train-cli/{name}"] = sha256((work / "c9" / name).read_bytes())
    with np.load(work / "c9" / "model.npz") as model:
        out["train-cli/model.npz"] = sha256(*(model[k].tobytes() for k in sorted(model.files)))

    sweep_config = {"seed": 3, "data": {"kind": "label-noise-blobs", "n": 400}, "model": {"hidden": [16]},
                    "train": {"epochs": sweep_epochs},
                    "loss": {"secondary": "s-avuc", "beta": 1.0, "kappa": 0.8, "soft_temperature": 0.5}}
    (work / "sweep.json").write_text(json.dumps(sweep_config))
    (work / "grid.json").write_text(json.dumps(SWEEP_GRID))
    out["cli/sweep"] = run_cli(env, work, "sweep", "--config", str(work / "sweep.json"), "--grid",
                               str(work / "grid.json"), "--out", str(work / "sweep"))
    for name in ("results.csv", "selected_config.json"):
        out[f"sweep/{name}"] = sha256((work / "sweep" / name).read_bytes())
    return out


def digests(src: Path, quick: bool) -> dict:
    for var in THREAD_VARS:  # before numpy loads BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy as np
    import softcal

    if Path(softcal.__file__).resolve().parent.parent != src:
        raise SystemExit(f"digests: imported softcal from {softcal.__file__}, not {src}")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    epochs, sweep_epochs, n_fit, n_csv = (2, 2, 5_000, 5_000) if quick else (400, 30, 50_000, 100_000)
    with tempfile.TemporaryDirectory(prefix="softcal-digests-") as work:
        return {**training_digests(softcal, epochs), **fit_digests(np, softcal, n_fit),
                **cli_digests(np, softcal, env, Path(work), n_csv, sweep_epochs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the softcal package")
    parser.add_argument("--quick", action="store_true", help="2-epoch trainings and 5k-row sets")
    parser.add_argument("--compare", type=Path, help="a JSON this tool printed earlier")
    args = parser.parse_args(argv)

    other = None if args.compare is None else json.loads(args.compare.read_text())
    if other is not None and other["quick"] != args.quick:
        print(f"digests: {args.compare} has quick = {other['quick']}, this run {args.quick}", file=sys.stderr)
        return 2
    doc = {"quick": args.quick, "digests": digests(args.src.resolve(), args.quick)}
    print(json.dumps(doc, indent=1, sort_keys=True))
    if other is None:
        return 0
    mine, theirs = doc["digests"], other["digests"]
    differ = sorted(k for k in mine.keys() | theirs.keys() if mine.get(k) != theirs.get(k))
    for name in differ:
        print(f"differs: {name}", file=sys.stderr)
    print(f"digests: {len(differ)} of {len(mine.keys() | theirs.keys())} differ from {args.compare}",
          file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
