"""Command-line interface.

Subcommands: metrics, recalibrate, reliability, train, sweep.
Exit codes: 0 success, 2 data errors, 64 usage errors, 1 internal errors.
ECE is a percentage at this layer only; the library works in [0, 1].
The seed precedence for train/sweep is --seed flag, then the CALREF_SEED
environment variable, then the config file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .binning import BinningSpec, SoftBinningSpec
from .data import EvalSet, IngestionError, summarize
from .io import (
    DataError,
    RunConfig,
    UsageError,
    load_json,
    load_run_config,
    read_logits_csv,
    write_logits_csv,
)
from .losses import LossSpec
from .metrics import check_p, ece, eval_convention_ece, reliability_table, sb_ece
from .recalibrate import fit_temperature
from .synthetic import make_synthetic_task
from .trainer import SWEEP_ORDER, train, sweep_one_at_a_time


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise UsageError(message)


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _resolve_seed(flag_seed, config_seed: int) -> int:
    if flag_seed is not None:
        return int(flag_seed)
    env = os.environ.get("CALREF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"CALREF_SEED must be an integer, got {env!r}") from None
    return config_seed


def _make_task(config: RunConfig):
    d = config.data
    return make_synthetic_task(
        d["kind"],
        d["n"],
        config.seed,
        classes=d["classes"],
        dim=d["dim"],
        noise=d["noise"],
        separation=d["separation"],
        flip_rate=d["flip_rate"],
        splits=tuple(d["splits"]),
    )


@contextmanager
def _flag_errors():
    """Turn a ValueError from checking flags, before any file is read, into a usage error."""
    try:
        yield
    except ValueError as err:
        raise UsageError(str(err)) from None


def _metrics_block(eval_set: EvalSet, spec: BinningSpec | SoftBinningSpec, args) -> dict:
    summary = summarize(eval_set)
    report = (sb_ece if args.soft else ece)(summary, spec, p=args.p, mode=args.mode)
    return {
        "n": eval_set.n,
        "bins": report.num_bins,
        "scheme": report.scheme,
        "p": report.p,
        "mode": report.mode,
        "soft": bool(args.soft),
        "ece_percent": 100.0 * report.value,
        "accuracy": float(summary.accuracy.mean()),
        "mean_confidence": float(summary.confidence.mean()),
        "mean_entropy": float(summary.entropy.mean()),
    }


def cmd_metrics(args) -> int:
    with _flag_errors():
        check_p(args.p)
        hard = BinningSpec(scheme=args.scheme, num_bins=args.bins)
        soft = SoftBinningSpec(num_bins=args.bins, temperature=args.bin_temp)
    spec = soft if args.soft else hard
    doc = _metrics_block(read_logits_csv(args.logits), spec, args)
    if args.val_logits:
        doc["val"] = _metrics_block(read_logits_csv(args.val_logits), spec, args)
    _emit_json(doc)
    return 0


def cmd_reliability(args) -> int:
    with _flag_errors():
        spec = BinningSpec(scheme=args.scheme, num_bins=args.bins)
    rows, _ = reliability_table(summarize(read_logits_csv(args.logits)), spec)
    print("bin,mean_conf,mean_acc,weight")
    for j, mean_conf, mean_acc, weight in rows:
        conf_s = "" if mean_conf is None else repr(mean_conf)
        acc_s = "" if mean_acc is None else repr(mean_acc)
        print(f"{j},{conf_s},{acc_s},{weight!r}")
    return 0


def cmd_recalibrate(args) -> int:
    with _flag_errors():
        check_p(args.p)
        sb_spec = SoftBinningSpec(num_bins=args.bins, temperature=args.bin_temp)
    val_set = read_logits_csv(args.val_logits)
    test_set = read_logits_csv(args.test_logits)
    fit = fit_temperature(val_set, objective=args.objective, sb_spec=sb_spec, p=args.p, mode=args.mode)
    print(f"recalibrate: objective={fit.objective} t_star={fit.t_star!r} "
          f"evaluations={len(fit.trace)} at_bound={fit.at_bound}", file=sys.stderr)
    if args.trace:
        with open(args.trace, "w") as handle:
            handle.write("temperature,objective\n")
            for t, v in fit.trace:
                handle.write(f"{t!r},{v!r}\n")
    _emit_json(
        {
            "tStar": fit.t_star,
            "objective": fit.objective,
            "eceBefore": 100.0 * eval_convention_ece(summarize(test_set, 1.0)),
            "eceAfter": 100.0 * eval_convention_ece(summarize(test_set, fit.t_star)),
        }
    )
    return 0


def _test_metrics(model, task, eval_bins: int) -> tuple[EvalSet, dict]:
    logits = model.forward(task.x_test)[0]
    test_set = EvalSet(logits, task.y_test)
    summary = summarize(test_set)
    return test_set, {
        "test_accuracy": float(summary.accuracy.mean()),
        "test_ece_percent": 100.0 * eval_convention_ece(summary, eval_bins),
    }


def cmd_train(args) -> int:
    config = load_run_config(args.config)
    config = config.with_seed(_resolve_seed(args.seed, config.seed))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    task = _make_task(config)
    model, report = train(
        (task.x_train, task.y_train),
        (task.x_val, task.y_val),
        config.train_config(),
        num_classes=task.num_classes,
    )
    test_set, test_metrics = _test_metrics(model, task, config.train["eval_bins"])

    doc = {"config": config.to_dict(), "report": report.to_dict(), **test_metrics}
    (out_dir / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    arrays = {}
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{l}"] = w
        arrays[f"b{l}"] = b
    np.savez(out_dir / "model.npz", **arrays)
    write_logits_csv(str(out_dir / "test_logits.csv"), test_set)
    print(json.dumps({"out": str(out_dir), **test_metrics}, indent=2, sort_keys=True))
    return 0


def _load_grid(path: str, loss: LossSpec) -> dict:
    """The sweep grids at path, each value checked by building its LossSpec from loss."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise UsageError("grid file must be a JSON object")
    unknown = set(doc) - set(SWEEP_ORDER)
    if unknown:
        raise UsageError(f"unknown sweep parameter(s): {sorted(unknown)}")
    for key, values in doc.items():
        if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        ):
            raise UsageError(f"grid for {key!r} must be a list of numbers")
        for value in values:
            try:
                replace(loss, **{key: value})
            except ValueError as err:
                raise UsageError(f"grid value {key}={value!r}: {err}") from None
    return doc


def cmd_sweep(args) -> int:
    config = load_run_config(args.config)
    config = config.with_seed(_resolve_seed(args.seed, config.seed))
    grids = _load_grid(args.grid, config.loss_spec())
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    task = _make_task(config)

    def train_fn(train_config):
        _, report = train(
            (task.x_train, task.y_train),
            (task.x_val, task.y_val),
            train_config,
            num_classes=task.num_classes,
        )
        return report.final_val_accuracy, report.final_val_ece

    selected, rows = sweep_one_at_a_time(config.train_config(), grids, train_fn)

    with open(out_dir / "results.csv", "w") as handle:
        handle.write("stage,value,val_accuracy,val_ece_percent,selected\n")
        for row in rows:
            handle.write(
                f"{row.stage},{row.value!r},{row.val_accuracy!r},"
                f"{(100.0 * row.val_ece)!r},{int(row.selected)}\n"
            )
    selected_doc = config.with_loss(selected.loss).to_dict()
    (out_dir / "selected_config.json").write_text(
        json.dumps(selected_doc, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps({"out": str(out_dir), "selected_loss": selected_doc["loss"]}, indent=2, sort_keys=True))
    return 0


def _add_binning_flags(parser, default_mode: str, default_scheme: str = "equal-mass") -> None:
    parser.add_argument("--bins", type=int, default=15, help="number of bins M")
    parser.add_argument("--p", type=float, default=2.0, help="l_p norm exponent")
    parser.add_argument(
        "--mode", choices=("binned", "label-binned"), default=default_mode, help="reduction mode"
    )
    parser.add_argument(
        "--bin-temp", type=float, default=0.01, help="soft binning temperature"
    )
    if default_scheme is not None:
        parser.add_argument(
            "--scheme", choices=("equal-mass", "equal-width"), default=default_scheme,
            help="hard binning scheme",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="softcal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", parents=[], help="calibration metrics for a logits file")
    p.add_argument("--logits", required=True, help="logits CSV (label,z1,...,zK)")
    p.add_argument("--val-logits", help="optional second logits CSV reported under 'val'")
    p.add_argument("--soft", action="store_true", help="report SB-ECE instead of hard ECE")
    _add_binning_flags(p, default_mode="binned")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("reliability", help="reliability table as CSV on stdout")
    p.add_argument("--logits", required=True)
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--scheme", choices=("equal-mass", "equal-width"), default="equal-mass")
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("recalibrate", help="fit a scaling temperature on validation logits")
    p.add_argument("--val-logits", required=True)
    p.add_argument("--test-logits", required=True)
    p.add_argument("--objective", choices=("nll", "sb-ece"), default="nll")
    p.add_argument("--trace", help="optional CSV path for the (t, objective) trace")
    _add_binning_flags(p, default_mode="label-binned", default_scheme=None)
    p.set_defaults(func=cmd_recalibrate)

    p = sub.add_parser("train", help="train an MLP on a synthetic task from a config")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="overrides CALREF_SEED and the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="one-at-a-time hyperparameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="JSON grids for kappa/soft_temperature/beta/lam")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="overrides CALREF_SEED and the config seed")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 64
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 64
    except (DataError, IngestionError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as err:  # pragma: no cover - internal failures
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
