"""Command-line interface.

Subcommands: metrics, recalibrate, reliability, train, sweep.
Exit codes: 0 success, 2 data errors (a temperature fit that fails on the
logits included), 3 training diverged, 64 usage errors, 1 internal errors.
ECE is a percentage at this layer only; the library works in [0, 1].
The seed precedence for train/sweep is --seed flag, then the CALREF_SEED
environment variable, then the config file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .binning import BINNED, MODES, SCHEMES, BinningSpec, SoftBinningSpec
from .data import EvalSet, IngestionError, check_int, check_real, summarize
from .io import UsageError, load_json, load_run_config, read_logits_csv, write_logits_csv
from .losses import LossSpec
from .metrics import ece, eval_convention_ece, reliability_table, sb_ece
from .recalibrate import OBJECTIVES, FitError, fit_temperature
from .synthetic import make_synthetic_task
from .trainer import SWEEP_ORDER, TrainingDivergedError, train, sweep_one_at_a_time


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise UsageError(message)


def _json(doc: dict) -> str:
    """doc as the CLI writes every JSON document: strict JSON, so a NaN or an
    infinity raises rather than reaching a file or stdout."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _resolve_seed(flag_seed, config_seed: int) -> int:
    env = os.environ.get("CALREF_SEED")
    source, value = ("--seed", flag_seed) if flag_seed is not None else ("CALREF_SEED", env)
    if value is None:
        return config_seed
    try:
        return check_int(source, int(value), 0)
    except ValueError:
        raise UsageError(f"{source} must be a non-negative integer, got {value!r}") from None


def _check_binning_flags(args) -> None:
    """Refuse a bad --bins, --p or --bin-temp under the flag's name, before
    any file is read and before a spec built from it would name its field."""
    try:
        check_int("--bins", args.bins, 1)
        if args.command != "reliability":  # the one command without --p and --bin-temp
            check_real("--p", args.p, 1)
            check_real("--bin-temp", args.bin_temp, 0, strict=True)
    except ValueError as err:
        raise UsageError(str(err)) from None


@contextmanager
def _output_errors(path):
    """Turn an OSError from creating an output file or directory into a usage error."""
    try:
        yield
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror}") from None


def _make_out_dir(out: str, names: tuple[str, ...]) -> Path:
    """Create the output directory, then check that each named file in it
    could be opened for writing.  The check creates and truncates nothing."""
    out_dir = Path(out)
    with _output_errors(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        with _output_errors(out_dir / name), suppress(FileNotFoundError):
            os.close(os.open(out_dir / name, os.O_WRONLY))
    return out_dir


def _metrics_block(path: str, spec: BinningSpec | SoftBinningSpec, args) -> dict:
    # The summary holds no reference to the logits, so they are freed
    # before the metric and entropy temporaries are made.
    summary = summarize(read_logits_csv(path))
    report = (sb_ece(summary.confidence, summary.accuracy, spec) if args.soft
              else ece(summary, spec, p=args.p, mode=args.mode))
    return {
        "n": summary.n,
        "bins": args.bins,
        "scheme": "soft-equal-width" if args.soft else args.scheme,
        "p": args.p,
        "mode": args.mode,
        "soft": bool(args.soft),
        "ece_percent": 100.0 * report.value,
        "accuracy": float(summary.accuracy.mean()),
        "mean_confidence": float(summary.confidence.mean()),
        "mean_entropy": float(summary.entropy.mean()),
    }


def cmd_metrics(args) -> int:
    _check_binning_flags(args)
    spec = (SoftBinningSpec(args.bins, args.bin_temp, args.p, args.mode) if args.soft
            else BinningSpec(scheme=args.scheme, num_bins=args.bins))
    doc = _metrics_block(args.logits, spec, args)
    if args.val_logits:
        doc["val"] = _metrics_block(args.val_logits, spec, args)
    print(_json(doc))
    return 0


def cmd_reliability(args) -> int:
    _check_binning_flags(args)
    spec = BinningSpec(scheme=args.scheme, num_bins=args.bins)
    rows = reliability_table(summarize(read_logits_csv(args.logits)), spec)
    print("bin,mean_conf,mean_acc,weight")
    for j, mean_conf, mean_acc, weight in rows:
        conf_s = "" if mean_conf is None else repr(mean_conf)
        acc_s = "" if mean_acc is None else repr(mean_acc)
        print(f"{j},{conf_s},{acc_s},{weight!r}")
    return 0


def cmd_recalibrate(args) -> int:
    _check_binning_flags(args)
    sb_spec = SoftBinningSpec(args.bins, args.bin_temp, args.p, args.mode)
    val_set = read_logits_csv(args.val_logits)
    test_set = read_logits_csv(args.test_logits)
    with _output_errors(args.trace):
        trace = open(args.trace, "w") if args.trace else nullcontext()
    with trace:
        fit = fit_temperature(val_set, objective=args.objective, sb_spec=sb_spec)
        print(f"recalibrate: objective={args.objective} t_star={fit.t_star!r} "
              f"evaluations={len(fit.trace)} at_bound={fit.at_bound}", file=sys.stderr)
        if args.trace:
            trace.write("temperature,objective\n")
            for t, v in fit.trace:
                trace.write(f"{t!r},{v!r}\n")
    doc = {
        "tStar": fit.t_star,
        "objective": args.objective,
        "eceBefore": 100.0 * eval_convention_ece(summarize(test_set, 1.0)),
        "eceAfter": 100.0 * eval_convention_ece(summarize(test_set, fit.t_star)),
    }
    print(_json(doc))
    return 0


def cmd_train(args) -> int:
    config = load_run_config(args.config)
    config = config.with_seed(_resolve_seed(args.seed, config.seed))
    out_dir = _make_out_dir(args.out, ("report.json", "model.npz", "test_logits.csv"))
    task = make_synthetic_task(seed=config.seed, **asdict(config.task))
    model, report = train(
        (task.x_train, task.y_train),
        (task.x_val, task.y_val),
        config.train,
        num_classes=task.num_classes,
    )
    test_logits = model.forward(task.x_test)[0]
    if not np.isfinite(test_logits).all():
        raise TrainingDivergedError("non-finite test logits")
    test_set = EvalSet(test_logits, task.y_test)
    summary = summarize(test_set)
    test_metrics = {
        "test_accuracy": float(summary.accuracy.mean()),
        "test_ece_percent": 100.0 * eval_convention_ece(summary, config.train.eval_bins),
    }

    doc = {"config": config.as_json(), "report": asdict(report), **test_metrics}
    (out_dir / "report.json").write_text(_json(doc) + "\n")
    arrays = {}
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{l}"] = w
        arrays[f"b{l}"] = b
    np.savez(out_dir / "model.npz", **arrays)
    write_logits_csv(str(out_dir / "test_logits.csv"), test_set)
    print(_json({"out": str(out_dir), **test_metrics}))
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
        if not isinstance(values, list):
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
    grids = _load_grid(args.grid, config.train.loss)
    out_dir = _make_out_dir(args.out, ("results.csv", "selected_config.json"))
    task = make_synthetic_task(seed=config.seed, **asdict(config.task))

    def train_fn(train_config):
        _, report = train(
            (task.x_train, task.y_train),
            (task.x_val, task.y_val),
            train_config,
            num_classes=task.num_classes,
        )
        return report.final_val_accuracy, report.final_val_ece

    selected, rows = sweep_one_at_a_time(config.train, grids, train_fn)

    with open(out_dir / "results.csv", "w") as handle:
        handle.write("stage,value,val_accuracy,val_ece_percent,selected\n")
        for row in rows:
            handle.write(
                f"{row.stage},{row.value!r},{row.val_accuracy!r},"
                f"{(100.0 * row.val_ece)!r},{int(row.selected)}\n"
            )
    selected_doc = replace(config, train=selected).as_json()
    (out_dir / "selected_config.json").write_text(_json(selected_doc) + "\n")
    print(_json({"out": str(out_dir), "selected_loss": selected_doc["loss"]}))
    return 0


def _add_binning_flags(parser, default_mode: str, scheme: bool = True) -> None:
    parser.add_argument("--bins", type=int, default=BinningSpec.num_bins, help="number of bins M")
    parser.add_argument("--p", type=float, default=SoftBinningSpec.p, help="l_p norm exponent")
    parser.add_argument("--mode", choices=MODES, default=default_mode, help="reduction mode")
    parser.add_argument(
        "--bin-temp", type=float, default=SoftBinningSpec.temperature, help="soft binning temperature"
    )
    if scheme:
        parser.add_argument("--scheme", choices=SCHEMES, default=BinningSpec.scheme, help="hard binning scheme")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="softcal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", parents=[], help="calibration metrics for a logits file")
    p.add_argument("--logits", required=True, help="logits CSV (label,z1,...,zK)")
    p.add_argument("--val-logits", help="optional second logits CSV reported under 'val'")
    p.add_argument("--soft", action="store_true", help="report SB-ECE instead of hard ECE")
    _add_binning_flags(p, default_mode=BINNED)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("reliability", help="reliability table as CSV on stdout")
    p.add_argument("--logits", required=True)
    p.add_argument("--bins", type=int, default=BinningSpec.num_bins)
    p.add_argument("--scheme", choices=SCHEMES, default=BinningSpec.scheme)
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("recalibrate", help="fit a scaling temperature on validation logits")
    p.add_argument("--val-logits", required=True)
    p.add_argument("--test-logits", required=True)
    p.add_argument("--objective", choices=OBJECTIVES, default=OBJECTIVES[0])
    p.add_argument("--trace", help="optional CSV path for the (t, objective) trace")
    _add_binning_flags(p, default_mode=SoftBinningSpec.mode, scheme=False)
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
        # Logit ranges past float64 overflow to -inf shifts, whose exp is
        # the intended 0; numpy's warning about them is not printed.  Other
        # warnings are printed once each, and only if the command succeeds.
        with np.errstate(over="ignore"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.func(args)
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {message}", file=sys.stderr)
        return code
    except SystemExit as err:  # --help
        return int(err.code or 0)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 64
    except (IngestionError, FitError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except TrainingDivergedError as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 1
    except Exception as err:  # pragma: no cover - internal failures
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
