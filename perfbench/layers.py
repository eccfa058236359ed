"""Per-layer metrics, computed from the spans of one traced cycle, and the
predictions that tie each of them to an end-to-end number.

A traced run does the workload's set-up once and one cycle (one op of each
kind), so every `.calls`, `.evals`, `.batches` and count metric is a
deterministic function of the workload seed.  Layers a workload does not
reach read zero there; that zero is the "bypassed" prediction.
`mlp.gflop_s` is computed from the array shapes of each forward and
backward call (two flops per multiply-add), not counted by hardware.

LAYER_METRICS also records, before any change is measured, which
end-to-end number each layer metric should move and on which workloads.
Those names are the per-kind medians an untraced run prints (train_nll_s,
fit_sbece_s, cli_metrics_s, ...); their sum over a workload's kinds is its
`cycle_s`.  On every other workload the prediction is no change.

Planned optimisations (ROADMAP.md), the workloads or arms that run the code
each one changes, and those that bypass it:

  skip EvalSet re-validation of trainer-made logits
      runs: train-label-noise (all arms), cli train
      bypassed: recalibrate-50k, cli metrics
  entropy only when a secondary needs it
      runs: train-label-noise nll and sb-ece arms, recalibrate-50k
      bypassed: train-label-noise s-avuc and avuc-gs arms (they need it)
  inference-only forward for the validation pass
      runs: train-label-noise, cli train
      bypassed: recalibrate-50k, cli metrics
  no L2 work when lam == 0
      runs: train-label-noise nll and sb-ece arms
      bypassed: train-label-noise s-avuc and avuc-gs arms, recalibrate-50k
  Brent temperature fit on precomputed shifts
      runs: recalibrate-50k
      bypassed: train-label-noise, cli
  one SB-ECE forward, membership matrix built once
      runs: recalibrate-50k fit_sbece, train-label-noise sb-ece arm
      bypassed: recalibrate-50k fit_nll, the other train arms, cli
  vectorised logits CSV parse
      runs: cli metrics
      bypassed: train-label-noise, recalibrate-50k
  derived config defaults and one JSON loader
      runs: cli train
      bypassed: train-label-noise, recalibrate-50k
  phase timers and progress output
      runs: train-label-noise, cli train
      bypassed: recalibrate-50k, cli metrics
"""

from __future__ import annotations

from collections import defaultdict

from tracing import Span, self_times

TRAIN = "train-label-noise"
RECAL = "recalibrate-50k"
CLI = "cli"

# name, unit, better, end-to-end metrics it should move, workloads where.
LAYER_METRICS = [
    ("data.summarize.calls", "count", "lower", "train_*, fit_*", (TRAIN, RECAL)),
    ("data.summarize.self_ms", "ms", "lower", "train_*, fit_*", (TRAIN, RECAL)),
    ("data.EvalSet.calls", "count", "lower", "train_*", (TRAIN,)),
    ("data.EvalSet.self_ms", "ms", "lower", "train_*", (TRAIN,)),
    ("binning.soft_membership.calls", "count", "lower", "fit_sbece_s, train_sbece_s", (TRAIN, RECAL)),
    ("binning.soft_membership.self_ms", "ms", "lower", "fit_sbece_s, train_sbece_s", (TRAIN, RECAL)),
    ("metrics.sb_ece.self_ms", "ms", "lower", "fit_sbece_s", (RECAL,)),
    ("metrics.sb_ece_grad.self_ms", "ms", "lower", "train_sbece_s", (TRAIN,)),
    ("metrics.eval_convention_ece.self_ms", "ms", "lower", "train_*", (TRAIN,)),
    ("avuc.s_avuc_grad.self_ms", "ms", "lower", "train_savuc_s", (TRAIN,)),
    ("avuc.avuc_grad.self_ms", "ms", "lower", "train_avucgs_s", (TRAIN,)),
    ("avuc.skipped_batches", "count", "lower", "train_savuc_s, train_avucgs_s", (TRAIN,)),
    ("losses.composite_loss.self_ms", "ms", "lower", "train_*", (TRAIN,)),
    ("losses.primary.self_ms", "ms", "lower", "train_*", (TRAIN,)),
    ("losses.nll.self_ms", "ms", "lower", "train_*, fit_nll_s", (TRAIN, RECAL)),
    ("mlp.forward.batch.self_ms", "ms", "lower", "train_*", (TRAIN,)),
    ("mlp.forward.eval.self_ms", "ms", "lower", "train_*", (TRAIN,)),
    ("mlp.backward.self_ms", "ms", "lower", "train_*", (TRAIN,)),
    ("mlp.weight_sq_norm.calls", "count", "lower", "train_nll_s, train_sbece_s", (TRAIN,)),
    ("mlp.gflop_s", "GFLOP/s", "higher", "train_*", (TRAIN,)),
    ("trainer.train.self_ms", "ms", "lower", "train_*", (TRAIN,)),
    ("trainer.forward_backward.self_ms", "ms", "lower", "train_*", (TRAIN,)),
    ("trainer.batches", "count", "lower", "train_*", (TRAIN,)),
    ("trainer.val_pass_ms", "ms", "lower", "train_*", (TRAIN,)),
    ("recalibrate.fit.evals", "count", "lower", "fit_*", (RECAL,)),
    ("recalibrate.fit.self_ms", "ms", "lower", "fit_*", (RECAL,)),
    ("recalibrate.ms_per_eval", "ms", "lower", "fit_*", (RECAL,)),
    ("io.read_logits_csv.ms", "ms", "lower", "cli_metrics_s", (CLI,)),
    ("io.read.rows_per_s", "1/s", "higher", "cli_metrics_s", (CLI,)),
    ("io.write_logits_csv.ms", "ms", "lower", "cli_train_s, setup_s", (CLI,)),
    ("io.load_run_config.ms", "ms", "lower", "cli_train_s", (CLI,)),
    ("synthetic.make_synthetic_task.ms", "ms", "lower", "setup_s, cli_train_s", (TRAIN, CLI)),
    ("cli.startup_s", "s", "lower", "cli_*", (CLI,)),
    ("cli.import_s", "s", "lower", "cli_*", (CLI,)),
    ("cli.cmd_train.ms", "ms", "lower", "cli_train_s", (CLI,)),
    ("cli.cmd_metrics.ms", "ms", "lower", "cli_metrics_s", (CLI,)),
    ("trace.overhead_s", "s", "lower", "nothing: it is the tracing cost", (TRAIN, RECAL, CLI)),
    ("trace.base_s", "s", "lower", "nothing: it is the base of trace.overhead_s", (TRAIN, RECAL, CLI)),
]

_VAL_PASS = ("mlp.forward.eval", "data.summarize", "data.EvalSet", "metrics.eval_convention_ece")
_MLP = ("mlp.forward.batch", "mlp.forward.eval", "mlp.backward")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], extras: dict) -> dict:
    """Every LAYER_METRICS value from the spans, plus the measured `extras`
    (cli start-up probes and the tracing overhead)."""
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    own: dict = defaultdict(float)
    work: dict = defaultdict(float)
    val_pass = 0.0
    skipped = 0
    for s, self_s in zip(spans, self_times(spans)):
        calls[s.name] += 1
        total[s.name] += s.duration
        own[s.name] += self_s
        work[s.name] += s.work
        if s.parent >= 0 and spans[s.parent].name == "trainer.train" and s.name in _VAL_PASS:
            val_pass += s.duration
        if s.name.startswith("avuc.") and s.error == "DegenerateBatchError":
            skipped += 1

    out = {}
    for name, *_ in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls[layer]
        elif stat == "self_ms":
            out[name] = 1e3 * own[layer]
        elif stat == "ms":
            out[name] = 1e3 * total[layer]
    out["avuc.skipped_batches"] = skipped
    out["mlp.gflop_s"] = 1e-9 * _ratio(sum(work[n] for n in _MLP), sum(total[n] for n in _MLP))
    out["trainer.batches"] = calls["trainer.forward_backward"]
    out["trainer.val_pass_ms"] = 1e3 * val_pass
    out["recalibrate.fit.evals"] = int(work["recalibrate.fit"])
    out["recalibrate.ms_per_eval"] = 1e3 * _ratio(total["recalibrate.fit"], work["recalibrate.fit"])
    out["io.read.rows_per_s"] = _ratio(work["io.read_logits_csv"], total["io.read_logits_csv"])
    for name in ("cli.startup_s", "cli.import_s", "trace.overhead_s", "trace.base_s"):
        out[name] = extras.get(name, 0.0)
    return {name: out[name] for name, *_ in LAYER_METRICS}
