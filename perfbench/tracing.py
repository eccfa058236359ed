"""In-memory spans around softcal's module-level public names.

`installed(tracer)` swaps each name in PATCHES for a wrapper that records a
span (name, start, end, parent span, op id) and restores the originals on
exit.  The wrappers sit on the names the calling module looks up at call
time, so `softcal.trainer.summarize` is traced while the same function
reached through another module is not.  A name a later softcal no longer
has is skipped, so its layer simply reads zero.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root
    op: int  # index of the benchmark op that caused it, -1 for set-up
    error: str = ""  # exception class name when the call raised
    work: float = 0.0  # rows read, objective evaluations or MLP flops

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def call(self, name, fn, work, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        if callable(name):
            name = name(self.spans[parent].name if parent >= 0 else "")
        span = Span(name, 0.0, 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as err:
            span.error = type(err).__name__
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if work is not None:
            span.work = float(work(args, out))
        return out

    def extend(self, spans: list[Span]) -> None:
        """Append spans recorded by another process, re-basing parent links."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(
                Span(s.name, s.start, s.end, s.parent + base if s.parent >= 0 else -1,
                     s.op, s.error, s.work)
            )

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([astuple(s) for s in self.spans], handle)


def load_spans(path: str, op: int) -> list[Span]:
    with open(path) as handle:
        return [Span(*row[:4], op, *row[5:]) for row in json.load(handle)]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _mlp_flops(model, rows: int, backward: bool) -> float:
    # Multiply-adds of the dense layers, 2 flops each.  The backward pass
    # forms every weight gradient and propagates delta to all but the input.
    sizes = [w.shape[0] * w.shape[1] for w in model.weights]
    total = sum(sizes) + (sum(sizes[1:]) if backward else 0)
    return 2.0 * rows * total


def _forward_name(parent: str) -> str:
    return "mlp.forward.batch" if parent == "trainer.forward_backward" else "mlp.forward.eval"


def _forward_work(args, out):
    return _mlp_flops(args[0], len(args[1]), backward=False)


def _backward_work(args, out):
    return _mlp_flops(args[0], len(args[2]), backward=True)


def _rows_read(args, out):
    return out.n


def _fit_evals(args, out):
    return len(out.trace)


# (module or module:class, attribute, span name, work counter).  Home-module
# entries such as softcal.data.summarize catch the benchmark's own calls; the
# others catch softcal's calls between its modules.
PATCHES = [
    ("softcal.trainer", "train", "trainer.train", None),
    ("softcal.trainer", "forward_backward", "trainer.forward_backward", None),
    ("softcal.trainer", "composite_loss", "losses.composite_loss", None),
    ("softcal.trainer", "summarize", "data.summarize", None),
    ("softcal.trainer", "EvalSet", "data.EvalSet", None),
    ("softcal.trainer", "eval_convention_ece", "metrics.eval_convention_ece", None),
    ("softcal.losses", "summarize", "data.summarize", None),
    ("softcal.losses", "EvalSet", "data.EvalSet", None),
    ("softcal.losses", "primary_loss", "losses.primary", None),
    ("softcal.losses", "secondary_loss", "losses.secondary", None),
    ("softcal.losses", "nll", "losses.nll", None),
    ("softcal.losses", "sb_ece_grad", "metrics.sb_ece_grad", None),
    ("softcal.losses", "avuc_grad", "avuc.avuc_grad", None),
    ("softcal.losses", "s_avuc_grad", "avuc.s_avuc_grad", None),
    ("softcal.mlp:MlpModel", "forward", _forward_name, _forward_work),
    ("softcal.mlp:MlpModel", "backward", "mlp.backward", _backward_work),
    ("softcal.mlp:MlpModel", "weight_sq_norm", "mlp.weight_sq_norm", None),
    ("softcal.recalibrate", "fit_temperature", "recalibrate.fit", _fit_evals),
    ("softcal.recalibrate", "summarize", "data.summarize", None),
    ("softcal.recalibrate", "sb_ece", "metrics.sb_ece", None),
    ("softcal.recalibrate", "nll", "losses.nll", None),
    ("softcal.recalibrate", "eval_convention_ece", "metrics.eval_convention_ece", None),
    ("softcal.metrics", "soft_membership", "binning.soft_membership", None),
    ("softcal.metrics", "eval_convention_ece", "metrics.eval_convention_ece", None),
    ("softcal.binning", "soft_membership", "binning.soft_membership", None),
    ("softcal.data", "summarize", "data.summarize", None),
    ("softcal.synthetic", "make_synthetic_task", "synthetic.make_synthetic_task", None),
    ("softcal.io", "write_logits_csv", "io.write_logits_csv", None),
    ("softcal.io", "EvalSet", "data.EvalSet", None),
    ("softcal.cli", "cmd_train", "cli.cmd_train", None),
    ("softcal.cli", "cmd_metrics", "cli.cmd_metrics", None),
    ("softcal.cli", "train", "trainer.train", None),
    ("softcal.cli", "make_synthetic_task", "synthetic.make_synthetic_task", None),
    ("softcal.cli", "read_logits_csv", "io.read_logits_csv", _rows_read),
    ("softcal.cli", "write_logits_csv", "io.write_logits_csv", None),
    ("softcal.cli", "load_run_config", "io.load_run_config", None),
    ("softcal.cli", "summarize", "data.summarize", None),
    ("softcal.cli", "EvalSet", "data.EvalSet", None),
    ("softcal.cli", "eval_convention_ece", "metrics.eval_convention_ece", None),
]


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _wrap(tracer: Tracer, name, fn, work):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, work, args, kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Trace every name in PATCHES for the duration of the block."""
    saved = []
    try:
        for path, attr, name, work in PATCHES:
            owner = _resolve(path)
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, work))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
