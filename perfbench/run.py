"""softcal's benchmark.

    python3 perfbench/run.py --workload train-label-noise --seed 0 --seconds 30 --trace 0
    for w in train-label-noise recalibrate-50k cli; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 30 --trace 0
    done

Run from the root of a softcal checkout; softcal is imported from `src/`.
Workloads (see workloads.py and the `why` lines in BENCHMARK.json):
train-label-noise, recalibrate-50k and cli.  BLAS and OpenMP threads are
pinned to 1 for the benchmark and its children: the target box has 2 cores,
OpenBLAS threads spin-wait under contention, and softcal's output does not
depend on the thread count.

--trace 0 sets up the workload three times, then runs ops closed-loop for
--seconds and prints the end-to-end metrics:
  cycle_s      sum over the workload's op kinds of the median seconds per
               op (the per-kind medians and sample counts are printed too)
  setup_s      median of three set-ups, each a softcal import in a fresh
               interpreter plus the generation of the workload's inputs
  peak_rss_mb  peak RSS of this process, or of its largest child for cli
--trace 1 sets up once traced, runs one cycle untraced and one traced, and
prints the per-layer metrics of layers.py; trace.overhead_s is the traced
cycle's op time minus the untraced one's (trace.base_s).  The spans go to
perfbench/_traces/<workload>-seed<seed>.json as [name, start, end, parent
index, op, exception, work] rows.

Every op's output is checked; the last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  The line before it is a JSON
report with the environment, per-kind medians and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
PROBE_REPEATS = 3
END_TO_END = {"cycle_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def git_commit(root: Path) -> str:
    """The checked-out commit read from .git, or "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def untraced_run(workload, seconds: float):
    import workloads

    # One set-up is what a fresh process pays before its first op: the
    # softcal import, in a new interpreter, then the workload's inputs.
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import softcal, softcal.cli"], env=workload.env,
                       check=True, timeout=120)
        workload.setup()
        setups.append(perf_counter() - start)
    outcome = workloads.measure(workload.ops(), seconds)
    medians = outcome.medians()
    metrics = {
        "cycle_s": sum(medians.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": workloads.peak_rss_mb(workload.children_rss),
    }
    kinds = {k: {"median_s": m, "n": len(outcome.samples[k]), "samples_s": outcome.samples[k]}
             for k, m in medians.items()}
    return outcome, metrics, {"ops": kinds, "setup_samples_s": setups}


def traced_run(workload, spans_path: Path):
    import layers
    import workloads
    from tracing import Tracer, installed

    tracer = Tracer()
    with installed(tracer):
        workload.setup()
    outcome = workloads.Outcome()
    base = workloads.run_cycle(workload.ops(), outcome, None)
    traced = workloads.run_cycle(workload.ops(), outcome, tracer)
    extras = {"trace.base_s": base, "trace.overhead_s": traced - base}
    for probe in workload.probes():
        for _ in range(PROBE_REPEATS):
            workloads.run_op(probe, outcome)
        extras[probe.kind] = statistics.median(outcome.samples[probe.kind])
    spans_path.parent.mkdir(exist_ok=True)
    tracer.dump(str(spans_path))
    metrics = layers.layer_metrics(tracer.spans, extras)
    detail = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
              "traced_s": traced, "base_s": base,
              "overhead_frac": (traced - base) / base}
    return outcome, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-label-noise", "recalibrate-50k", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "softcal" / "__init__.py").is_file():
        print(f"perfbench: no softcal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads these when numpy loads, so nothing numeric is imported
    # before this point (hence the function-level imports in this file).
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import softcal
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        if args.trace:
            spans_path = BENCH_DIR / "_traces" / f"{args.workload}-seed{args.seed}.json"
            outcome, metrics, detail = traced_run(workload, spans_path)
            units = {name: unit for name, unit, *_ in layers.LAYER_METRICS}
            predictions = {name: f"-> {moves} on {', '.join(on)}"
                           for name, _, _, moves, on in layers.LAYER_METRICS}
        else:
            outcome, metrics, detail = untraced_run(workload, args.seconds)
            units, predictions = END_TO_END, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"softcal {softcal.__version__}")
    for kind, k in detail.get("ops", {}).items():
        print(f"#   {kind:<16} {k['median_s']:.4f} s  (median of {k['n']})")
    for name, value in metrics.items():
        print(f"#   {name:<36} {value:<12.6g} {units[name]:<8} {predictions.get(name, '')}".rstrip())
    print(f"#   attempted {outcome.attempted}, failed {outcome.failed}, "
          f"failed_frac {outcome.failed / max(outcome.attempted, 1):.4g}")
    for problem in outcome.problems:
        print(f"#   FAILED {problem}")
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed), **detail,
              "failed_frac": outcome.failed / max(outcome.attempted, 1),
              "problems": outcome.problems}
    print(json.dumps(report))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
