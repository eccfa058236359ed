"""The thread pool behind softcal.data._blocks: when it starts threads, how
errors come back, and that a forked child gets a working pool of its own.

The checks that start threads run in a fresh interpreter, so that what they
count is theirs alone; CI also runs this file under `taskset -c 0`, where
the real affinity allows one CPU and no call may start a thread.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import softcal
import softcal.data
from softcal import EvalSet, fit_temperature

SRC = str(Path(softcal.__file__).resolve().parents[1])

# The imports and the logits-set builder that the child scripts share.
PRELUDE = """
import os, sys, threading
import numpy as np
import softcal.data
from softcal import EvalSet, fit_temperature, summarize
from softcal.losses import LossSpec, composite_loss

def eval_set(n, seed=0):
    rng = np.random.default_rng(seed)
    return EvalSet(rng.normal(0.0, 2.0, size=(n, 10)), rng.integers(0, 10, n))
"""


def run_python(code: str, timeout: float = 120) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", PRELUDE + code], capture_output=True, text=True, env=env,
                         timeout=timeout)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_training_batches_and_validation_sized_calls_start_no_thread():
    # A 64-row training batch and 768-row fits and summaries stay in the
    # calling thread even where eight CPUs are allowed.
    code = """
os.sched_getaffinity = lambda pid: set(range(8))
rng = np.random.default_rng(1)
composite_loss(rng.normal(size=(64, 2)), rng.integers(0, 2, 64), LossSpec(secondary="sb-ece", beta=1.0))
es = eval_set(768)
for objective in ("nll", "sb-ece"):
    fit_temperature(es, objective)
summarize(es, 2.0)
print(threading.active_count(), "concurrent.futures" in sys.modules)
"""
    assert run_python(code) == "1 False"


def test_a_large_call_starts_one_thread_per_further_allowed_cpu():
    # Real affinity: under `taskset -c 0` this is the one-CPU path.
    code = """
n = 4 * softcal.data._MIN_BLOCK_ROWS
blocks = min(len(os.sched_getaffinity(0)), 4)
summarize(eval_set(n), 1.5)
print(threading.active_count() - 1 == blocks - 1, ("concurrent.futures" in sys.modules) == (blocks > 1))
"""
    assert run_python(code) == "True True"


def test_a_forked_child_runs_multi_block_fits():
    # The parent's pool has an idle worker when it forks; a child that kept
    # that pool would queue its blocks for a thread it does not have.  The
    # alarm ends a hung child, so the test fails rather than hangs.
    code = """
softcal.data._MIN_BLOCK_ROWS = 1
os.sched_getaffinity = lambda pid: {0, 1, 2}
es = eval_set(3000)
before = fit_temperature(es, "sb-ece")
assert threading.active_count() > 1
pid = os.fork()
if pid == 0:
    import signal
    signal.alarm(60)
    after = fit_temperature(es, "sb-ece")
    os._exit(0 if (after.t_star, after.trace) == (before.t_star, before.trace) else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""
    assert run_python(code) == "0"


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_an_exception_in_any_block_reaches_the_caller_after_every_block_ends(monkeypatch, failing):
    monkeypatch.setattr(softcal.data, "_MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    started, ended = [], []
    release = threading.Event()

    def block(lo, hi):
        started.append(lo)
        if lo == 2 * failing:
            raise KeyError(f"block at {lo}")
        release.wait(5)  # the failing block raises while the others still run
        ended.append(lo)

    timer = threading.Timer(0.2, release.set)
    timer.start()
    with pytest.raises(KeyError, match=f"block at {2 * failing}"):
        softcal.data._blocks(6, block)
    timer.join(5)
    assert sorted(started) == [0, 2, 4]
    assert sorted(ended) == sorted({0, 2, 4} - {2 * failing})


def test_callers_on_many_threads_share_the_pool_and_get_their_own_bits(monkeypatch):
    # More calling threads than cores, each fitting its own set in 3 blocks
    # on the one shared pool, with thread switches forced often.
    sets = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        sets.append(EvalSet(rng.normal(0.0, 2.0, size=(300, 10)), rng.integers(0, 10, 300)))
    want = [fit_temperature(es, "sb-ece").trace for es in sets]  # one block: 300 rows
    monkeypatch.setattr(softcal.data, "_MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    got = [None] * len(sets)

    def fit(i):
        got[i] = fit_temperature(sets[i], "sb-ece").trace

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=fit, args=(i,)) for i in range(len(sets))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
