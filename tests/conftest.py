"""Shared fixtures: conditioned random batches and the acceptance report.

Gradient batches are conditioned so the quantities being differentiated are
actually smooth at the sample: no near-ties in the argmax (confidence kinks),
and for the hard AvUC threshold a kappa sitting in a real entropy gap.
"""

import os

from digests import THREAD_VARS

# One BLAS thread, as in CI and tests/digests.py, unless the caller chose a
# count: set before numpy loads BLAS.  Two OpenBLAS threads on a 2-core box
# took the README tour test from 3.6 s to 6.7 s.  Tests that run children
# with another count set it in the child's environment.
for var in THREAD_VARS:
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

import oracles  # noqa: E402

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")

_ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_criterion(num: int, name: str, ok: bool, detail: str) -> bool:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {name}: {detail}"
    _ACCEPTANCE_LINES.append((num, line))
    return ok


def record_line(after: int, line: str) -> None:
    """A line for the acceptance report, printed after criterion `after`'s:
    a check that is not one of the ten criteria."""
    _ACCEPTANCE_LINES.append((after + 0.5, line))


@pytest.fixture(scope="session")
def criterion_log():
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def random_batch(rng, n_lo=4, n_hi=16, k_lo=2, k_hi=6, scale=0.5, top_gap=1e-3):
    """Logits and labels with every row's top-two probabilities separated, so
    confidence is differentiable at the sample and the predicted class is
    stable under finite-difference steps."""
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        k = int(rng.integers(k_lo, k_hi + 1))
        z = rng.normal(0.0, scale, size=(n, k))
        p = np.asarray(oracles.softmax_ld(z), dtype=np.float64)
        top2 = np.sort(p, axis=1)[:, -2:]
        if (top2[:, 1] - top2[:, 0]).min() < top_gap:
            continue
        y = rng.integers(0, k, size=n)
        return z, y


def avuc_batch(rng, margin=1e-3):
    """Batch plus a kappa placed inside an entropy gap, with all four
    accuracy/certainty cells reachable and a nonzero denominator."""
    while True:
        z, y = random_batch(rng, n_lo=6)
        probs, conf, pred = oracles.predictions_ld(z)
        h = np.asarray(oracles.entropy_ld(probs), dtype=np.float64)
        hs = np.sort(h)
        gaps = np.diff(hs)
        j = int(np.argmax(gaps))
        if gaps[j] < 2 * margin:
            continue
        kappa = 0.5 * (hs[j] + hs[j + 1])
        acc = np.asarray(pred) == y
        certain = h <= kappa
        if not certain.any() or certain.all():
            continue
        if (acc & certain).sum() + (~acc & ~certain).sum() == 0:
            continue
        return z, y, float(kappa)
