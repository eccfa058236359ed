"""The per-example work split into row or column blocks gives the same bits
at any block count.

Temperature fits, summarize, soft_membership and the label-binned SB-ECE
gap pass each cut their examples into contiguous blocks (softcal.data._blocks),
one per CPU.  Each block writes only its own slice and every reduction over
examples runs once on the whole array, so the count must not move a bit.
These tests force 1, 2, 3 and 7 blocks of any width and compare against one
block, including sets of one example and sets one wider than the block count,
where one block is a single column.
"""

import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

import softcal.data
from softcal import EvalSet, SoftBinningSpec, fit_temperature, sb_ece, soft_membership, summarize

FITS = [("nll", 2.0, "label-binned"), ("sb-ece", 2.0, "label-binned"), ("sb-ece", 1.0, "label-binned"),
        ("sb-ece", 2.0, "binned")]
BLOCKS = [1, 2, 3, 7]


@pytest.fixture
def force_blocks(monkeypatch):
    """force_blocks(k) makes every call split into min(k, N) blocks."""
    def force(k):
        monkeypatch.setattr(softcal.data, "_MIN_BLOCK_ROWS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: k)
    return force


def eval_set(n, seed, k=10):
    """Mixed-scale logits, so the NLL and SB-ECE optima differ; K = 10 makes
    numpy's pairwise sum of a single column differ from a row-by-row sum."""
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, 1.5, size=(n, k))
    return EvalSet(v * np.where(rng.random(n) < 0.5, 1.5, 5.0)[:, None], rng.integers(0, k, n))


def widths(blocks):
    """N = 1, N = blocks + 1 (one block is then a single column) and a set
    whose blocks differ in width."""
    return sorted({1, blocks + 1, 601})


def fits(es):
    return [(f.t_star, f.objective_value, f.trace)
            for f in (fit_temperature(es, obj, SoftBinningSpec(p=p, mode=mode)) for obj, p, mode in FITS)]


def summary_fields(es, t):
    s = summarize(es, t)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (s.probs, s.confidence, s.predicted, s.accuracy)]


@pytest.mark.parametrize("blocks", BLOCKS)
def test_fits_are_bit_identical_at_any_block_count(force_blocks, blocks):
    for n in widths(blocks):
        es = eval_set(n, seed=n)
        force_blocks(1)
        want = fits(es)
        force_blocks(blocks)
        assert fits(es) == want, n


@pytest.mark.parametrize("blocks", BLOCKS)
def test_summaries_are_bit_identical_at_any_block_count(force_blocks, blocks):
    for n in widths(blocks):
        es = eval_set(n, seed=100 + n)
        # Rows whose logits / t overflows take the shifted path.
        logits = es.logits.copy()
        logits[n // 2, 0], logits[-1, 3] = 1e308, -1e308
        wide = EvalSet(logits, es.labels)
        for t in (0.05, 1.0, 3.3):
            for case in (es, wide):
                force_blocks(1)
                with np.errstate(over="ignore"):
                    want = summary_fields(case, t)
                force_blocks(blocks)
                # The caller's errstate holds in every block: no block warns.
                with np.errstate(over="ignore"), warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert summary_fields(case, t) == want, (n, t)


@pytest.mark.parametrize("blocks", BLOCKS)
def test_soft_binned_values_are_bit_identical_at_any_block_count(force_blocks, blocks):
    spec = SoftBinningSpec()
    for n in widths(blocks):
        rng = np.random.default_rng(200 + n)
        conf, acc = rng.uniform(0.1, 1.0, n), (rng.random(n) < 0.7).astype(np.float64)
        results = {}
        for k in (1, blocks):
            force_blocks(k)
            out = (np.full((spec.num_bins, n), np.nan), np.full((spec.num_bins, n), np.nan))
            results[k] = [
                soft_membership(conf, spec).tobytes(),
                *(sb_ece(conf, acc, replace(spec, p=p, mode=mode), out=out).value
                  for p in (1.0, 2.0, 2.5) for mode in ("binned", "label-binned")),
            ]
        assert results[blocks] == results[1], n
