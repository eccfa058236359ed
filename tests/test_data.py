import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from softcal import EvalSet, IngestionError, summarize
from softcal.data import entropy_nats


def softmax_rows(z):
    return summarize(EvalSet(z, np.zeros(len(z), dtype=int))).probs


def test_eval_set_validates_shapes_and_values():
    z = np.zeros((3, 4))
    y = np.array([0, 1, 2])
    EvalSet(z, y)  # fine
    with pytest.raises(IngestionError):
        EvalSet(np.zeros(3), y)
    with pytest.raises(IngestionError):
        EvalSet(np.zeros((3, 1)), y)  # K must be >= 2
    with pytest.raises(IngestionError):
        EvalSet(np.zeros((0, 4)), np.zeros(0, dtype=int))
    with pytest.raises(IngestionError):
        EvalSet(z, np.array([0, 1]))  # length mismatch
    with pytest.raises(IngestionError):
        EvalSet(z, np.array([0, 1, 4]))  # label out of range
    with pytest.raises(IngestionError):
        EvalSet(z, np.array([0.0, 1.0, 2.5]))  # non-integer label
    bad = z.copy()
    bad[1, 2] = np.inf
    with pytest.raises(IngestionError):
        EvalSet(bad, y)


def test_eval_set_casts_and_exposes_dims():
    s = EvalSet(np.zeros((5, 3), dtype=np.float32), np.zeros(5, dtype=np.int8))
    assert s.logits.dtype == np.float64
    assert s.labels.dtype == np.int64
    assert (s.n, s.num_classes) == (5, 3)


def test_softmax_rows_frozen_value():
    # softmax([1, 0, 0]) to 17 digits.
    p = softmax_rows(np.array([[1.0, 0.0, 0.0]]))[0]
    expect = np.array([0.57611688476582911, 0.21194155761708545, 0.21194155761708545])
    np.testing.assert_allclose(p, expect, rtol=1e-15)


@given(arrays(np.float64, (4, 5), elements=st.floats(-30, 30)),
       st.floats(-100, 100))
def test_softmax_shift_invariance(z, c):
    np.testing.assert_allclose(softmax_rows(z + c), softmax_rows(z), atol=1e-12)


def test_softmax_matches_reference_on_random_rows():
    rng = np.random.default_rng(0)
    z = rng.normal(0, 3, size=(50, 6))
    np.testing.assert_allclose(
        softmax_rows(z), np.asarray(oracles.softmax_ld(z), dtype=np.float64), rtol=1e-14
    )


def test_entropy_uniform_and_onehot():
    assert entropy_nats(np.array([[0.5, 0.5]]))[0] == pytest.approx(np.log(2), abs=1e-15)
    assert entropy_nats(np.array([[1.0, 0.0]]))[0] == 0.0  # 0 ln 0 = 0


def _probs_with_zeros(rng, n, k):
    p = rng.random((n, k))
    p /= p.sum(axis=1, keepdims=True)
    p[0, 0] = p[-1, -1] = 0.0  # 0 ln 0 in the first and the ragged last block
    return p


@pytest.mark.parametrize("shape", [(3 * 6553 + 17, 10), (3, 65537), (64, 2)])
def test_entropy_in_row_blocks_equals_the_one_pass_sum(shape):
    # 6,553 rows of 10 fill a 65,536-entry block: three blocks plus a ragged
    # one; K = 65,537 is one row per block; 64 x 2 is one block.
    from scipy.special import xlogy
    p = _probs_with_zeros(np.random.default_rng(6), *shape)
    np.testing.assert_array_equal(entropy_nats(p), -xlogy(p, p).sum(axis=1))


def test_entropy_peak_memory_stays_under_its_output_plus_one_megabyte():
    import tracemalloc
    p = _probs_with_zeros(np.random.default_rng(7), 50_000, 10)
    entropy_nats(p[:2])  # scipy.special imported outside the traced call
    tracemalloc.start()
    try:
        out = entropy_nats(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2**20, peak


def test_summary_fields():
    rng = np.random.default_rng(1)
    z = rng.normal(0, 2, size=(40, 5))
    y = rng.integers(0, 5, size=40)
    s = summarize(EvalSet(z, y))
    probs, conf, pred = oracles.predictions_ld(z)
    np.testing.assert_allclose(s.probs, np.float64(probs), rtol=1e-14)
    np.testing.assert_allclose(s.confidence, np.float64(conf), rtol=1e-14)
    assert (s.predicted == np.asarray(pred)).all()
    np.testing.assert_array_equal(s.accuracy, (np.asarray(pred) == y).astype(float))
    np.testing.assert_allclose(s.entropy, np.float64(oracles.entropy_ld(probs)), atol=1e-14)
    np.testing.assert_allclose(s.norm_entropy, s.entropy / np.log(5), rtol=1e-15)


def test_summary_bounds():
    rng = np.random.default_rng(2)
    z = rng.normal(0, 4, size=(200, 7))
    s = summarize(EvalSet(z, rng.integers(0, 7, size=200)))
    assert (s.confidence >= 1.0 / 7).all()
    assert (s.entropy >= 0).all() and (s.entropy <= np.log(7) + 1e-12).all()
    assert (s.norm_entropy >= 0).all() and (s.norm_entropy <= 1 + 1e-12).all()
    # uniform row attains normalized entropy 1 exactly
    u = summarize(EvalSet(np.zeros((1, 4)), np.array([0])))
    assert u.norm_entropy[0] == 1.0


def test_summarize_temperature_equals_predivided_logits():
    rng = np.random.default_rng(3)
    z = rng.normal(0, 2, size=(30, 4))
    y = rng.integers(0, 4, size=30)
    for t in (0.25, 1.0, 3.0):
        a = summarize(EvalSet(z, y), temperature=t)
        b = summarize(EvalSet(z / t, y))
        np.testing.assert_array_equal(a.probs, b.probs)
        np.testing.assert_array_equal(a.entropy, b.entropy)
        assert a.temperature == t


def test_rows_whose_logits_over_t_overflow_take_their_limit():
    # 1e308 / 0.05 is inf: such rows are shifted before the division.
    z = np.array([[1e308, 0.0, -1e308], [-1e308, -1e308, -1e308], [1.0, 2.0, 0.5]])
    with np.errstate(over="ignore"):
        s = summarize(EvalSet(z, np.array([0, 1, 2])), 0.05)
    np.testing.assert_array_equal(s.probs[:2], [[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]])
    np.testing.assert_array_equal(s.probs[2], summarize(EvalSet(z[2:], np.array([2])), 0.05).probs[0])
    assert (s.confidence == [1.0, 1 / 3, s.probs[2].max()]).all()


def test_summarize_rejects_bad_temperature():
    s = EvalSet(np.zeros((2, 2)), np.array([0, 1]))
    for t in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises((ValueError, IngestionError)):
            summarize(s, temperature=t)


def test_summarize_never_writes_the_callers_logits():
    rng = np.random.default_rng(4)
    es = EvalSet(rng.normal(0, 3, size=(50, 6)), rng.integers(0, 6, size=50))
    before = es.logits.tobytes()
    for t in (1.0, 0.4):
        summarize(es, t)
        assert es.logits.tobytes() == before


def test_entropy_is_computed_on_first_read_and_cached():
    rng = np.random.default_rng(5)
    s = summarize(EvalSet(rng.normal(0, 2, size=(30, 4)), rng.integers(0, 4, size=30)), 0.7)
    assert "entropy" not in vars(s)
    first = s.entropy
    np.testing.assert_array_equal(first, entropy_nats(s.probs))
    assert s.entropy is first
    np.testing.assert_array_equal(s.norm_entropy, first / np.log(4))
