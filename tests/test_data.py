from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from softcal import BinningSpec, EvalSet, IngestionError, LossSpec, SoftBinningSpec, TaskSpec, summarize
from softcal.data import check_choice, check_int, check_real, entropy_nats
from softcal.synthetic import make_synthetic_task
from softcal.trainer import TrainConfig


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


def test_the_scalar_checks_accept_numpy_scalars_and_refuse_bools_and_strings():
    assert check_int("n", np.int64(3), 1) == 3
    assert check_real("t", np.float32(0.5), 0, strict=True) == 0.5
    check_choice("mode", np.str_("binned"), ("binned",))
    for value in (True, False, "1", None, [1], np.bool_(True)):
        with pytest.raises(ValueError, match="^n must be a positive integer"):
            check_int("n", value, 1)
        with pytest.raises(ValueError, match=r"^t must be >= 0, got .* \(not a number\)$"):
            check_real("t", value, 0)
    with pytest.raises(ValueError, match="^mode must be one of"):
        check_choice("mode", True, ("binned",))


@pytest.mark.parametrize(
    "args, message",
    [
        (("x", 1.5, 2), "x must be an integer >= 2, got 1.5"),
        (("x", -1, 0), "x must be a non-negative integer, got -1"),
        (("x", 0, 1), "x must be a positive integer, got 0"),
    ],
)
def test_check_int_names_the_field_and_the_least_value(args, message):
    with pytest.raises(ValueError) as err:
        check_int(*args)
    assert str(err.value) == message
    assert check_int("x", 2, 2) == 2


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("k", 0.0, 0), {"strict": True}, "k must be > 0, got 0.0"),
        (("k", 1, 0, 1), {"strict": True, "suffix": " for s-avuc"}, "k must lie in (0, 1) for s-avuc, got 1"),
        (("k", 1.5, 0, 1), {}, "k must lie in [0, 1], got 1.5"),
        (("k", np.nan, 0), {}, "k must be >= 0, got nan"),
        (("k", np.inf, 0), {}, "k must be >= 0, got inf"),
    ],
)
def test_check_real_refuses_values_outside_the_interval_or_not_finite(args, kwargs, message):
    with pytest.raises(ValueError) as err:
        check_real(*args, **kwargs)
    assert str(err.value) == message
    assert check_real("k", 0.0, 0) == 0.0 and check_real("k", 1, 0, 1) == 1


def test_check_real_refuses_what_float64_cannot_hold_finitely():
    assert check_real("k", 2**1023, 0) == 2**1023
    with pytest.raises(ValueError, match="^k must be >= 0, got 1000"):
        check_real("k", 10**400, 0)
    with pytest.raises(ValueError, match="^k must be >= 0, got"):
        check_real("k", np.float32(np.inf), 0)


def _task(**kwargs):
    return make_synthetic_task(**({"kind": "gaussian-blobs", "n": 100, "seed": 0} | kwargs))


# Every field of the settings dataclasses but the list settings and
# TrainConfig's loss, and make_synthetic_task's seed.
SCALAR_FIELDS = [
    *((spec, f.name) for spec in (LossSpec, TrainConfig, TaskSpec, BinningSpec, SoftBinningSpec)
      for f in fields(spec) if not isinstance(f.default, tuple) and f.name != "loss"),
    (_task, "seed"),
]


@pytest.mark.parametrize("value", [True, "1"])
@pytest.mark.parametrize("build, name", SCALAR_FIELDS)
def test_a_bool_or_a_string_for_a_scalar_field_is_a_value_error(build, name, value):
    with pytest.raises(ValueError):  # a TypeError would not match
        build(**{name: value})


@pytest.mark.parametrize(
    "build, name, value",
    [(TrainConfig, "hidden", 5), (TrainConfig, "hidden", None), (TrainConfig, "lr_drop_epochs", 3),
     (_task, "splits", None), (_task, "splits", ("a", 0.5, 0.5)), (_task, "splits", [0.5, None, 0.5])],
)
def test_a_list_setting_that_is_not_a_list_of_numbers_is_a_value_error_naming_it(build, name, value):
    with pytest.raises(ValueError, match=f"^{name} "):  # a TypeError would not match
        build(**{name: value})


@pytest.mark.parametrize("build, name", SCALAR_FIELDS)
def test_none_for_a_scalar_field_is_a_value_error(build, name):
    with pytest.raises(ValueError):
        build(**{name: None})
