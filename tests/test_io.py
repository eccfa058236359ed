"""Logits CSV parsing/writing and the JSON run configuration."""

import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import softcal.io
from softcal import LossSpec, TaskSpec, TrainConfig
from softcal.data import EvalSet, IngestionError
from softcal.io import (
    UsageError,
    _scan_logits_csv,
    load_run_config,
    read_logits_csv,
    run_config_from_dict,
    write_logits_csv,
)


def write(tmp_path, text, name="in.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------- logits CSV


def test_read_small_file(tmp_path):
    path = write(tmp_path, "0,1.5,-2.0\n1,0.25,0.75\n\n1,-1.0,3.0\n")
    es = read_logits_csv(path)
    np.testing.assert_array_equal(es.labels, [0, 1, 1])
    np.testing.assert_array_equal(es.logits, [[1.5, -2.0], [0.25, 0.75], [-1.0, 3.0]])


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("0,1.0\n", "at least 2 logits"),
        ("0,1.0,2.0\n0,1.0,2.0,3.0\n", "expected 3 fields"),
        ("x,1.0,2.0\n", "not an integer"),
        ("0,1.0,oops\n", "non-numeric logit"),
        ("0,1.0,inf\n", "non-finite logit"),
        ("0,1.0,nan\n", "non-finite logit"),
        ("2,1.0,2.0\n", "outside"),
        ("-1,1.0,2.0\n", "outside"),
        ("", "no data rows"),
    ],
)
def test_malformed_files_raise_data_errors(tmp_path, text, fragment):
    path = write(tmp_path, text)
    with pytest.raises(IngestionError, match=fragment):
        read_logits_csv(path)


def test_errors_carry_line_numbers(tmp_path):
    path = write(tmp_path, "0,1.0,2.0\n1,1.0,2.0\nbad,1.0,2.0\n")
    with pytest.raises(IngestionError, match=r":3:"):
        read_logits_csv(path)


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(IngestionError, match="cannot read"):
        read_logits_csv(str(tmp_path / "nope.csv"))


def test_write_read_round_trip_is_value_identical(tmp_path):
    rng = np.random.default_rng(0)
    logits = np.concatenate(
        [
            rng.standard_normal((50, 3)) * 10,
            np.array([[0.1, 1e-17, -1.0 / 3.0], [1e300, -1e-300, 7.0]]),
        ]
    )
    labels = rng.integers(0, 3, size=52)
    es = EvalSet(logits, labels)
    path = str(tmp_path / "round.csv")
    write_logits_csv(path, es)
    back = read_logits_csv(path)
    np.testing.assert_array_equal(back.labels, es.labels)
    np.testing.assert_array_equal(back.logits, es.logits)


def test_written_floats_use_shortest_repr(tmp_path):
    es = EvalSet(np.array([[0.1, -1.0 / 3.0]]), np.array([1]))
    path = str(tmp_path / "repr.csv")
    write_logits_csv(path, es)
    assert open(path).read() == "1,0.1,-0.3333333333333333\n"


# Files that are mostly well formed, with a per-file rate of tokens that probe
# where np.loadtxt and the csv module could disagree: padding that int() and
# float() strip or refuse, quotes, '#', underscores, non-finite and
# overflowing values, labels written as floats, empty fields, ragged rows and
# blank or whitespace-only lines.
_pads = st.sampled_from([" ", "\t", "\xa0", "\x0c", "\x1c", "\x00", '"'])
_odd_labels = st.sampled_from([
    "+1", "1.0", "1_0", "00", "-0", "-1", "7", "1e0", "9223372036854775808",
    "-9223372036854775809", "99999999999999999999", '"1"', "#1", "\u0663", "",
])
_odd_logits = st.sampled_from([
    "nan", "inf", "-inf", "Infinity", "1e400", "1_0.5", '"1.5"', '"1,5"', "#", ".5", "5.",
    "+.5", "-0.0", "5e-324", "0x1p3", "1d5", "1e", "\u0663", "", "\u01fe1",
])


@st.composite
def logits_csv_text(draw):
    k = draw(st.integers(2, 4))
    odds = draw(st.sampled_from([0, 2, 8, 40]))  # about one odd token in `odds`; 0: none

    def odd():
        return odds > 0 and draw(st.integers(0, odds - 1)) == 0

    def field(good, odd_token):
        text = draw(odd_token) if odd() else draw(good)
        if odd():
            text = draw(_pads) + text if draw(st.booleans()) else text + draw(_pads)
        return text

    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if odd():
            lines.append(draw(st.sampled_from(["", " ", "\t", "#", "0", "0,1"])))
            continue
        fields = [field(st.integers(0, k - 1).map(str), _odd_labels)]
        fields += [field(st.floats(allow_nan=False, allow_infinity=False).map(repr), _odd_logits)
                   for _ in range(k + (draw(st.integers(-1, 1)) if odd() else 0))]
        lines.append(",".join(fields))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if odd() else end for _ in lines]
    return "".join(line + e for line, e in zip(lines, ends)) + draw(st.sampled_from(["", "\n"]))


def _parse(parser, path):
    try:
        return parser(path)
    except IngestionError as err:
        return str(err)


def _scan(path):
    with open(path, newline="") as handle:
        return _scan_logits_csv(path, handle)


@settings(max_examples=300)
@given(logits_csv_text())
@example("1.5,0.0,1.0\n")  # numpy 1.23-1.26 loadtxt truncates an int field written as a float
@example("-0.5,0.0,1.0\n")
@example("0\x1c,1.0,2.0\n")  # np.loadtxt strips \x1c, int() refuses it
@example("\u01fe," + ",".join(["0.0"] * 463) + "\n")  # np.loadtxt reads this label as 462
@example("0,1.0,2.0\n \n")
@example("\n0,1.0,2.0\r\n1,-0.0,5e-324")
def test_read_matches_the_line_scanner(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_text(text, newline="")
    got, want = _parse(read_logits_csv, str(path)), _parse(_scan, str(path))
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for a, b in ((got.labels, want.labels), (got.logits, want.logits)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


def test_a_label_loadtxt_reads_via_a_float_goes_to_the_scanner(tmp_path, monkeypatch):
    def loadtxt_of_numpy_1_23(handle, dtype, **kwargs):
        # What numpy 1.23-1.26 do with "1.5,0.0,1.0": warn once, return label 1;
        # their row parser turns the warning, when it is an error, into ValueError.
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        except DeprecationWarning as err:
            raise ValueError("could not convert string '1.5' to int64") from err
        return np.array([(1, [0.0, 1.0])], dtype=dtype)

    monkeypatch.setattr(np, "loadtxt", loadtxt_of_numpy_1_23)
    path = write(tmp_path, "1.5,0.0,1.0\n")
    with pytest.raises(IngestionError, match=r":1: label '1.5' is not an integer"):
        read_logits_csv(path)


def test_well_formed_files_never_reach_the_scanner(tmp_path, monkeypatch):
    def refuse(path, handle):
        raise AssertionError(f"{path} fell back to the line scanner")

    monkeypatch.setattr(softcal.io, "_scan_logits_csv", refuse)
    rng = np.random.default_rng(1)
    es = EvalSet(rng.standard_normal((300, 4)) * 20, rng.integers(0, 4, size=300))
    written = str(tmp_path / "written.csv")
    write_logits_csv(written, es)
    back = read_logits_csv(written)
    np.testing.assert_array_equal(back.logits, es.logits)
    np.testing.assert_array_equal(back.labels, es.labels)
    by_hand = write(tmp_path, "0,1.5,-2.0\r\n\r\n+1, 0.25 ,7e-3\n\n1,-0.0,1e16", name="hand.csv")
    back = read_logits_csv(by_hand)
    np.testing.assert_array_equal(back.labels, [0, 1, 1])
    np.testing.assert_array_equal(back.logits, [[1.5, -2.0], [0.25, 7e-3], [-0.0, 1e16]])


def _per_element_writer(path, eval_set):
    with open(path, "w", newline="") as handle:
        for label, row in zip(eval_set.labels, eval_set.logits):
            handle.write(",".join([str(int(label)), *(repr(float(v)) for v in row)]))
            handle.write("\n")


def test_writer_is_byte_identical_to_the_per_element_writer(tmp_path):
    tiny = np.finfo(np.float64).smallest_normal
    logits = np.array([
        [-0.0, 0.0, 1e16],
        [5e-324, -5e-324, tiny / 3],
        [tiny, np.nextafter(tiny, 0.0), -1e-310],
        [0.1, -1.0 / 3.0, 1.7976931348623157e308],
        [1e22, 123456789012345680.0, 2.5e-8],
    ])
    rng = np.random.default_rng(2)
    logits = np.concatenate([logits, rng.standard_normal((9000, 3)) * 1e3])  # spans write blocks
    es = EvalSet(logits, np.concatenate([[0, 2, 1, 1, 0], rng.integers(0, 3, size=9000)]))
    _per_element_writer(str(tmp_path / "old.csv"), es)
    write_logits_csv(str(tmp_path / "new.csv"), es)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# -------------------------------------------------------------- RunConfig


def test_empty_config_fills_every_default():
    cfg = run_config_from_dict({})
    assert cfg.seed == 0
    assert cfg.task == TaskSpec() and cfg.train == TrainConfig()
    layout = json.loads(json.dumps(cfg.as_json()))
    assert list(layout) == ["seed", "data", "model", "train", "loss"]
    assert layout["data"]["kind"] == "gaussian-blobs"
    assert layout["model"] == {"hidden": [64, 64]}
    assert layout["train"]["epochs"] == 40 and "seed" not in layout["train"]
    assert layout["loss"] == asdict(LossSpec())


def test_partial_sections_merge_over_defaults():
    cfg = run_config_from_dict(
        {"seed": 7, "train": {"epochs": 3}, "loss": {"secondary": "s-avuc", "beta": 2.0}}
    )
    tc = cfg.train
    assert cfg.seed == tc.seed == 7 and tc.epochs == 3 and tc.batch_size == 64
    assert tc.loss.secondary == "s-avuc" and tc.loss.beta == 2.0
    assert isinstance(tc.hidden, tuple) and isinstance(tc.lr_drop_epochs, tuple)


@pytest.mark.parametrize(
    "doc",
    [
        {"sede": 1},
        {"data": {"kinds": "gaussian-blobs"}},
        {"train": {"lr": 0.1}},
        {"loss": {"primray": "nll"}},
        {"train": 3},
        {"seed": "3"},
        {"seed": True},
    ],
)
def test_unknown_keys_and_bad_shapes_are_usage_errors(doc):
    with pytest.raises(UsageError):
        run_config_from_dict(doc)


def test_bad_values_fail_at_load_time():
    with pytest.raises(UsageError, match="invalid config value"):
        run_config_from_dict({"train": {"learning_rate": -1.0}})
    with pytest.raises(UsageError, match="invalid config value"):
        run_config_from_dict({"loss": {"primary": "hinge"}})


def test_with_seed_and_as_json_round_trip():
    cfg = run_config_from_dict({"seed": 1})
    assert cfg.with_seed(9).seed == cfg.with_seed(9).train.seed == 9
    assert cfg.with_seed(9).train.loss == cfg.train.loss
    assert run_config_from_dict(cfg.as_json()) == cfg
    doc = {"seed": 3, "data": {"kind": "noisy-moons", "n": 300, "splits": [0.6, 0.2, 0.2]},
           "model": {"hidden": [8]}, "train": {"lr_drop_epochs": [1, 2]},
           "loss": {"secondary": "avuc", "beta": 0.5, "kappa": 0.3}}
    cfg = run_config_from_dict(doc)
    layout = json.loads(json.dumps(cfg.as_json()))
    assert run_config_from_dict(layout) == cfg
    assert all(layout[name] | section == layout[name] for name, section in doc.items() if name != "seed")


def test_load_run_config_errors(tmp_path):
    with pytest.raises(IngestionError, match="cannot read"):
        load_run_config(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(IngestionError, match="not valid JSON"):
        load_run_config(str(bad))
    good = tmp_path / "good.json"
    good.write_text('{"seed": 4, "model": {"hidden": [8]}}')
    cfg = load_run_config(str(good))
    assert cfg.seed == 4 and cfg.train.hidden == (8,)
