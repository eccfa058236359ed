"""Exit-code fuzzing of every command: whatever the files, the flags and
CALREF_SEED, main() exits 0, 2, 3 or 64, says why on one stderr line, and
prints stdout that parses.  train and sweep, whose files are valid JSON
here, never exit 2."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from softcal import LossSpec, TaskSpec, TrainConfig
from softcal.cli import main
from softcal.io import run_config_from_dict
from softcal.losses import PRIMARIES, SECONDARIES
from softcal.metrics import MODES
from softcal.synthetic import TASK_KINDS
from softcal.trainer import SWEEP_ORDER

CLEAN = st.one_of(st.floats(-50.0, 50.0).map(repr), st.sampled_from(["1e308", "-1e308", "0"]))
DIRTY = st.one_of(CLEAN, st.sampled_from(["nan", "", "abc", "inf", "1e309"]))
LABELS = st.one_of(st.integers(-1, 6).map(str), st.sampled_from(["1.0", "0.5", "", "x", "nan"]))


@st.composite
def logits_csv(draw):
    """At most 20 rows of at most 6 logits; a dirty file, one in three, mixes
    in fields that do not parse, bad labels and rows of another width."""
    dirty = draw(st.sampled_from([False, False, True]))
    k = draw(st.integers(1 if dirty else 2, 6))
    label = LABELS if dirty else st.integers(0, k - 1).map(str)
    field = DIRTY if dirty else CLEAN
    width = st.integers(0, 6) if dirty else st.just(k)
    rows = draw(st.lists(
        st.tuples(label, width.flatmap(lambda w: st.lists(field, min_size=w, max_size=w))),
        min_size=0 if dirty else 1, max_size=20,
    ))
    return "".join(",".join([y, *z]) + "\n" for y, z in rows)


def option(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, str(v)]))


BINS = option("--bins", range(-1, 41))
P = option("--p", ["0.5", "1", "2", "3.5", "nan"])
BIN_TEMP = option("--bin-temp", ["0.01", "0.5", "0", "-1"])
MODE = option("--mode", ["binned", "label-binned"])
SCHEME = option("--scheme", ["equal-mass", "equal-width"])
COMMANDS = {
    "metrics": (BINS, P, BIN_TEMP, MODE, SCHEME),
    "metrics --soft": (BINS, P, BIN_TEMP, MODE, SCHEME),
    "metrics --val-logits": (BINS, P, BIN_TEMP, MODE, SCHEME),
    "reliability": (BINS, SCHEME),
    "recalibrate": (BINS, P, BIN_TEMP, MODE, option("--objective", ["nll", "sb-ece"])),
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def check_stdout(command, out):
    if command == "reliability":
        header, *rows = out.splitlines()
        assert header == "bin,mean_conf,mean_acc,weight"
        for j, row in enumerate(rows):
            index, *values = row.split(",")
            assert int(index) == j and len(values) == 3
            assert all(v == "" or math.isfinite(float(v)) for v in values)
    else:
        doc = json.loads(out)
        for block in (doc, doc.get("val", {})):
            assert all(math.isfinite(v) for v in block.values() if isinstance(v, float))


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_csv_commands_exit_0_2_or_64_with_one_line_of_reason(tmp_path, command, data):
    name, *switches = command.split()
    roles = {"recalibrate": ["--val-logits", "--test-logits"]}.get(name, ["--logits"])
    if "--val-logits" in switches:
        roles.append(switches.pop())
    argv = [name, *switches]
    for role in roles:
        path = tmp_path / f"{role.strip('-')}.csv"
        path.write_text(data.draw(logits_csv(), label=role))
        argv += [role, str(path)]
    argv += [arg for opt in COMMANDS[command] for arg in data.draw(opt)]
    code, out, err, caught = run(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 64), err
    if code:
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("usage error:" if code == 64 else "data error:"), err
        return
    assert len(err.splitlines()) == (1 if name == "recalibrate" else 0), err
    check_stdout(name, out)


# A seed flag or CALREF_SEED value, one in four of them not a non-negative
# integer that int64 holds.
GOOD_SEED = st.integers(0, 99).map(str)
BAD_SEEDS = ["-3", "-1", "x", "1.5", "", str(2**63)]
SEED_TEXT = st.one_of(GOOD_SEED, GOOD_SEED, GOOD_SEED, st.sampled_from(BAD_SEEDS))

# A valid value for every field of TaskSpec, TrainConfig and LossSpec, at
# tiny sizes: n <= 200, epochs <= 2, widths <= 8.  A learning rate of 1e300
# diverges, beta may not match the secondary, the last two splits leave the
# test or the train part empty at some n drawn here, and noisy-moons refuses
# classes or dim other than 2.
VALID = {
    # TaskSpec
    "kind": st.sampled_from(TASK_KINDS),
    "n": st.integers(100, 200),
    "classes": st.integers(2, 4),
    "dim": st.integers(2, 4),
    "noise": st.sampled_from([0.0, 0.5, 1]),
    "separation": st.sampled_from([0, 6.0]),
    "flip_rate": st.sampled_from([0.0, 0.2, 1.0]),
    "splits": st.sampled_from([[0.5, 0.25, 0.25], [0.6, 0.2, 0.2], [0.5, 0.495, 0.005], [0.004, 0.5, 0.496]]),
    # TrainConfig
    "hidden": st.lists(st.integers(1, 8), max_size=2),
    "learning_rate": st.sampled_from([0.1, 1.0, 1e300]),
    "epochs": st.integers(1, 2),
    "batch_size": st.sampled_from([16, 64]),
    "seed": st.sampled_from([0, 7, 2**40]),
    "lr_drop_epochs": st.lists(st.integers(0, 2), max_size=2),
    "lr_drop_factor": st.sampled_from([0.1, 0.5]),
    "eval_bins": st.integers(1, 15),
    # LossSpec
    "primary": st.sampled_from(PRIMARIES),
    "gamma": st.sampled_from([0.0, 3.0]),
    "secondary": st.sampled_from(SECONDARIES),
    "beta": st.sampled_from([0.0, 0.5, 1.0]),
    "lam": st.sampled_from([0.0, 1e-3]),
    "bins": st.integers(1, 15),
    "bin_temperature": st.sampled_from([0.01, 0.5]),
    "p": st.sampled_from([1.0, 2.0]),
    "mode": st.sampled_from(MODES),
    "kappa": st.sampled_from([0.5, 0.9]),
    "soft_temperature": st.sampled_from([0.15, 1.0]),
}
EMPTY_SPLITS = ([0.5, 0.495, 0.005], [0.004, 0.5, 0.496])
# JSON junk, some of it valid for some fields (-0.0 for noise, [] for hidden).
JUNK = [None, True, "x", [], {}, [[1]], 10**400, -0.0, -1]
LAYOUT = run_config_from_dict({}).as_json()


def test_the_config_fuzzer_draws_every_field_of_the_config_file():
    names = {f.name for spec in (TaskSpec, TrainConfig, LossSpec) for f in fields(spec)} - {"loss"}
    keys = {"seed", *LAYOUT["data"], *LAYOUT["model"], *LAYOUT["train"], *LAYOUT["loss"]}
    assert set(VALID) == names == keys


@st.composite
def run_config(draw):
    """A run config with every field, and the names a refusal of it may give.
    A dirty config, one in two, holds junk in one or two fields, or in an
    entry of a list field."""
    dirty = draw(st.booleans())
    junk = draw(st.lists(st.sampled_from(list(VALID)), min_size=1, max_size=2, unique=True)) if dirty else []

    def value(name):
        valid = draw(VALID[name], label=name)
        if name not in junk:
            return valid
        if isinstance(valid, list) and draw(st.booleans()):
            i = draw(st.integers(0, len(valid)))
            return valid[:i] + [draw(st.sampled_from(JUNK))] + valid[i + 1:]
        return draw(st.sampled_from(JUNK))

    doc = {name: {key: value(key) for key in section} if isinstance(section, dict) else value(name)
           for name, section in LAYOUT.items()}
    data = doc["data"]
    moons = [key for key in ("classes", "dim") if data["kind"] == "noisy-moons" and data[key] != 2]
    return doc, {*junk, *moons, *(["splits"] if data["splits"] in EMPTY_SPLITS else [])}


@st.composite
def sweep_grid(draw):
    """Up to two stages of up to two values each; a dirty grid, one in two,
    may also hold values the loss refuses, an unknown key, or a stage that
    is not a list of numbers."""
    dirty = draw(st.booleans())
    if dirty and draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from([[], "beta", {"beta": 1.0}]))
    keys = draw(st.lists(st.sampled_from([*SWEEP_ORDER, *(["gamma"] if dirty else [])]), max_size=2, unique=True))
    values = st.sampled_from([0.0, 1e-3, 0.5, 1.0, *([1.5, -1.0, "x", True, None] if dirty else [])])
    return {key: draw(st.lists(values, max_size=2)) for key in keys}


def check_train_exit(code, out, err, caught, out_dir, named):
    """A train or sweep run exits 0, 3 or 64, and a refusal is one stderr
    line.  Configs, seeds and grids are checked before out_dir is made, and
    a 64 names one of named as a whole token: bins in num_bins does not count."""
    assert [str(w.message) for w in caught] == []
    assert code in (0, 3, 64) and "internal error" not in err, err
    if code:
        assert out == "" and len(err.splitlines()) == 1, err
        assert code != 64 or not out_dir.exists(), err
        assert code != 64 or any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", err) for name in named), \
            (err, named)
        return
    assert all(line.startswith("warning: ") for line in err.splitlines()), err
    assert json.loads(out)["out"] == str(out_dir)


@pytest.mark.parametrize("command", ["train", "sweep"])
@settings(max_examples=100)
@given(data=st.data())
def test_train_and_sweep_exit_0_3_or_64_with_one_line_of_reason(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config, named = data.draw(run_config(), label="config")
        (root / "run.json").write_text(json.dumps(config))
        argv = [command, "--config", str(root / "run.json"), "--out", str(root / "out")]
        if command == "sweep":
            (root / "grid.json").write_text(json.dumps(data.draw(sweep_grid(), label="grid")))
            argv += ["--grid", str(root / "grid.json")]
            named |= {"grid", "sweep parameter"}
        flag = data.draw(st.one_of(st.just([]), SEED_TEXT.map(lambda v: ["--seed", v])), label="flag")
        argv += flag
        env = data.draw(st.one_of(st.none(), SEED_TEXT), label="CALREF_SEED")
        if flag and flag[1] in BAD_SEEDS:
            named.add("--seed")
        if env in BAD_SEEDS:
            named.add("CALREF_SEED")
        with mock.patch.dict(os.environ):
            os.environ.pop("CALREF_SEED", None)
            if env is not None:
                os.environ["CALREF_SEED"] = env
            check_train_exit(*run(argv), root / "out", named)


def field_section(doc, key):
    """The dict of a config file's layout that holds key: seed is top level."""
    return doc if key in doc else next(v for v in doc.values() if isinstance(v, dict) and key in v)


# A valid config with every field, small enough to train in-process at once.
TINY = json.loads(json.dumps(run_config_from_dict({"data": {"n": 100}, "model": {"hidden": [4]},
                                                   "train": {"epochs": 1, "batch_size": 64}}).as_json()))
ONE_BAD_FIELD = [
    pytest.param(key, junk, entry, id=f"{key}{'-entry' if entry else ''}-junk{j}")
    for key in VALID
    for entry in ((False, True) if isinstance(field_section(TINY, key)[key], list) else (False,))
    for j, junk in enumerate(JUNK)
]


@pytest.mark.parametrize("key, junk, entry", ONE_BAD_FIELD)
def test_each_junk_value_in_each_field_exits_0_3_or_64_naming_the_field(tmp_path, key, junk, entry):
    """Every field of the run config holding each JUNK value, or, for a list
    field, a JUNK last entry.  The fuzzer above may miss a fault in one field
    by chance; this pass covers each field with each value."""
    config = json.loads(json.dumps(TINY))
    section = field_section(config, key)
    section[key] = section[key][:-1] + [junk] if entry else junk
    (tmp_path / "run.json").write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    with mock.patch.dict(os.environ):
        os.environ.pop("CALREF_SEED", None)
        result = run(["train", "--config", str(tmp_path / "run.json"), "--out", str(out_dir)])
    check_train_exit(*result, out_dir, {key})


ONE_BAD_GRID = [
    *(pytest.param({key: [junk]}, key, id=f"{key}-junk{j}") for key in SWEEP_ORDER for j, junk in enumerate(JUNK)),
    pytest.param({"beta": 1.0}, "beta", id="non-list-stage"),
    pytest.param(["beta"], "grid", id="non-object-grid"),
]


@pytest.mark.parametrize("grid, key", ONE_BAD_GRID)
def test_each_junk_value_in_each_sweep_stage_exits_64_naming_the_stage(tmp_path, grid, key):
    """Every SWEEP_ORDER stage holding each JUNK value, a stage that is not a
    list and a grid that is not an object.  The grid fuzzer above may miss a
    fault in one stage by chance; this pass covers each stage with each
    value.  -0.0 is a valid beta or lam, so those two sweeps run."""
    (tmp_path / "run.json").write_text(json.dumps(TINY))
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    out_dir = tmp_path / "out"
    with mock.patch.dict(os.environ):
        os.environ.pop("CALREF_SEED", None)
        result = run(["sweep", "--config", str(tmp_path / "run.json"), "--grid", str(tmp_path / "grid.json"),
                      "--out", str(out_dir)])
    check_train_exit(*result, out_dir, {key})
    assert result[0] == (0 if key in ("beta", "lam") and grid[key] == [-0.0] else 64), result[2]
