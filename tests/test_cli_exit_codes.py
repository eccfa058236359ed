"""Exit-code fuzzing of every command: whatever the files, the flags and
CALREF_SEED, main() exits 0, 2, 3 or 64, says why on one stderr line, and
prints stdout that parses."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from softcal.cli import main
from softcal.losses import SECONDARIES
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


# A seed flag or CALREF_SEED value, one in four of them not a non-negative integer.
GOOD_SEED = st.integers(0, 99).map(str)
SEED_TEXT = st.one_of(GOOD_SEED, GOOD_SEED, GOOD_SEED, st.sampled_from(["-3", "-1", "x", "1.5", ""]))


def pick(draw, dirty, clean, bad):
    return draw(st.sampled_from(clean + bad if dirty else clean))


@st.composite
def run_config(draw):
    """A tiny run config (n <= 200, epochs <= 2, widths <= 8) whose beta may
    not match its secondary and whose learning rate of 1e300 diverges; a
    dirty config, one in two, may also hold values out of range or of the
    wrong type, a negative seed among them."""
    dirty = draw(st.booleans())
    doc = {
        "data": {"kind": pick(draw, dirty, ["gaussian-blobs", "label-noise-blobs"], ["spirals"]),
                 "n": pick(draw, dirty, [120, 200], [50])},
        "model": {"hidden": draw(st.lists(st.integers(0 if dirty else 1, 8), max_size=2))},
        "train": {"epochs": pick(draw, dirty, [1, 2], [0]), "batch_size": pick(draw, dirty, [16, 64], [0]),
                  "learning_rate": pick(draw, dirty, [0.1, 1.0, 1e300], [0.0])},
        "loss": {"secondary": pick(draw, dirty, list(SECONDARIES), ["bogus"]),
                 "beta": pick(draw, dirty, [0.0, 0.5, 1.0], [-1.0]),
                 "kappa": pick(draw, dirty, [0.5, 0.9], [1.5]),
                 "lam": pick(draw, dirty, [0.0, 1e-3], [-1e-3])},
    }
    if draw(st.booleans()):
        doc["seed"] = pick(draw, dirty, [0, 7, 2**40], [-1, 1.5, "7", True, None])
    return doc


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


@pytest.mark.parametrize("command", ["train", "sweep"])
@settings(max_examples=60)
@given(data=st.data())
def test_train_and_sweep_exit_0_2_3_or_64_with_one_line_of_reason(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "run.json").write_text(json.dumps(data.draw(run_config(), label="config")))
        argv = [command, "--config", str(root / "run.json"), "--out", str(root / "out")]
        if command == "sweep":
            (root / "grid.json").write_text(json.dumps(data.draw(sweep_grid(), label="grid")))
            argv += ["--grid", str(root / "grid.json")]
        argv += data.draw(st.one_of(st.just([]), SEED_TEXT.map(lambda v: ["--seed", v])), label="flag")
        env = data.draw(st.one_of(st.none(), SEED_TEXT), label="CALREF_SEED")
        with mock.patch.dict(os.environ):
            os.environ.pop("CALREF_SEED", None)
            if env is not None:
                os.environ["CALREF_SEED"] = env
            code, out, err, caught = run(argv)
        assert [str(w.message) for w in caught] == []
        assert code in (0, 2, 3, 64) and "internal error" not in err, err
        if code:
            assert out == "" and len(err.splitlines()) == 1, err
            # Configs, seeds and grids are checked before the output directory is made.
            assert code != 64 or not (root / "out").exists(), err
            return
        assert all(line.startswith("warning: ") for line in err.splitlines()), err
        assert json.loads(out)["out"] == str(root / "out")
