"""Exit-code fuzzing of the CSV commands: whatever the file and the flags,
main() exits 0, 2 or 64, says why on one stderr line, and prints stdout
that parses."""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from softcal.cli import main

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
