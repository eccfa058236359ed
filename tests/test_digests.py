"""tests/digests.py, the "same numbers" tool: two --quick runs of one tree
agree, and --compare names a digest that differs."""

import json
import subprocess
import sys
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.py")


def run(*argv):
    return subprocess.run([sys.executable, str(DIGESTS), "--quick", *argv], capture_output=True,
                          text=True, timeout=300)


def test_two_quick_runs_agree_and_compare_names_a_difference(tmp_path):
    first = run()
    assert first.returncode == 0, first.stderr
    doc = json.loads(first.stdout)
    assert doc["quick"] is True and len(doc["digests"]) == 26

    doc["digests"]["fit/mixed/nll"] = "0" * 64
    earlier = tmp_path / "earlier.json"
    earlier.write_text(json.dumps(doc))
    second = run("--compare", str(earlier))
    assert second.stdout == first.stdout
    assert second.returncode == 1
    assert [line for line in second.stderr.splitlines() if line.startswith("differs:")] == [
        "differs: fit/mixed/nll"
    ]
