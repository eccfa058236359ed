"""The README's library tour runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_tour_runs():
    text = README.read_text()
    tour = re.search(r"## Library tour\n.*?```python\n(.*?)```", text, re.S)
    code = "\n" * text.count("\n", 0, tour.start(1)) + tour.group(1)  # tracebacks give README lines
    rng = np.random.default_rng(0)
    names = {"logits": rng.normal(0.0, 2.0, size=(500, 4)), "labels": rng.integers(0, 4, size=500)}
    exec(compile(code, str(README), "exec"), names)
    assert 0.05 <= names["fit"].t_star <= 10.0
    assert len(names["report"].val_accuracy) == 400
