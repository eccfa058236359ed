"""Run `softcal.cli.main(argv)` with the benchmark's spans installed, then
write the spans to a JSON file and exit with the CLI's exit code.

    python3 perfbench/cli_child.py SPANS.json metrics --logits test.csv
"""

import sys
from pathlib import Path


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import softcal.cli
    from tracing import Tracer, installed

    tracer = Tracer()
    with installed(tracer):
        code = softcal.cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
