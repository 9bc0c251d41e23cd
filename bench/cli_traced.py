"""Traced launcher for one seirv command line.

    python3 bench/cli_traced.py SPANS_JSON <seirv argv...>

Times ``import seirv.cli``, installs the span recorder, runs
``seirv.cli.main(argv)`` and writes {"import_s": ..., "spans": [...]} to
SPANS_JSON. Exits with the command's exit code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    t0 = perf_counter()
    import seirv.cli
    import_s = perf_counter() - t0

    import tracing  # after the timed import: it imports numpy itself

    recorder = tracing.SpanRecorder()
    recorder.install()
    try:
        code = seirv.cli.main(argv)
    finally:
        recorder.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
