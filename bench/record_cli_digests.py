"""Re-record bench/cli_digests.json, the expected cli output bytes.

    python3 bench/record_cli_digests.py

Runs every command-line variant of the cli workload (and its smoke
variants) once and stores the SHA-256 of each output file. Only re-record
when a change is meant to alter cli output bytes, and say so.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as w  # noqa: E402


def record() -> dict:
    env = w.cli_env()
    out = {}
    for kind, smoke, variants in (("full", False, range(w.CLI_VARIANTS)), ("smoke", True, (0,))):
        table = out[kind] = {}
        for v in variants:
            with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
                workdir = Path(tmp)
                w.write_observed(workdir, v)
                for command in w.CLI_COMMANDS:
                    argv = w.cli_argv(command, v, smoke)
                    proc = w.run_cli(argv, workdir, env, None)
                    if proc.returncode != 0:
                        raise SystemExit(f"{argv}: {proc.stderr.decode(errors='replace')}")
                    table[f"{command}/{v}"] = {name: w.file_digest(workdir / name)
                                               for name in w.cli_outputs(argv)}
                    print(f"recorded {kind} {command}/{v}", file=sys.stderr)
    return out


if __name__ == "__main__":
    digests = record()
    with open(w.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
