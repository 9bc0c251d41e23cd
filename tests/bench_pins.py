"""Check the CLI output bytes that bench/cli_digests.json pins.

    PYTHONPATH=src python tests/bench_pins.py

Runs every command line of the benchmark's cli workload (`cli_argv` in
bench/workloads.py: the eight full-size variants and the smoke one) in-process,
each variant in its own temporary directory, and compares the SHA-256 of each
output file with its pinned digest. Prints each output that differs and exits
1 if any does. It only reads bench/. The digests were recorded with the numpy
and Python builds that tests/golden_digests.json names.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import List, Tuple

from seirv.cli import main

ROOT = Path(__file__).resolve().parents[1]


def load_workloads():
    """bench/workloads.py as the module bench_workloads, registered in
    sys.modules because its dataclasses look their module up."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    w = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = w
    spec.loader.exec_module(w)
    return w


def check(smoke: bool) -> Tuple[int, List[str]]:
    """(outputs checked, one line per output that differs or command that fails)
    over the smoke table or the full one."""
    w = load_workloads()
    digests = w.load_digests(smoke)
    table = "smoke" if smoke else "full"
    checked, differ = 0, []
    cwd = os.getcwd()
    for v in (0,) if smoke else range(w.CLI_VARIANTS):
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            w.write_observed(workdir, v)
            os.chdir(workdir)  # the command lines name their outputs relative to the cwd
            try:
                for command in w.CLI_COMMANDS:
                    key = f"{command}/{v}"
                    argv = w.cli_argv(command, v, smoke)
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = main(argv)
                    if code != 0:
                        differ.append(f"{table} {key}: exit {code}: {err.getvalue().strip()}")
                        continue
                    for name in w.cli_outputs(argv):
                        checked += 1
                        if w.file_digest(workdir / name) != digests[key][name]:
                            differ.append(f"{table} {key} {name} differs from its pinned digest")
            finally:
                os.chdir(cwd)
    return checked, differ


if __name__ == "__main__":
    failed = False
    for smoke in (False, True):
        checked, differ = check(smoke)
        for line in differ:
            print(line)
        print(f"{'smoke' if smoke else 'full'}: {checked} outputs checked, {len(differ)} differ")
        failed = failed or bool(differ)
    sys.exit(1 if failed else 0)
