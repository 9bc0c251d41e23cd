"""Time seirv's layers and count the work of the benchmark's unit jobs.

    PYTHONPATH=src python tests/layer_times.py [--part timings|work|all]

Pins this process, and the interpreter it starts to time the import, to one
CPU, and prints one JSON object for a BENCH_<n>.json. Run it alone: the
timings mean nothing beside the test suite or a benchmark. It times the
library only; the end-to-end metrics are the benchmark's.

Timings are the best of REPEAT runs:
- integrate, in us per step: at the README optimum (0.0165, 0.0796) at
  dt 0.5 over horizon 2000, and on the calibrate workload's truth schedule
  at dt 0.02 over its 21 days;
- solve_adjoint in us per forward step, and cost and gradient in seconds,
  each given the dt-0.5 forward run;
- one sse of a calibrate workload series at the truth schedule;
- cli._write_csv in us per float, for simulate's columns at dt 0.1;
- import seirv.cli in a fresh interpreter.

Work counts are deterministic, each with the SHA-256 of the results. They
come from the benchmark's own jobs (bench/workloads.py, loaded through
tests/bench_pins.py), each followed by its gate, and from README lines run
in-process. tests/conftest.py counted_integrate counts forward runs and
steps, and recorded keeps the results of control.gradient and
hybrid_optimize and of calibration.fit_beta_segments, nelder_mead and sse:
- optimize_48_starts: the optimize jobs of seeds 1-12;
- calibrate_12_fits: the calibrate jobs of seed 1, with the seconds of the
  jobs per simplex iteration;
- readme_optimize and readme_avert: the README lines, avert at its default
  dt 0.01.
It exits 1, naming the entry, when a count it prints is 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from bench_pins import load_workloads
from conftest import counted_integrate, recorded
from seirv import calibration, cli, control
from seirv.calibration import sse
from seirv.control import CostParams, cost, gradient, solve_adjoint
from seirv.model import DEFAULT_PARAMS, IntegratorConfig, integrate

REPEAT = 7
HORIZON = 2000.0
COARSE = IntegratorConfig(dt=0.5)
OPTIMUM = (0.0165, 0.0796)
CAL_CFG = IntegratorConfig(dt=0.02)  # the calibrate workload's step
README_OPTIMIZE = ["optimize", "--dt", "0.05", "--horizon", "2000", "--seed", "1",
                   "--out", "optimum.json"]
README_AVERT = ["avert", "--c1", "0.1", "--c2", "0.1", "--onset-grid", "0,100,200,400,800",
                "--out", "averted.json", "--csv-out", "averted.csv"]


def best(fn) -> float:
    """Seconds, the best of REPEAT calls of fn()."""
    times = []
    for _ in range(REPEAT):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return min(times)


def timings() -> dict:
    w = load_workloads()
    p = DEFAULT_PARAMS.with_controls(*OPTIMUM)
    forward = integrate(p, w.INIT, HORIZON, COARSE)
    n = len(forward.states) - 1
    cp = CostParams.for_run(DEFAULT_PARAMS, w.INIT, m0=1.0, k1=0.2, k2=0.3, horizon=HORIZON)
    p_fit = DEFAULT_PARAMS.with_controls(0.0, 0.0)
    cal_steps = len(integrate(p_fit, w.CAL_INIT, w.CAL_TIMES[-1], CAL_CFG).states) - 1
    series = w.synthetic_series(1)  # a probe's cost does not depend on the noise

    sim = integrate(DEFAULT_PARAMS, w.INIT, HORIZON, IntegratorConfig(dt=0.1))
    columns = (sim.times, sim.s, sim.e, sim.i, sim.r, sim.v, sim.n)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "traj.csv")
        write_csv = best(lambda: cli._write_csv(path, ["time", "S", "E", "I", "R", "V", "N"],
                                                cli._chunked_rows(columns)))

    probe = ("import time; t = time.perf_counter(); import seirv.cli; "
             "print(time.perf_counter() - t)")
    imports = [float(subprocess.run([sys.executable, "-c", probe], check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(REPEAT)]

    return {
        "integrate_us_per_step_dt0.5":
            1e6 * best(lambda: integrate(p, w.INIT, HORIZON, COARSE)) / n,
        "integrate_us_per_step_calibrate": 1e6 * best(
            lambda: integrate(p_fit, w.CAL_INIT, w.CAL_TIMES[-1], CAL_CFG,
                              beta_schedule=w.CAL_TRUTH)
        ) / cal_steps,
        "solve_adjoint_us_per_step": 1e6 * best(lambda: solve_adjoint(forward, p)) / n,
        "cost_s": best(lambda: cost(p, cp, forward)),
        "gradient_s": best(lambda: gradient(p, cp, forward)),
        "sse_s": best(lambda: sse(series, p_fit, w.CAL_TRUTH, w.CAL_INIT, CAL_CFG)),
        "write_csv_us_per_float": 1e6 * write_csv / (len(sim.states) * len(columns)),
        "import_seirv_cli_s": min(imports),
    }


def run_jobs(passes) -> None:
    """Run every job of the benchmark passes, each followed by its gate."""
    for study in passes:
        for _, job in study.jobs:
            job()()


def readme_line(argv) -> str:
    """Run seirv argv in-process in a temporary directory; the SHA-256 of its --out file."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        if cli.main(argv) != 0:
            raise SystemExit(f"seirv {' '.join(argv)} failed")
        return hashlib.sha256(Path(argv[argv.index("--out") + 1]).read_bytes()).hexdigest()


def work() -> dict:
    w = load_workloads()
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        runs, steps = counted_integrate(mp, w.INIT)
        adjoints = recorded(mp, control, "gradient")
        optims = recorded(mp, control, "hybrid_optimize")
        fits = recorded(mp, calibration, "fit_beta_segments")
        simplexes = recorded(mp, calibration, "nelder_mead")
        sse_calls = recorded(mp, calibration, "sse")

        def timed(run):
            """(run()'s result, its seconds), counted from empty tallies."""
            for tally in (runs, steps, adjoints, optims, fits, simplexes, sse_calls):
                tally.clear()
            t = time.perf_counter()
            result = run()
            return result, time.perf_counter() - t

        def forward_work() -> dict:
            return {"runs": len(runs), "forward_steps": sum(steps), "adjoints": len(adjoints)}

        _, seconds = timed(lambda: run_jobs(w.build_optimize(s, False) for s in range(1, 13)))
        out["optimize_48_starts"] = {
            **forward_work(), "worst_j_star": max(r.j_star for r in optims),
            "sha256": hashlib.sha256(pickle.dumps(optims)).hexdigest(), "seconds": seconds,
        }

        digest, seconds = timed(lambda: readme_line(README_OPTIMIZE))
        out["readme_optimize"] = {**forward_work(), "sha256": digest, "seconds": seconds}

        _, seconds = timed(lambda: run_jobs([w.build_calibrate(1, False)]))
        iterations = sum(result[2] for result in simplexes)
        h = hashlib.sha256()
        for fit in fits:
            values = (*fit.beta_segments.values, fit.sse)
            h.update(" ".join(map(float.hex, values)).encode() + b"\n")
        out["calibrate_12_fits"] = {
            "sse_calls": len(sse_calls), "iterations": iterations,
            "s_per_iteration": seconds / iterations if iterations else None,
            "sha256": h.hexdigest(), "seconds": seconds,
        }

        digest, seconds = timed(lambda: readme_line(README_AVERT))
        out["readme_avert"] = {
            "integrate_calls": len(steps), "forward_steps": sum(steps),
            "iterations": sum(result[2] for result in simplexes),
            "sha256": digest, "seconds": seconds,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", choices=("timings", "work", "all"), default="all")
    part = parser.parse_args().part
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    report = {
        "machine": {"cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
                    "loadavg_before": os.getloadavg()[0]},
    }
    if part in ("timings", "all"):
        report["timings"] = timings()
    if part in ("work", "all"):
        report["work"] = work()
    report["machine"]["loadavg_after"] = os.getloadavg()[0]
    print(json.dumps(report, indent=2))
    missed = [f"{entry} {key}" for entry, counts in report.get("work", {}).items()
              for key, value in counts.items() if value == 0]
    if missed:
        sys.exit(f"layer_times: counted no work in {', '.join(missed)}")


if __name__ == "__main__":
    main()
