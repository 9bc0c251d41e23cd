"""Time seirv's layers and count the work of the benchmark's unit jobs.

    PYTHONPATH=src python tests/layer_times.py [--part timings|work|all]

Pins this process, and the interpreter it starts to time the import, to one
CPU, and prints one JSON object for a BENCH_<n>.json. Run it alone: the
timings mean nothing beside the test suite or a benchmark. It times the
library only; the end-to-end metrics are the benchmark's.

Timings are the best of REPEAT runs:
- integrate, in us per step: at the README optimum (0.0165, 0.0796) at
  dt 0.5 over horizon 2000, and on the calibrate truth schedule at dt 0.02
  over 21 days;
- solve_adjoint in us per forward step, and cost and gradient in seconds,
  each given the dt-0.5 forward run;
- one sse of the first seed-1 calibrate series at the truth schedule;
- cli._write_csv in us per float, for simulate's columns at dt 0.1;
- import seirv.cli in a fresh interpreter.

Work counts are deterministic, each with the SHA-256 of the results it
produced. They count by wrapping model.integrate (which continue_run calls),
control.gradient and calibration.sse:
- the 48 starts of the benchmark's optimize workload at seeds 1-12, drawn
  as tests/golden.py _optimize_bench_start draws the first (runs started,
  forward steps, adjoints, SHA-256 of the pickled OptimRuns);
- the 12 calibrate fits of seed 1 (sse calls);
- the README optimize line (runs, forward steps, adjoints, SHA-256 of its
  optimum.json).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from seirv import calibration, cli, control, model
from seirv.calibration import NelderMeadConfig, fit_beta_segments, generate_synthetic, sse
from seirv.control import CostParams, SAConfig, cost, gradient, hybrid_optimize, solve_adjoint
from seirv.model import DEFAULT_PARAMS, BetaSchedule, IntegratorConfig, State, integrate

REPEAT = 7
INIT = State(1e9, 0.0, 1.0, 0.0, 0.0)
HORIZON = 2000.0
COARSE = IntegratorConfig(dt=0.5)
CP = CostParams.for_run(DEFAULT_PARAMS, INIT, m0=1.0, k1=0.2, k2=0.3, horizon=HORIZON)
OPTIMUM = (0.0165, 0.0796)
# the calibrate workload: criterion-10 truth, 1% relative noise, dt 0.02
CAL_TRUTH = BetaSchedule((7.0, 14.0), (2e-9, 6e-9, 3.5e-9))
CAL_INIT = State(1e9, 0.0, 1e4, 0.0, 0.0)
CAL_TIMES = tuple(float(t) for t in range(22))
CAL_CFG = IntegratorConfig(dt=0.02)
README_OPTIMIZE = ["optimize", "--dt", "0.05", "--horizon", "2000", "--seed", "1"]


def best(fn) -> float:
    """Seconds, the best of REPEAT calls of fn()."""
    times = []
    for _ in range(REPEAT):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return min(times)


def calibrate_series(seed: int):
    """The 12 series of the calibrate workload at this seed."""
    rng = random.Random(seed)
    return [generate_synthetic(DEFAULT_PARAMS, CAL_TRUTH, CAL_INIT, CAL_TIMES, 0.01,
                               seed=rng.randrange(2**31), relative=True, cfg=CAL_CFG)
            for _ in range(12)]


def optimize_starts(seed: int):
    """(start, SAConfig) of the 4 starts of the optimize workload at this seed."""
    rng = random.Random(seed)
    starts = []
    for _ in range(4):
        start = (rng.uniform(0.08, 0.12), rng.uniform(0.33, 0.37))
        starts.append((start, SAConfig(t0=0.02, cooling=0.9, n_cool=8, n_perturb=6,
                                       max_outer=12, rng_seed=rng.randrange(2**31))))
    return starts


@contextlib.contextmanager
def counted(module, name: str, record):
    """Replace module.name by a wrapper that calls record(args, result)."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        record(args, out)
        return out

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def timings() -> dict:
    p = DEFAULT_PARAMS.with_controls(*OPTIMUM)
    forward = integrate(p, INIT, HORIZON, COARSE)
    n = len(forward.states) - 1
    p_fit = DEFAULT_PARAMS.with_controls(0.0, 0.0)
    cal_steps = len(integrate(p_fit, CAL_INIT, CAL_TIMES[-1], CAL_CFG).states) - 1
    series = calibrate_series(1)[0]

    sim = integrate(DEFAULT_PARAMS, INIT, HORIZON, IntegratorConfig(dt=0.1))
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
        "integrate_us_per_step_dt0.5": 1e6 * best(lambda: integrate(p, INIT, HORIZON, COARSE)) / n,
        "integrate_us_per_step_calibrate": 1e6 * best(
            lambda: integrate(p_fit, CAL_INIT, CAL_TIMES[-1], CAL_CFG, beta_schedule=CAL_TRUTH)
        ) / cal_steps,
        "solve_adjoint_us_per_step": 1e6 * best(lambda: solve_adjoint(forward, p)) / n,
        "cost_s": best(lambda: cost(p, CP, forward)),
        "gradient_s": best(lambda: gradient(p, CP, forward)),
        "sse_s": best(lambda: sse(series, p_fit, CAL_TRUTH, CAL_INIT, CAL_CFG)),
        "write_csv_us_per_float": 1e6 * write_csv / (len(sim.states) * len(columns)),
        "import_seirv_cli_s": min(imports),
    }


def work() -> dict:
    runs, steps, adjoints, sse_calls = [], [], [], []

    def on_integrate(args, out):
        if args[1] == INIT:  # a run's first chunk; the CLI builds its own INIT
            runs.append(args[0])
        steps.append(len(out.states) - 1)

    def tally() -> dict:
        return {"runs": len(runs), "forward_steps": sum(steps), "adjoints": len(adjoints)}

    out = {}
    with counted(model, "integrate", on_integrate), \
            counted(control, "gradient", lambda args, g: adjoints.append(g)):
        t = time.perf_counter()
        optim = [hybrid_optimize(DEFAULT_PARAMS, CP, start, sa, INIT, COARSE)
                 for seed in range(1, 13) for start, sa in optimize_starts(seed)]
        out["optimize_48_starts"] = {
            **tally(), "worst_j_star": max(r.j_star for r in optim),
            "sha256": hashlib.sha256(pickle.dumps(optim)).hexdigest(),
            "seconds": time.perf_counter() - t,
        }

        del runs[:], steps[:], adjoints[:]
        t = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "optimum.json"
            if cli.main([*README_OPTIMIZE, "--out", str(path)]) != 0:
                raise SystemExit("the README optimize line failed")
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        out["readme_optimize"] = {**tally(), "sha256": digest, "seconds": time.perf_counter() - t}

    t = time.perf_counter()
    with counted(calibration, "sse", lambda args, f: sse_calls.append(f)):
        fits = [fit_beta_segments(s, DEFAULT_PARAMS, 7.0, CAL_INIT, NelderMeadConfig(), CAL_CFG)
                for s in calibrate_series(1)]
    h = hashlib.sha256()
    for fit in fits:
        h.update(" ".join(map(float.hex, (*fit.beta_segments.values, fit.sse))).encode() + b"\n")
    out["calibrate_12_fits"] = {
        "sse_calls": len(sse_calls), "sha256": h.hexdigest(), "seconds": time.perf_counter() - t,
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


if __name__ == "__main__":
    main()
