"""The four benchmark workloads: inputs made from a seed, jobs, and gates.

Every workload is a closed loop: one client in one process sends the next
job when the previous one has finished. ``build`` returns one *pass*, the
workload's study as an analyst would run it; the benchmark repeats the pass
and times every job. A job runs its work and returns a gate: a callable that
raises ``GateFailure`` when the output is wrong. Gates run outside the timed
region. The program only ever sees the generated inputs.

Inputs are drawn so that the amount of work barely depends on the seed (fixed
step counts, a narrow start box, fixed grid sizes); only ``calibrate`` varies
in work with its data, and its pass averages over many series.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from seirv import analysis, calibration, control, equilibria, model

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
DIGESTS_PATH = BENCH_DIR / "cli_digests.json"

INIT = model.State(1e9, 0.0, 1.0, 0.0, 0.0)


class GateFailure(AssertionError):
    """A job's output failed its workload's correctness gate."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


Gate = Callable[[], None]
Job = Callable[[], Gate]


@dataclass
class Pass:
    """One study: labelled jobs, plus what the cli jobs observed."""

    jobs: List[Tuple[str, Job]]
    output_bytes: List[int] = field(default_factory=list)
    traced_runs: List[dict] = field(default_factory=list)


# --------------------------------------------------------------------------
# optimize: hybrid_optimize with the criterion-7 problem at dt = 0.5.
# Starts lie in a narrow box around criterion-7's start (0.1, 0.35), where one
# start makes 179-181 cost and 44-46 gradient calls, so work per job barely
# moves with the seed while the annealer's rng stream does.

OPT_REFERENCE = (0.01, 0.08)
OPT_J_STAR = 0.028


def build_optimize(seed: int, smoke: bool) -> Pass:
    rng = random.Random(seed)
    p = model.DEFAULT_PARAMS
    horizon = 2000.0
    cp = control.CostParams.for_run(p, INIT, m0=1.0, k1=0.2, k2=0.3, horizon=horizon)
    cfg = model.IntegratorConfig(dt=0.5)
    if smoke:  # start next to the optimum, one short annealing round
        n_starts, box = 1, ((0.01, 0.03), (0.07, 0.09))
        sa_kw = dict(n_cool=1, n_perturb=2, max_outer=1)
    else:
        n_starts, box = 4, ((0.08, 0.12), (0.33, 0.37))
        sa_kw = dict(n_cool=8, n_perturb=6, max_outer=12)

    jobs = []
    for _ in range(n_starts):
        start = (rng.uniform(*box[0]), rng.uniform(*box[1]))
        sa = control.SAConfig(t0=0.02, cooling=0.9, rng_seed=rng.randrange(2**31), **sa_kw)

        def job(start=start, sa=sa) -> Gate:
            run = control.hybrid_optimize(p, cp, start, sa, INIT, cfg)

            def gate() -> None:
                c1, c2 = run.optimum
                _require(abs(c1 - OPT_REFERENCE[0]) <= 0.02 and abs(c2 - OPT_REFERENCE[1]) <= 0.02,
                         f"optimum {run.optimum} not within 0.02 of {OPT_REFERENCE}")
                _require(abs(run.j_star - OPT_J_STAR) <= 0.15 * OPT_J_STAR,
                         f"J* {run.j_star} not within 15% of {OPT_J_STAR}")
            return gate

        jobs.append((f"optimize start=({start[0]:.4f},{start[1]:.4f})", job))
    return Pass(jobs)


# --------------------------------------------------------------------------
# calibrate: fit_beta_segments + goodness on criterion-10 synthetic series.

CAL_TRUTH = model.BetaSchedule((7.0, 14.0), (2e-9, 6e-9, 3.5e-9))
CAL_INIT = model.State(1e9, 0.0, 1e4, 0.0, 0.0)
CAL_TIMES = tuple(float(t) for t in range(22))
CAL_NOISE = 0.01


def synthetic_series(noise_seed: int, noise: float = CAL_NOISE) -> calibration.ObservationSeries:
    return calibration.generate_synthetic(
        model.DEFAULT_PARAMS, CAL_TRUTH, CAL_INIT, CAL_TIMES, noise, seed=noise_seed,
        relative=True, cfg=model.IntegratorConfig(dt=0.02))


def build_calibrate(seed: int, smoke: bool) -> Pass:
    rng = random.Random(seed)
    cfg = model.IntegratorConfig(dt=0.02)
    jobs = []
    for _ in range(1 if smoke else 12):
        noise_seed = rng.randrange(2**31)
        series = synthetic_series(noise_seed)

        def job(series=series) -> Gate:
            fit = calibration.fit_beta_segments(series, model.DEFAULT_PARAMS, 7.0, CAL_INIT,
                                                calibration.NelderMeadConfig(), cfg)
            _, r2, _ = calibration.goodness(fit, series)

            def gate() -> None:
                for got, want in zip(fit.beta_segments.values, CAL_TRUTH.values):
                    _require(abs(got - want) <= 0.15 * want,
                             f"beta {got:.4e} not within 15% of {want:.4e}")
                _require(r2 >= 0.95, f"R^2 {r2:.5f} < 0.95")
            return gate

        jobs.append((f"calibrate noise_seed={noise_seed}", job))
    return Pass(jobs)


# --------------------------------------------------------------------------
# sweep: an intervention what-if study at dt = 0.1. Run uncontrolled to an
# onset, continue from Trajectory.final_state() (np.float64 fields) under
# several control pairs, and add control and beta grids at H = 2000.

SWEEP_DT = 0.1
SWEEP_H = 2000.0
#: Continuations have a fixed length so work does not depend on the onset.
SWEEP_CONTINUE = 1500.0
#: Largest beta inside the explicit-RK4 stability limit at dt = 0.1 for
#: peaks up to 8.5e8 infected (the criterion-12 rule dt <= 2 / (beta * 8.5e8)).
SWEEP_BETA_MAX = 2.0 / (SWEEP_DT * 8.5e8)


def _nondecreasing(x: np.ndarray) -> bool:
    return bool(np.all(np.diff(x) >= -1e-9 * np.abs(x[:-1])))


def _nonincreasing(x: np.ndarray) -> bool:
    return bool(np.all(np.diff(x) <= 1e-9 * np.abs(x[:-1])))


def _shapes_gate(chars, label: str, rising: bool) -> None:
    """Criterion-12 shapes along an ascending beta grid (rising): i_max and
    i_tot nondecreasing, t_m nonincreasing. Along an ascending control grid
    only the peak must fall: treatment sends devices to R, which relapse, so
    total infections over the horizon can grow with c2."""
    i_max = np.array([c.i_max for c in chars])
    if not rising:
        _require(_nonincreasing(i_max), f"{label}: i_max not nonincreasing in the control rate")
        return
    i_tot = np.array([c.i_tot for c in chars])
    t_m = np.array([c.t_m for c in chars])
    _require(_nondecreasing(i_max) and _nondecreasing(i_tot),
             f"{label}: i_max/i_tot not nondecreasing in beta")
    _require(bool(np.all(np.diff(t_m) <= 1e-9)), f"{label}: t_m not nonincreasing in beta")


def build_sweep(seed: int, smoke: bool) -> Pass:
    rng = random.Random(seed)
    dt = SWEEP_DT
    horizon = 400.0 if smoke else SWEEP_H
    cont = 300.0 if smoke else SWEEP_CONTINUE
    n_pairs, n_grid, n_beta = (2, 3, 3) if smoke else (6, 4, 6)
    cfg = model.IntegratorConfig(dt=dt)
    p0 = model.DEFAULT_PARAMS
    onset = dt * (rng.randrange(500, 1001) if smoke else rng.randrange(1000, 5001))
    pairs = [(0.0, 0.0)] + [(round(rng.uniform(0.0, 0.3), 6), round(rng.uniform(0.0, 0.3), 6))
                            for _ in range(n_pairs - 1)]
    checked = rng.randrange(1, n_pairs)
    betas = sorted(10.0 ** rng.uniform(math.log10(4e-10), math.log10(SWEEP_BETA_MAX))
                   for _ in range(n_beta))
    row_betas = sorted(10.0 ** rng.uniform(math.log10(3e-9), math.log10(1e-8)) for _ in range(2))
    c_grid = sorted(round(rng.uniform(0.0, 0.3), 6) for _ in range(n_grid))
    state: dict = {}

    def baseline() -> Gate:
        traj = model.integrate(p0, INIT, onset, cfg)
        state["onset"] = traj.final_state()
        return lambda: _require(bool(np.all(np.isfinite(traj.states))), "baseline not finite")

    def scenario(pair) -> Job:
        def job() -> Gate:
            start = state["onset"]
            pc = p0.with_controls(*pair)
            traj = model.integrate(pc, start, cont, cfg)
            chars = analysis.characteristics(traj, pc)
            rc = equilibria.compute_rc(pc).rc
            endemic = equilibria.compute_endemic(pc)
            state[pair] = traj

            def gate() -> None:
                exact = model.population_closed_form(pc, start.total, traj.times[-1:])[0]
                _require(abs(traj.n[-1] - exact) <= 1e-8 * exact,
                         f"controls {pair}: population off its closed form")
                _require(math.isfinite(chars.i_tot) and chars.i_max >= 0.0,
                         f"controls {pair}: bad characteristics")
                _require((endemic is None) == (rc <= 1.0),
                         f"controls {pair}: endemic point inconsistent with rc = {rc}")
            return gate
        return job

    def scheduled() -> Gate:
        pair = pairs[checked]
        sched = model.ControlSchedule(onset=onset, before=(0.0, 0.0), after=pair)
        traj = model.integrate(p0, INIT, onset + cont, cfg, control_schedule=sched)

        def gate() -> None:
            k = int(round(onset / dt))
            chained = state[pair].states
            _require(traj.states[k:].tobytes() == chained.tobytes(),
                     f"chained run under {pair} differs bitwise from the scheduled run")
        return gate

    def control_grid(which: str) -> Job:
        def job() -> Gate:
            table = analysis.sweep_control(p0, which, c_grid, row_betas, INIT, horizon, cfg)

            def gate() -> None:
                for row in table.cells:
                    _shapes_gate(row, f"sweep_control {which}", rising=False)
            return gate
        return job

    def beta_grid() -> Gate:
        chars = analysis.sweep_beta(p0, betas, INIT, horizon, cfg)
        return lambda: _shapes_gate(chars, "sweep_beta", rising=True)

    jobs = [(f"sweep baseline onset={onset:g}", baseline)]
    jobs += [(f"sweep continue controls={pair}", scenario(pair)) for pair in pairs]
    jobs += [("sweep scheduled", scheduled),
             ("sweep_control c1", control_grid("c1")),
             ("sweep_control c2", control_grid("c2")),
             ("sweep_beta", beta_grid)]
    return Pass(jobs)


# --------------------------------------------------------------------------
# cli: README command lines as `python -m seirv.cli` subprocesses. Each
# command has a catalogue of variants with equal work; the seed picks one
# variant per command. Output bytes must equal the digests recorded for that
# variant at the seed commit (cli_digests.json). The README optimize line
# (250 s) is left out; the optimize workload covers that path.

CLI_BETAS = ("4e-9", "3e-9", "3.5e-9", "4.5e-9", "5e-9", "2.5e-9", "5.5e-9", "6e-9")
CLI_CONTROLS = (("0.1", "0.1"), ("0.05", "0.05"), ("0.2", "0.1"), ("0.1", "0.2"),
                ("0.15", "0.05"), ("0.05", "0.15"), ("0.3", "0.3"), ("0.02", "0.1"))
CLI_ONSETS = ("0,100,200,400,800", "0,50,100,200,400", "0,150,300,450,600",
              "0,200,400,600,800", "0,100,300,500,700", "50,100,200,400,800",
              "0,80,160,320,640", "0,120,240,360,480")
CLI_VARIANTS = 8
CLI_COMMANDS = ("simulate", "equilibria", "sensitivity", "region", "characteristics",
                "calibrate", "avert")


def cli_argv(command: str, v: int, smoke: bool) -> List[str]:
    """README line for ``command``, variant ``v``; outputs land in the cwd."""
    beta = CLI_BETAS[v]
    c1, c2 = CLI_CONTROLS[v]
    if command == "simulate":
        dt, horizon = ("0.5", "200") if smoke else ("0.01", "2000")
        return ["simulate", "--dt", dt, "--horizon", horizon, "--beta", beta, "--out", "traj.csv"]
    if command == "equilibria":
        return ["equilibria", "--c1", c1, "--c2", c2, "--out", "report.json"]
    if command == "sensitivity":
        return ["sensitivity", "--c1", c1, "--c2", c2, "--out", "indices.csv"]
    if command == "region":
        return ["region", "--resolution", "11" if smoke else "101", "--beta", beta,
                "--out", "region.csv"]
    if command == "characteristics":
        dt, horizon = ("0.5", "200") if smoke else ("0.05", "2000")
        return ["characteristics", "--dt", dt, "--horizon", horizon, "--beta", beta,
                "--out", "chars.json"]
    if command == "calibrate":
        return ["calibrate", "--data", f"observed-{v}.csv", "--segment-length", "7",
                "--i0", "1e4", "--dt", "0.1" if smoke else "0.05",
                "--out", "fit.json", "--csv-out", "fit.csv"]
    if command == "avert":
        extra = ["--dt", "0.5", "--horizon", "400", "--onset-grid", "0,100,200"] if smoke \
            else ["--onset-grid", CLI_ONSETS[v]]
        return ["avert", "--c1", c1, "--c2", c2, *extra,
                "--out", "averted.json", "--csv-out", "averted.csv"]
    raise ValueError(f"unknown command {command!r}")


def cli_outputs(argv: List[str]) -> List[str]:
    return [argv[k + 1] for k, a in enumerate(argv) if a in ("--out", "--csv-out")]


def write_observed(workdir: Path, v: int) -> None:
    """The calibrate input of variant v: a criterion-10 series, 2% noise, seed v."""
    series = synthetic_series(v, noise=0.02)
    lines = ["time,count"] + [f"{t:.17g},{y:.17g}"
                              for t, y in zip(series.times, series.cumulative)]
    (workdir / f"observed-{v}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    return env


def run_cli(argv: List[str], workdir: Path, env: dict, spans_path: Optional[Path]):
    """Run one command line; with spans_path, through the traced launcher."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "seirv.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(spans_path), *argv]
    return subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=150)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_digests(smoke: bool) -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["smoke" if smoke else "full"]


def build_cli(seed: int, smoke: bool, workdir: Path, traced: bool = False) -> Pass:
    rng = random.Random(seed)
    variants = {cmd: (0 if smoke else rng.randrange(CLI_VARIANTS)) for cmd in CLI_COMMANDS}
    write_observed(workdir, variants["calibrate"])
    digests = load_digests(smoke)
    env = cli_env()
    study = Pass([])

    def make(command: str, v: int) -> Job:
        argv = cli_argv(command, v, smoke)
        key = f"{command}/{v}"

        def job() -> Gate:
            spans_path = workdir / f"spans-{command}.json" if traced else None
            proc = run_cli(argv, workdir, env, spans_path)

            def gate() -> None:
                _require(proc.returncode == 0, f"{key}: exit code {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace').strip()[-300:]}")
                for name in cli_outputs(argv):
                    path = workdir / name
                    study.output_bytes.append(path.stat().st_size)
                    _require(file_digest(path) == digests[key][name],
                             f"{key}: {name} differs from the recorded digest")
                if spans_path is not None:
                    with open(spans_path, encoding="utf-8") as fh:
                        study.traced_runs.append(json.load(fh))
            return gate
        return job

    study.jobs = [(f"cli {' '.join(cli_argv(c, v, smoke))}", make(c, v))
                  for c, v in variants.items()]
    return study


def build(workload: str, seed: int, smoke: bool, workdir: Path, traced: bool = False) -> Pass:
    """Inputs for one pass of ``workload``; only ``cli`` writes into workdir."""
    if workload == "optimize":
        return build_optimize(seed, smoke)
    if workload == "calibrate":
        return build_calibrate(seed, smoke)
    if workload == "sweep":
        return build_sweep(seed, smoke)
    if workload == "cli":
        return build_cli(seed, smoke, workdir, traced)
    raise ValueError(f"unknown workload {workload!r}")
