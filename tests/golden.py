"""Golden digests of the simulation, control, calibration and analysis
layers and of CLI output.

Each case computes one output at small sizes and reduces it to a SHA-256:
arrays through ``.tobytes()``, scalars through ``float.hex``, CLI output
files through their text, so -0.0, NaN and the last bit all count.
``tests/test_golden.py`` recomputes every case and compares it with
``golden_digests.json``. The digests pin the numpy and Python builds named
in the table, because libm and numpy kernels may round differently
elsewhere.

Re-record the table only for a change that is meant to alter outputs (and
say so in CHANGES.md):

    PYTHONPATH=src python tests/golden.py

The recorder lists on stderr each case whose digest it changed, added or
dropped against the table it overwrites.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from seirv import analysis, calibration, cli, equilibria
from seirv.control import CostParams, SAConfig, cost, gradient, hybrid_optimize, solve_adjoint
from seirv.model import (
    BetaSchedule,
    ControlSchedule,
    IntegratorConfig,
    State,
    DEFAULT_PARAMS,
    integrate,
)

TABLE = Path(__file__).with_name("golden_digests.json")

INIT = State(1e9, 0.0, 1.0, 0.0, 0.0)
FINE = IntegratorConfig(dt=0.1)
COARSE = IntegratorConfig(dt=0.5)
HORIZON = 2000.0
CP = CostParams.for_run(DEFAULT_PARAMS, INIT, m0=1.0, k1=0.2, k2=0.3, horizon=HORIZON)
CONTROLS = ((0.1, 0.35), (0.01, 0.08))
#: The same controls as numpy scalars, as rng.uniform draws hand them over.
CONTROLS_F64 = tuple(tuple(np.float64(x) for x in c) for c in CONTROLS)
#: A shorter horizon keeps the two optimizer cases near one second each.
OPT_CP = CostParams.for_run(DEFAULT_PARAMS, INIT, m0=1.0, k1=0.2, k2=0.3, horizon=500.0)


def _digest(*parts) -> str:
    """SHA-256 over arrays (dtype, shape, bytes), floats (hex) and strings."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, float):
            h.update(float.hex(part).encode())
        elif isinstance(part, str):
            h.update(part.encode())
        else:
            raise TypeError(f"cannot digest {type(part)!r}")
        h.update(b"|")
    return h.hexdigest()


def _trajectory(traj) -> str:
    return _digest(traj.times, traj.states, float(traj.dt))


def _integrate_plain() -> str:
    return _trajectory(integrate(DEFAULT_PARAMS, INIT, 200.0, FINE))


def _integrate_beta_schedule() -> str:
    sched = BetaSchedule((50.0, 120.0), (2e-9, 6e-9, 3.5e-9))
    return _trajectory(integrate(DEFAULT_PARAMS, INIT, 200.0, FINE, beta_schedule=sched))


def _integrate_control_schedule() -> str:
    sched = ControlSchedule(80.0, (0.0, 0.0), (0.1, 0.2))
    return _trajectory(integrate(DEFAULT_PARAMS, INIT, 200.0, FINE, control_schedule=sched))


def _integrate_chained() -> str:
    first = integrate(DEFAULT_PARAMS, INIT, 100.0, FINE)
    second = integrate(DEFAULT_PARAMS.with_controls(0.1, 0.2), first.final_state(), 100.0, FINE)
    return _digest(first.states, second.times, second.states)


def _run(c):
    """(p, CP, forward) at the controls c: the arguments of cost and gradient."""
    p = DEFAULT_PARAMS.with_controls(*c)
    return p, CP, integrate(p, INIT, HORIZON, COARSE)


def _adjoint(c) -> str:
    p, _, forward = _run(c)
    return _digest(solve_adjoint(forward, p).h)


def _cost() -> str:
    return _digest(*(cost(*_run(c)) for c in CONTROLS))


def _gradient(controls) -> str:
    return _digest(*(g for c in controls for g in gradient(*_run(c))))


def _optimize(accept_rule: str, start=CONTROLS[0]) -> Callable[[], str]:
    def case() -> str:
        sa = SAConfig(t0=0.02, cooling=0.9, n_cool=3, n_perturb=6, max_outer=2,
                      rng_seed=2024, accept_rule=accept_rule)
        run = hybrid_optimize(DEFAULT_PARAMS, OPT_CP, start, sa, INIT, COARSE)
        moves = [x for c1, c2, j, _ in run.history for x in (c1, c2, j)]
        phases = [phase for *_, phase in run.history]
        return _digest(*moves, *phases, *run.optimum, run.j_star)
    return case


def _fit_goodness() -> str:
    truth = BetaSchedule((7.0, 14.0), (2e-9, 6e-9, 3.5e-9))
    init = State(1e9, 0.0, 1e4, 0.0, 0.0)
    series = calibration.generate_synthetic(DEFAULT_PARAMS, truth, init, tuple(range(22)),
                                            0.01, seed=7, relative=True, cfg=FINE)
    fit = calibration.fit_beta_segments(series, DEFAULT_PARAMS, 7.0, init,
                                        calibration.NelderMeadConfig(max_iter=30), FINE)
    residuals, r2, daily = calibration.goodness(fit, series)
    return _digest(*fit.beta_segments.values, fit.sse, *fit.residuals, fit.r_squared,
                   *fit.fitted, *fit.warnings, *residuals, r2, *daily.observed,
                   *daily.fitted, daily.r_squared)


def _averted() -> str:
    curve = calibration.averted_cases(DEFAULT_PARAMS.with_controls(0.1, 0.1),
                                      (0.0, 50.0, 100.0, 200.0), INIT, 400.0, COARSE)
    return _digest(*curve.onsets, *curve.averted, *curve.decay_fit, curve.decay_r2)


def _region_map() -> str:
    rmap = analysis.region_map(DEFAULT_PARAMS, 21)
    return _digest(rmap.c1_grid, rmap.c2_grid, rmap.growth, rmap.separatrix)


#: Control rates straddling the rc = 1 curve at the default parameters.
THRESHOLD_GRID = (0.0, 0.01, 0.03, 0.1, 0.3, 1.0)


def _critical_beta() -> str:
    return _digest(*(equilibria.critical_beta(DEFAULT_PARAMS.with_controls(c1, c2))
                     for c1 in THRESHOLD_GRID for c2 in THRESHOLD_GRID))


def _classify_region() -> str:
    return _digest(*(analysis.classify_region(DEFAULT_PARAMS, c1, c2)
                     for c1 in THRESHOLD_GRID for c2 in THRESHOLD_GRID))


def _separatrix_c2() -> str:
    return _digest(*(analysis.separatrix_c2(DEFAULT_PARAMS, c1) for c1 in THRESHOLD_GRID))


def _sensitivity() -> str:
    indices = analysis.sensitivity_indices(DEFAULT_PARAMS.with_controls(0.1, 0.1))
    return _digest(*(x for item in indices.items() for x in item))


def _bifurcation() -> str:
    # rc = 1 at beta ~ 1.13e-8 for these controls, inside the scanned range
    branch = equilibria.bifurcation_scan(DEFAULT_PARAMS.with_controls(0.1, 0.1),
                                         (1e-9, 4e-8), 9)
    return _digest(branch.beta_grid, branch.ie_values, *branch.stability_flags,
                   branch.rc_values)


def _characteristics(rows) -> list:
    return [x for ch in rows for x in (ch.i_max, ch.t_m, ch.i_tot)]


def _sweep_beta() -> str:
    rows = analysis.sweep_beta(DEFAULT_PARAMS, (2e-9, 4e-9, 6e-9), INIT, 200.0, COARSE)
    return _digest(*_characteristics(rows))


def _sweep_control() -> str:
    table = analysis.sweep_control(DEFAULT_PARAMS, "c2", (0.0, 0.1, 0.3), (2e-9, 6e-9),
                                   INIT, 200.0, COARSE)
    return _digest(table.which, *table.beta_values, *table.control_values,
                   *(x for row in table.cells for x in _characteristics(row)))


def _cli(argv: Sequence[str], outputs: Sequence[str] = ("--out",),
         config: Optional[str] = None) -> Callable[[], str]:
    """Run seirv in-process with each output flag pointing at a file, plus
    --config on a file holding the text config if given; hash the outputs."""
    def case() -> str:
        with tempfile.TemporaryDirectory() as tmp:
            paths = [str(Path(tmp) / f"out{k}") for k in range(len(outputs))]
            flags = [x for pair in zip(outputs, paths) for x in pair]
            if config is not None:
                cfg = Path(tmp) / "run.cfg"
                cfg.write_text(config, encoding="utf-8")
                flags += ["--config", str(cfg)]
            if cli.main([*argv, *flags]) != 0:
                raise RuntimeError(f"seirv {' '.join(argv)} failed")
            return _digest(*(Path(path).read_bytes().decode("utf-8") for path in paths))
    return case


CASES: Dict[str, Callable[[], str]] = {
    "integrate_plain": _integrate_plain,
    "integrate_beta_schedule": _integrate_beta_schedule,
    "integrate_control_schedule": _integrate_control_schedule,
    "integrate_chained_from_final_state": _integrate_chained,
    "solve_adjoint_h": lambda: _adjoint(CONTROLS[0]),
    "solve_adjoint_h_f64_controls": lambda: _adjoint(CONTROLS_F64[0]),
    "cost": _cost,
    "gradient": lambda: _gradient(CONTROLS),
    "gradient_f64_controls": lambda: _gradient(CONTROLS_F64),
    "hybrid_optimize_scaled": _optimize("scaled"),
    "hybrid_optimize_classical": _optimize("classical"),
    # From the far corner the quasi-Newton steps hold coordinates at a bound
    # and fall back to -g, which the start (0.1, 0.35) never does.
    "hybrid_optimize_far_start": _optimize("scaled", start=(0.9, 0.9)),
    "fit_beta_segments_goodness": _fit_goodness,
    "averted_cases": _averted,
    "region_map": _region_map,
    "classify_region": _classify_region,
    "separatrix_c2": _separatrix_c2,
    "critical_beta": _critical_beta,
    "sensitivity_indices": _sensitivity,
    "bifurcation_scan": _bifurcation,
    "sweep_beta": _sweep_beta,
    "sweep_control": _sweep_control,
    "cli_simulate": _cli(["simulate", "--dt", "0.5", "--horizon", "200"]),
    "cli_region": _cli(["region", "--resolution", "11"]),
    "cli_sensitivity": _cli(["sensitivity"]),
    "cli_equilibria": _cli(["equilibria"]),
    "cli_equilibria_no_endemic": _cli(["equilibria", "--c1", "0.1", "--c2", "0.1"]),
    "cli_characteristics": _cli(["characteristics", "--dt", "0.5", "--horizon", "200"]),
    "cli_avert": _cli(["avert", "--dt", "0.5", "--horizon", "400", "--c1", "0.1",
                       "--c2", "0.1", "--onset-grid", "0,50,100,200"],
                      outputs=("--out", "--csv-out")),
    "cli_optimize": _cli(["optimize", "--dt", "0.5", "--horizon", "200", "--n-cool", "2",
                          "--n-perturb", "2", "--max-outer", "2", "--seed", "1"]),
    # one key from each of the four config sections
    "cli_simulate_config": _cli(["simulate"], config="[model]\nbeta = 8e-9\n\n[init]\ni0 = 5\n\n"
                                "[integrator]\ndt = 0.5\n\n[run]\nhorizon = 200\n"),
}


def versions() -> Dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def changes(old: Dict[str, str], new: Dict[str, str]) -> list:
    """One line per case whose digest differs between two tables, or that
    only one of them has."""
    lines = [f"changed {name}" for name in new if name in old and old[name] != new[name]]
    lines += [f"added {name}" for name in new if name not in old]
    lines += [f"dropped {name}" for name in old if name not in new]
    return lines


def record() -> None:
    old = json.loads(TABLE.read_text(encoding="utf-8"))["digests"] if TABLE.exists() else {}
    table = {**versions(), "digests": {name: case() for name, case in CASES.items()}}
    TABLE.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    for line in changes(old, table["digests"]):
        print(line, file=sys.stderr)
    print(f"wrote {len(CASES)} digests to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    record()
