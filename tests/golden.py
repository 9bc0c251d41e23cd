"""Golden digests of the simulation and control layers.

Each case computes one output at small sizes and reduces it to a SHA-256:
arrays through ``.tobytes()``, scalars through ``float.hex``, so -0.0, NaN
and the last bit all count. ``tests/test_golden.py`` recomputes every case
and compares it with ``golden_digests.json``. The digests pin the numpy and
Python builds named in the table, because libm and numpy kernels may round
differently elsewhere.

Re-record the table only for a change that is meant to alter outputs (and
say so in CHANGES.md):

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path
from typing import Callable, Dict

import numpy as np

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


def _adjoint() -> str:
    c = CONTROLS[0]
    forward = integrate(DEFAULT_PARAMS.with_controls(*c), INIT, HORIZON, COARSE)
    return _digest(solve_adjoint(forward, DEFAULT_PARAMS, c).h)


def _cost() -> str:
    return _digest(*(cost(DEFAULT_PARAMS, CP, c, INIT, COARSE) for c in CONTROLS))


def _gradient() -> str:
    return _digest(*(g for c in CONTROLS for g in gradient(DEFAULT_PARAMS, CP, c, INIT, COARSE)))


def _optimize(accept_rule: str) -> Callable[[], str]:
    def case() -> str:
        sa = SAConfig(t0=0.02, cooling=0.9, n_cool=3, n_perturb=6, max_outer=2,
                      rng_seed=2024, accept_rule=accept_rule)
        run = hybrid_optimize(DEFAULT_PARAMS, OPT_CP, CONTROLS[0], sa, INIT, COARSE)
        parts = [x for point in run.history for x in point]
        return _digest(*parts, *run.phase_tags, *run.optimum, run.j_star)
    return case


CASES: Dict[str, Callable[[], str]] = {
    "integrate_plain": _integrate_plain,
    "integrate_beta_schedule": _integrate_beta_schedule,
    "integrate_control_schedule": _integrate_control_schedule,
    "integrate_chained_from_final_state": _integrate_chained,
    "solve_adjoint_h": _adjoint,
    "cost": _cost,
    "gradient": _gradient,
    "hybrid_optimize_scaled": _optimize("scaled"),
    "hybrid_optimize_classical": _optimize("classical"),
}


def versions() -> Dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def record() -> None:
    table = {**versions(), "digests": {name: case() for name, case in CASES.items()}}
    TABLE.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} digests to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    record()
