"""Threshold sensitivity, control-space region maps, and epidemic
characteristics extracted from trajectories.

Sensitivity indices are elasticities of the propagation threshold:
(d rc / d xi) * (xi / rc), evaluated by central finite differences on the
closed-form rc (backward ones at a control on the top edge of [0, 1]). The
index of beta is 0.5 identically (rc grows like sqrt(beta)), which doubles
as a built-in check of the differencing.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .equilibria import compute_mfe, compute_rc, threshold_sides
from .model import (
    IntegratorConfig,
    ModelParams,
    State,
    Trajectory,
    integrate,
    trapezoid,
)

__all__ = [
    "SensitivityIndex",
    "RegionMap",
    "EpidemicCharacteristics",
    "ControlSweepTable",
    "SENSITIVITY_PARAMETERS",
    "sensitivity_indices",
    "classify_region",
    "separatrix_c2",
    "region_map",
    "characteristics",
    "sweep_beta",
    "sweep_control",
]

#: Parameters with defined threshold elasticities, in reporting order.
SENSITIVITY_PARAMETERS = ("sigma1", "sigma2", "c1", "c2", "beta", "eta1", "eta2")
#: Relative finite-difference step of sensitivity_indices.
_REL_STEP = 1e-6
#: Most grid cells region_map builds; a finer grid is refused before it is allocated.
MAX_CELLS = 10**7


@dataclass(frozen=True)
class SensitivityIndex:
    parameter: str
    value: float


@dataclass(frozen=True)
class RegionMap:
    """Extinction/growth labels over a (c1, c2) grid.

    growth[i, j] is gain > loss (rc > 1) at (c1_grid[i], c2_grid[j]), the
    rule of classify_region. separatrix[i] is the treatment rate where the
    threshold equals one at c1_grid[i] (may fall outside [0, 1]).
    """

    c1_grid: np.ndarray
    c2_grid: np.ndarray
    growth: np.ndarray
    separatrix: np.ndarray

    @property
    def growth_fraction(self) -> float:
        return float(np.mean(self.growth))


@dataclass(frozen=True)
class EpidemicCharacteristics:
    """Peak infected count, its time, and total infections alpha * int E dt."""

    i_max: float
    t_m: float
    i_tot: float


@dataclass(frozen=True)
class ControlSweepTable:
    """Characteristics over the cross product of beta values and one control."""

    which: str
    beta_values: Tuple[float, ...]
    control_values: Tuple[float, ...]
    cells: Tuple[Tuple[EpidemicCharacteristics, ...], ...]  # [beta][control]


def sensitivity_indices(p: ModelParams) -> List[SensitivityIndex]:
    """Normalized forward sensitivity indices of rc for all seven parameters.

    Every listed parameter must be positive at the evaluation point; an
    elasticity at zero is undefined. A control c1 or c2 whose central step
    would leave [0, 1] (x + 1e-6 * x > 1) takes the backward difference
    (rc0 - rc(x - step)) / step instead.
    """
    zero = [name for name in SENSITIVITY_PARAMETERS if getattr(p, name) == 0.0]
    if zero:
        raise ValueError(
            f"sensitivity index undefined for zero-valued parameter(s): {', '.join(zero)}"
        )
    rc0 = compute_rc(p).rc
    if rc0 == 0.0:  # lam or alpha is zero, or rc underflowed
        raise ValueError(f"sensitivity index undefined at rc = 0 (lam = {p.lam!r}, alpha = {p.alpha!r})")
    out = []
    for name in SENSITIVITY_PARAMETERS:
        x = getattr(p, name)
        step = _REL_STEP * x
        lo = compute_rc(replace(p, **{name: x - step})).rc
        if name in ("c1", "c2") and x + step > 1.0:
            value = (rc0 - lo) / step * (x / rc0)
        else:
            hi = compute_rc(replace(p, **{name: x + step})).rc
            value = (hi - lo) / (2.0 * step) * (x / rc0)
        out.append(SensitivityIndex(parameter=name, value=value))
    beta_idx = next(ix.value for ix in out if ix.parameter == "beta")
    if not abs(beta_idx - 0.5) <= 1e-9:  # also catches NaN
        raise ArithmeticError(
            f"beta elasticity {beta_idx!r} deviates from the analytic value 0.5"
        )
    return out


def _exceeds_threshold(p: ModelParams, s0, c2):
    """gain > loss of threshold_sides (rc > 1), compared exactly; broadcasts.
    ArithmeticError when a side overflows, since inf against inf decides nothing."""
    with np.errstate(over="ignore"):
        gain, loss = threshold_sides(p, s0, c2)
    if not np.all(np.isfinite(gain) & np.isfinite(loss)):
        raise ArithmeticError("threshold overflows: a side of rc^2 = gain / loss is not finite")
    return gain > loss


def classify_region(p: ModelParams, c1: float, c2: float) -> str:
    """"growth" when gain > loss (rc > 1) at (c1, c2), else "extinction"."""
    s0 = compute_mfe(p.with_controls(c1, c2)).s0
    return "growth" if _exceeds_threshold(p, s0, c2) else "extinction"


def separatrix_c2(p: ModelParams, c1: float) -> float:
    """Treatment rate on the rc = 1 curve at vaccination rate c1 (unclipped)."""
    gain, _ = threshold_sides(p, compute_mfe(p.with_controls(c1, p.c2)).s0, p.c2)
    return gain / (p.alpha + p.eta2 + p.mu) - p.mu


def region_map(p: ModelParams, resolution: int) -> RegionMap:
    """Full extinction/growth grid over [0, 1]^2 plus the separatrix curve."""
    if not isinstance(resolution, numbers.Integral) or resolution < 2:
        raise ValueError(f"resolution must be an integer >= 2, got {resolution!r}")
    if resolution**2 > MAX_CELLS:
        raise ValueError(f"resolution {resolution} needs more than {MAX_CELLS} grid cells")
    c1_grid = np.linspace(0.0, 1.0, resolution)
    c2_grid = np.linspace(0.0, 1.0, resolution)
    s0 = np.array([compute_mfe(p.with_controls(c1, 0.0)).s0 for c1 in c1_grid])
    growth = _exceeds_threshold(p, s0[:, None], c2_grid[None, :])
    separatrix = np.array([separatrix_c2(p, c1) for c1 in c1_grid])
    return RegionMap(c1_grid=c1_grid, c2_grid=c2_grid, growth=growth, separatrix=separatrix)


def characteristics(traj: Trajectory, p: ModelParams) -> EpidemicCharacteristics:
    """Peak infected, time of peak (earliest grid index on ties), and
    total infections alpha * int E dt by trapezoid on the grid."""
    if len(traj.states) == 0:
        raise ValueError("trajectory is empty")
    i = traj.i
    k = int(np.argmax(i))  # argmax returns the first maximal index
    return EpidemicCharacteristics(
        i_max=float(i[k]), t_m=k * traj.dt, i_tot=p.alpha * trapezoid(traj.e, traj.dt)
    )


def sweep_beta(
    p: ModelParams,
    beta_grid: Sequence[float],
    init: State,
    horizon: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> List[EpidemicCharacteristics]:
    """Characteristics per transmission rate over an ascending positive grid."""
    grid = [float(b) for b in beta_grid]
    if any(b <= 0.0 for b in grid) or any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("beta grid must be ascending and positive")
    out = []
    for beta in grid:
        traj = integrate(replace(p, beta=beta), init, horizon, cfg)
        out.append(characteristics(traj, p))
    return out


def sweep_control(
    p: ModelParams,
    which: str,
    grid: Sequence[float],
    beta_values: Sequence[float],
    init: State,
    horizon: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> ControlSweepTable:
    """Characteristics over beta x control-strength, for one control at a time.

    The other control is held at its value in p; ModelParams rejects grid
    values outside [0, 1].
    """
    if which not in ("c1", "c2"):
        raise ValueError(f"which must be 'c1' or 'c2', got {which!r}")
    cvals = [float(c) for c in grid]
    rows = []
    for beta in beta_values:
        row = []
        for c in cvals:
            pb = replace(p, beta=beta, **{which: c})
            traj = integrate(pb, init, horizon, cfg)
            row.append(characteristics(traj, pb))
        rows.append(tuple(row))
    return ControlSweepTable(
        which=which,
        beta_values=tuple(float(b) for b in beta_values),
        control_values=tuple(cvals),
        cells=tuple(rows),
    )
