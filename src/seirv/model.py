"""SEIRV compartmental model core: state/parameter types and the RK4 integrator.

Compartments are device counts: susceptible S, exposed E, infected I,
recovered R, vaccinated V. New devices join S at rate lam, devices retire
at rate mu, infection moves S -> E -> I with user resets S -> R and E -> R,
treatment I -> R, vaccination S -> V, and relapse/waning R -> S, V -> S.

All types are immutable after construction and every operation is a pure
function, so concurrent evaluation is safe. Time units are abstract; rates
are per time unit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ModelParams",
    "State",
    "BetaSchedule",
    "ControlSchedule",
    "IntegratorConfig",
    "Trajectory",
    "IntegrationDivergedError",
    "DEFAULT_PARAMS",
    "rhs",
    "integrate",
    "population_bound",
    "population_closed_form",
]


def _require_finite_nonneg(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Rate constants of the SEIRV system plus the two control rates, as floats.

    lam    new-device influx (devices per time unit)
    beta   transmission rate (per device per time unit)
    alpha  E -> I progression rate
    eta1   S -> R reset rate
    eta2   E -> R reset rate
    sigma1 R -> S relapse rate
    sigma2 V -> S waning rate
    mu     device retirement rate (must be > 0)
    c1     vaccination rate, in [0, 1]
    c2     treatment rate, in [0, 1]
    """

    lam: float
    beta: float
    alpha: float
    eta1: float
    eta2: float
    sigma1: float
    sigma2: float
    mu: float
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        for name in ("lam", "beta", "alpha", "eta1", "eta2", "sigma1", "sigma2", "mu"):
            _require_finite_nonneg(name, getattr(self, name))
        if self.mu <= 0.0:
            raise ValueError(f"mu must be > 0, got {self.mu!r}")
        for name in ("c1", "c2"):
            v = getattr(self, name)
            if not math.isfinite(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")

    def with_controls(self, c1: float, c2: float) -> "ModelParams":
        return replace(self, c1=c1, c2=c2)


#: Default rate constants used throughout (controls off).
DEFAULT_PARAMS = ModelParams(
    lam=0.2292e6,
    beta=4e-9,
    alpha=0.25,
    eta1=0.10415,
    eta2=0.10415,
    sigma1=0.00417,
    sigma2=0.00417,
    mu=0.0004,
)


@dataclass(frozen=True)
class State:
    """A single (S, E, I, R, V) snapshot of device counts."""

    s: float
    e: float
    i: float
    r: float
    v: float

    def __post_init__(self):
        for name in ("s", "e", "i", "r", "v"):
            _require_finite_nonneg(name, getattr(self, name))

    @property
    def total(self) -> float:
        return self.s + self.e + self.i + self.r + self.v

    def as_tuple(self) -> Tuple[float, float, float, float, float]:
        return (self.s, self.e, self.i, self.r, self.v)


@dataclass(frozen=True)
class BetaSchedule:
    """Piecewise-constant transmission rate.

    values[k] is active on the right-open segment [breakpoints[k-1], breakpoints[k]);
    values[0] before the first breakpoint, values[-1] from the last one on.
    Breakpoints are finite and strictly increasing. integrate snaps them to
    its grid and rejects two that land on the same grid index inside the run,
    so keep them at least one grid step apart.
    """

    breakpoints: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(bp) + 1:
            raise ValueError("need exactly len(breakpoints) + 1 beta values")
        if not all(math.isfinite(b) for b in bp):
            raise ValueError(f"breakpoints must be finite, got {bp!r}")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        for v in vals:
            _require_finite_nonneg("beta segment", v)


@dataclass(frozen=True)
class ControlSchedule:
    """Step change of the control pair (c1, c2) at an onset time; stored as floats."""

    onset: float
    before: Tuple[float, float]
    after: Tuple[float, float]

    def __post_init__(self):
        onset = float(self.onset)
        object.__setattr__(self, "onset", onset)
        if not math.isfinite(onset) or onset < 0.0:
            raise ValueError(f"onset must be finite and >= 0, got {onset!r}")
        for pair_name in ("before", "after"):
            pair = tuple(float(c) for c in getattr(self, pair_name))
            object.__setattr__(self, pair_name, pair)
            if len(pair) != 2 or any(not (0.0 <= c <= 1.0) for c in pair):
                raise ValueError(f"{pair_name} controls must lie in [0, 1]^2")


MAX_STEPS = 10**7  # integrate refuses longer plans (50x dt=0.01 over horizon 2000)


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings: the step size dt, stored as a float."""

    dt: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "dt", float(self.dt))
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be > 0, got {self.dt!r}")


class Trajectory(NamedTuple):
    """Solution on the uniform grid times[k] = k * dt.

    states has one row per grid point, columns (S, E, I, R, V). The grid is
    not stored: times is computed from len(states) and dt when it is read.
    """

    states: np.ndarray
    dt: float

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.states), dtype=float) * self.dt

    @property
    def s(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def e(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def i(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def r(self) -> np.ndarray:
        return self.states[:, 3]

    @property
    def v(self) -> np.ndarray:
        return self.states[:, 4]

    @property
    def n(self) -> np.ndarray:
        return self.states.sum(axis=1)

    def state_at(self, k: int) -> State:
        """Row k as a State; State refuses a negative count with ValueError."""
        return State(*self.states[k])

    def final_state(self) -> State:
        return self.state_at(-1)


def rhs(state: State, p: ModelParams) -> Tuple[float, float, float, float, float]:
    """Right-hand side of the SEIRV system at one state, as (ds, de, di, dr, dv).

    The five component derivatives always sum to lam - mu * N.
    """
    s, e, i, r, v = state.as_tuple()
    force = p.beta * s * i
    ds = p.lam - force - p.eta1 * s + p.sigma1 * r + p.sigma2 * v - p.c1 * s - p.mu * s
    de = force - p.alpha * e - p.eta2 * e - p.mu * e
    di = p.alpha * e - p.c2 * i - p.mu * i
    dr = p.eta1 * s + p.eta2 * e + p.c2 * i - p.sigma1 * r - p.mu * r
    dv = p.c1 * s - p.sigma2 * v - p.mu * v
    return ds, de, di, dr, dv


def trapezoid(y: np.ndarray, dt: float, weight: float) -> float:
    """weight * the trapezoid-rule integral of samples y on a uniform grid of step dt, which
    callers never scale; OverflowError, an ArithmeticError, when either is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        total = dt * (float(np.sum(y)) - 0.5 * (float(y[0]) + float(y[-1])))
    if math.isfinite(total):  # weight a finite integral only: 0 * inf would report nan
        total *= weight
    if not math.isfinite(total):
        raise OverflowError(f"time integral overflows: trapezoid total is {total!r}")
    return total


def population_bound(p: ModelParams, n0: float) -> float:
    """Upper bound max{N(0), lam/mu} on the total population for all t >= 0."""
    return max(float(n0), p.lam / p.mu)


def population_closed_form(p: ModelParams, n0: float, times: np.ndarray) -> np.ndarray:
    """Exact N(t) = lam/mu + (N0 - lam/mu) * exp(-mu t), valid for any controls."""
    ninf = p.lam / p.mu
    return ninf + (float(n0) - ninf) * np.exp(-p.mu * np.asarray(times, dtype=float))


def _plan_segments(
    n_steps: int,
    dt: float,
    p: ModelParams,
    beta_schedule: Optional[BetaSchedule],
    control_schedule: Optional[ControlSchedule],
) -> Sequence[Tuple[int, int, float, float, float]]:
    """Chunks of constant (beta, c1, c2) as (start_step, end_step, ...) tuples.

    Schedule breakpoints are snapped to the nearest grid index so segment
    boundaries are reproducible; the snapped index is also what selects the
    active segment value (right-open segments). Two beta breakpoints that
    snap to one index inside the run would drop a segment, so they raise.
    """
    if beta_schedule is None:
        breakpoints, values = (), (p.beta,)
    else:
        breakpoints, values = beta_schedule.breakpoints, beta_schedule.values
    if control_schedule is None:
        onset, before, after = 0, (p.c1, p.c2), (p.c1, p.c2)
    else:
        onset, before, after = control_schedule.onset, control_schedule.before, control_schedule.after

    beta_cut_idx = [round(b / dt) for b in breakpoints]  # round() of a float is an int
    inside = [k for k in beta_cut_idx if 0 <= k < n_steps]
    if len(set(inside)) < len(inside):
        raise ValueError(f"beta breakpoints less than one grid step dt={dt!r} apart")
    onset_idx = round(onset / dt)
    edges = sorted({0, n_steps, min(onset_idx, n_steps), *inside})
    return [
        (k_lo, k_hi, values[bisect_right(beta_cut_idx, k_lo)],
         *(after if k_lo >= onset_idx else before))
        for k_lo, k_hi in zip(edges, edges[1:])
    ]


class IntegrationDivergedError(ArithmeticError):
    """Raised when an integration step leaves a negative or non-finite count.

    Carries the step's index, time and counts. The message names the first
    bad compartment (or N, if only the total overflowed), its value, and dt.
    """

    def __init__(self, step: int, dt: float, counts: Tuple[float, ...]):
        self.step = step
        self.time = step * dt
        self.counts = counts
        name, value = next(((n, x) for n, x in zip("SEIRV", counts) if not x >= 0.0),
                           ("N", sum(counts)))
        super().__init__(f"{name} = {value!r} at t = {self.time:g} (step {step}): "
                         f"dt = {dt:g} is too large for these rates")


def step_count(horizon: float, dt: float) -> int:
    """round(horizon / dt), the steps integrate takes over [0, horizon]; ValueError for a
    horizon that is not finite and > 0, or a plan of no step or of over MAX_STEPS steps."""
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be > 0, got {horizon!r}")
    if horizon / dt > MAX_STEPS:
        raise ValueError(f"horizon {horizon!r} at dt={dt!r} needs more than {MAX_STEPS} steps")
    n_steps = round(horizon / dt)
    if n_steps < 1:
        raise ValueError(f"horizon {horizon!r} shorter than one step dt={dt!r}")
    return n_steps


def integrate(
    p: ModelParams,
    init: State,
    horizon: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    beta_schedule: Optional[BetaSchedule] = None,
    control_schedule: Optional[ControlSchedule] = None,
) -> Trajectory:
    """Integrate the SEIRV system over [0, horizon] with classical RK4.

    Schedules, when given, override p.beta and (p.c1, p.c2) piecewise in
    time; the active values are sampled at each step's start time and held
    constant across the RK4 substeps. The only array allocated is the
    returned states, one row per grid point k * dt, k = 0..round(horizon / dt).
    The exact solution keeps every count nonnegative, so a step that leaves
    one negative or non-finite means dt is too large and raises
    IntegrationDivergedError. step_count states which plans raise ValueError.
    """
    dt = cfg.dt
    n_steps = step_count(horizon, dt)

    # Python floats: numpy scalars (as final_state() returns) make each step ~3x slower
    s, e, i, r, v = map(float, init.as_tuple())

    states = np.empty((n_steps + 1, 5))
    states[0] = s, e, i, r, v
    # each step writes in place, through memoryviews: half the cost of numpy views
    s_arr, e_arr, i_arr, r_arr, v_arr = map(memoryview, states.T)

    plan = _plan_segments(n_steps, dt, p, beta_schedule, control_schedule)

    lam, alpha = p.lam, p.alpha
    eta1, eta2, sig1, sig2, mu = p.eta1, p.eta2, p.sigma1, p.sigma2, p.mu
    h2 = dt * 0.5
    h6 = dt / 6.0

    for k_lo, k_hi, beta, c1, c2 in plan:
        drain = eta1 + c1 + mu
        ae = alpha + eta2 + mu
        ci = c2 + mu
        sr = sig1 + mu
        vr = sig2 + mu

        for idx in range(k_lo + 1, k_hi + 1):  # idx is the row this step writes
            f = beta * s * i
            ds1 = lam - f - drain * s + sig1 * r + sig2 * v
            de1 = f - ae * e
            di1 = alpha * e - ci * i
            dr1 = eta1 * s + eta2 * e + c2 * i - sr * r
            dv1 = c1 * s - vr * v
            s2 = s + h2 * ds1; e2 = e + h2 * de1; i2 = i + h2 * di1
            r2 = r + h2 * dr1; v2 = v + h2 * dv1
            f = beta * s2 * i2
            ds2 = lam - f - drain * s2 + sig1 * r2 + sig2 * v2
            de2 = f - ae * e2
            di2 = alpha * e2 - ci * i2
            dr2 = eta1 * s2 + eta2 * e2 + c2 * i2 - sr * r2
            dv2 = c1 * s2 - vr * v2
            s3 = s + h2 * ds2; e3 = e + h2 * de2; i3 = i + h2 * di2
            r3 = r + h2 * dr2; v3 = v + h2 * dv2
            f = beta * s3 * i3
            ds3 = lam - f - drain * s3 + sig1 * r3 + sig2 * v3
            de3 = f - ae * e3
            di3 = alpha * e3 - ci * i3
            dr3 = eta1 * s3 + eta2 * e3 + c2 * i3 - sr * r3
            dv3 = c1 * s3 - vr * v3
            s4 = s + dt * ds3; e4 = e + dt * de3; i4 = i + dt * di3
            r4 = r + dt * dr3; v4 = v + dt * dv3
            f = beta * s4 * i4
            ds4 = lam - f - drain * s4 + sig1 * r4 + sig2 * v4
            de4 = f - ae * e4
            di4 = alpha * e4 - ci * i4
            dr4 = eta1 * s4 + eta2 * e4 + c2 * i4 - sr * r4
            dv4 = c1 * s4 - vr * v4
            s += h6 * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
            e += h6 * (de1 + 2.0 * de2 + 2.0 * de3 + de4)
            i += h6 * (di1 + 2.0 * di2 + 2.0 * di3 + di4)
            r += h6 * (dr1 + 2.0 * dr2 + 2.0 * dr3 + dr4)
            v += h6 * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
            # a NaN fails every comparison, and an overflow fails the total's
            if not (s >= 0.0 and e >= 0.0 and i >= 0.0 and r >= 0.0 and v >= 0.0
                    and s + e + i + r + v < 1e308):
                raise IntegrationDivergedError(idx, dt, (s, e, i, r, v))
            s_arr[idx] = s; e_arr[idx] = e; i_arr[idx] = i
            r_arr[idx] = r; v_arr[idx] = v

    return Trajectory(states=states, dt=dt)
