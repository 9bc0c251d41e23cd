"""Data-driven calibration: SSE fitting of piecewise transmission rates with a
Nelder-Mead simplex, goodness-of-fit reporting, and averted-cases analysis.

The fitted observable is cumulative infections alpha * int_0^t E dt (total
entries into the infected compartment), matching count data aggregated from
detections. Daily fits are derived by differencing the cumulative series.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    BetaSchedule,
    IntegratorConfig,
    ModelParams,
    State,
    integrate,
    trapezoid,
)

__all__ = [
    "ObservationSeries",
    "NelderMeadConfig",
    "FitResult",
    "DailyOverlay",
    "AvertedCurve",
    "BETA_FIT_BOUNDS",
    "load_series",
    "model_cumulative",
    "sse",
    "nelder_mead",
    "fit_beta_segments",
    "goodness",
    "averted_cases",
    "generate_synthetic",
]

#: Box bounds for per-segment transmission rates during fitting.
BETA_FIT_BOUNDS = (1e-12, 1e-6)


@dataclass(frozen=True)
class ObservationSeries:
    """Cumulative infection counts (finite, >= 0, nondecreasing) at finite,
    strictly increasing times. Daily counts are summed on load (load_series).
    """

    times: Tuple[float, ...]
    cumulative: Tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        counts = tuple(float(y) for y in self.cumulative)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "cumulative", counts)
        if len(times) != len(counts) or len(times) == 0:
            raise ValueError("times and counts must be nonempty and equal-length")
        if not all(map(math.isfinite, times)) or any(
            t2 <= t1 for t1, t2 in zip(times, times[1:])
        ):
            raise ValueError("observation times must be finite and strictly increasing")
        if any(y < 0.0 or not math.isfinite(y) for y in counts):
            raise ValueError("counts must be finite and >= 0")
        if any(y2 < y1 for y1, y2 in zip(counts, counts[1:])):
            raise ValueError("cumulative counts must be nondecreasing")


_NM_REFLECT, _NM_EXPAND, _NM_CONTRACT, _NM_SHRINK = 1.0, 2.0, 0.5, 0.5
_NM_SPREAD = 0.1  # initial simplex edge relative to each start coordinate


@dataclass(frozen=True)
class NelderMeadConfig:
    """Simplex stopping rules. The simplex moves and initial spread are the _NM_ constants."""

    tol_f: float = 1e-8
    tol_x: float = 1e-8
    max_iter: int = 2000

    def __post_init__(self):
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        for name in ("tol_f", "tol_x"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class FitResult:
    beta_segments: BetaSchedule
    sse: float
    residuals: Tuple[float, ...]
    r_squared: float
    fitted: Tuple[float, ...]
    warnings: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DailyOverlay:
    """Daily-count view of a cumulative fit, with its own R^2."""

    observed: Tuple[float, ...]
    fitted: Tuple[float, ...]
    r_squared: float


@dataclass(frozen=True)
class AvertedCurve:
    """Cases averted as a function of the intervention onset time.

    decay_fit holds (amplitude, rate) of the least-squares fit
    amplitude * exp(-rate * onset); decay_r2 is its coefficient of
    determination on the original scale (NaN when the curve is degenerate).
    warnings says when that fit's simplex stopped at its iteration cap.
    """

    onsets: Tuple[float, ...]
    averted: Tuple[float, ...]
    decay_fit: Tuple[float, float]
    decay_r2: float
    warnings: Tuple[str, ...] = ()


def load_series(path, kind: str = "cumulative") -> ObservationSeries:
    """Read a `time,count` CSV into a cumulative observation series.

    kind says what the count column holds: "cumulative" counts, or "daily"
    new counts per row, which are prefix-summed here. Raises ValueError with
    the offending line number on malformed rows.
    """
    if kind not in ("cumulative", "daily"):
        raise ValueError(f"kind must be 'cumulative' or 'daily', got {kind!r}")
    times: List[float] = []
    counts: List[float] = []
    # utf-8-sig drops the byte-order mark that Excel's "CSV UTF-8" writes
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["time", "count"]:
            raise ValueError(f"{path}: expected header 'time,count', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            try:
                times.append(float(row[0]))
                counts.append(float(row[1]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if kind == "daily":
        if any(y < 0.0 for y in counts):
            raise ValueError(f"{path}: daily counts must be >= 0")
        counts = list(accumulate(counts))
    return ObservationSeries(tuple(times), tuple(counts))


def model_cumulative(
    p: ModelParams,
    beta_schedule: Optional[BetaSchedule],
    init: State,
    sample_times: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> np.ndarray:
    """Cumulative infections alpha * int_0^t E dt at the requested times.

    sample_times must be nonempty, finite, >= 0 and strictly increasing; the
    run ends at the first grid point at or past the last of them (a grid
    point within 1e-12 relative of it counts). The running integral is
    trapezoidal on the integration grid and linearly interpolated between
    grid points.
    """
    ts = np.asarray(sample_times, dtype=float)
    if ts.size == 0 or not np.all(np.isfinite(ts)) or np.any(np.diff(ts) <= 0.0):
        raise ValueError("sample_times must be nonempty, finite and strictly increasing")
    if ts[0] < 0.0:
        raise ValueError(f"sample_times must be >= 0, got {float(ts[0])!r}")
    n_steps = max(1, math.ceil(float(ts[-1]) / cfg.dt * (1.0 - 1e-12)))
    traj = integrate(p, init, n_steps * cfg.dt, cfg, beta_schedule=beta_schedule)
    e = traj.e
    running = np.concatenate(([0.0], np.cumsum(0.5 * (e[1:] + e[:-1]) * traj.dt)))
    return p.alpha * np.interp(ts, traj.times, running)


def sse(
    series: ObservationSeries,
    p: ModelParams,
    beta_schedule: Optional[BetaSchedule],
    init: State,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> float:
    """Sum of squared errors between observed and model cumulative counts.

    A run that fails raises, as in model_cumulative; squared errors that
    overflow sum to inf."""
    yhat = model_cumulative(p, beta_schedule, init, series.times, cfg)
    with np.errstate(over="ignore"):
        return float(np.sum((np.asarray(series.cumulative) - yhat) ** 2))


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    start: Sequence[float],
    bounds: Sequence[Tuple[float, float]],
    cfg: NelderMeadConfig = NelderMeadConfig(),
) -> Tuple[np.ndarray, float, int, bool]:
    """Minimize a scalar function over a box with the Nelder-Mead simplex.

    The start needs one entry per bound (ValueError otherwise). It and every
    candidate point are projected into the box before evaluation, so no
    returned point ever leaves it. Every simplex, the one after the last
    allowed move included, is tested against tol_x and tol_f.
    Returns (argmin, minimum, iterations, converged); converged is False
    exactly when the simplex stopped at its cap of cfg.max_iter iterations.
    A probe that raises ArithmeticError (a diverged run does) or returns a
    non-finite value scores inf; when every initial vertex does, the first
    failure caught is raised, or an ArithmeticError if none raised.
    """
    lo, hi = np.array(bounds, dtype=float).T
    if np.any(lo >= hi):
        raise ValueError("each bound must satisfy lo < hi")
    x0 = np.asarray(start, dtype=float)
    if x0.shape != lo.shape:
        raise ValueError(f"start has shape {x0.shape}, but {lo.size} bounds need shape {lo.shape}")
    x0 = np.minimum(hi, np.maximum(lo, x0))

    failure: Optional[ArithmeticError] = None  # only the first: its traceback holds a run

    def f(x: np.ndarray) -> float:
        nonlocal failure
        try:
            v = float(objective(x))
        except ArithmeticError as exc:
            failure = failure or exc
            return math.inf
        return v if math.isfinite(v) else math.inf

    def move(center: np.ndarray, x: np.ndarray, coeff: float) -> np.ndarray:
        """center + coeff * (center - x), projected into the box."""
        return np.minimum(hi, np.maximum(lo, center + coeff * (center - x)))

    simplex = [x0]
    for j in range(x0.size):
        step = _NM_SPREAD * (abs(x0[j]) if x0[j] != 0.0 else 1.0)
        vert = x0.copy()
        vert[j] += step
        if vert[j] > hi[j]:
            vert[j] = x0[j] - step
        simplex.append(np.minimum(hi, np.maximum(lo, vert)))
    values = [f(v) for v in simplex]
    if all(math.isinf(v) for v in values):
        raise failure or ArithmeticError("objective is non-finite at every initial simplex vertex")

    iters = 0
    while True:
        # stable: tied vertices keep their order, so simplex[0] is the first best one
        order = np.argsort(values, kind="stable")
        simplex = [simplex[k] for k in order]
        values = [values[k] for k in order]
        diam = max(float(np.max(np.abs(v - simplex[0]))) for v in simplex[1:])
        converged = diam < cfg.tol_x or values[-1] - values[0] < cfg.tol_f
        if converged or iters == cfg.max_iter:
            return simplex[0], values[0], iters, converged
        iters += 1

        centroid = np.mean(simplex[:-1], axis=0)
        xr = move(centroid, simplex[-1], _NM_REFLECT)
        fr = f(xr)
        if fr < values[0]:
            xe = move(centroid, simplex[-1], _NM_EXPAND)
            fe = f(xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            # contract outside toward the reflection, or inside toward the worst
            toward = xr if fr < values[-1] else simplex[-1]
            xc = move(centroid, toward, -_NM_CONTRACT)
            fc = f(xc)
            if fc < min(fr, values[-1]):
                simplex[-1], values[-1] = xc, fc
            else:  # shrink everything toward the best vertex
                simplex = [simplex[0]] + [move(simplex[0], v, -_NM_SHRINK) for v in simplex[1:]]
                values = [values[0]] + [f(v) for v in simplex[1:]]


def _r_squared(y: np.ndarray, yhat: np.ndarray) -> float:
    """Coefficient of determination of yhat against y; NaN when y is constant."""
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return math.nan if ss_tot == 0.0 else 1.0 - float(np.sum((y - yhat) ** 2)) / ss_tot


def fit_beta_segments(
    series: ObservationSeries,
    p: ModelParams,
    segment_length: float = 7.0,
    init: State = State(1e9, 0.0, 1.0, 0.0, 0.0),
    nm: NelderMeadConfig = NelderMeadConfig(),
    cfg: IntegratorConfig = IntegratorConfig(),
) -> FitResult:
    """Estimate a piecewise-constant transmission rate from count data.

    One beta per consecutive segment of the given length, optimized jointly
    in log space over BETA_FIT_BOUNDS by minimizing the total SSE; controls
    are held at zero during fitting. Ties in SSE (within tol_f) resolve
    toward the lower beta bound, the parsimonious no-transmission reading of
    flat data. More segments than observations is refused (ValueError). A
    failed lower-bound probe raises, as nelder_mead does when no vertex runs.
    """
    if not segment_length > 0.0:
        raise ValueError("segment_length must be > 0")
    t_last = series.times[-1]
    if t_last <= 0.0:
        raise ValueError("series must extend past t = 0")
    if t_last / segment_length > len(series.times):
        raise ValueError(f"segment_length {segment_length!r} gives more segments than observations")
    n_seg = max(1, math.ceil(t_last / segment_length - 1e-12))
    breakpoints = tuple(segment_length * k for k in range(1, n_seg))

    warnings = []
    counts_per_seg = np.histogram(
        series.times, bins=np.concatenate(([0.0], breakpoints, [t_last + segment_length]))
    )[0]
    if np.any(counts_per_seg < 2):
        warnings.append(
            "under-determined: fewer than 2 observations in at least one segment"
        )

    p_fit = p.with_controls(0.0, 0.0)
    log_lo, log_hi = math.log10(BETA_FIT_BOUNDS[0]), math.log10(BETA_FIT_BOUNDS[1])

    def objective(log_betas: np.ndarray) -> float:
        sched = BetaSchedule(breakpoints, tuple(10.0**b for b in log_betas))
        return sse(series, p_fit, sched, init, cfg)

    start = np.full(n_seg, math.log10(p.beta) if p.beta > 0 else log_lo)
    bounds = [(log_lo, log_hi)] * n_seg
    argmin, fmin, _, converged = nelder_mead(objective, start, bounds, nm)
    if not converged:
        warnings.append(f"not converged: simplex stopped at its cap of {nm.max_iter} iterations")

    floor = np.full(n_seg, log_lo)
    if objective(floor) <= fmin + nm.tol_f:
        argmin = floor

    schedule = BetaSchedule(breakpoints, tuple(10.0**b for b in argmin))
    y = np.asarray(series.cumulative)
    yhat = model_cumulative(p_fit, schedule, init, series.times, cfg)
    residuals = y - yhat
    return FitResult(
        beta_segments=schedule,
        sse=float(np.sum(residuals**2)),
        residuals=tuple(residuals),
        r_squared=_r_squared(y, yhat),
        fitted=tuple(yhat),
        warnings=tuple(warnings),
    )


def goodness(
    fit: FitResult, series: ObservationSeries
) -> Tuple[Tuple[float, ...], float, DailyOverlay]:
    """The fit's own residuals and R^2, plus the implied daily-count overlay;
    series must be the one the fit was made to."""
    if len(series.cumulative) < 2:
        raise ValueError(f"goodness needs at least 2 observations, got {len(series.cumulative)}")
    if len(series.cumulative) != len(fit.fitted):
        raise ValueError("fit is not aligned with the series")
    dy = np.diff(series.cumulative)
    dyhat = np.diff(fit.fitted)
    daily_r2 = _r_squared(dy, dyhat)
    if math.isnan(fit.r_squared) or math.isnan(daily_r2):
        raise ValueError("R^2 undefined: observations have zero variance")
    daily = DailyOverlay(observed=tuple(dy), fitted=tuple(dyhat), r_squared=daily_r2)
    return fit.residuals, fit.r_squared, daily


def _exponential_fit(
    x: np.ndarray, y: np.ndarray
) -> Tuple[Tuple[float, float], float, Tuple[str, ...]]:
    """Least-squares fit of amplitude * exp(-rate * x), R^2 on original scale,
    and a warning when the simplex stopped at its iteration cap."""
    pos = y > 0.0
    if int(np.sum(pos)) < 2:
        return (0.0, 0.0), math.nan, ()
    # Log-linear start, then a simplex polish of the true squared error.
    coeff = np.polyfit(x[pos], np.log(y[pos]), 1)
    a0 = float(np.exp(coeff[1]))
    b0 = float(-coeff[0])

    def objective(q: np.ndarray) -> float:
        amp, rate = q
        return float(np.sum((y - amp * np.exp(-rate * x)) ** 2))

    span = float(x[-1] - x[0])  # > 0: at least 2 points, strictly increasing
    ymax = float(np.max(y))
    bounds = [(0.0, 10.0 * ymax + 1.0), (-100.0 / span, 100.0 / span)]
    nm = NelderMeadConfig(tol_f=1e-12, tol_x=1e-12, max_iter=800)
    argmin, _, _, converged = nelder_mead(objective, [a0, b0], bounds, nm)
    amp, rate = float(argmin[0]), float(argmin[1])
    warnings = () if converged else (
        f"decay fit not converged: simplex stopped at its cap of {nm.max_iter} iterations",)
    return (amp, rate), _r_squared(y, amp * np.exp(-rate * x)), warnings


def averted_cases(
    p: ModelParams,
    onsets: Sequence[float],
    init: State,
    horizon: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> AvertedCurve:
    """Total cases averted by starting the controls (p.c1, p.c2) at each onset time.

    averted(t0) = i_tot(never intervened) - i_tot(controls from t0 on), where
    i_tot is EpidemicCharacteristics.i_tot, alpha * int_0^horizon E dt by trapezoid; the
    never-intervened run is p.with_controls(0.0, 0.0). The curve is summarized
    by a least-squares exponential-decay fit. Onsets must be nonempty, strictly
    increasing and inside [0, horizon]; an onset at the horizon averts nothing.
    """
    ts = [float(t) for t in onsets]
    if not ts:
        raise ValueError("need at least one onset")
    if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
        raise ValueError("onsets must be strictly increasing")
    if not all(0.0 <= t <= horizon for t in ts):
        raise ValueError(f"onsets must lie in [0, horizon={horizon!r}], got {ts!r}")
    dt = cfg.dt
    run = integrate(p.with_controls(0.0, 0.0), init, horizon, cfg)
    e = run.e.copy()  # E over the whole grid, never intervened
    baseline = trapezoid(e, dt, p.alpha)
    # The run with the controls on from the onset's snapped grid index k is
    # the never-intervened run up to k, continued from its state at k.
    # Latest onset first: each continuation overwrites e[k:] in place, and
    # the earlier onsets need only e[:k].
    n = len(e) - 1
    onset_states = [(k, run.state_at(k)) for k in (round(t / dt) for t in ts)]
    del run
    averted = []
    for k, state in reversed(onset_states):
        if k < n:
            e[k:] = integrate(p, state, (n - k) * dt, cfg).e
        averted.append(baseline - trapezoid(e, dt, p.alpha))
    averted.reverse()
    decay_fit, decay_r2, warnings = _exponential_fit(np.asarray(ts), np.asarray(averted))
    return AvertedCurve(onsets=tuple(ts), averted=tuple(averted), decay_fit=decay_fit,
                        decay_r2=decay_r2, warnings=warnings)


def generate_synthetic(
    p: ModelParams,
    beta_schedule: Optional[BetaSchedule],
    init: State,
    sample_times: Sequence[float],
    noise_sigma: float,
    seed: int,
    relative: bool = False,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> ObservationSeries:
    """Cumulative model output at sample_times plus Gaussian observation noise.

    noise_sigma is an absolute standard deviation, or a fraction of each
    count when relative=True. The noisy series is clamped to stay
    nondecreasing and nonnegative, as ObservationSeries requires.
    Deterministic per seed.
    """
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError(f"noise_sigma must be >= 0 and finite, got {noise_sigma!r}")
    yhat = model_cumulative(p, beta_schedule, init, sample_times, cfg)
    rng = np.random.default_rng(seed)
    scale = noise_sigma * np.abs(yhat) if relative else noise_sigma
    y = yhat + rng.normal(0.0, 1.0, size=yhat.size) * scale
    y = np.maximum.accumulate(np.maximum(y, 0.0))
    return ObservationSeries(tuple(sample_times), tuple(y))
