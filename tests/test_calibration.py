"""Series ingestion, SSE, Nelder-Mead, segment fitting and averted-cases tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bench_pins import load_workloads
from conftest import counted_integrate, recorded
from seirv import calibration
from seirv.analysis import characteristics
from seirv.calibration import (
    BETA_FIT_BOUNDS,
    DailyOverlay,
    FitResult,
    NelderMeadConfig,
    ObservationSeries,
    averted_cases,
    fit_beta_segments,
    generate_synthetic,
    goodness,
    load_series,
    model_cumulative,
    nelder_mead,
    sse,
)
from seirv.model import (
    BetaSchedule,
    ControlSchedule,
    IntegratorConfig,
    State,
    DEFAULT_PARAMS,
    IntegrationDivergedError,
    integrate,
)

CFG = IntegratorConfig(dt=0.02)
SEED_STATE = State(1e9, 0.0, 1e4, 0.0, 0.0)
TRUE_SCHEDULE = BetaSchedule((7.0, 14.0), (2e-9, 6e-9, 3.5e-9))
SAMPLE_TIMES = tuple(float(t) for t in range(0, 22))


# ---------------------------------------------------------------- series I/O


def test_load_series_roundtrip(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("time,count\n0,0\n1,5\n2,8\n", encoding="utf-8")
    series = load_series(path)
    assert len(series.times) == 3
    assert series.cumulative == (0.0, 5.0, 8.0)


def test_load_series_skips_blank_rows(tmp_path):
    plain, gaps = tmp_path / "plain.csv", tmp_path / "gaps.csv"
    plain.write_text("time,count\n0,0\n1,5\n2,8\n", encoding="utf-8")
    gaps.write_text("time,count\n0,0\n\n1,5\n   \n2,8\n\n", encoding="utf-8")
    assert load_series(gaps) == load_series(plain)


def test_load_series_skips_a_utf8_byte_order_mark(tmp_path):
    text = "time,count\r\n0,0\r\n1,5\r\n2,8\r\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(text.encode("utf-8-sig"))
    assert bom.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert load_series(bom) == load_series(plain)


def test_load_series_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("t,y\n0,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_series(bad_header)

    bad_row = tmp_path / "r.csv"
    bad_row.write_text("time,count\n0,0\n1,abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":3"):
        load_series(bad_row)

    extra_field = tmp_path / "f.csv"
    extra_field.write_text("time,count\n0,0\n1,5,7\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":3: expected 2 fields, got 3"):
        load_series(extra_field)

    nonmono = tmp_path / "m.csv"
    nonmono.write_text("time,count\n0,5\n1,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="nondecreasing"):
        load_series(nonmono)

    nan_time = tmp_path / "n.csv"
    nan_time.write_text("time,count\n0,5\nnan,8\n", encoding="utf-8")
    with pytest.raises(ValueError, match="times must be finite"):
        load_series(nan_time)


def test_daily_to_cumulative_prefix_sum(tmp_path):
    path = tmp_path / "daily.csv"
    path.write_text("time,count\n0,5\n1,3\n2,2\n", encoding="utf-8")
    assert load_series(path, kind="daily").cumulative == (5.0, 8.0, 10.0)
    # the same rows read as cumulative counts decrease, so they are rejected
    with pytest.raises(ValueError, match="nondecreasing"):
        load_series(path)
    negative = tmp_path / "negative.csv"
    negative.write_text("time,count\n0,5\n1,-3\n2,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="daily counts must be >= 0"):
        load_series(negative, kind="daily")


def test_series_validation(tmp_path):
    with pytest.raises(ValueError):
        ObservationSeries((0.0, 0.0), (1.0, 2.0))
    for times, counts in (((), ()), ((0.0, 1.0), (1.0,))):
        with pytest.raises(ValueError, match="nonempty and equal-length"):
            ObservationSeries(times, counts)
    with pytest.raises(ValueError, match="counts must be finite and >= 0"):
        ObservationSeries((0.0, 1.0), (-1.0, 2.0))
    with pytest.raises(ValueError, match="nondecreasing"):
        ObservationSeries((0.0, 1.0), (2.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        ObservationSeries((0.0, math.inf), (1.0, 2.0))
    path = tmp_path / "obs.csv"
    path.write_text("time,count\n0,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="kind"):
        load_series(path, kind="weekly")


# ---------------------------------------------------------------- SSE


def test_sse_self_consistency():
    series = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                                0.0, seed=1, cfg=CFG)
    value = sse(series, DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, CFG)
    y2 = sum(y * y for y in series.cumulative)
    assert value < 1e-6 * y2
    # a probe whose run fails raises: at dt 0.5, beta 1e-7 drives S below zero at t = 3
    failed = replace(DEFAULT_PARAMS, beta=1e-7)
    with pytest.raises(IntegrationDivergedError, match=r"^S = .* at t = 3 "):
        sse(series, failed, None, SEED_STATE, IntegratorConfig(dt=0.5))
    # one whose squared errors overflow scores inf: E0 = 1e200 gives counts near 1e200
    silent = replace(DEFAULT_PARAMS, beta=0.0)
    with np.errstate(over="raise"):
        assert sse(series, silent, None, State(0, 1e200, 0, 0, 0), CFG) == math.inf


def test_sse_zero_on_empty_model_and_data():
    series = ObservationSeries((0.0, 1.0, 2.0), (0.0, 0.0, 0.0))
    p = DEFAULT_PARAMS  # no seed: I0 = E0 = 0 below
    value = sse(series, p, None, State(1e9, 0, 0, 0, 0), CFG)
    assert value == 0.0


def test_sse_quadratic_shift_identity():
    series = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                                0.0, seed=1, cfg=CFG)
    shifted = ObservationSeries(
        series.times, tuple(y + 10.0 for y in series.cumulative)
    )
    base = sse(series, DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, CFG)
    moved = sse(shifted, DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, CFG)
    n = len(series.times)
    assert moved == pytest.approx(base + n * 100.0, rel=1e-9)


@pytest.mark.parametrize("times", [[], [10.0, 5.0], [5.0, 5.0], [1.0, math.nan], [-5.0, 1.0]],
                         ids=["empty", "descending", "repeated", "nan", "negative"])
def test_model_cumulative_rejects_bad_sample_times(times):
    # the run ends at the last sample time, so a later one out of order
    # would be read off the clamped end of the interpolation, and one before
    # t = 0 off its clamped start
    with pytest.raises(ValueError, match="sample_times"):
        model_cumulative(DEFAULT_PARAMS, None, SEED_STATE, times, CFG)


def test_model_cumulative_covers_its_last_sample_time():
    # 1.0 / 0.4 = 2.5 steps: a run of round(2.5) = 2 steps ends at 0.8 and
    # np.interp would read the value at 0.8 for 1.0 as well
    times = [0.0, 0.8, 1.0]
    coarse = model_cumulative(DEFAULT_PARAMS, None, SEED_STATE, times, IntegratorConfig(dt=0.4))
    fine = model_cumulative(DEFAULT_PARAMS, None, SEED_STATE, times, IntegratorConfig(dt=0.001))
    assert coarse[2] > coarse[1]
    assert abs(coarse[2] - fine[2]) < 0.1 * fine[2]


@pytest.mark.parametrize("times, dt, n_steps", [
    (SAMPLE_TIMES, 0.02, 1050), (SAMPLE_TIMES, 0.05, 420), ((0.3,), 0.1, 3),
    ((0.7,), 0.1, 7), ((0.0,), 0.4, 1), ((0.0, 1.0), 0.4, 3), ((0.0, 21.0), 0.4, 53),
], ids=["days-0.02", "days-0.05", "0.3-0.1", "0.7-0.1", "0-0.4", "1-0.4", "21-0.4"])
def test_model_cumulative_runs_to_the_first_grid_point_at_or_past_the_last_time(
    monkeypatch, times, dt, n_steps
):
    # a grid that already reaches the last time (up to rounding of t / dt)
    # keeps its step count, and the values are read off that run
    runs = []

    def recorded(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(calibration, "integrate", recorded)
    got = model_cumulative(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, times, IntegratorConfig(dt=dt))
    (run,) = runs
    assert len(run.times) - 1 == n_steps
    assert run.times[-1] >= times[-1]
    running = np.concatenate(([0.0], np.cumsum(0.5 * (run.e[1:] + run.e[:-1]) * dt)))
    assert got.tobytes() == (DEFAULT_PARAMS.alpha * np.interp(times, run.times, running)).tobytes()


# ---------------------------------------------------------------- Nelder-Mead


@pytest.mark.parametrize("fails_above", [math.inf, 1.5], ids=["finite", "raises-past-1.5"])
def test_nelder_mead_quadratic_bowl(fails_above):
    # a probe that raises ArithmeticError is no minimum; the free run probes
    # past 1.5, so the second case rejects some of its moves
    failures = []

    def bowl(x):
        if np.any(x > fails_above):
            failures.append(OverflowError(f"probe {x!r} fails"))
            raise failures[-1]
        return float(np.sum((x - 1.0) ** 2))

    # tolerances chosen so the stopping rule implies 1e-6 positional accuracy
    argmin, fmin, iters, converged = nelder_mead(
        bowl,
        start=[0.0, 0.0, 0.0],
        bounds=[(-5.0, 5.0)] * 3,
        cfg=NelderMeadConfig(tol_f=1e-16, tol_x=1e-8),
    )
    assert np.max(np.abs(argmin - 1.0)) < 1e-6
    assert fmin < 1e-12
    assert iters > 0 and converged
    assert bool(failures) == (fails_above < math.inf)


def test_nelder_mead_tests_the_simplex_its_last_allowed_move_made():
    # a cap equal to the free run's iteration count still tests the last
    # simplex, so the run converges there; one iteration less stops at the cap
    def bowl(x):
        return float(np.sum((x - 1.0) ** 2))

    args = (bowl, [0.0, 0.0], [(-5.0, 5.0)] * 2)
    argmin, fmin, iters, converged = nelder_mead(*args)
    assert converged
    at_cap = nelder_mead(*args, NelderMeadConfig(max_iter=iters))
    assert at_cap[0].tobytes() == argmin.tobytes()
    assert at_cap[1:] == (fmin, iters, True)
    short = nelder_mead(*args, NelderMeadConfig(max_iter=iters - 1))
    assert short[2:] == (iters - 1, False)


@pytest.mark.parametrize("field, value", [
    ("tol_f", math.nan), ("tol_f", -1e-8), ("tol_x", math.inf), ("tol_x", -1.0),
])
def test_nelder_mead_config_rejects_bad_tolerances(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite and >= 0, got"):
        NelderMeadConfig(**{field: value})


@pytest.mark.parametrize("value", [2.5, 0, "3"])
def test_nelder_mead_config_rejects_non_integer_or_small_max_iter(value):
    with pytest.raises(ValueError, match="max_iter"):
        NelderMeadConfig(max_iter=value)
    assert NelderMeadConfig(max_iter=np.int64(3)).max_iter == 3


def test_nelder_mead_rosenbrock():
    def rosen(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    argmin, fmin, _, converged = nelder_mead(rosen, [-1.2, 1.0], [(-2.0, 2.0), (-1.0, 3.0)])
    assert np.max(np.abs(argmin - 1.0)) < 1e-3
    assert converged


def test_nelder_mead_respects_bounds():
    seen = []

    def objective(x):
        seen.append(x.copy())
        return float((x[0] + 2.0) ** 2)  # unconstrained minimum outside the box

    argmin, _, _, _ = nelder_mead(objective, [0.5], [(0.0, 1.0)])
    assert 0.0 <= argmin[0] <= 1.0
    assert argmin[0] < 1e-6
    assert all(0.0 <= x[0] <= 1.0 for x in seen)


@pytest.mark.parametrize("start, bounds, match", [
    ([0.5], [(1.0, 1.0)], "lo < hi"),
    ([0.5, 0.5], [(0.0, 1.0), (2.0, -2.0)], "lo < hi"),
    # projection would broadcast the start to (0.5, 0.5) and fit a 2-D problem
    ([0.5], [(0.0, 1.0), (0.0, 1.0)], r"^start has shape \(1,\), but 2 bounds need shape \(2,\)$"),
], ids=["empty-box", "reversed-bound", "start-length"])
def test_nelder_mead_rejects_bad_bounds_or_start(start, bounds, match):
    with pytest.raises(ValueError, match=match):
        nelder_mead(lambda x: float(np.sum(x**2)), start, bounds)


@pytest.mark.parametrize("start, clamped", [
    ([1.5, 0.25], [1.0, 0.25]),
    ([0.5, -0.1], [0.5, 0.0]),
], ids=["start-above", "start-below"])
def test_nelder_mead_projects_its_start(start, clamped):
    def objective(x):
        return float((x[0] - 0.3) ** 2 + (x[1] - 0.6) ** 2)

    bounds = [(0.0, 1.0), (0.0, 1.0)]
    argmin, *rest = nelder_mead(objective, start, bounds)
    by_hand, *rest_by_hand = nelder_mead(objective, clamped, bounds)
    assert argmin.tobytes() == by_hand.tobytes()
    assert rest == rest_by_hand


def test_nelder_mead_degenerate_objective():
    with pytest.raises(ArithmeticError, match="^objective is non-finite at every initial simplex vertex$"):
        nelder_mead(lambda x: math.nan, [0.5], [(0.0, 1.0)])
    # when every initial vertex raises, the first failure caught comes back
    failures = []

    def fails(x):
        failures.append(OverflowError(f"probe {x!r} fails"))
        raise failures[-1]

    with pytest.raises(OverflowError) as exc_info:
        nelder_mead(fails, [0.5, 0.5], [(0.0, 1.0)] * 2)
    assert len(failures) == 3
    assert exc_info.value is failures[0]


# ---------------------------------------------------------------- fitting


def test_fit_recovers_three_segment_schedule():
    series = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                                0.0, seed=1, cfg=CFG)
    fit = fit_beta_segments(series, DEFAULT_PARAMS, 7.0, SEED_STATE, NelderMeadConfig(), CFG)
    assert len(fit.beta_segments.values) == 3
    for got, want in zip(fit.beta_segments.values, TRUE_SCHEDULE.values):
        assert abs(got - want) / want < 0.05
    assert fit.r_squared >= 0.99
    assert fit.warnings == ()
    assert fit.sse == pytest.approx(sum(r * r for r in fit.residuals), rel=1e-12)


def test_fit_rise_then_fall_shape_recovered():
    schedule = BetaSchedule((7.0, 14.0), (1.5e-9, 7e-9, 2.5e-9))
    series = generate_synthetic(DEFAULT_PARAMS, schedule, SEED_STATE, SAMPLE_TIMES,
                                0.0, seed=4, cfg=CFG)
    fit = fit_beta_segments(series, DEFAULT_PARAMS, 7.0, SEED_STATE, NelderMeadConfig(), CFG)
    b1, b2, b3 = fit.beta_segments.values
    assert b1 < b2 and b2 > b3


def test_fit_flat_series_lands_on_lower_bound():
    series = ObservationSeries(SAMPLE_TIMES, (0.0,) * len(SAMPLE_TIMES))
    no_seed = State(1e9, 0.0, 0.0, 0.0, 0.0)
    fit = fit_beta_segments(series, DEFAULT_PARAMS, 7.0, no_seed, NelderMeadConfig(), CFG)
    for b in fit.beta_segments.values:
        assert b == pytest.approx(BETA_FIT_BOUNDS[0], rel=1e-9)
    assert all(abs(r) < 1e-9 for r in fit.residuals)
    assert math.isnan(fit.r_squared)  # zero-variance data has no R^2


@pytest.mark.parametrize("times, segment_length, message", [
    ((0.0, 1.0, 2.0), 0.0, "segment_length must be > 0"),
    ((0.0, 1.0, 2.0), math.nan, "segment_length must be > 0"),
    ((0.0,), 7.0, "extend past t = 0"),
    ((0.0, 1.0, 2.0, 3.0), 0.5, "more segments than observations"),
], ids=["zero-length", "nan-length", "only-t0", "too-many-segments"])
def test_fit_refuses_segments_it_cannot_fit(times, segment_length, message):
    series = ObservationSeries(times, tuple(float(k) for k in range(len(times))))
    with pytest.raises(ValueError, match=message):
        fit_beta_segments(series, DEFAULT_PARAMS, segment_length, SEED_STATE,
                          NelderMeadConfig(max_iter=1), CFG)


def test_fit_warns_when_under_determined():
    sparse = ObservationSeries((0.0, 10.0, 20.0), (0.0, 100.0, 300.0))
    fit = fit_beta_segments(
        sparse, DEFAULT_PARAMS, 7.0, SEED_STATE,
        NelderMeadConfig(max_iter=30), CFG,
    )
    assert any("under-determined" in w for w in fit.warnings)


def test_fit_warns_when_simplex_hits_iteration_cap():
    series = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                                0.0, seed=0, cfg=CFG)
    capped = fit_beta_segments(series, DEFAULT_PARAMS, 7.0, SEED_STATE,
                               NelderMeadConfig(max_iter=1), CFG)
    assert any("iteration" in w for w in capped.warnings)
    converged = fit_beta_segments(series, DEFAULT_PARAMS, 7.0, SEED_STATE,
                                  NelderMeadConfig(), CFG)
    assert converged.warnings == ()


def test_fit_capped_at_its_own_convergence_count_does_not_warn(monkeypatch):
    # the verdict is the simplex's: a run that converges on its last allowed
    # iteration is converged, though the count reaches the cap
    cfg = IntegratorConfig(dt=0.1)
    series = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                                0.01, seed=7, relative=True, cfg=cfg)
    simplexes = recorded(monkeypatch, calibration, "nelder_mead")
    free = fit_beta_segments(series, DEFAULT_PARAMS, 7.0, SEED_STATE, NelderMeadConfig(), cfg)
    ((_, _, iters, _),) = simplexes
    at_cap = fit_beta_segments(series, DEFAULT_PARAMS, 7.0, SEED_STATE,
                               NelderMeadConfig(max_iter=iters), cfg)
    assert at_cap == free and at_cap.warnings == ()
    short = fit_beta_segments(series, DEFAULT_PARAMS, 7.0, SEED_STATE,
                              NelderMeadConfig(max_iter=iters - 1), cfg)
    assert short.warnings == (
        f"not converged: simplex stopped at its cap of {iters - 1} iterations",)


def test_fit_of_a_bench_series_stays_within_its_work_budget(monkeypatch):
    # the first job of the calibrate benchmark at seed 1, as bench/workloads.py
    # builds it (1% relative noise, dt 0.02), fit and gate: measured 372 runs
    # of 1050 steps, 390,600 forward steps; budget 400 runs
    job = load_workloads().build_calibrate(1, False).jobs[0][1]
    _, steps = counted_integrate(monkeypatch)
    job()()
    assert 0 < len(steps) <= 400
    assert 0 < sum(steps) <= 400 * 1050


# ---------------------------------------------------------------- goodness


def _fit_from_model(series, yhat):
    y = np.asarray(series.cumulative)
    res = tuple(y - yhat)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum((y - yhat) ** 2)) / ss_tot
    return FitResult(
        beta_segments=BetaSchedule((), (DEFAULT_PARAMS.beta,)),
        sse=float(np.sum((y - yhat) ** 2)),
        residuals=res,
        r_squared=r2,
        fitted=tuple(yhat),
    )


def test_goodness_perfect_fit():
    series = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                                0.0, seed=1, cfg=CFG)
    yhat = np.asarray(series.cumulative)
    residuals, r2, daily = goodness(_fit_from_model(series, yhat), series)
    assert all(r == 0.0 for r in residuals)
    assert r2 == 1.0
    assert daily.r_squared == 1.0
    assert isinstance(daily, DailyOverlay)


def test_goodness_mean_predictor_scores_zero():
    series = ObservationSeries((0.0, 1.0, 2.0, 3.0), (0.0, 2.0, 6.0, 12.0))
    yhat = np.full(4, 5.0)
    _, r2, _ = goodness(_fit_from_model(series, yhat), series)
    assert r2 == pytest.approx(0.0, abs=1e-12)


def test_goodness_zero_variance_rejected():
    series = ObservationSeries((0.0, 1.0), (3.0, 3.0))
    with pytest.raises(ValueError, match="zero variance"):
        goodness(_fit_from_model_allow_flat(series), series)


def test_goodness_refuses_a_single_observation():
    # one point has no daily difference; refused before numpy sees an empty mean
    series = ObservationSeries((5.0,), (100.0,))
    fit = fit_beta_segments(series, DEFAULT_PARAMS, 7.0, SEED_STATE, cfg=IntegratorConfig(0.1))
    with pytest.raises(ValueError, match="at least 2 observations, got 1"):
        goodness(fit, series)


def test_goodness_rejects_a_fit_of_another_series():
    series = ObservationSeries((0.0, 1.0, 2.0, 3.0), (0.0, 2.0, 6.0, 12.0))
    shorter = ObservationSeries((0.0, 1.0, 2.0), (0.0, 2.0, 6.0))
    with pytest.raises(ValueError, match="not aligned"):
        goodness(_fit_from_model(shorter, np.asarray(shorter.cumulative)), series)


def _fit_from_model_allow_flat(series):
    y = np.asarray(series.cumulative)
    return FitResult(
        beta_segments=BetaSchedule((), (DEFAULT_PARAMS.beta,)),
        sse=0.0,
        residuals=(0.0,) * y.size,
        r_squared=math.nan,
        fitted=tuple(y),
    )


def test_goodness_r2_within_noise_expectation_band():
    # Monte-Carlo oracle: with additive noise of scale sigma on the true
    # model, E[R^2] ~= 1 - n sigma^2 / ss_tot. The sampling window starts at
    # t = 8 and sigma is small against the per-step increments, so Gaussian
    # noise cannot break monotonicity for these seeds and the clamp is idle.
    window = tuple(float(t) for t in range(8, 22))
    clean = model_cumulative(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, window, CFG)
    # smallest increment is ~2.3e5, so this sigma leaves an 8-sigma margin
    sigma = 4e-4 * float(np.max(clean))
    n = clean.size
    ss_tot = float(np.sum((clean - clean.mean()) ** 2))
    expected = 1.0 - n * sigma**2 / ss_tot
    r2s = []
    for seed in range(20):
        series = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, window,
                                    sigma, seed=seed, cfg=CFG)
        _, r2, _ = goodness(_fit_from_model(series, clean), series)
        r2s.append(r2)
    spread = n * sigma**2 / ss_tot  # fluctuation scale of the noise term
    assert abs(float(np.mean(r2s)) - expected) < 3.0 * spread
    assert min(r2s) > expected - 6.0 * spread


# ---------------------------------------------------------------- averted cases


def test_averted_zero_controls_zero_curve():
    curve = averted_cases(DEFAULT_PARAMS.with_controls(0.0, 0.0), [0.0, 50.0, 100.0],
                          State(1e9, 0, 1, 0, 0), 400.0, IntegratorConfig(dt=0.1))
    assert all(a == 0.0 for a in curve.averted)
    assert math.isnan(curve.decay_r2)


def test_averted_earliest_onset_dominates_and_late_onset_vanishes():
    init = State(1e9, 0.0, 1e3, 0.0, 0.0)
    onsets = [0.0, 100.0, 300.0, 700.0]
    curve = averted_cases(DEFAULT_PARAMS.with_controls(0.1, 0.1), onsets, init, 700.0,
                          IntegratorConfig(dt=0.1))
    averted = list(curve.averted)
    assert averted[0] == max(averted)
    assert abs(averted[-1]) <= 1e-6 * averted[0]  # onset at the horizon: no effect


def test_averted_exponential_decay_in_growth_regime():
    init = State(1e9, 0.0, 1e3, 0.0, 0.0)
    onsets = list(np.linspace(0.0, 600.0, 9))
    curve = averted_cases(DEFAULT_PARAMS.with_controls(0.1, 0.1), onsets, init, 1500.0,
                          IntegratorConfig(dt=0.1))
    averted = np.array(curve.averted)
    assert np.all(np.diff(averted) <= 1e-9 * averted[0])
    assert curve.decay_r2 >= 0.95
    amp, rate = curve.decay_fit
    assert amp > 0.0 and rate > 0.0


@pytest.mark.parametrize("dt, horizon, onsets, alpha", [
    pytest.param(0.5, 400.0, [0.0, 50.0, 120.25, 399.9, 400.0], 0.25, id="0.5-400.0-onsets0"),
    # 50.0 and 50.2 snap to grid index 100: the continuation from 50.2 must
    # leave row 100 at its never-intervened value for the one from 50.0
    pytest.param(0.5, 400.0, [0.0, 50.0, 50.2, 300.0], 0.25, id="0.5-400.0-shared-index"),
    # the horizon is no multiple of dt
    pytest.param(0.2, 100.3, [0.0, 10.05, 33.3, 100.3], 0.25, id="0.2-100.3-onsets1"),
    # alpha no power of two: alpha * (dt * sum) and (alpha * dt) * sum differ
    pytest.param(0.2, 100.3, [0.0, 10.05, 33.3, 100.3], 0.2, id="0.2-100.3-onsets1-alpha0.2"),
])
def test_averted_continuations_match_scheduled_runs_to_the_bit(dt, horizon, onsets, alpha):
    # each onset's run continues the never-intervened run from its state at
    # the snapped onset index; the definition integrates it from t = 0 and
    # takes each run's total infections as characteristics reports them
    init = State(1e9, 0.0, 1e3, 0.0, 0.0)
    cfg = IntegratorConfig(dt=dt)
    p = replace(DEFAULT_PARAMS, alpha=alpha).with_controls(0.1, 0.2)
    p0 = p.with_controls(0.0, 0.0)

    def i_tot(sched):
        return characteristics(integrate(p0, init, horizon, cfg, control_schedule=sched), p).i_tot

    curve = averted_cases(p, onsets, init, horizon, cfg)
    assert list(curve.averted) == [
        i_tot(None) - i_tot(ControlSchedule(t0, (0.0, 0.0), (0.1, 0.2))) for t0 in onsets
    ]


def test_averted_names_a_diverged_continuation_at_the_whole_run_s_step():
    # at dt 1.05 the controls (1, 0) diverge after onset 200 (grid index 190):
    # the error is the one the scheduled run from t = 0 raises
    init = State(1e9, 0.0, 1.0, 0.0, 0.0)
    cfg = IntegratorConfig(dt=1.05)
    with pytest.raises(IntegrationDivergedError) as whole:
        integrate(DEFAULT_PARAMS.with_controls(0.0, 0.0), init, 400.0, cfg,
                  control_schedule=ControlSchedule(200.0, (0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(IntegrationDivergedError, match=r"\(step 381\)") as err:
        averted_cases(DEFAULT_PARAMS.with_controls(1.0, 0.0), [0.0, 100.0, 200.0], init, 400.0,
                      cfg)
    assert (str(err.value), err.value.step, err.value.time, err.value.counts) == (
        str(whole.value), whole.value.step, whole.value.time, whole.value.counts)


@pytest.mark.parametrize("onsets, warnings", [
    ([0.0, 100.0, 200.0], ()),
    ([0.0, 50.0, 100.0, 200.0, 400.0],
     ("decay fit not converged: simplex stopped at its cap of 800 iterations",)),
], ids=["converges", "stops-at-cap"])
def test_averted_reports_a_decay_fit_stopped_at_its_cap(onsets, warnings):
    curve = averted_cases(DEFAULT_PARAMS.with_controls(0.1, 0.1), onsets,
                          State(1e9, 0.0, 1.0, 0.0, 0.0), 400.0, IntegratorConfig(dt=0.5))
    assert curve.warnings == warnings


def test_averted_cases_makes_one_run_per_onset_before_the_horizon(monkeypatch):
    # the README avert line at dt 0.5: the never-intervened run (4000 steps)
    # and one continuation per onset, 4000 + 3800 + 3600 + 3200 + 2400 steps
    _, steps = counted_integrate(monkeypatch)
    averted_cases(DEFAULT_PARAMS.with_controls(0.1, 0.1), [0.0, 100.0, 200.0, 400.0, 800.0],
                  State(1e9, 0.0, 1.0, 0.0, 0.0), 2000.0, IntegratorConfig(dt=0.5))
    assert (len(steps), sum(steps)) == (6, 21_000)


def test_averted_validation():
    with pytest.raises(ValueError):
        averted_cases(DEFAULT_PARAMS.with_controls(0.1, 0.1), [10.0, 5.0], SEED_STATE, 100.0)


@pytest.mark.parametrize("onsets", [[], [5.0, 100.0, 200.0], [0.0, 40.5], [-1.0, 5.0],
                                    [0.0, math.nan, 20.0]])
def test_averted_rejects_empty_or_out_of_horizon_onsets(onsets):
    with pytest.raises(ValueError, match="onset"):
        averted_cases(DEFAULT_PARAMS.with_controls(0.1, 0.1), onsets, SEED_STATE, 40.0,
                      IntegratorConfig(dt=0.5))


# ---------------------------------------------------------------- synthetic data


def test_synthetic_noiseless_matches_model():
    clean = model_cumulative(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES, CFG)
    series = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                                0.0, seed=9, cfg=CFG)
    assert np.allclose(series.cumulative, clean, rtol=0.0, atol=0.0)


def test_synthetic_deterministic_per_seed():
    a = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                           50.0, seed=42, cfg=CFG)
    b = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                           50.0, seed=42, cfg=CFG)
    c = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                           50.0, seed=43, cfg=CFG)
    assert a.cumulative == b.cumulative
    assert a.cumulative != c.cumulative


def test_synthetic_rejects_negative_noise():
    for noise_sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma must be >= 0"):
            generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                               noise_sigma, seed=0, cfg=CFG)


def test_synthetic_monotone_clamp():
    series = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                                0.3, seed=7, relative=True, cfg=CFG)
    y = np.asarray(series.cumulative)
    assert np.all(np.diff(y) >= 0.0)
    assert np.all(y >= 0.0)


def test_full_recovery_round_trip_with_noise():
    noisy = generate_synthetic(DEFAULT_PARAMS, TRUE_SCHEDULE, SEED_STATE, SAMPLE_TIMES,
                               0.02, seed=2, relative=True, cfg=CFG)
    fit = fit_beta_segments(noisy, DEFAULT_PARAMS, 7.0, SEED_STATE, NelderMeadConfig(), CFG)
    for got, want in zip(fit.beta_segments.values, TRUE_SCHEDULE.values):
        assert abs(got - want) / want < 0.15
    assert fit.r_squared >= 0.95
