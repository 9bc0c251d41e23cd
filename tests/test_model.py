"""Core model tests: right-hand side, integrator, schedules, conservation."""

import math
import tracemalloc

import numpy as np
import pytest

from seirv import model
from seirv.analysis import characteristics
from seirv.model import (
    BetaSchedule,
    ControlSchedule,
    IntegrationDivergedError,
    IntegratorConfig,
    ModelParams,
    State,
    DEFAULT_PARAMS,
    Trajectory,
    integrate,
    population_bound,
    population_closed_form,
    rhs,
)


def test_rhs_no_infecteds_no_force():
    for beta in (0.0, 4e-9, 1e-6):
        p = ModelParams(**{**DEFAULT_PARAMS.__dict__, "beta": beta})
        _, de, di, _, _ = rhs(State(1e9, 0.0, 0.0, 0.0, 0.0), p)
        assert de == 0.0
        assert di == 0.0


def test_rhs_sum_identity_random_states():
    rng = np.random.default_rng(7)
    for _ in range(200):
        st = State(*rng.uniform(0.0, 1e9, size=5))
        c1, c2 = rng.uniform(0, 1, size=2)
        p = DEFAULT_PARAMS.with_controls(c1, c2)
        ds, de, di, dr, dv = rhs(st, p)
        total = ds + de + di + dr + dv
        expected = p.lam - p.mu * st.total
        assert abs(total - expected) <= 1e-9 * max(abs(expected), p.lam)


def test_rhs_seeded_state_term_by_term():
    # Direct arithmetic oracle, term by term, at S=1e9, I=1, controls off.
    p = DEFAULT_PARAMS
    ds, de, di, dr, dv = rhs(State(1e9, 0.0, 1.0, 0.0, 0.0), p)
    force = 4e-9 * 1e9 * 1.0  # = 4 exactly
    assert ds == pytest.approx(p.lam - force - p.eta1 * 1e9 - p.mu * 1e9, rel=1e-14)
    assert de == pytest.approx(force, rel=1e-14)
    assert di == pytest.approx(-(p.c2 + p.mu) * 1.0, rel=1e-14)
    assert dr == pytest.approx(p.eta1 * 1e9, rel=1e-14)
    assert dv == 0.0


def test_state_rejects_bad_components():
    with pytest.raises(ValueError):
        State(-1.0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        State(math.nan, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        State(math.inf, 0, 0, 0, 0)


def test_state_at_refuses_a_negative_row():
    states = np.zeros((3, 5))
    states[1, 1] = -0.25
    traj = Trajectory(states, 0.5)
    with pytest.raises(ValueError, match=r"^e must be finite and >= 0"):
        traj.state_at(1)
    assert type(traj.final_state().s) is np.float64  # valid rows keep numpy scalars


def test_params_validation():
    with pytest.raises(ValueError):
        DEFAULT_PARAMS.with_controls(1.5, 0.0)
    with pytest.raises(ValueError):
        DEFAULT_PARAMS.with_controls(0.0, -0.1)
    with pytest.raises(ValueError):
        ModelParams(**{**DEFAULT_PARAMS.__dict__, "mu": 0.0})
    with pytest.raises(ValueError):
        ModelParams(**{**DEFAULT_PARAMS.__dict__, "beta": -1e-9})


def test_total_population_examples():
    assert State(0, 0, 0, 0, 0).total == 0.0
    assert State(1e9, 0, 1, 0, 0).total == 1e9 + 1.0
    assert population_bound(DEFAULT_PARAMS, 1e9) == 1e9
    assert population_bound(DEFAULT_PARAMS, 1e8) == DEFAULT_PARAMS.lam / DEFAULT_PARAMS.mu


def test_integrate_unseeded_stays_uninfected():
    traj = integrate(DEFAULT_PARAMS, State(1e9, 0, 0, 0, 0), 50.0, IntegratorConfig(dt=0.05))
    assert np.all(traj.e == 0.0)
    assert np.all(traj.i == 0.0)


def test_population_approaches_influx_over_retirement():
    cfg = IntegratorConfig(dt=0.1)
    traj = integrate(DEFAULT_PARAMS, State(1e9, 0, 1, 0, 0), 25000.0, cfg)
    ninf = DEFAULT_PARAMS.lam / DEFAULT_PARAMS.mu
    assert traj.n[-1] == pytest.approx(ninf, rel=2e-4)


def test_controlled_run_goes_extinct(init_state):
    # rc = 0.594 < 1 at (0.1, 0.1): infection dies out.
    p = DEFAULT_PARAMS.with_controls(0.1, 0.1)
    traj = integrate(p, init_state, 2000.0, IntegratorConfig(dt=0.05))
    assert traj.i[-1] < 1e-6


def test_uncontrolled_peak_magnitude(default_trajectory):
    # Uncontrolled outbreak peaks near 8e8 devices.
    peak = float(default_trajectory.i.max())
    assert abs(peak - 8e8) <= 0.1 * 8e8


def test_conservation_oracle_many_configs(init_state):
    cfg = IntegratorConfig(dt=0.01)
    n0 = init_state.total
    cases = [
        (DEFAULT_PARAMS, None, None),
        (DEFAULT_PARAMS.with_controls(0.1, 0.1), None, None),
        (DEFAULT_PARAMS, BetaSchedule((50.0, 120.0), (4e-9, 1e-8, 2e-9)), None),
        (DEFAULT_PARAMS, None, ControlSchedule(60.0, (0.0, 0.0), (0.3, 0.4))),
    ]
    for p, bs, cs in cases:
        traj = integrate(p, init_state, 200.0, cfg, beta_schedule=bs, control_schedule=cs)
        exact = population_closed_form(p, n0, traj.times)
        assert float(np.max(np.abs(traj.n - exact))) / n0 < 1e-8
        bound = population_bound(p, n0)
        assert float(np.max(traj.n)) <= bound * (1.0 + 1e-9)


def test_fourth_order_self_convergence(init_state):
    # Richardson check on I(T) during the fast initial transient.
    vals = {}
    for dt in (0.2, 0.1, 0.05, 0.025):
        traj = integrate(DEFAULT_PARAMS, init_state, 20.0, IntegratorConfig(dt=dt))
        vals[dt] = float(traj.i[-1])
    e1 = abs(vals[0.2] - vals[0.025])
    e2 = abs(vals[0.1] - vals[0.025])
    e3 = abs(vals[0.05] - vals[0.025])
    assert e1 / e2 == pytest.approx(16.0, rel=0.35)
    assert e2 / e3 == pytest.approx(16.0, rel=0.35)


def test_fourth_order_against_population_closed_form():
    # At the default retirement rate the conservation error sits on the
    # roundoff floor (~1e-14), so the order measurement uses a fast-retiring
    # parameter set where truncation dominates.
    p = ModelParams(**{**DEFAULT_PARAMS.__dict__, "mu": 1.5})
    init = State(1e6, 0, 10.0, 0, 0)
    errs = []
    for dt in (0.2, 0.1, 0.05):
        traj = integrate(p, init, 4.0, IntegratorConfig(dt=dt))
        exact = population_closed_form(p, init.total, traj.times)
        errs.append(float(np.max(np.abs(traj.n - exact))) / init.total)
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.3)


def test_integrate_step_is_the_classical_rk4_step_of_rhs():
    # integrate spells rhs out inline at every stage. A flow sent to the
    # wrong compartment keeps N(t) and its closed form, so only a
    # compartment-by-compartment oracle catches it: the RK4 step built from rhs.
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for _ in range(200):
        st = State(*10.0 ** rng.uniform(0.0, 9.0, size=5))
        rates = dict(zip(("alpha", "eta1", "eta2", "sigma1", "sigma2", "mu", "c1", "c2"),
                         rng.uniform(1e-4, 0.5, size=8)))
        p = ModelParams(lam=rng.uniform(0.0, 1e6), beta=10.0 ** rng.uniform(-12.0, -9.5), **rates)
        dt = rng.uniform(0.01, 0.25)  # small enough that every stage state stays positive
        x = np.array(st.as_tuple())
        k1 = np.array(rhs(st, p))
        x2 = x + 0.5 * dt * k1
        k2 = np.array(rhs(State(*x2), p))
        x3 = x + 0.5 * dt * k2
        k3 = np.array(rhs(State(*x3), p))
        x4 = x + dt * k3
        k4 = np.array(rhs(State(*x4), p))
        expected = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # each derivative is a sum of terms no larger than lam, beta*S*I or
        # the largest rate times the largest stage component
        largest = max(p.lam, max(p.beta * y[0] * y[2] for y in (x, x2, x3, x4)),
                      max(rates.values()) * max(np.max(y) for y in (x, x2, x3, x4)))
        got = integrate(p, st, dt, IntegratorConfig(dt=dt)).states[1]
        tol = 4.0 * eps * (np.abs(expected) + dt * largest)  # worst of 2000 draws: 1.01 units
        assert np.all(np.abs(got - expected) <= tol), (st, p, dt, got - expected, tol)


def test_single_segment_schedule_bitwise_equal(init_state):
    cfg = IntegratorConfig(dt=0.05)
    direct = integrate(
        ModelParams(**{**DEFAULT_PARAMS.__dict__, "beta": 6e-9}), init_state, 30.0, cfg
    )
    via_schedule = integrate(
        DEFAULT_PARAMS, init_state, 30.0, cfg, beta_schedule=BetaSchedule((), (6e-9,))
    )
    assert np.array_equal(direct.states, via_schedule.states)

    controlled = integrate(DEFAULT_PARAMS.with_controls(0.2, 0.3), init_state, 30.0, cfg)
    via_onset = integrate(
        DEFAULT_PARAMS, init_state, 30.0, cfg,
        control_schedule=ControlSchedule(0.0, (0.9, 0.9), (0.2, 0.3)),
    )
    assert np.array_equal(controlled.states, via_onset.states)


def test_two_segment_schedule_matches_chained_runs(init_state):
    cfg = IntegratorConfig(dt=0.05)
    sched = BetaSchedule((10.0,), (4e-9, 1e-8))
    whole = integrate(DEFAULT_PARAMS, init_state, 20.0, cfg, beta_schedule=sched)
    first = integrate(DEFAULT_PARAMS, init_state, 10.0, cfg)
    mid = first.final_state()
    second = integrate(
        ModelParams(**{**DEFAULT_PARAMS.__dict__, "beta": 1e-8}), mid, 10.0, cfg
    )
    assert np.array_equal(whole.states[:201], first.states)
    assert np.array_equal(whole.states[200:], second.states)


def test_breakpoints_snap_to_grid(init_state):
    cfg = IntegratorConfig(dt=0.1)
    on_grid = integrate(
        DEFAULT_PARAMS, init_state, 20.0, cfg, beta_schedule=BetaSchedule((10.0,), (4e-9, 1e-8))
    )
    off_grid = integrate(
        DEFAULT_PARAMS, init_state, 20.0, cfg, beta_schedule=BetaSchedule((10.04,), (4e-9, 1e-8))
    )
    assert np.array_equal(on_grid.states, off_grid.states)


def test_beta_schedule_rejects_nonfinite_breakpoints():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            BetaSchedule((bad,), (1e-9, 2e-9))


def test_breakpoints_snapping_to_one_grid_index_rejected(init_state):
    # At dt 0.5 both breakpoints snap to index 2, which would drop the middle segment.
    cfg = IntegratorConfig(dt=0.5)
    sched = BetaSchedule((1.0, 1.1), (4e-9, 1.0, 5e-9))
    with pytest.raises(ValueError, match="grid step"):
        integrate(DEFAULT_PARAMS, init_state, 10.0, cfg, beta_schedule=sched)
    # A collision past the end of the run drops nothing and is accepted.
    late = BetaSchedule((20.0, 20.1), (4e-9, 1.0, 5e-9))
    direct = integrate(DEFAULT_PARAMS, init_state, 10.0, cfg)
    assert np.array_equal(integrate(DEFAULT_PARAMS, init_state, 10.0, cfg,
                                    beta_schedule=late).states, direct.states)


def test_positivity(init_state):
    p = DEFAULT_PARAMS.with_controls(0.1, 0.1)
    traj = integrate(p, init_state, 500.0, IntegratorConfig(dt=0.05))
    assert float(traj.states.min()) >= 0.0


def test_a_step_that_undershoots_zero_raises():
    # full controls drain E below zero in the first step of 2.0
    p = DEFAULT_PARAMS.with_controls(1.0, 1.0)
    with pytest.raises(IntegrationDivergedError,
                       match=r"^E = -0\.736\d* at t = 2 \(step 1\): dt = 2 is too large") as exc_info:
        integrate(p, State(1e9, 1.0, 0.0, 1.0, 0.0), 50.0, IntegratorConfig(dt=2.0))
    assert exc_info.value.step == 1 and exc_info.value.time == 2.0


def test_divergence_reports_first_bad_step():
    # S goes negative in step 1, one step before the state stops being finite
    p = ModelParams(**{**DEFAULT_PARAMS.__dict__, "beta": 1.0})
    with pytest.raises(IntegrationDivergedError, match=r"^S = -1\.6\d*e\+59 at t = 0\.1 ") as exc_info:
        integrate(p, State(1e9, 0, 1e9, 0, 0), 10.0, IntegratorConfig(dt=0.1))
    err = exc_info.value
    assert err.step == 1
    assert err.time == 0.1


@pytest.mark.parametrize("counts, named", [
    ((1.0, math.nan, -1.0, 0.0, 0.0), "E = nan"),
    ((1.0, 0.0, -math.inf, 0.0, 0.0), "I = -inf"),
    ((1e308, 0.0, 0.0, 1e308, 0.0), "N = inf"),
    ((math.inf, 0.0, 0.0, 0.0, 0.0), "N = inf"),
])
def test_divergence_names_the_first_bad_compartment_or_the_total(counts, named):
    err = IntegrationDivergedError(3, 0.5, counts)
    assert str(err) == f"{named} at t = 1.5 (step 3): dt = 0.5 is too large for these rates"


@pytest.mark.parametrize("y, weight, message", [
    (np.full(3, 1e300), 1e10, "inf"),  # the integral is finite, the weighted total is not
    (np.array([1.0, 1e308, 1e308, 1.0]), 0.0, "inf"),  # checked unweighted: 0 * inf is no nan
    (np.array([0.1, 0.7, 0.3, 1.9]), 1.0 / 3.0, None),
], ids=["weighted-overflow", "overflow-at-weight-0", "finite"])
def test_trapezoid_weights_a_finite_integral_and_refuses_any_other(y, weight, message):
    dt = 0.05
    if message is None:
        expected = weight * (dt * (float(np.sum(y)) - 0.5 * (float(y[0]) + float(y[-1]))))
        assert model.trapezoid(y, dt, weight).hex() == expected.hex()
    else:
        with pytest.raises(OverflowError, match=rf"^time integral overflows: trapezoid total is {message}$"):
            model.trapezoid(y, dt, weight)


def test_integrate_validation(init_state):
    with pytest.raises(ValueError):
        integrate(DEFAULT_PARAMS, init_state, 0.0)
    with pytest.raises(ValueError):
        integrate(DEFAULT_PARAMS, init_state, -5.0)
    with pytest.raises(ValueError, match="shorter than one step"):
        integrate(DEFAULT_PARAMS, init_state, 0.2, IntegratorConfig(dt=0.5))
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        BetaSchedule((5.0, 5.0), (1e-9, 2e-9, 3e-9))
    with pytest.raises(ValueError):
        BetaSchedule((5.0,), (1e-9,))
    with pytest.raises(ValueError):
        ControlSchedule(10.0, (0.0, 0.0), (1.2, 0.0))
    with pytest.raises(ValueError, match="onset must be finite and >= 0"):
        ControlSchedule(-1.0, (0.0, 0.0), (0.1, 0.1))


def test_integrate_refuses_plans_over_the_step_cap(init_state, monkeypatch):
    # a lowered cap shows the refusal without ever planning a huge run
    monkeypatch.setattr(model, "MAX_STEPS", 100)
    cfg = IntegratorConfig(dt=0.5)
    assert len(integrate(DEFAULT_PARAMS, init_state, 50.0, cfg).times) == 101
    with pytest.raises(ValueError, match="more than 100 steps"):
        integrate(DEFAULT_PARAMS, init_state, 50.5, cfg)


def test_integrate_allocates_little_beyond_the_arrays_it_returns():
    # the steps are written into states itself: no per-column scratch arrays to copy
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        traj = integrate(DEFAULT_PARAMS, State(1e9, 0, 1, 0, 0), 2000.0, IntegratorConfig(dt=0.1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 1.1 * traj.states.nbytes


def test_trajectory_grid_structure(init_state):
    traj = integrate(DEFAULT_PARAMS, init_state, 5.0, IntegratorConfig(dt=0.5))
    assert Trajectory._fields == ("states", "dt")
    assert traj.times[0] == 0.0
    assert len(traj.times) == len(traj.states) == 11
    assert np.allclose(np.diff(traj.times), 0.5)
    st = traj.state_at(0)
    assert st.as_tuple() == init_state.as_tuple()
    # the grid is derived from states and dt alone, to the bit
    n, dt = 20001, 0.1
    states = np.zeros((n, 5))
    k = 19876
    states[k, 2] = 1.0
    built = Trajectory(states, dt)
    assert built.times.tobytes() == (np.arange(n, dtype=float) * dt).tobytes()
    assert characteristics(built, DEFAULT_PARAMS).t_m == float(built.times[k])
