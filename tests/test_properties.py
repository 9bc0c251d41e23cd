"""Property tests: threshold classification and the agreement of every
rc-versus-1 verdict at the threshold, schedule/chained-run equality,
float coercion of the value types and of the hot loops' inputs, population
conservation, nonnegative counts or a named failure from every run, the
same failure from a scored run as from a whole one, the optimizer's early
rejection, the control-cost floor and the bounds of J
a scored run puts to its test, the CSV writer's cell format, and the CLI's
exit codes under extreme flag values."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import CLI_RUN_FLAGS, at, optimizer_score, sample_params, score_of
from seirv.analysis import classify_region, region_map, separatrix_c2
from seirv import cli, control
from seirv.cli import _chunked_rows, _write_csv
from seirv.control import CostParams, SAConfig, _hybrid_minimize, cost, gradient, hybrid_optimize
from seirv.equilibria import (
    bifurcation_scan,
    compute_endemic,
    compute_mfe,
    critical_beta,
    mfe_spectrum,
    threshold_sides,
)
from seirv.model import (
    BetaSchedule,
    ControlSchedule,
    IntegrationDivergedError,
    IntegratorConfig,
    ModelParams,
    State,
    DEFAULT_PARAMS,
    integrate,
    population_closed_form,
)

SMALL = settings(max_examples=30, deadline=None)


@SMALL
@given(seed=st.integers(0, 2**32 - 1), resolution=st.integers(2, 12))
def test_region_map_agrees_with_pointwise_rules(seed, resolution):
    p = sample_params(np.random.default_rng(seed))
    rmap = region_map(p, resolution)
    for i, c1 in enumerate(rmap.c1_grid):
        assert rmap.separatrix[i] == separatrix_c2(p, float(c1))
        for j, c2 in enumerate(rmap.c2_grid):
            label = "growth" if rmap.growth[i, j] else "extinction"
            assert classify_region(p, float(c1), float(c2)) == label


def _verdicts_at_005(q):
    """Each rc-versus-1 verdict at q, whose controls are (0.05, 0.05): cell
    (1, 1) of a 21-point region map, and the first point of a scan from q.beta."""
    assert (q.c1, q.c2) == (0.05, 0.05)
    rmap = region_map(q, 21)
    assert (rmap.c1_grid[1], rmap.c2_grid[1]) == (0.05, 0.05)
    branch = bifurcation_scan(q, (q.beta, 2.0 * q.beta), 2)
    assert branch.beta_grid[0] == q.beta
    return compute_endemic(q), mfe_spectrum(q), {
        "classify_region": classify_region(q, 0.05, 0.05) == "growth",
        "region_map": bool(rmap.growth[1, 1]),
    }, branch


@pytest.mark.parametrize("nudge", [1e-13, -1e-13])
def test_threshold_verdicts_agree_next_to_the_threshold(nudge):
    # the region rules once sent rc within 1e-12 of 1 to extinction while
    # compute_endemic and mfe_spectrum compared exactly
    base = DEFAULT_PARAMS.with_controls(0.05, 0.05)
    q = replace(base, beta=critical_beta(base) * (1.0 + nudge))
    point, spectrum, growth, branch = _verdicts_at_005(q)
    above = nudge > 0.0
    assert (point is not None) == above
    assert (not spectrum.stable) == above
    assert growth == {"classify_region": above, "region_map": above}
    assert (branch.ie_values[0] > 0.0) == above
    if not above:
        assert branch.stability_flags[0] == "stable"


@SMALL
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-50, 50))
def test_threshold_verdicts_follow_the_sides_at_the_threshold(seed, k):
    # gain > loss means rc > 1 and gain < loss means rc < 1; a tie is neither
    base = sample_params(np.random.default_rng(seed)).with_controls(0.05, 0.05)
    q = replace(base, beta=critical_beta(base) * (1.0 + k * 1e-15))
    gain, loss = threshold_sides(q, compute_mfe(q).s0, q.c2)
    point, spectrum, growth, branch = _verdicts_at_005(q)
    assert (point is not None) == (gain > loss)
    assert spectrum.stable == (gain < loss)
    assert growth == {"classify_region": gain > loss, "region_map": gain > loss}
    # the scan's first point is q itself, so it finds the same endemic point
    assert branch.ie_values[0] == (0.0 if point is None else point.ie)
    if point is None:
        assert branch.stability_flags[0] == ("stable" if gain < loss else "marginal")


@SMALL
@given(
    segments=st.lists(
        st.tuples(st.integers(1, 40), st.floats(1e-10, 6e-9)), min_size=1, max_size=4
    )
)
def test_scheduled_run_equals_chained_constant_beta_runs(segments):
    cfg = IntegratorConfig(dt=0.1)
    init = State(1e9, 0.0, 1.0, 0.0, 0.0)
    steps = [n for n, _ in segments]
    cuts = np.cumsum(steps)
    sched = BetaSchedule(tuple(float(k) * cfg.dt for k in cuts[:-1]),
                         tuple(beta for _, beta in segments))
    whole = integrate(DEFAULT_PARAMS, init, float(cuts[-1]) * cfg.dt, cfg,
                      beta_schedule=sched)

    state, k0 = init, 0
    for n, beta in segments:
        piece = integrate(replace(DEFAULT_PARAMS, beta=beta), state, n * cfg.dt, cfg)
        assert np.array_equal(piece.states, whole.states[k0:k0 + n + 1])
        state, k0 = piece.final_state(), k0 + n


@SMALL
@given(
    seed=st.integers(0, 2**32 - 1),
    onset=st.floats(0.0, 20.0),
    after=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_float64_inputs_are_stored_as_floats_and_integrate_identically(seed, onset, after):
    p = sample_params(np.random.default_rng(seed), decades=0.5)
    p64 = ModelParams(**{name: np.float64(v) for name, v in asdict(p).items()})
    sched64 = ControlSchedule(np.float64(onset), (np.float64(0.0), np.float64(0.0)),
                              tuple(np.float64(c) for c in after))
    assert all(type(getattr(p64, f.name)) is float for f in fields(p64))
    assert type(sched64.onset) is float
    assert all(type(c) is float for c in sched64.before + sched64.after)

    # numpy scalars forced past the constructor round exactly like floats
    leaky = copy.copy(p)
    for f in fields(leaky):
        object.__setattr__(leaky, f.name, np.float64(getattr(leaky, f.name)))
    cfg = IntegratorConfig(dt=0.1)
    cfg64 = IntegratorConfig(dt=np.float64(0.1))
    assert type(cfg64.dt) is float
    init = State(1e9, 0.0, 1.0, 0.0, 0.0)
    init64 = State(*(np.float64(x) for x in init.as_tuple()))  # as final_state() returns
    ref = integrate(p, init, 20.0, cfg,
                    control_schedule=ControlSchedule(onset, (0.0, 0.0), after))
    for q, start, c in ((p64, init, cfg), (leaky, init, cfg), (leaky, init64, cfg64)):
        run = integrate(q, start, 20.0, c, control_schedule=sched64)
        assert run.states.tobytes() == ref.states.tobytes()


@SMALL
@given(
    segments=st.lists(
        st.tuples(st.integers(1, 300), st.floats(0.0, 1e-8)), min_size=1, max_size=4
    ),
    onset_step=st.integers(0, 1200),
    before=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    after=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    i0=st.floats(1.0, 1e6),
)
def test_population_matches_closed_form_under_random_schedules(
    segments, onset_step, before, after, i0
):
    cfg = IntegratorConfig(dt=0.1)
    init = State(1e9, 0.0, i0, 0.0, 0.0)
    cuts = np.cumsum([n for n, _ in segments])
    beta_schedule = BetaSchedule(tuple(float(k) * cfg.dt for k in cuts[:-1]),
                                 tuple(beta for _, beta in segments))
    control_schedule = ControlSchedule(onset_step * cfg.dt, before, after)
    traj = integrate(DEFAULT_PARAMS, init, float(cuts[-1]) * cfg.dt, cfg,
                     beta_schedule=beta_schedule, control_schedule=control_schedule)
    exact = population_closed_form(DEFAULT_PARAMS, init.total, traj.times)
    assert float(np.max(np.abs(traj.n - exact))) / init.total < 1e-8


K1, K2 = 0.2, 0.3
controls = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))


def _floor_runs(seed, accept_rule, t0, start, sign):
    """The driver on a synthetic cost, without and with its floor: (plain, pruned)
    runs and the (kind, point) events each made. The gradient is sign * (K1, K2),
    so sign -1 points uphill in K1 c1 + K2 c2 and backtracking meets the floor."""
    events = []

    # A synthetic cost summed like control.cost: (k0 * T + k1 c1) + k2 c2, T >= 0.
    def cost_fn(c):
        events.append(("cost", c))
        j = 0.05 * (math.sin(7.0 * c[0]) * math.cos(5.0 * c[1])) ** 2 + K1 * c[0] + K2 * c[1]
        return j, lambda: (sign * K1, sign * K2)

    def floor_fn(c):
        events.append(("floor", c))
        return K1 * c[0] + K2 * c[1]

    sa = SAConfig(t0=t0, n_cool=4, n_perturb=6, max_outer=3,
                  rng_seed=seed, accept_rule=accept_rule)
    plain = _hybrid_minimize(score_of(cost_fn), start, sa)
    plain_events = events[:]
    events.clear()
    pruned = _hybrid_minimize(score_of(cost_fn, floor_fn), start, sa)
    return plain, pruned, plain_events, events


@SMALL
@given(
    seed=st.integers(0, 2**31 - 1),
    accept_rule=st.sampled_from(["scaled", "classical"]),
    t0=st.floats(1e-3, 0.5),
    start=controls,
    sign=st.sampled_from([1.0, -1.0]),
)
def test_early_rejection_changes_no_run(seed, accept_rule, t0, start, sign):
    plain, pruned, plain_events, events = _floor_runs(seed, accept_rule, t0, start, sign)
    assert pruned == plain
    # a floor not followed by scoring the same point is a skipped cost_fn call
    skipped = sum(1 for k, (kind, c) in enumerate(events)
                  if kind == "floor" and events[k + 1:k + 2] != [("cost", c)])
    calls = sum(1 for kind, _ in events if kind == "cost")
    assert calls == len(plain_events) - skipped


@SMALL
@given(
    beta=st.floats(1e-9, 8e-9),
    weights=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    start=controls,
    seed=st.integers(0, 2**31 - 1),
    accept_rule=st.sampled_from(["scaled", "classical"]),
)
def test_refusal_part_way_through_a_run_changes_no_run(beta, weights, start, seed, accept_rule):
    # hybrid_optimize refuses a candidate at its control cost or part-way
    # through its run; the reference applies the same floor, then integrates
    # every candidate in full
    p = replace(DEFAULT_PARAMS, beta=beta)
    init = State(1e9, 0.0, 1.0, 0.0, 0.0)
    cfg = IntegratorConfig(dt=0.5)
    cp = CostParams.for_run(p, init, 1.0, *weights, 200.0)
    sa = SAConfig(n_cool=3, n_perturb=4, max_outer=2, rng_seed=seed, accept_rule=accept_rule)

    def cost_fn(c):
        pc = p.with_controls(*c)
        forward = integrate(pc, init, cp.horizon, cfg)
        return cost(pc, cp, forward), lambda: gradient(pc, cp, forward)

    reference = _hybrid_minimize(score_of(cost_fn, lambda c: cp.k1 * c[0] + cp.k2 * c[1]),
                                 start, sa)
    run = hybrid_optimize(p, cp, start, sa, init, cfg)
    assert (run.history, run.optimum, run.j_star) == (
        reference.history, reference.optimum, reference.j_star)


@SMALL
@given(beta=st.floats(1e-9, 8e-9), weights=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
       c=controls, i0=st.floats(0.0, 1e6))
def test_bounds_a_scored_run_puts_to_its_test_never_exceed_j(beta, weights, c, i0):
    p = replace(DEFAULT_PARAMS, beta=beta)
    init = State(1e9, 0.0, i0, 0.0, 0.0)
    cp = CostParams.for_run(p, init, 1.0, *weights, 200.0)
    score = optimizer_score(p, cp, init, IntegratorConfig(dt=0.5))
    bounds = []
    j, _ = score(c, lambda bound: bounds.append(bound) or True)
    assert len(bounds) == control._CHUNKS  # the control cost, then one per chunk but the last
    assert bounds[0] == cp.k1 * c[0] + cp.k2 * c[1]
    assert max(bounds) <= j


def test_gradient_phase_skips_candidates_its_floor_rules_out():
    # At c1 = 0 the synthetic J equals its floor, so every uphill candidate's
    # floor already exceeds J: the plain run scores the first one, the run
    # with the floor skips it. The start's floor meets a test that always passes.
    start = (0.0, 0.3)
    plain, pruned, plain_events, events = _floor_runs(1, "scaled", 0.02, start, -1.0)
    assert pruned == plain
    first = (0.0 + 0.05 * K1, 0.3 + 0.05 * K2)  # start - step_eta * gradient, inside the box
    assert plain_events[:2] == [("cost", start), ("cost", first)]
    assert events[:3] == [("floor", start), ("cost", start), ("floor", first)]
    assert events[3] != ("cost", first)


@SMALL
@given(c=controls, i0=st.floats(0.0, 1e6), horizon=st.floats(1.0, 200.0))
def test_cost_never_falls_below_control_cost(c, i0, horizon):
    init = State(1e9, 0.0, i0, 0.0, 0.0)
    cp = CostParams.for_run(DEFAULT_PARAMS, init, m0=1.0, k1=K1, k2=K2, horizon=horizon)
    j = cost(*at(c, cp, init, IntegratorConfig(dt=0.5)))
    assert j >= K1 * c[0] + K2 * c[1]


@SMALL
@given(seed=st.integers(0, 2**32 - 1), c=controls, dt=st.floats(0.05, 3.0),
       n_steps=st.integers(1, 200), i0=st.floats(0.0, 1e6))
def test_integrate_writes_only_valid_counts_or_names_the_bad_one(seed, c, dt, n_steps, i0):
    p = sample_params(np.random.default_rng(seed)).with_controls(*c)
    init = State(1e9, 0.0, i0, 0.0, 0.0)
    try:
        states = integrate(p, init, n_steps * dt, IntegratorConfig(dt=dt)).states
    except IntegrationDivergedError as err:
        # "<name> = <value> at t = ...": a negative or non-finite count, or an overflowed total
        value = float(str(err).split(" at t = ")[0].split(" = ")[1])
        assert not 0.0 <= value < 1e308, str(err)
    else:
        assert np.all(np.isfinite(states)) and states.min() >= 0.0


@SMALL
@given(beta=st.floats(2e-8, 8e-8), c=controls, dt=st.floats(1.5, 3.0), share=st.floats(0.1, 1.0))
def test_a_scored_run_names_a_divergence_as_the_whole_run_does(beta, c, dt, share):
    # a run that diverges at step k, over k / share steps: the optimizer runs
    # it in chunks, and k falls in any of them as share varies
    p = replace(DEFAULT_PARAMS, beta=beta)
    init = State(1e9, 0.0, 1.0, 0.0, 0.0)
    cfg = IntegratorConfig(dt=dt)
    try:
        integrate(p.with_controls(*c), init, 200 * dt, cfg)
    except IntegrationDivergedError as err:
        k = err.step
    else:
        assume(False)  # no divergence within 200 steps
    horizon = math.ceil(k / share) * dt
    with pytest.raises(IntegrationDivergedError) as whole:  # at step k again
        integrate(p.with_controls(*c), init, horizon, cfg)
    cp = CostParams.for_run(p, init, 1.0, K1, K2, horizon)
    with pytest.raises(IntegrationDivergedError) as scored:
        optimizer_score(p, cp, init, cfg)(c, lambda j: True)
    assert (str(scored.value), scored.value.step, scored.value.time, scored.value.counts) == (
        str(whole.value), whole.value.step, whole.value.time, whole.value.counts)


float_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
other_cells = st.one_of(st.text(max_size=8), st.integers(-10**6, 10**6))


def _old_csv_line(row) -> str:
    return ",".join(format(float(x), ".17g") if isinstance(x, (float, np.floating)) else str(x)
                    for x in row) + "\n"


@SMALL
@given(data=st.data(), kinds=st.lists(st.booleans(), min_size=1, max_size=5),
       n_rows=st.integers(0, 12))
def test_csv_writer_matches_per_cell_format(data, kinds, n_rows):
    # each column holds floats (float or np.float64) or other cells (str, int)
    rows = [tuple(data.draw(float_cells if is_float else other_cells) for is_float in kinds)
            for _ in range(n_rows)]
    header = [f"col{k}" for k in range(len(kinds))]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_csv(None, header, rows)
    assert buf.getvalue() == ",".join(header) + "\n" + "".join(map(_old_csv_line, rows))


@SMALL
@given(n=st.integers(0, 30), chunk=st.integers(1, 8))
def test_chunked_rows_equal_whole_columns(n, chunk):
    columns = [np.arange(n, dtype=float) * 0.1, np.linspace(-1.0, 1.0, n)]
    assert list(_chunked_rows(columns, chunk)) == list(zip(*(c.tolist() for c in columns)))


STRESS_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "1e-300", "", "x")
#: Flags besides the run flags (conftest.CLI_RUN_FLAGS) that each command takes.
COMMAND_FLAGS = {
    "simulate": (),
    "equilibria": (),
    "sensitivity": (),
    "region": ("--resolution",),
    "characteristics": (),
    "optimize": ("--m0", "--k1", "--k2", "--start-c1", "--start-c2", "--t0-temp", "--cooling",
                 "--n-cool", "--n-perturb", "--eps-k", "--delta-k", "--step-eta",
                 "--max-outer", "--accept-rule"),
    "calibrate": ("--kind", "--segment-length", "--nm-max-iter"),
    "avert": ("--onset-grid",),
}
#: Commands whose --out file is JSON.
JSON_COMMANDS = ("equilibria", "characteristics", "optimize", "calibrate", "avert")
SHORT_RUN = ("--horizon", "4", "--dt", "0.5")
#: Small runs: eight steps, a short optimizer, a coarse region grid.
STRESS_BASE = {
    "simulate": SHORT_RUN,
    "characteristics": SHORT_RUN,
    "optimize": (*SHORT_RUN, "--n-cool", "2", "--n-perturb", "2", "--max-outer", "2"),
    "calibrate": ("--dt", "0.5"),
    "region": ("--resolution", "11"),
    "avert": (*SHORT_RUN, "--onset-grid", "0,2,4"),
}


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cli_exits_cleanly_on_extreme_flag_values(data):
    command = data.draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flag = data.draw(st.sampled_from(CLI_RUN_FLAGS[command] + COMMAND_FLAGS[command]))
    value = data.draw(st.sampled_from(STRESS_VALUES))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        series = Path(tmp) / "series.csv"
        series.write_text("time,count\n0,1\n1,5\n2,20\n3,60\n", encoding="utf-8")
        # the drawn flag comes last, so it overrides the small-run defaults
        out = Path(tmp) / "out"
        argv = [command, *STRESS_BASE.get(command, ()),
                *(("--data", str(series)) if command == "calibrate" else ()),
                "--out", str(out), f"{flag}={value}"]
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the value itself
                code = exc.code
        if code == 0 and command in JSON_COMMANDS:  # NaN, Infinity or inf is no JSON
            json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert code in (0, 2, 3)
    if code:
        assert any(line.startswith(f"seirv {command}: ") for line in err.getvalue().splitlines())
