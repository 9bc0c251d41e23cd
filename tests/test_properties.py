"""Property tests: threshold classification and schedule/chained-run equality."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import sample_params
from seirv.analysis import classify_region, region_map, separatrix_c2
from seirv.model import BetaSchedule, IntegratorConfig, State, DEFAULT_PARAMS, integrate

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
