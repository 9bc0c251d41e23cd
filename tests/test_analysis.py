"""Sensitivity indices, region maps, characteristics and sweep tests."""

from dataclasses import replace

import numpy as np
import pytest

from seirv import analysis
from seirv.analysis import (
    SENSITIVITY_PARAMETERS,
    characteristics,
    classify_region,
    region_map,
    sensitivity_indices,
    separatrix_c2,
    sweep_beta,
    sweep_control,
)
from seirv.equilibria import compute_mfe, compute_rc
from seirv.model import (
    IntegratorConfig,
    ModelParams,
    State,
    DEFAULT_PARAMS,
    Trajectory,
    integrate,
)

#: Reference elasticities of the propagation threshold at c1 = c2 = 0.1,
#: in SENSITIVITY_PARAMETERS order.
REFERENCE_INDICES = (0.2277, 0.2186, -0.2396, -0.4983, 0.5, -0.2495, -0.1469)


def test_sensitivity_reproduces_reference_table():
    indices = sensitivity_indices(DEFAULT_PARAMS.with_controls(0.1, 0.1))
    assert tuple(ix.parameter for ix in indices) == SENSITIVITY_PARAMETERS
    for ix, expected in zip(indices, REFERENCE_INDICES):
        assert abs(ix.value - expected) < 5e-4, ix.parameter


def test_sensitivity_beta_index_is_half():
    indices = sensitivity_indices(DEFAULT_PARAMS.with_controls(0.1, 0.1))
    beta_ix = next(ix.value for ix in indices if ix.parameter == "beta")
    assert abs(beta_ix - 0.5) < 1e-9


def test_sensitivity_elasticities_are_scale_free():
    p = DEFAULT_PARAMS.with_controls(0.1, 0.1)
    base = sensitivity_indices(p)
    doubled = sensitivity_indices(replace(p, lam=2.0 * p.lam))
    for a, b in zip(base, doubled):
        assert b.value == pytest.approx(a.value, abs=1e-9)
    # scaling beta multiplies rc by a constant; every elasticity is unchanged
    scaled = sensitivity_indices(replace(p, beta=4.0 * p.beta))
    for a, b in zip(base, scaled):
        assert b.value == pytest.approx(a.value, abs=1e-9)


def test_sensitivity_at_a_control_on_the_top_edge():
    # rc goes like (c2 + mu)^(-1/2), so the c2 elasticity is -c2 / (2 (c2 + mu));
    # a central step at c2 = 1 would leave [0, 1], so the backward one is taken
    indices = sensitivity_indices(DEFAULT_PARAMS.with_controls(0.1, 1.0))
    c2_ix = next(ix.value for ix in indices if ix.parameter == "c2")
    mu = DEFAULT_PARAMS.mu
    assert c2_ix == pytest.approx(-1.0 / (2.0 * (1.0 + mu)), rel=1e-5)
    at_edge = sensitivity_indices(DEFAULT_PARAMS.with_controls(1.0, 0.1))
    inside = sensitivity_indices(DEFAULT_PARAMS.with_controls(1.0 - 1e-4, 0.1))
    for a, b in zip(at_edge, inside):
        assert a.value == pytest.approx(b.value, rel=1e-3), a.parameter


def test_sensitivity_rejects_zero_parameters():
    with pytest.raises(ValueError, match="c1"):
        sensitivity_indices(DEFAULT_PARAMS.with_controls(0.0, 0.1))


# ---------------------------------------------------------------- regions


def test_region_extinct_everywhere_without_transmission():
    p = replace(DEFAULT_PARAMS, beta=0.0)
    for c1 in (0.0, 0.3, 1.0):
        for c2 in (0.0, 0.5, 1.0):
            assert classify_region(p, c1, c2) == "extinction"


def test_region_boundary_at_zero_vaccination():
    p = DEFAULT_PARAMS
    # arithmetic oracle: c2* = beta * S0 * alpha / (alpha + eta2 + mu) - mu
    s0 = compute_mfe(p.with_controls(0.0, 0.0)).s0
    c2_star = p.beta * s0 * p.alpha / (p.alpha + p.eta2 + p.mu) - p.mu
    assert c2_star == pytest.approx(0.0675, abs=5e-4)
    assert separatrix_c2(p, 0.0) == pytest.approx(c2_star, rel=1e-12)
    assert classify_region(p, 0.0, c2_star - 1e-4) == "growth"
    assert classify_region(p, 0.0, c2_star + 1e-4) == "extinction"


def test_region_reference_optimum_is_extinct():
    # the optimal control pair sits on the extinction side of the separatrix
    boundary = separatrix_c2(DEFAULT_PARAMS, 0.01)
    assert boundary == pytest.approx(0.0618, abs=5e-4)
    assert boundary < 0.08
    assert classify_region(DEFAULT_PARAMS, 0.01, 0.08) == "extinction"


def test_region_ties_default_to_extinction():
    p = DEFAULT_PARAMS
    c2_star = separatrix_c2(p, 0.2)
    assert classify_region(p, 0.2, c2_star) == "extinction"


@pytest.mark.filterwarnings("error")
def test_region_refuses_an_overflowed_threshold():
    # inf against inf once compared as a tie, labelled "extinction"
    p = replace(DEFAULT_PARAMS, beta=1e308)
    with pytest.raises(ArithmeticError, match="threshold overflows"):
        classify_region(p, 0.5, 0.5)
    with pytest.raises(ArithmeticError, match="threshold overflows"):
        region_map(p, 5)


def test_region_map_growth_area_increases_with_beta():
    fractions = []
    for beta in (2e-9, 4e-9, 6e-9):
        rmap = region_map(replace(DEFAULT_PARAMS, beta=beta), 51)
        fractions.append(rmap.growth_fraction)
    assert fractions[0] < fractions[1] < fractions[2]


def test_region_map_labels_match_threshold_sign():
    p = replace(DEFAULT_PARAMS, beta=4e-9)
    rmap = region_map(p, 21)
    for i, c1 in enumerate(rmap.c1_grid):
        for j, c2 in enumerate(rmap.c2_grid):
            rc = compute_rc(p.with_controls(float(c1), float(c2))).rc
            assert rmap.growth[i, j] == (rc > 1.0 + 1e-12)


def test_region_map_separatrix_sits_on_unit_threshold():
    p = replace(DEFAULT_PARAMS, beta=4e-9)
    rmap = region_map(p, 31)
    checked = 0
    for c1, c2_star in zip(rmap.c1_grid, rmap.separatrix):
        if 0.0 <= c2_star <= 1.0:
            rc = compute_rc(p.with_controls(float(c1), float(c2_star))).rc
            assert abs(rc - 1.0) < 1e-9
            checked += 1
    assert checked > 0


def test_region_map_validation():
    with pytest.raises(ValueError):
        region_map(DEFAULT_PARAMS, 1)
    with pytest.raises(ValueError):
        classify_region(DEFAULT_PARAMS, 1.2, 0.0)


def test_region_map_refuses_a_non_integer_resolution():
    with pytest.raises(ValueError, match="resolution must be an integer"):
        region_map(DEFAULT_PARAMS, 2.5)
    assert region_map(DEFAULT_PARAMS, np.int64(3)).growth.shape == (3, 3)


def test_region_map_refuses_grids_over_the_cell_cap(monkeypatch):
    monkeypatch.setattr(analysis, "MAX_CELLS", 100)
    assert region_map(DEFAULT_PARAMS, 10).growth.shape == (10, 10)
    with pytest.raises(ValueError, match="more than 100 grid cells"):
        region_map(DEFAULT_PARAMS, 11)


# ---------------------------------------------------------------- characteristics


def _flat_trajectory(e0: float, i_values, dt: float) -> Trajectory:
    n = len(i_values)
    states = np.zeros((n, 5))
    states[:, 1] = e0
    states[:, 2] = i_values
    return Trajectory(states=states, dt=dt)


def test_characteristics_zero_infection():
    traj = _flat_trajectory(0.5, np.zeros(101), 0.1)
    ch = characteristics(traj, DEFAULT_PARAMS)
    assert ch.i_max == 0.0
    assert ch.t_m == 0.0
    assert ch.i_tot == pytest.approx(DEFAULT_PARAMS.alpha * 0.5 * 10.0, rel=1e-12)


def test_characteristics_constant_exposed_exact_quadrature():
    traj = _flat_trajectory(123.0, np.zeros(501), 0.02)
    ch = characteristics(traj, DEFAULT_PARAMS)
    assert ch.i_tot == pytest.approx(DEFAULT_PARAMS.alpha * 123.0 * 10.0, rel=1e-13)


def test_characteristics_tie_breaks_to_earliest_peak():
    i = np.array([0.0, 5.0, 5.0, 1.0])
    traj = _flat_trajectory(0.0, i, 1.0)
    ch = characteristics(traj, DEFAULT_PARAMS)
    assert ch.t_m == 1.0


def test_characteristics_peak_magnitude(default_trajectory):
    ch = characteristics(default_trajectory, DEFAULT_PARAMS)
    assert abs(ch.i_max - 8e8) <= 0.1 * 8e8
    assert 0.0 <= ch.t_m <= 2000.0


def test_characteristics_stable_under_grid_refinement(init_state):
    coarse = integrate(DEFAULT_PARAMS, init_state, 2000.0, IntegratorConfig(dt=0.1))
    fine = integrate(DEFAULT_PARAMS, init_state, 2000.0, IntegratorConfig(dt=0.05))
    ch_c = characteristics(coarse, DEFAULT_PARAMS)
    ch_f = characteristics(fine, DEFAULT_PARAMS)
    assert ch_c.i_max == pytest.approx(ch_f.i_max, rel=5e-3)
    assert ch_c.i_tot == pytest.approx(ch_f.i_tot, rel=5e-3)
    assert ch_c.t_m == pytest.approx(ch_f.t_m, rel=5e-3)


# ---------------------------------------------------------------- sweeps


def test_sweep_beta_shapes(init_state):
    grid = list(np.geomspace(1e-9, 1e-8, 6))
    chars = sweep_beta(DEFAULT_PARAMS, grid, init_state, 2000.0, IntegratorConfig(dt=0.05))
    i_max = np.array([c.i_max for c in chars])
    t_m = np.array([c.t_m for c in chars])
    i_tot = np.array([c.i_tot for c in chars])
    assert np.all(np.diff(i_max) >= -1e-9 * i_max[:-1])
    assert np.all(np.diff(t_m) <= 1e-9)
    assert np.all(np.diff(i_tot) >= -1e-9 * i_tot[:-1])


def test_sweep_beta_validation(init_state):
    with pytest.raises(ValueError):
        sweep_beta(DEFAULT_PARAMS, [2e-9, 1e-9], init_state, 10.0)
    with pytest.raises(ValueError):
        sweep_beta(DEFAULT_PARAMS, [0.0, 1e-9], init_state, 10.0)


def test_sweep_treatment_reduces_peak_at_high_beta(init_state):
    table = sweep_control(
        DEFAULT_PARAMS, "c2", [0.0, 0.05, 0.1, 0.2, 0.4], [1.2e-8], init_state, 2000.0,
        IntegratorConfig(dt=0.02),
    )
    i_max = [cell.i_max for cell in table.cells[0]]
    assert all(b < a for a, b in zip(i_max, i_max[1:]))


def test_sweep_vaccination_effectiveness_shrinks_with_beta(init_state):
    table = sweep_control(
        DEFAULT_PARAMS, "c1", [0.0, 1.0], [4e-9, 1.2e-8, 4e-8], init_state, 2000.0,
        IntegratorConfig(dt=0.02),
    )
    ratios = [row[1].i_tot / row[0].i_tot for row in table.cells]
    assert ratios[0] < ratios[1] < ratios[2]
    # at the largest transmission rate even full vaccination leaves the
    # cumulative burden within 50% of the uncontrolled run
    assert ratios[-1] >= 0.5


def test_four_intervention_scenarios(init_state):
    cfg = IntegratorConfig(dt=0.05)
    peaks = {}
    for c1, c2 in [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1)]:
        traj = integrate(DEFAULT_PARAMS.with_controls(c1, c2), init_state, 2000.0, cfg)
        peaks[(c1, c2)] = float(traj.i.max())
    assert abs(peaks[(0.0, 0.0)] - 8e8) <= 0.1 * 8e8
    assert 1e8 <= peaks[(0.1, 0.0)] < 1e9  # vaccination alone: still order 1e8
    assert 1e5 <= peaks[(0.0, 0.1)] < 1e6  # treatment alone: order 1e5
    assert peaks[(0.1, 0.1)] < 150.0  # both controls: epidemic never takes off


def test_sweep_control_validation(init_state):
    with pytest.raises(ValueError):
        sweep_control(DEFAULT_PARAMS, "c3", [0.1], [4e-9], init_state, 10.0)
    with pytest.raises(ValueError):
        sweep_control(DEFAULT_PARAMS, "c1", [1.5], [4e-9], init_state, 10.0)
