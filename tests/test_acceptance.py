"""Acceptance suite: one test per criterion, each at its stated tolerance.

A PASS/FAIL line per criterion is printed in the terminal summary (see
conftest). The heavy global-optimization criterion runs four full searches
and dominates the suite's runtime.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import sample_params
from seirv.analysis import (
    characteristics,
    classify_region,
    region_map,
    sensitivity_indices,
    sweep_beta,
)
from seirv.calibration import (
    NelderMeadConfig,
    averted_cases,
    fit_beta_segments,
    generate_synthetic,
)
from seirv.control import CostParams, SAConfig, cost, gradient, hybrid_optimize
from seirv.equilibria import (
    compute_endemic,
    compute_mfe,
    compute_rc,
    critical_beta,
    bifurcation_scan,
    endemic_stability,
)
from seirv.model import (
    BetaSchedule,
    IntegratorConfig,
    ModelParams,
    State,
    DEFAULT_PARAMS,
    integrate,
    population_closed_form,
    rhs,
)

INIT = State(1e9, 0.0, 1.0, 0.0, 0.0)


def at(c, cp, init, cfg):
    """The arguments (p, cp, forward) of cost and gradient at the controls c."""
    p = DEFAULT_PARAMS.with_controls(*c)
    return p, cp, integrate(p, init, cp.horizon, cfg)


def test_criterion_01_population_conservation():
    """N(t) tracks the closed form within 1e-8 on the default run, in < 5 s."""
    start = time.perf_counter()
    traj = integrate(DEFAULT_PARAMS, INIT, 2000.0, IntegratorConfig(dt=0.01))
    elapsed = time.perf_counter() - start
    exact = population_closed_form(DEFAULT_PARAMS, INIT.total, traj.times)
    deviation = float(np.max(np.abs(traj.n - exact))) / INIT.total
    print(f"[criterion 1] max relative deviation {deviation:.3e}, runtime {elapsed:.2f}s")
    assert deviation < 1e-8
    assert elapsed < 5.0


def test_criterion_02_sensitivity_table_reproduction():
    """All seven threshold elasticities at c1 = c2 = 0.1 within 5e-4."""
    expected = {
        "sigma1": 0.2277, "sigma2": 0.2186, "c1": -0.2396, "c2": -0.4983,
        "beta": 0.5, "eta1": -0.2495, "eta2": -0.1469,
    }
    indices = {ix.parameter: ix.value for ix in
               sensitivity_indices(DEFAULT_PARAMS.with_controls(0.1, 0.1))}
    worst = max(abs(indices[k] - v) for k, v in expected.items())
    print(f"[criterion 2] worst index deviation {worst:.2e}")
    for name, value in expected.items():
        assert abs(indices[name] - value) <= 5e-4, name


def test_criterion_03_threshold_consistency(default_trajectory):
    """rc values at the two reference control settings, with matching dynamics."""
    rc_controlled = compute_rc(DEFAULT_PARAMS.with_controls(0.1, 0.1)).rc
    rc_uncontrolled = compute_rc(DEFAULT_PARAMS).rc
    assert abs(rc_controlled - 0.5937) <= 1e-3
    assert abs(rc_uncontrolled - 13.0) <= 0.1

    controlled = integrate(DEFAULT_PARAMS.with_controls(0.1, 0.1), INIT, 2000.0,
                           IntegratorConfig(dt=0.05))
    terminal_i = float(controlled.i[-1])
    peak = float(default_trajectory.i.max())
    print(f"[criterion 3] rc {rc_controlled:.4f}/{rc_uncontrolled:.2f}, "
          f"terminal I {terminal_i:.2e}, peak {peak:.3e}")
    assert terminal_i < 1.0
    assert abs(peak - 8e8) <= 0.1 * 8e8


def test_criterion_04_equilibrium_residuals():
    """|rhs| at both equilibria < 1e-9 relative over 1000 random draws."""
    rng = np.random.default_rng(101)
    worst = 0.0
    endemic_seen = 0
    for _ in range(1000):
        p = sample_params(rng)
        mfe = compute_mfe(p)
        st = State(*mfe.as_state_tuple())
        scale = p.lam + p.mu * st.total
        worst = max(worst, max(abs(x) for x in rhs(st, p)) / scale)
        point = compute_endemic(p)
        if point is not None:
            endemic_seen += 1
            st_e = State(*point.as_state_tuple())
            scale_e = p.lam + p.mu * st_e.total
            worst = max(worst, max(abs(x) for x in rhs(st_e, p)) / scale_e)
    print(f"[criterion 4] worst relative residual {worst:.3e} "
          f"({endemic_seen} endemic draws)")
    assert worst < 1e-9
    assert endemic_seen >= 100


def test_criterion_05a_stability_cross_check():
    """Routh-Hurwitz verdict matches eigenvalue signs on 500 endemic draws."""
    rng = np.random.default_rng(103)
    agreements = 0
    attempts = 0
    while agreements < 500 and attempts < 30000:
        attempts += 1
        p = sample_params(rng)
        if compute_rc(p).rc_squared <= 1.0:
            continue
        report = endemic_stability(p)
        if report.marginal:  # |Re lambda| < 1e-10 excluded from the count
            continue
        eig_stable = all(z.real < 0.0 for z in report.eigenvalues)
        assert report.stable == eig_stable, f"verdict disagreement at {p}"
        agreements += 1
    print(f"[criterion 5a] {agreements} samples, 100% agreement")
    assert agreements == 500


def test_criterion_05b_reference_point_reported_stable():
    """Endemic point at c1 = c2 = 0.05 reported stable.

    This check cannot pass against the model's own closed forms: at these
    parameter values rc = 0.9609 < 1, so no endemic equilibrium exists and
    the stability report is refused. The assertion is kept as stated rather
    than weakened; the failure is expected and documented.
    """
    p = DEFAULT_PARAMS.with_controls(0.05, 0.05)
    rc = compute_rc(p).rc
    print(f"[criterion 5b] rc(0.05, 0.05) = {rc:.6f} "
          f"(endemic point {'exists' if rc > 1 else 'does not exist'})")
    report = endemic_stability(p)  # raises NoEndemicPointError when rc <= 1
    assert report.stable


def test_criterion_06_adjoint_gradient_accuracy():
    """Adjoint gradient within 1e-3 of central differences at 10 points, < 30 s."""
    cfg = IntegratorConfig(dt=0.05)
    cp = CostParams.for_run(DEFAULT_PARAMS, INIT, m0=1.0, k1=0.2, k2=0.3, horizon=2000.0)
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        c = tuple(rng.uniform(0.01, 0.5, size=2))
        g = gradient(*at(c, cp, INIT, cfg))
        h = 1e-4
        for idx, (gi, ci) in enumerate(zip((g.g1, g.g2), c)):
            up, dn = list(c), list(c)
            up[idx] = ci * (1 + h)
            dn[idx] = ci * (1 - h)
            fd = (cost(*at(tuple(up), cp, INIT, cfg))
                  - cost(*at(tuple(dn), cp, INIT, cfg))) / (2 * ci * h)
            rel = abs(gi - fd) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    print(f"[criterion 6] worst relative error {worst:.2e}, runtime {elapsed:.1f}s")
    assert worst < 1e-3
    assert elapsed < 30.0


@pytest.mark.slow
def test_criterion_07_global_optimum_reproduction():
    """Four starts agree pairwise within 0.01 and land at the reference optimum."""
    cfg = IntegratorConfig(dt=0.05)
    cp = CostParams.for_run(DEFAULT_PARAMS, INIT, m0=1.0, k1=0.2, k2=0.3, horizon=2000.0)
    starts = [(0.1, 0.35), (0.25, 0.2), (0.35, 0.1), (0.1, 0.1)]
    optima = []
    for k, start_point in enumerate(starts):
        sa = SAConfig(t0=0.02, cooling=0.9, n_cool=8, n_perturb=6,
                      rng_seed=42 + k, max_outer=12)
        t0 = time.perf_counter()
        run = hybrid_optimize(DEFAULT_PARAMS, cp, start_point, sa, INIT, cfg)
        elapsed = time.perf_counter() - t0
        print(f"[criterion 7] start {start_point} -> "
              f"({run.optimum[0]:.4f}, {run.optimum[1]:.4f}), "
              f"J* = {run.j_star:.6f}, {elapsed:.0f}s")
        assert elapsed < 300.0
        optima.append(run)

    for a in optima:
        assert abs(a.optimum[0] - 0.01) <= 0.02
        assert abs(a.optimum[1] - 0.08) <= 0.02
        assert abs(a.j_star - 0.028) <= 0.15 * 0.028
    for a in optima:
        for b in optima:
            dist = math.hypot(a.optimum[0] - b.optimum[0], a.optimum[1] - b.optimum[1])
            assert dist <= 0.01


def test_criterion_08_forward_bifurcation():
    """Zero branch below threshold, increasing stable branch above it."""
    p = DEFAULT_PARAMS
    beta_star = critical_beta(p)
    branch = bifurcation_scan(p, (0.25 * beta_star, 4.0 * beta_star), 60)
    below = branch.rc_values < 1.0
    above = branch.rc_values > 1.0
    assert np.all(branch.ie_values[below] == 0.0)
    assert np.all(branch.ie_values[above] > 0.0)
    assert np.all(np.diff(branch.ie_values[above]) > 0.0)
    flags_above = [branch.stability_flags[k] for k in np.nonzero(above)[0]]
    assert all(f == "stable" for f in flags_above)
    first_above = int(np.argmax(above))
    assert branch.beta_grid[first_above - 1] < beta_star < branch.beta_grid[first_above]
    print(f"[criterion 8] crossing bracketed at beta* = {beta_star:.4e}")


def test_criterion_09_region_maps():
    """Growth area grows with beta; labels match the threshold; separatrix exact."""
    fractions = []
    for beta in (2e-9, 4e-9, 6e-9):
        p = replace(DEFAULT_PARAMS, beta=beta)
        rmap = region_map(p, 51)
        fractions.append(rmap.growth_fraction)
        for i in range(0, 51, 5):
            for j in range(0, 51, 5):
                rc = compute_rc(
                    p.with_controls(float(rmap.c1_grid[i]), float(rmap.c2_grid[j]))
                ).rc
                assert rmap.growth[i, j] == (rc > 1.0 + 1e-12)
        worst = 0.0
        for c1, c2_star in zip(rmap.c1_grid, rmap.separatrix):
            if 0.0 <= c2_star <= 1.0:
                rc = compute_rc(p.with_controls(float(c1), float(c2_star))).rc
                worst = max(worst, abs(rc - 1.0))
        assert worst < 1e-9
    print(f"[criterion 9] growth fractions {fractions}")
    assert fractions[0] < fractions[1] < fractions[2]


def test_criterion_10_calibration_recovery():
    """3-segment recovery: noiseless within 5% (R2 >= 0.99), 2% noise within 15%."""
    cfg = IntegratorConfig(dt=0.02)
    seed_state = State(1e9, 0.0, 1e4, 0.0, 0.0)
    truth = BetaSchedule((7.0, 14.0), (2e-9, 6e-9, 3.5e-9))
    times = [float(t) for t in range(22)]

    clean = generate_synthetic(DEFAULT_PARAMS, truth, seed_state, times, 0.0, seed=1, cfg=cfg)
    fit = fit_beta_segments(clean, DEFAULT_PARAMS, 7.0, seed_state, NelderMeadConfig(), cfg)
    errs = [abs(b - t) / t for b, t in zip(fit.beta_segments.values, truth.values)]
    print(f"[criterion 10] noiseless errors {[f'{e:.3%}' for e in errs]}, "
          f"R2 = {fit.r_squared:.5f}")
    assert max(errs) < 0.05
    assert fit.r_squared >= 0.99

    noisy = generate_synthetic(DEFAULT_PARAMS, truth, seed_state, times, 0.02, seed=2,
                               relative=True, cfg=cfg)
    fit_n = fit_beta_segments(noisy, DEFAULT_PARAMS, 7.0, seed_state, NelderMeadConfig(), cfg)
    errs_n = [abs(b - t) / t for b, t in zip(fit_n.beta_segments.values, truth.values)]
    print(f"[criterion 10] 2%-noise errors {[f'{e:.3%}' for e in errs_n]}, "
          f"R2 = {fit_n.r_squared:.5f}")
    assert max(errs_n) < 0.15
    assert fit_n.r_squared >= 0.95


def test_criterion_11_averted_cases_decay():
    """Averted cases nonincreasing in onset; exponential fit R2 >= 0.95."""
    onsets = list(np.linspace(0.0, 800.0, 9))
    curve = averted_cases(DEFAULT_PARAMS, (0.1, 0.1), onsets, INIT, 2000.0,
                          IntegratorConfig(dt=0.1))
    averted = np.array(curve.averted)
    print(f"[criterion 11] averted {averted[0]:.3e} .. {averted[-1]:.3e}, "
          f"fit R2 = {curve.decay_r2:.4f}")
    assert np.all(np.diff(averted) <= 1e-9 * averted[0])
    assert curve.decay_r2 >= 0.95


def test_criterion_12_sweep_shapes():
    """i_max and i_tot nondecreasing with terminal saturation; t_m nonincreasing."""
    grid = list(np.geomspace(4e-10, 4e-7, 10))
    chars = []
    for beta in grid:
        # step size held inside the explicit-RK4 stability limit for the
        # fastest rate in the run, beta * I_peak <= beta * 8.5e8
        dt = min(0.02, 2.0 / (beta * 8.5e8))
        c = sweep_beta(DEFAULT_PARAMS, [beta], INIT, 2000.0, IntegratorConfig(dt=dt))[0]
        chars.append(c)
    i_max = np.array([c.i_max for c in chars])
    t_m = np.array([c.t_m for c in chars])
    i_tot = np.array([c.i_tot for c in chars])
    print(f"[criterion 12] i_max {i_max[0]:.3e}..{i_max[-1]:.3e}, "
          f"t_m {t_m[0]:.0f}..{t_m[-1]:.0f}")
    assert np.all(np.diff(i_max) >= -1e-9 * i_max[:-1])
    assert np.all(np.diff(i_tot) >= -1e-9 * i_tot[:-1])
    assert np.all(np.diff(t_m) <= 1e-9)
    # terminal saturation over the last grid decade (4e-8 .. 4e-7)
    last_decade = slice(6, 10)
    rel_imax = (i_max[last_decade][-1] - i_max[last_decade][0]) / i_max[last_decade][0]
    rel_itot = (i_tot[last_decade][-1] - i_tot[last_decade][0]) / i_tot[last_decade][0]
    print(f"[criterion 12] last-decade change: i_max {rel_imax:.3%}, i_tot {rel_itot:.3%}")
    assert rel_imax < 0.05
    assert rel_itot < 0.05
