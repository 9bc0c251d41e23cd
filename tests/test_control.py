"""Cost functional, adjoint solver, gradient and hybrid optimizer tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from conftest import at
from seirv import control
from seirv.control import (
    CostParams,
    SAConfig,
    _hybrid_minimize,
    cost,
    effort_split,
    gradient,
    hybrid_optimize,
    solve_adjoint,
    temperature_schedule,
)
from seirv.model import (
    IntegratorConfig,
    ModelParams,
    State,
    DEFAULT_PARAMS,
    Trajectory,
    integrate,
)

INIT = State(1e9, 0.0, 1.0, 0.0, 0.0)
CFG = IntegratorConfig(dt=0.05)


def reference_cost_params() -> CostParams:
    return CostParams.for_run(DEFAULT_PARAMS, INIT, m0=1.0, k1=0.2, k2=0.3, horizon=2000.0)


def test_cost_params_derived_scale():
    cp = reference_cost_params()
    assert cp.n_tilde == 1e9 + 1.0
    assert cp.k0 == pytest.approx(1.0 / (2000.0 * (1e9 + 1.0)), rel=1e-15)
    with pytest.raises(ValueError):
        CostParams(m0=0.0, k1=0.2, k2=0.3, horizon=2000.0, n_tilde=1e9)


def test_cost_without_infection_is_pure_control_cost():
    cp = CostParams.for_run(DEFAULT_PARAMS, State(1e9, 0, 0, 0, 0), 1.0, 0.2, 0.3, 200.0)
    j = cost(*at((0.25, 0.5), cp, State(1e9, 0, 0, 0, 0), CFG))
    assert j == 0.2 * 0.25 + 0.3 * 0.5


def test_cost_at_reference_optimum():
    cp = reference_cost_params()
    j = cost(*at((0.01, 0.08), cp, INIT, CFG))
    control_term = 0.2 * 0.01 + 0.3 * 0.08
    assert control_term == pytest.approx(0.026, rel=1e-12)
    infection_term = j - control_term
    assert 0.0015 < infection_term < 0.0045  # the run contributes about 0.002
    assert abs(j - 0.028) <= 0.15 * 0.028


def test_cost_is_continuous_in_controls():
    cp = reference_cost_params()
    cfg = IntegratorConfig(dt=0.1)
    rng = np.random.default_rng(3)
    base = (0.05, 0.09)
    j0 = cost(*at(base, cp, INIT, cfg))
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        theta = rng.normal(size=2)
        theta /= np.linalg.norm(theta)
        c = (base[0] + eps * theta[0], base[1] + eps * theta[1])
        gaps.append(abs(cost(*at(c, cp, INIT, cfg)) - j0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_cost_rejects_out_of_box_controls():
    cp = reference_cost_params()
    with pytest.raises(ValueError):
        cost(*at((1.1, 0.0), cp, INIT, CFG))


# ---------------------------------------------------------------- adjoint


def test_adjoint_terminal_condition_exact():
    traj = integrate(DEFAULT_PARAMS.with_controls(0.1, 0.1), INIT, 50.0, CFG)
    adj = solve_adjoint(traj, DEFAULT_PARAMS.with_controls(0.1, 0.1))
    assert np.all(adj.h[-1] == 0.0)
    assert adj.h.shape == (len(traj.times), 5)


def _system_matrix(p: ModelParams, s: float, i: float, c1: float, c2: float):
    return np.array(
        [
            [-(p.beta * i + p.eta1 + c1 + p.mu), 0, -p.beta * s, p.sigma1, p.sigma2],
            [p.beta * i, -(p.alpha + p.eta2 + p.mu), p.beta * s, 0, 0],
            [0, p.alpha, -(c2 + p.mu), 0, 0],
            [p.eta1, p.eta2, c2, -(p.sigma1 + p.mu), 0],
            [p.c1, 0, 0, 0, -(p.sigma2 + p.mu)],
        ]
    )


def test_adjoint_constant_coefficient_closed_form():
    # With I = 0 and S frozen, the adjoint is linear with constant
    # coefficients; the matrix exponential gives the exact solution.
    p = DEFAULT_PARAMS.with_controls(0.1, 0.1)
    sbar = 5e7
    n, dt = 200, 0.01
    states = np.zeros((n + 1, 5))
    states[:, 0] = sbar
    traj = Trajectory(states=states, dt=dt)
    adj = solve_adjoint(traj, p)

    m = -_system_matrix(p, sbar, 0.0, 0.1, 0.1).T
    e3 = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    m_inv_e3 = np.linalg.solve(m, e3)
    t_end = n * dt
    for k in (0, n // 2, n - 1):
        t = k * dt
        exact = scipy.linalg.expm(m * (t - t_end)) @ m_inv_e3 - m_inv_e3
        assert np.max(np.abs(adj.h[k] - exact)) <= 1e-10 * max(np.max(np.abs(exact)), 1.0)
    # the infection-price component over the final step in particular
    exact_h3 = (scipy.linalg.expm(m * -dt) @ m_inv_e3 - m_inv_e3)[2]
    assert adj.h[n - 1, 2] == pytest.approx(exact_h3, rel=1e-10)


def test_adjoint_constant_coefficient_fourth_order():
    p = DEFAULT_PARAMS.with_controls(0.1, 0.1)
    sbar = 5e7
    m = -_system_matrix(p, sbar, 0.0, 0.1, 0.1).T
    e3 = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    m_inv_e3 = np.linalg.solve(m, e3)
    horizon = 8.0
    exact0 = scipy.linalg.expm(m * -horizon) @ m_inv_e3 - m_inv_e3
    errs = []
    for dt in (0.4, 0.2, 0.1):
        n = int(round(horizon / dt))
        states = np.zeros((n + 1, 5))
        states[:, 0] = sbar
        traj = Trajectory(states=states, dt=dt)
        adj = solve_adjoint(traj, p)
        errs.append(np.max(np.abs(adj.h[0] - exact0)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.35)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.35)


def test_adjoint_self_convergence_on_varying_trajectory():
    # With time-varying (S, I) the pair steps read every stage off the forward
    # grid: at dt 0.05 h[0] errs by ~1.6e-7 relative, where the former linear
    # midpoint interpolation (second order) erred by 3.3e-5.
    p = DEFAULT_PARAMS.with_controls(0.1, 0.1)
    h0 = {}
    for dt in (0.1, 0.05, 0.025, 0.0125):
        traj = integrate(p, INIT, 50.0, IntegratorConfig(dt=dt))
        h0[dt] = solve_adjoint(traj, p).h[0]
    err = {dt: np.max(np.abs(h0[dt] - h0[0.0125])) for dt in (0.1, 0.05, 0.025)}
    assert err[0.05] <= 1e-6 * np.max(np.abs(h0[0.0125]))
    assert err[0.1] >= 4.0 * err[0.05]
    assert err[0.05] >= 4.0 * err[0.025]


# ---------------------------------------------------------------- gradient


def test_adjoint_and_gradient_refuse_a_run_without_a_step():
    run = Trajectory(np.zeros((1, 5)), 0.5)
    with pytest.raises(ValueError, match="at least one step"):
        solve_adjoint(run, DEFAULT_PARAMS)
    with pytest.raises(ValueError, match="at least one step"):
        gradient(DEFAULT_PARAMS, reference_cost_params(), run)


def test_gradient_without_infection_reduces_to_weights():
    # With no infection the I-weighted integrand vanishes because I = 0, and
    # the (H1, H4, H5) adjoint subsystem is homogeneous with zero terminal
    # data, so the S-weighted integrand vanishes too: the gradient is exactly
    # the control-cost weights.
    init = State(1e9, 0, 0, 0, 0)
    cp = CostParams.for_run(DEFAULT_PARAMS, init, 1.0, 0.2, 0.3, 100.0)
    g1, g2 = gradient(*at((0.2, 0.3), cp, init, CFG))
    assert g2 == 0.3
    assert g1 == 0.2


def test_gradient_refuses_a_weighted_integral_that_overflows():
    # both adjoint integrals are finite, but k0 times either overflows
    p = replace(DEFAULT_PARAMS, beta=1e-9)
    init = State(1e9, 0, 1e6, 0, 0)
    cp = CostParams.for_run(p, init, m0=1e308, k1=0.2, k2=0.3, horizon=100.0)
    forward = integrate(p, init, cp.horizon, IntegratorConfig(dt=0.5))
    assert cost(p, cp, forward) == 8.854680818793323e+306
    with pytest.raises(OverflowError, match=r"^time integral overflows: trapezoid total is inf$"):
        gradient(p, cp, forward)


def test_gradient_matches_finite_differences():
    cp = reference_cost_params()
    for c in [(0.1, 0.1), (0.02, 0.07)]:
        g = gradient(*at(c, cp, INIT, CFG))
        h = 1e-4
        for idx, (gi, ci) in enumerate(zip(g, c)):
            up = list(c)
            dn = list(c)
            up[idx] = ci * (1 + h)
            dn[idx] = ci * (1 - h)
            fd = (
                cost(*at(tuple(up), cp, INIT, CFG))
                - cost(*at(tuple(dn), cp, INIT, CFG))
            ) / (2 * ci * h)
            assert abs(gi - fd) <= 1e-3 * max(abs(fd), 1e-12)


def _difference_gradient(c, cp, cfg):
    """Central differences of J with step 1e-4 * c_j; a forward difference
    with step 1e-6 where c_j = 0, on the box's edge."""
    out = []
    for idx in range(2):
        h = 1e-4 * c[idx] or 1e-6
        up, dn = list(c), list(c)
        up[idx] += h
        if c[idx] > 0.0:
            dn[idx] -= h
        j_up, j_dn = (cost(*at(tuple(x), cp, INIT, cfg)) for x in (up, dn))
        out.append((j_up - j_dn) / (2.0 * h if c[idx] > 0.0 else h))
    return out


@pytest.mark.parametrize("c, horizon, rel", [
    # the criterion-7 optimum: linear midpoint interpolation erred by 1.7e-2
    pytest.param((0.0165, 0.0796), 2000.0, 5e-3, id="optimum"),
    # from t ~ 215 on beta*I ~ 3.2 puts pairs outside RK4's stability region,
    # so the guard takes single steps there; unguarded pairs overflowed
    pytest.param((0.0, 0.0), 2000.0, 1e-3, id="no_control_guarded"),
    # 3999 steps: the pairs end on row 0, which fills row 1's midpoint
    pytest.param((0.0165, 0.0796), 1999.5, 5e-3, id="odd_step_count"),
])
def test_gradient_at_coarse_step_matches_differences(c, horizon, rel):
    cfg = IntegratorConfig(dt=0.5)
    cp = CostParams.for_run(DEFAULT_PARAMS, INIT, m0=1.0, k1=0.2, k2=0.3, horizon=horizon)
    pc, _, forward = at(c, cp, INIT, cfg)
    h = solve_adjoint(forward, pc).h
    assert h.shape == (len(forward.times), 5)
    assert np.all(h[-1] == 0.0)
    for gi, fd in zip(gradient(pc, cp, forward), _difference_gradient(c, cp, cfg)):
        assert abs(gi - fd) <= rel * abs(fd)


def test_gradient_directional_derivative_identity():
    cp = reference_cost_params()
    rng = np.random.default_rng(5)
    c = (0.02, 0.07)
    g = gradient(*at(c, cp, INIT, CFG))
    for _ in range(3):
        theta = rng.normal(size=2)
        theta /= np.linalg.norm(theta)
        eps = 1e-4
        plus = (c[0] + eps * theta[0], c[1] + eps * theta[1])
        minus = (c[0] - eps * theta[0], c[1] - eps * theta[1])
        directional = (
            cost(*at(plus, cp, INIT, CFG)) - cost(*at(minus, cp, INIT, CFG))
        ) / (2 * eps)
        assert directional == pytest.approx(float(g @ theta), rel=1e-3, abs=1e-9)


# ---------------------------------------------------------------- optimizer


@pytest.fixture
def no_annealing(monkeypatch):
    """Turn the annealing phase off, so each round is a gradient phase alone."""
    monkeypatch.setattr(control, "temperature_schedule", lambda sa: [])


def test_gradient_phase_solves_quadratic_surrogate():
    target = np.array([0.3, 0.6])

    def cost_fn(c):
        return ((c[0] - target[0]) ** 2 + 2.0 * (c[1] - target[1]) ** 2,
                lambda: (2.0 * (c[0] - target[0]), 4.0 * (c[1] - target[1])))

    sa = SAConfig(t0=1e-9, n_cool=1, n_perturb=1, eps_k=1e-14, delta_k=1e-14,
                  step_eta=0.25, rng_seed=1, max_outer=3)
    run = _hybrid_minimize(cost_fn, (0.9, 0.05), sa)
    assert abs(run.optimum[0] - target[0]) < 1e-3
    assert abs(run.optimum[1] - target[1]) < 1e-3
    assert run.j_star < 1e-6


@pytest.mark.parametrize("start", [(0.9, 0.2), (0.05, 0.95), (0.6, 0.9), (0.1, 0.1)])
def test_gradient_phase_crosses_a_rotated_valley_in_few_moves(no_annealing, start):
    # Hessian eigenvalues 1.5 along the valley (-0.90, 0.43) and 27 across it,
    # as criterion 7's J has near its optimum; steepest descent takes 37-68
    # accepted moves to come within 1e-4 of the minimum from these starts
    norm = math.hypot(-0.90, 0.43)
    u = (-0.90 / norm, 0.43 / norm)
    w = (-u[1], u[0])
    target = (0.3, 0.5)

    def cost_fn(c):
        d = (c[0] - target[0], c[1] - target[1])
        a, b = d[0] * u[0] + d[1] * u[1], d[0] * w[0] + d[1] * w[1]  # along, across
        return (0.5 * (1.5 * a * a + 27.0 * b * b),
                lambda: (1.5 * a * u[0] + 27.0 * b * w[0], 1.5 * a * u[1] + 27.0 * b * w[1]))

    run = _hybrid_minimize(cost_fn, start, SAConfig(eps_k=1e-12, max_outer=1))
    moves = [(c1, c2) for c1, c2, _, phase in run.history if phase == "gradient"]
    assert any(math.hypot(c1 - target[0], c2 - target[1]) < 1e-4 for c1, c2 in moves[:10])


def test_failed_quasi_newton_step_falls_back_to_the_gradient(no_annealing):
    # J is stiff in c2 and has a slope of 0.01 in c1. After the second move
    # the inverse-Hessian estimate is about 0.01 I, so the quasi-Newton step
    # along c1 predicts a decrease of about 1e-6 <= eps_k and is not scored;
    # the same descent step then moves along -g from step_eta, and the phase
    # goes on
    grads = []

    def cost_fn(c):
        def grad():
            grads.append((c, (0.01, 100.0 * (c[1] - 0.5))))
            return grads[-1][1]
        return 50.0 * (c[1] - 0.5) ** 2 + 0.01 * c[0], grad

    sa = SAConfig(eps_k=1e-5, step_eta=0.5, max_outer=1)
    run = _hybrid_minimize(cost_fn, (0.5, 0.52), sa)
    (c1, c2), (g1, g2) = grads[2]  # the incumbent after a quasi-Newton move
    assert run.history[3][:2] == (c1 - sa.step_eta * g1, c2 - sa.step_eta * g2)
    assert [phase for *_, phase in run.history[1:5]] == ["gradient"] * 4


def test_clipped_candidate_without_first_order_decrease_does_not_end_the_step(
        no_annealing, monkeypatch):
    # From the incumbent (0.038, 0.69), where g = (0.038, 0.19), the
    # direction d = (-1, 0.05) moves c1 downhill and c2 uphill. At eta = 1
    # the box clips c1 and the first-order decrease is negative, yet at
    # eta <= 0.038 nothing is clipped and it is 0.0285 * eta: the halving goes
    # on and moves along d, where stopping would have fallen back to -g
    monkeypatch.setattr(control, "_newton_direction", lambda h, c, g1, g2: (-1.0, 0.05))

    def cost_fn(c):
        return 0.5 * (c[0] ** 2 + (c[1] - 0.5) ** 2), lambda: (c[0], c[1] - 0.5)

    run = _hybrid_minimize(cost_fn, (0.04, 0.7), SAConfig(max_outer=1))
    (_, c2_before, _, phase1), (_, c2_after, _, phase2) = run.history[1:3]  # -g, then d
    assert phase1 == phase2 == "gradient"
    assert c2_after > c2_before


def test_newton_direction_decouples_a_coordinate_held_at_its_bound():
    # h is the inverse of B = [[2, 1], [1, 3]]: with c1 held, c2 takes the
    # Newton step -g2 / B22 of J restricted to the bound, not -(h g)_2
    h = (0.6, -0.2, 0.4)
    assert control._newton_direction(h, (0.3, 0.5), 1.0, 0.6) == pytest.approx((-0.48, -0.04))
    for c, g1 in (((0.0, 0.5), 1.0), ((1.0, 0.5), -1.0)):  # outward gradients
        d1, d2 = control._newton_direction(h, c, g1, 0.6)
        assert d1 * g1 < 0.0 and d2 == pytest.approx(-0.6 / 3.0)
    assert control._newton_direction(h, (0.0, 0.5), -1.0, 0.6) == pytest.approx((0.72, -0.44))
    assert control._newton_direction(h, (0.0, 1.0), 1.0, -0.6) == pytest.approx((-0.6, 0.24))


def test_exit_step_is_where_the_step_first_leaves_the_box():
    # interior: c1 reaches 0 at eta 0.4 / 2, before c2 reaches 1 at 0.5 / 1
    assert control._exit_step((0.4, 0.5), (-2.0, 1.0)) == pytest.approx(0.2)
    # c1 is held at 0 by d1 < 0: only c2 limits the step
    assert control._exit_step((0.0, 0.5), (-2.0, 1.0)) == pytest.approx(0.5)
    assert control._exit_step((0.3, 0.7), (0.0, 0.0)) == math.inf
    # on a bound and moving inward: the far face
    assert control._exit_step((0.0, 1.0), (4.0, -2.0)) == pytest.approx(0.25)


def test_quasi_newton_try_starts_at_the_exit_step_not_the_corner(no_annealing):
    # J is linear plus a tiny convex term, so the first secant pair seeds H
    # with gamma = 1 / 1e-6 and d = -H g is about -1e6 g. Projected from
    # eta = 1 it lands on the corner (0, 0); the try starts where d leaves
    # the box instead, on the face c1 = 0
    scored, grads = [], []

    def cost_fn(c):
        def grad():
            grads.append((c, (0.3 + 1e-6 * c[0], 0.1 + 1e-6 * c[1])))
            return grads[-1][1]
        scored.append(c)
        return 0.3 * c[0] + 0.1 * c[1] + 0.5e-6 * (c[0] ** 2 + c[1] ** 2), grad

    _hybrid_minimize(cost_fn, (0.5, 0.5), SAConfig(max_outer=1))
    (c1, c2), (g1, g2) = grads[1]  # the incumbent after one -g move
    cand = scored[2]  # the first quasi-Newton candidate
    assert cand[0] == pytest.approx(0.0, abs=1e-12)
    assert cand[1] == pytest.approx(c2 - c1 * g2 / g1, rel=1e-6)
    assert cand[1] > 0.3


def test_secant_pair_without_curvature_steps_along_the_gradient_from_step_eta(no_annealing):
    # J is concave in c1, so every secant pair has s . y <= 0 and no
    # inverse-Hessian estimate is formed: every step moves step_eta along -g
    grads = []

    def cost_fn(c):
        def grad():
            grads.append((c, (0.2 - c[0], 0.05)))
            return grads[-1][1]
        return 0.05 * c[1] - 0.5 * (c[0] - 0.2) ** 2, grad

    sa = SAConfig(max_outer=1)
    run = _hybrid_minimize(cost_fn, (0.3, 0.9), sa)
    moves = [(c1, c2) for c1, c2, _, _ in run.history[1:]]
    for ((c1, c2), (g1, g2)), move in zip(grads, moves):
        assert move == control._project((c1 - sa.step_eta * g1, c2 - sa.step_eta * g2))
    assert len(moves) == control._GRAD_STEPS and run.optimum[0] == 1.0


@pytest.mark.parametrize("start", [(0.9, 0.05), (0.05, 0.95), (0.5, 0.5)])
def test_gradient_phase_scores_no_candidate_without_first_order_decrease(no_annealing, start):
    # every score after the start is a candidate of the last gradient
    sa = SAConfig(eps_k=1e-6, max_outer=1)
    last = {}

    def cost_fn(c):
        def grad():
            last["c"] = c
            last["g"] = (2 * (c[0] - 0.4) + 0.9 * math.cos(9 * c[0]), 2 * (c[1] - 0.2))
            return last["g"]
        if last:  # a gradient candidate
            (g1, g2), base = last["g"], last["c"]
            assert g1 * (base[0] - c[0]) + g2 * (base[1] - c[1]) > sa.eps_k
        return (c[0] - 0.4) ** 2 + (c[1] - 0.2) ** 2 + 0.1 * math.sin(9 * c[0]), grad

    run = _hybrid_minimize(cost_fn, start, sa)
    assert any(phase == "gradient" for *_, phase in run.history)


def test_gradient_phase_scores_a_projected_corner_once(no_annealing):
    # from (0.1, 0.1) the steps 8 * g, 4 * g, 2 * g and g all project onto the
    # corner (0, 0), where J is no lower; 0.5 * g reaches the minimum
    scored = []

    def cost_fn(c):
        scored.append(c)
        return (c[0] - 0.05) ** 2 + (c[1] - 0.05) ** 2, lambda: (2 * (c[0] - 0.05), 2 * (c[1] - 0.05))

    sa = SAConfig(eps_k=1e-12, step_eta=8.0, max_outer=1)
    run = _hybrid_minimize(cost_fn, (0.1, 0.1), sa)
    assert scored.count((0.0, 0.0)) == 1
    assert len(set(scored)) == len(scored)
    assert run.optimum == (0.05, 0.05)


def test_optimizer_history_invariants():
    graded = []  # the point of each gradient taken, in order

    def cost_fn(c):
        def grad():
            graded.append(c)
            return (2 * (c[0] - 0.4) + 0.9 * math.cos(9 * c[0]), 2 * (c[1] - 0.2))
        return (c[0] - 0.4) ** 2 + (c[1] - 0.2) ** 2 + 0.1 * math.sin(9 * c[0]), grad

    sa = SAConfig(t0=0.05, n_cool=5, n_perturb=8, rng_seed=11, max_outer=6)
    # from (0.05, 0.95) descent stops on the face c1 = 0, annealing moves the
    # incumbent into the lower basin, and a second gradient phase starts there
    for start in ((0.95, 0.95), (0.05, 0.95)):
        graded.clear()
        run = _hybrid_minimize(cost_fn, start, sa)
        assert run.history[0][3] == "start"
        # projection correctness: every visited point stays in the box
        for c1, c2, _, _ in run.history:
            assert 0.0 <= c1 <= 1.0 and 0.0 <= c2 <= 1.0
        # the incumbent is the minimum over the whole history
        js = [j for _, _, j, _ in run.history]
        assert run.j_star == min(js)
        assert run.j_star <= js[-1] + 1e-12
        # every gradient-phase acceptance strictly improves on everything before
        for k, (*_, phase) in enumerate(run.history):
            if phase == "gradient":
                prior = min(js[:k])
                assert js[k] < prior - sa.eps_k + 1e-15
        # gradients are taken only at incumbents: the first at the start, and
        # each at a point whose J, where it first appears, is below every J before it
        points = [(c1, c2) for c1, c2, _, _ in run.history]
        assert graded[0] == points[0]
        for c in graded:
            assert c in points
            k = points.index(c)
            assert k == 0 or js[k] < min(js[:k])


def test_optimizer_deterministic_per_seed():
    def cost_fn(c):
        return (c[0] - 0.25) ** 2 + (c[1] - 0.75) ** 2, lambda: (2 * (c[0] - 0.25), 2 * (c[1] - 0.75))

    sa = SAConfig(t0=0.05, n_cool=4, n_perturb=6, rng_seed=77, max_outer=4)
    run1 = _hybrid_minimize(cost_fn, (0.5, 0.5), sa)
    run2 = _hybrid_minimize(cost_fn, (0.5, 0.5), sa)
    assert run1.history == run2.history
    other = _hybrid_minimize(
        cost_fn, (0.5, 0.5),
        SAConfig(t0=0.05, n_cool=4, n_perturb=6, rng_seed=78, max_outer=4),
    )
    assert other.history != run1.history


def test_temperature_schedule_identity():
    sa = SAConfig(t0=0.02, cooling=0.9, n_cool=5)
    temps = temperature_schedule(sa)
    assert temps == [0.02 * 0.9**k for k in range(5)]


def test_classical_acceptance_rule_supported():
    def cost_fn(c):
        return c[0] + c[1], lambda: (1.0, 1.0)

    sa = SAConfig(t0=0.5, n_cool=3, n_perturb=5, rng_seed=5, max_outer=2,
                  accept_rule="classical")
    run = _hybrid_minimize(cost_fn, (0.6, 0.6), sa)
    assert run.j_star <= 1.2
    with pytest.raises(ValueError, match="^accept_rule must be 'scaled' or 'classical', got 'other'$"):
        SAConfig(accept_rule="other")


@pytest.mark.parametrize("field", ["t0", "cooling", "eps_k", "delta_k", "step_eta"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_sa_config_rejects_nonfinite_settings(field, value):
    with pytest.raises(ValueError, match=rf"^{field} .*, got {value!r}$"):
        SAConfig(**{field: value})


@pytest.mark.parametrize("field", ["n_cool", "n_perturb", "max_outer"])
@pytest.mark.parametrize("value", [2.5, 0, "3"])
def test_sa_config_rejects_non_integer_or_small_counts(field, value):
    # a float count once passed construction and failed deep in the optimizer
    with pytest.raises(ValueError, match=field):
        SAConfig(**{field: value})
    assert getattr(SAConfig(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("value", [2.5, "3", None])
def test_sa_config_rejects_a_seed_that_is_no_integer(value):
    with pytest.raises(ValueError, match="rng_seed"):
        SAConfig(rng_seed=value)


def test_sa_config_takes_any_integral_seed_as_an_int():
    # random.Random would refuse an np.int64 seed deep in the optimizer
    assert type(SAConfig(rng_seed=np.int64(3)).rng_seed) is int
    init = State(1e9, 0, 1, 0, 0)
    cp = CostParams.for_run(DEFAULT_PARAMS, init, 1.0, 0.2, 0.3, 50.0)
    runs = [hybrid_optimize(DEFAULT_PARAMS, cp, (0.5, 0.5),
                            SAConfig(n_cool=2, n_perturb=2, rng_seed=seed, max_outer=3),
                            init, IntegratorConfig(dt=0.5))
            for seed in (np.int64(3), 3)]
    assert runs[0] == runs[1]


def test_sa_config_rejects_cooling_that_underflows_the_last_temperature():
    assert SAConfig(cooling=1e-300, n_cool=2).cooling == 1e-300  # last temperature 2e-302
    with pytest.raises(ValueError, match="cooling"):
        SAConfig(cooling=1e-300, n_cool=3)


@pytest.mark.parametrize("rule", ["scaled", "classical"])
def test_acceptance_decides_where_the_weight_overflows(rule):
    # exp(-delta / temp) is past the float range: exp(1e293), then exp(720)
    assert control._accepts(0.5, -1e-7, 1e-300, rule)
    temp = 1e-320  # subnormal; the scaled weight temp * exp(720) is about 5e-8
    delta = -720.0 * temp
    assert control._accepts(0.0, delta, temp, rule)
    assert control._accepts(1e-9, delta, temp, rule)
    assert control._accepts(0.5, delta, temp, rule) == (rule == "classical")


def test_hybrid_optimize_on_short_horizon_moves_downhill():
    # cheap smoke run of the fully wired optimizer
    init = State(1e9, 0, 0, 0, 0)  # no infection: J = k1 c1 + k2 c2
    cp = CostParams.for_run(DEFAULT_PARAMS, init, 1.0, 0.2, 0.3, 50.0)
    sa = SAConfig(n_cool=2, n_perturb=2, rng_seed=3, max_outer=3)
    run = hybrid_optimize(DEFAULT_PARAMS, cp, (0.5, 0.5), sa, init, IntegratorConfig(dt=0.5))
    assert run.j_star < 0.02  # descent drives both controls to ~0
    assert run.optimum[0] < 0.05 and run.optimum[1] < 0.05


def test_hybrid_optimize_integrates_once_per_scored_point(monkeypatch):
    # every gradient is taken at the incumbent and reads the run integrated
    # at its controls, and a gradient phase that stalled is not replayed from
    # the same incumbent
    calls = {"integrate": 0, "cost": 0, "gradient": 0}
    runs = {}  # (c1, c2) -> the run integrate returned there
    integrated, graded = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if name == "integrate":
                integrated.append((args[0].c1, args[0].c2))
                runs[integrated[-1]] = out
            if name == "gradient":
                p, _, forward = args
                graded.append((p.c1, p.c2))
                assert forward is runs[graded[-1]]
            return out
        return wrapper

    for name in calls:
        monkeypatch.setattr(control, name, counted(name, getattr(control, name)))
    cp = CostParams.for_run(DEFAULT_PARAMS, INIT, 1.0, 0.2, 0.3, 200.0)
    sa = SAConfig(n_cool=3, n_perturb=4, rng_seed=9, max_outer=2)
    hybrid_optimize(DEFAULT_PARAMS, cp, (0.1, 0.35), sa, INIT, IntegratorConfig(dt=0.5))
    assert calls["cost"] > 0 and calls["gradient"] > 0
    assert calls["integrate"] == calls["cost"]
    assert all(isinstance(runs[c], Trajectory) for c in graded)
    assert len(set(integrated)) == len(integrated)
    assert len(set(graded)) == len(graded)


@pytest.mark.parametrize("weights, horizon, start, sa, max_runs, max_j", [
    # criterion 7's second start at dt 0.5: steepest descent made 238 runs
    # for J* = 0.0287550; quasi-Newton steps make 13 for J* = 0.0287514
    pytest.param((0.2, 0.3), 2000.0, (0.25, 0.2),
                 SAConfig(t0=0.02, cooling=0.9, n_cool=8, n_perturb=6, rng_seed=43, max_outer=12),
                 40, 0.028752, id="criterion_7_start"),
    # the golden far start (0.9, 0.9): quasi-Newton tries from eta = 1 landed
    # on a corner and the search crawled along -g in 56 forward runs; tries
    # from the exit step make 18
    pytest.param((0.2, 0.3), 500.0, (0.9, 0.9),
                 SAConfig(t0=0.02, cooling=0.9, n_cool=3, n_perturb=6, max_outer=2, rng_seed=2024),
                 28, math.inf, id="far_start"),
    # weights (0.3, 0.1) put the optimum on the face c1 = 0, near (0, 0.0978):
    # stepping the free coordinate by -g2 / (h^-1)_22 there makes 13 forward
    # runs, and the unprojected -H g direction makes 21
    pytest.param((0.3, 0.1), 500.0, (0.5, 0.5),
                 SAConfig(t0=0.02, cooling=0.9, n_cool=3, n_perturb=6, max_outer=2, rng_seed=2024),
                 17, math.inf, id="face_optimum"),
])
def test_hybrid_optimize_work_count(monkeypatch, weights, horizon, start, sa, max_runs, max_j):
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[0])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(control, "integrate", counted)
    cp = CostParams.for_run(DEFAULT_PARAMS, INIT, 1.0, *weights, horizon)
    run = hybrid_optimize(DEFAULT_PARAMS, cp, start, sa, INIT, IntegratorConfig(dt=0.5))
    assert len(runs) <= max_runs
    assert run.j_star <= max_j


@pytest.mark.parametrize("start", [(math.nan, 0.3), (0.3, math.inf)])
def test_hybrid_optimize_rejects_nonfinite_start(start):
    # projection would turn NaN into 0 and inf into 1 and search from there
    init = State(1e9, 0, 0, 0, 0)
    cp = CostParams.for_run(DEFAULT_PARAMS, init, 1.0, 0.2, 0.3, 50.0)
    sa = SAConfig(n_cool=1, n_perturb=1, max_outer=1)
    with pytest.raises(ValueError, match="start"):
        hybrid_optimize(DEFAULT_PARAMS, cp, start, sa, init, IntegratorConfig(dt=0.5))


# ---------------------------------------------------------------- effort split


def test_effort_split_reference():
    s1, s2 = effort_split((0.01, 0.08))
    assert s1 == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert s2 == pytest.approx(8.0 / 9.0, rel=1e-12)


def test_effort_split_properties():
    s1, s2 = effort_split((0.37, 0.37))
    assert s1 == 0.5 and s2 == 0.5
    for pair in [(0.3, 0.1), (1e-9, 0.9), (0.5, 0.5)]:
        a, b = effort_split(pair)
        assert a + b == 1.0
    s1, s2 = effort_split((0.0, 0.0))  # undefined at zero effort
    assert math.isnan(s1) and math.isnan(s2)
