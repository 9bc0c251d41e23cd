"""Optimal control of the SEIRV system.

cost() evaluates J(c1, c2) = k0 * int_0^T I(t) dt + k1 c1 + k2 c2 with
k0 = m0 / (T * n_tilde). gradient() obtains dJ/dc by solving the adjoint
system backward along the forward trajectory, and hybrid_optimize() drives
the projected quasi-Newton + simulated-annealing global search.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .model import (
    IntegratorConfig,
    ModelParams,
    State,
    Trajectory,
    integrate,
    population_bound,
    trapezoid,
)

__all__ = [
    "CostParams",
    "AdjointTrajectory",
    "SAConfig",
    "OptimRun",
    "cost",
    "solve_adjoint",
    "gradient",
    "hybrid_optimize",
    "effort_split",
    "temperature_schedule",
]

Controls = Tuple[float, float]


@dataclass(frozen=True)
class CostParams:
    """Weights of the control objective.

    m0 prices the average infected fraction, k1/k2 the two controls;
    k0 = m0 / (horizon * n_tilde) scales the infection integral, where
    n_tilde = max{N(0), lam/mu} bounds the population.
    """

    m0: float
    k1: float
    k2: float
    horizon: float
    n_tilde: float

    def __post_init__(self):
        for name in ("m0", "k1", "k2", "horizon", "n_tilde"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")

    @property
    def k0(self) -> float:
        return self.m0 / (self.horizon * self.n_tilde)

    @classmethod
    def for_run(
        cls, p: ModelParams, init: State, m0: float, k1: float, k2: float, horizon: float
    ) -> "CostParams":
        return cls(m0=m0, k1=k1, k2=k2, horizon=horizon,
                   n_tilde=population_bound(p, init.total))


@dataclass(frozen=True)
class AdjointTrajectory:
    """Adjoint solution on the forward grid; h[-1] is identically zero.

    Row n - 1 is a single RK4 step from row n. Below it, rows are mostly
    pair ends, every second row, with a Hermite midpoint between each two;
    single steps fill the rows where a pair would be unstable, and row 0
    when the pairs leave one step over (solve_adjoint states the rule).
    """

    times: np.ndarray
    h: np.ndarray  # shape (n_points, 5)


# RK4's stability region holds the left half-disk of radius 2.6 (max |R(z)| = 1
# there; 1.11 at radius 2.7): solve_adjoint takes a pair step of -2*dt only
# where 2*dt times its eigenvalue bound stays within this margin
_PAIR_MARGIN = 2.5

_GRAD_STEPS = 100  # descent steps per gradient phase
_HALVINGS = 20  # step-size halvings per descent step before the phase stops


@dataclass(frozen=True)
class SAConfig:
    """Hybrid optimizer settings; hybrid_optimize states how they are used.

    t0/cooling/n_cool/n_perturb drive the annealing phase; eps_k and delta_k
    are the acceptance tolerances of the gradient and annealing phases;
    step_eta is the steepest-descent step of each gradient phase;
    max_outer caps the outer rounds. accept_rule "scaled" uses the
    acceptance probability T * exp(-delta/T); "classical" drops the leading
    T factor.
    """

    t0: float = 0.02
    cooling: float = 0.9
    n_cool: int = 30
    n_perturb: int = 20
    eps_k: float = 1e-6
    delta_k: float = 1e-6
    step_eta: float = 0.05
    rng_seed: int = 0
    max_outer: int = 20
    accept_rule: str = "scaled"

    def __post_init__(self):
        if not (math.isfinite(self.t0) and self.t0 > 0.0):
            raise ValueError(f"t0 must be finite and > 0, got {self.t0!r}")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError(f"cooling must lie in (0, 1), got {self.cooling!r}")
        for name in ("n_cool", "n_perturb", "max_outer"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if self.t0 * self.cooling ** (self.n_cool - 1) == 0.0:
            raise ValueError("cooling underflows: the last temperature t0 * cooling**(n_cool - 1) is 0")
        for name in ("eps_k", "delta_k"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        if not (math.isfinite(self.step_eta) and self.step_eta > 0.0):
            raise ValueError(f"step_eta must be finite and > 0, got {self.step_eta!r}")
        if self.accept_rule not in ("scaled", "classical"):
            raise ValueError(f"accept_rule must be 'scaled' or 'classical', got {self.accept_rule!r}")
        if not isinstance(self.rng_seed, numbers.Integral):  # random.Random takes no np.int64
            raise ValueError(f"rng_seed must be an integer, got {self.rng_seed!r}")
        object.__setattr__(self, "rng_seed", int(self.rng_seed))


@dataclass(frozen=True)
class OptimRun:
    """Every accepted move of one optimizer run, plus the incumbent optimum.
    A move's phase is "start", "gradient" or "anneal"."""

    history: Tuple[Tuple[float, float, float, str], ...]  # (c1, c2, J, phase)
    optimum: Controls
    j_star: float


def temperature_schedule(sa: SAConfig) -> List[float]:
    """Temperature before each of the sa.n_cool cooling steps: t0 * cooling**k."""
    return [sa.t0 * sa.cooling**k for k in range(sa.n_cool)]


def _project(c: Controls) -> Controls:
    return (min(1.0, max(0.0, c[0])), min(1.0, max(0.0, c[1])))


def _bfgs_update(h: Optional[Tuple[float, float, float]], s: Controls,
                 y: Controls) -> Tuple[float, float, float]:
    """BFGS update of the inverse Hessian h = (h11, h12, h22) by a secant
    pair with s . y > 0 (Nocedal & Wright, eq. 6.17); h None seeds it as
    (s . y / y . y) * I first (eq. 6.20)."""
    sy = s[0] * y[0] + s[1] * y[1]
    if h is None:
        gamma = sy / (y[0] * y[0] + y[1] * y[1])
        h = (gamma, 0.0, gamma)
    h11, h12, h22 = h
    rho = 1.0 / sy
    hy1 = h11 * y[0] + h12 * y[1]
    hy2 = h12 * y[0] + h22 * y[1]
    k = rho * (1.0 + rho * (y[0] * hy1 + y[1] * hy2))
    return (h11 - 2.0 * rho * s[0] * hy1 + k * s[0] * s[0],
            h12 - rho * (s[0] * hy2 + s[1] * hy1) + k * s[0] * s[1],
            h22 - 2.0 * rho * s[1] * hy2 + k * s[1] * s[1])


def _newton_direction(h: Tuple[float, float, float], c: Controls,
                      g1: float, g2: float) -> Controls:
    """The projected quasi-Newton direction of hybrid_optimize's step rule.

    With coordinate a held at its bound, the free coordinate j steps by
    -g_j / (h^-1)_jj, where (h^-1)_jj = det h / h_aa.
    """
    h11, h12, h22 = h
    held1 = (c[0] == 0.0 and g1 > 0.0) or (c[0] == 1.0 and g1 < 0.0)
    held2 = (c[1] == 0.0 and g2 > 0.0) or (c[1] == 1.0 and g2 < 0.0)
    if not (held1 or held2):
        return (-(h11 * g1 + h12 * g2), -(h12 * g1 + h22 * g2))
    det = h11 * h22 - h12 * h12
    return (-g1 * (h11 if held1 else det / h22), -g2 * (h22 if held2 else det / h11))


def _exit_step(c: Controls, d: Controls) -> float:
    """Largest eta with c + eta * d inside [0, 1] in every coordinate that
    moves; a coordinate at its bound with d pointing out, or with d = 0,
    gives no limit, and without any limit the step is inf."""
    steps = [x / -dx if dx < 0.0 else (1.0 - x) / dx
             for x, dx in zip(c, d) if (dx < 0.0 and x > 0.0) or (dx > 0.0 and x < 1.0)]
    return min(steps, default=math.inf)


def cost(p: ModelParams, cp: CostParams, forward: Trajectory) -> float:
    """Objective J at the constant controls (p.c1, p.c2) over [0, cp.horizon].

    forward is the run integrate(p, init, cp.horizon, cfg). J is summed as
    (k0 * int I + k1 * c1) + k2 * c2, with k0 * int I from trapezoid, so it never
    falls below k1 * c1 + k2 * c2 while the run keeps I >= 0.
    """
    return trapezoid(forward.i, forward.dt, cp.k0) + cp.k1 * p.c1 + cp.k2 * p.c2


def solve_adjoint(forward: Trajectory, p: ModelParams) -> AdjointTrajectory:
    """Solve the adjoint system backward from H(T) = 0 along the forward run.

    dH/dt = -A(t)^T H + (0, 0, 1, 0, 0)^T, where A is the system Jacobian at
    the controls (p.c1, p.c2); its state-dependent entries (beta*I, beta*S)
    are read off the forward trajectory.

    The solve mostly steps over pairs of forward steps: one RK4 step of
    -2*dt from row k to row k - 2, whose stages read the stored states at
    rows k, k - 1 and k - 2 exactly, with row k - 1 filled by the cubic
    Hermite midpoint (H_k + H_{k-2}) / 2 - (dt / 4) (F_k - F_{k-2}), where
    F = dH/dt. A row is a single RK4 step of -dt instead, reading the
    states linearly interpolated at its half-step, in three places: row
    n - 1 (the terminal step), row 0 when the pairs leave one step over,
    and wherever a pair could leave RK4's stability region. A pair is taken
    only where 2*dt*rho <= _PAIR_MARGIN at each of its three rows, with rho
    the largest absolute column sum of D^-1 A D, D = diag(1, 1, d, 1, 1),
    d = min(1, sqrt(alpha / (2*beta*S))): a Gershgorin bound on the
    eigenvalues of A, with d balancing column I against row I.
    """
    n = len(forward.states) - 1
    if n < 1:
        raise ValueError("forward trajectory must contain at least one step")
    dt = forward.dt
    # Python floats throughout (ModelParams stores floats): numpy scalars make
    # each step ~3x slower
    s_arr = forward.s.tolist()
    i_arr = forward.i.tolist()

    beta, alpha, c1, c2 = p.beta, p.alpha, p.c1, p.c2
    eta1, eta2, sig1, sig2, mu = p.eta1, p.eta2, p.sigma1, p.sigma2, p.mu
    ae = alpha + eta2 + mu
    ci = c2 + mu
    sr = sig1 + mu
    vr = sig2 + mu
    nsig1, nsig2 = -sig1, -sig2

    # pair[k]: the pair from row k to row k - 2 keeps 2*dt*rho <= _PAIR_MARGIN
    two_bs = 2.0 * beta * forward.s
    d = np.ones(n + 1)
    if alpha > 0.0:
        big = two_bs > alpha
        d[big] = np.sqrt(alpha / two_bs[big])
    lim = _PAIR_MARGIN / (2.0 * dt)
    ok = ((2.0 * (beta * forward.i + eta1 + c1) + mu <= lim)
          & (ae + eta2 + alpha / d <= lim)
          & (ci + d * (two_bs + c2) <= lim))
    pair = np.zeros(n + 1, dtype=bool)
    if 2.0 * max(sig1, sig2) + mu <= lim:
        pair[2:n] = ok[2:n] & ok[1:n - 1] & ok[:n - 2]
    pair = pair.tolist()

    out = np.empty((n + 1, 5))
    out[n] = 0.0
    o1, o2, o3, o4, o5 = map(memoryview, out.T)  # in-place stores, as in integrate
    h1 = h2 = h3 = h4 = h5 = 0.0
    # (step, half step, RK4 weight) of a single step and of a pair
    step1, half1, w1 = -dt, -0.5 * dt, -dt / 6.0
    step2, half2, w2 = -2.0 * dt, -dt, -dt / 3.0
    q = -0.25 * dt  # the Hermite midpoint's derivative weight
    mid = False  # whether row k + 1 waits for its Hermite midpoint
    k = n
    # a step's last stage and the next step's first read one grid point: carry it
    bi = beta * i_arr[n]; bs = beta * s_arr[n]
    ca = bi + eta1 + c1 + mu
    while True:  # k is the row whose H is known
        a1 = ca * h1 - bi * h2 - eta1 * h4 - c1 * h5
        a2 = ae * h2 - alpha * h3 - eta2 * h4
        a3 = bs * (h1 - h2) + ci * h3 - c2 * h4 + 1.0
        a4 = nsig1 * h1 + sr * h4
        a5 = nsig2 * h1 + vr * h5
        if mid:
            o1[k + 1] = m1 + 0.5 * h1 - q * a1; o2[k + 1] = m2 + 0.5 * h2 - q * a2
            o3[k + 1] = m3 + 0.5 * h3 - q * a3; o4[k + 1] = m4 + 0.5 * h4 - q * a4
            o5[k + 1] = m5 + 0.5 * h5 - q * a5
        if k == 0:
            break

        mid = pair[k]
        if mid:  # a step of -2*dt whose half-step is row k - 1
            j = k - 2
            bi = beta * i_arr[k - 1]; bs = beta * s_arr[k - 1]
            step = step2; hh = half2; w = w2
            m1 = 0.5 * h1 + q * a1; m2 = 0.5 * h2 + q * a2; m3 = 0.5 * h3 + q * a3
            m4 = 0.5 * h4 + q * a4; m5 = 0.5 * h5 + q * a5
        else:  # a step of -dt, (S, I) linearly interpolated at its half-step
            j = k - 1
            bi = beta * (0.5 * (i_arr[k] + i_arr[j])); bs = beta * (0.5 * (s_arr[k] + s_arr[j]))
            step = step1; hh = half1; w = w1

        u1 = h1 + hh * a1; u2 = h2 + hh * a2; u3 = h3 + hh * a3
        u4 = h4 + hh * a4; u5 = h5 + hh * a5
        ca = bi + eta1 + c1 + mu
        b1 = ca * u1 - bi * u2 - eta1 * u4 - c1 * u5
        b2 = ae * u2 - alpha * u3 - eta2 * u4
        b3 = bs * (u1 - u2) + ci * u3 - c2 * u4 + 1.0
        b4 = nsig1 * u1 + sr * u4
        b5 = nsig2 * u1 + vr * u5

        u1 = h1 + hh * b1; u2 = h2 + hh * b2; u3 = h3 + hh * b3
        u4 = h4 + hh * b4; u5 = h5 + hh * b5
        c1_ = ca * u1 - bi * u2 - eta1 * u4 - c1 * u5
        c2_ = ae * u2 - alpha * u3 - eta2 * u4
        c3_ = bs * (u1 - u2) + ci * u3 - c2 * u4 + 1.0
        c4_ = nsig1 * u1 + sr * u4
        c5_ = nsig2 * u1 + vr * u5

        u1 = h1 + step * c1_; u2 = h2 + step * c2_; u3 = h3 + step * c3_
        u4 = h4 + step * c4_; u5 = h5 + step * c5_
        bi = beta * i_arr[j]; bs = beta * s_arr[j]
        ca = bi + eta1 + c1 + mu
        d1 = ca * u1 - bi * u2 - eta1 * u4 - c1 * u5
        d2 = ae * u2 - alpha * u3 - eta2 * u4
        d3 = bs * (u1 - u2) + ci * u3 - c2 * u4 + 1.0
        d4 = nsig1 * u1 + sr * u4
        d5 = nsig2 * u1 + vr * u5

        h1 += w * (a1 + 2.0 * b1 + 2.0 * c1_ + d1)
        h2 += w * (a2 + 2.0 * b2 + 2.0 * c2_ + d2)
        h3 += w * (a3 + 2.0 * b3 + 2.0 * c3_ + d3)
        h4 += w * (a4 + 2.0 * b4 + 2.0 * c4_ + d4)
        h5 += w * (a5 + 2.0 * b5 + 2.0 * c5_ + d5)
        o1[j] = h1; o2[j] = h2; o3[j] = h3
        o4[j] = h4; o5[j] = h5
        k = j

    return AdjointTrajectory(times=forward.times, h=out)


def gradient(p: ModelParams, cp: CostParams, forward: Trajectory) -> Tuple[float, float]:
    """Adjoint-based gradient of the objective at the constant controls (p.c1, p.c2).

    forward is the run integrate(p, init, cp.horizon, cfg). Returns the pair
    (g1, g2): g1 = k1 - k0 * int (H5 - H1) S dt, g2 = k2 - k0 * int (H4 - H3) I dt,
    each k0-weighted integral taken by trapezoid on the shared grid.
    """
    h = solve_adjoint(forward, p).h
    return (cp.k1 - trapezoid((h[:, 4] - h[:, 0]) * forward.s, forward.dt, cp.k0),
            cp.k2 - trapezoid((h[:, 3] - h[:, 2]) * forward.i, forward.dt, cp.k0))


def _accepts(r: float, delta: float, temp: float, rule: str) -> bool:
    """Annealing test of a move that changes J by delta against the draw r.

    When exp(-delta / temp) is past the float range (a tiny temperature and
    delta < 0), the classical weight exceeds any draw in [0, 1) and the
    scaled rule compares in log form.
    """
    try:
        weight = math.exp(-delta / temp)
    except OverflowError:
        return rule == "classical" or r == 0.0 or math.log(r) < math.log(temp) - delta / temp
    return r < (temp * weight if rule == "scaled" else weight)


def _hybrid_minimize(
    score: Callable[[Controls], Tuple[float, Callable[[], Controls]]],
    start: Controls,
    sa: SAConfig,
    floor_fn: Callable[[Controls], float] = lambda c: -math.inf,
) -> OptimRun:
    """Generic hybrid driver over [0, 1]^2; hybrid_optimize states the step
    rule and the prunes, with floor_fn as its control-cost floor.

    score(c) returns (J, grad), where grad() is the gradient of J at c. The
    incumbent's grad is kept next to its controls and J, and only the
    incumbent's grad is called: the gradient phase starts there, and each
    step it accepts lowers J by more than eps_k >= 0, so it becomes the
    incumbent.

    The prunes are exact when score and grad are pure and floor_fn(c) never
    exceeds score(c)[0] in floating point. The default floor, -inf, never
    prunes.
    """
    if not all(math.isfinite(x) for x in start):
        raise ValueError(f"start controls must be finite, got {start!r}")
    rng = random.Random(sa.rng_seed)
    c = _project(start)
    j, grad = score(c)
    history: List[Tuple[float, float, float, str]] = [(c[0], c[1], j, "start")]
    best_c, best_j, best_grad = c, j, grad
    stalled: Optional[Controls] = None  # incumbent where a gradient phase stopped

    def record(point: Controls, value: float, point_grad: Callable[[], Controls], phase: str) -> None:
        nonlocal best_c, best_j, best_grad
        history.append((point[0], point[1], value, phase))
        if value < best_j:
            best_c, best_j, best_grad = point, value, point_grad

    for _ in range(sa.max_outer):
        best_before = best_j

        # Gradient-based local search, restarted from the incumbent unless a
        # phase already stalled there: it would score the same candidates.
        c, j = best_c, best_j
        if c != stalled:
            h = None  # inverse-Hessian estimate (h11, h12, h22)
            prev = None  # (c, g) where the last descent step started
            scored = set()  # candidates scored in this phase
            for _ in range(_GRAD_STEPS):
                g1, g2 = best_grad()  # c is the incumbent
                if prev is not None:  # the secant pair of the last move
                    (p1, p2), (q1, q2) = prev
                    s, y = (c[0] - p1, c[1] - p2), (g1 - q1, g2 - q2)
                    if s[0] * y[0] + s[1] * y[1] > 0.0:
                        h = _bfgs_update(h, s, y)
                prev = (c, (g1, g2))
                tries = [(-g1, -g2, sa.step_eta)]
                if h is not None:
                    d = _newton_direction(h, c, g1, g2)
                    tries.insert(0, d + (min(1.0, _exit_step(c, d)),))
                moved = False
                for d1, d2, eta in tries:
                    for _ in range(_HALVINGS):
                        cand = _project((c[0] + eta * d1, c[1] + eta * d2))
                        # Score only a first-order decrease. j - score(cand)[0] <=
                        # j - floor, and j only falls within a phase, so a
                        # candidate scored before would fail now.
                        if (g1 * (c[0] - cand[0]) + g2 * (c[1] - cand[1]) > sa.eps_k
                                and cand not in scored and j - floor_fn(cand) > sa.eps_k):
                            jc, grad = score(cand)
                            scored.add(cand)
                            if j - jc > sa.eps_k:
                                c, j = cand, jc
                                record(c, j, grad, "gradient")
                                moved = True
                                break
                        eta *= 0.5
                    if moved:
                        break
                    h = None  # the quasi-Newton step failed: retry along -g
                if not moved:
                    stalled = c
                    break

        # Simulated-annealing phase.
        for temp in temperature_schedule(sa):
            for _ in range(sa.n_perturb):
                if rng.random() < 0.5:  # re-randomize a single coordinate
                    if rng.random() < 0.5:
                        cand = (rng.random(), c[1])
                    else:
                        cand = (c[0], rng.random())
                else:  # re-randomize both
                    cand = (rng.random(), rng.random())
                r = None
                floor_delta = floor_fn(cand) - j
                if floor_delta >= -sa.delta_k:
                    # score(cand)[0] - j >= floor_delta: the draw alone decides,
                    # and a draw that fails at the floor fails at the cost too.
                    r = rng.random()
                    if not _accepts(r, floor_delta, temp, sa.accept_rule):
                        continue
                jc, grad = score(cand)
                delta = jc - j
                if delta < -sa.delta_k:
                    accept = True
                else:
                    if r is None:
                        r = rng.random()
                    accept = _accepts(r, delta, temp, sa.accept_rule)
                if accept:
                    c, j = cand, jc
                    record(c, j, grad, "anneal")

        if best_before - best_j <= sa.eps_k:
            break

    return OptimRun(history=tuple(history), optimum=best_c, j_star=best_j)


def hybrid_optimize(
    p: ModelParams,
    cp: CostParams,
    start: Controls,
    sa: SAConfig,
    init: State,
    cfg: IntegratorConfig,
) -> OptimRun:
    """Global search alternating projected quasi-Newton descent and annealing.

    Each outer round runs a gradient phase, then an annealing phase. The
    loop stops when a round improves the best J by no more than eps_k, or
    after max_outer rounds. Deterministic for a fixed rng_seed. The start
    controls must be finite (ValueError otherwise); they are projected into
    [0, 1]^2. p's own controls (p.c1, p.c2) are not read: the search starts
    at start and sets the controls of each point it scores.

    The step rule. A gradient phase starts at the incumbent (the best point
    so far) and takes up to _GRAD_STEPS descent steps, each from the
    incumbent c with the gradient g there. A descent step tries a direction
    d from a first eta, halving eta up to _HALVINGS times until the
    projected candidate cand = P(c + eta * d) lowers J by more than eps_k.
    A candidate without first-order decrease, g . (c - cand) <= eps_k (an
    Armijo-style test on the linear model), is skipped unscored.
    - The phase starts with steepest descent, d = -g from eta = step_eta.
    - Each accepted move gives a secant pair s = c_new - c_old,
      y = g_new - g_old. From the first pair with s . y > 0 on, the phase
      keeps an inverse-Hessian estimate H, seeded (s . y / y . y) * I and
      BFGS-updated by every pair with s . y > 0 (Nocedal & Wright, ch. 6).
    - While it has H, a step tries the projected quasi-Newton direction
      d = -H g (Bertsekas, SIAM J. Control Optim. 20, 1982): a coordinate
      held at a bound by an outward gradient takes its diagonal step,
      which the projection cancels, and the other its Newton step along
      that bound. The try starts at eta = min(1, exit step), where the
      exit step is the largest eta with c + eta * d in the box in every
      coordinate that moves (the first breakpoint of the projected path,
      as in L-BFGS-B): where J is nearly linear, H is huge and every
      halving of a unit step would project to the same corner. If this
      finds no decrease, the same step drops H and retries d = -g from
      eta = step_eta.
    - A step that finds no decrease along -g ends the phase.

    The annealing phase re-randomizes one or both control coordinates
    uniformly in [0, 1] for n_perturb draws per cooling step, accepting
    improvements beyond delta_k and otherwise accepting against a uniform
    draw with the configured temperature rule.

    The exact prunes. Each scored point c is integrated once, as
    pc = p.with_controls(*c), and cost and gradient read that run. Gradients
    are taken only at the incumbent, whose gradient closure holds its
    (pc, run), so no gradient integrates again. J >= k1 * c1 + k2 * c2 (see
    cost), so a gradient candidate whose control cost alone already fails
    the eps_k decrease test is rejected without being integrated, and so is
    an annealing candidate whose control cost is no clear improvement and
    already fails the acceptance draw (it takes that draw first and reuses
    it if it is scored). A gradient candidate already scored in the same
    phase, where J only falls, is not scored again. A gradient
    phase that stalled is not run again until the incumbent moves: it draws
    no random numbers, so it would score the same candidates and reject them
    again. For a given seed these prunes leave the OptimRun the same to the
    bit as scoring every candidate; the directions and the first-order
    test are the step rule itself, and decide which candidates there are.
    """
    def score(c: Controls) -> Tuple[float, Callable[[], Controls]]:
        pc = p.with_controls(*c)
        forward = integrate(pc, init, cp.horizon, cfg)
        return cost(pc, cp, forward), lambda: gradient(pc, cp, forward)

    def floor_fn(c: Controls) -> float:
        return cp.k1 * c[0] + cp.k2 * c[1]

    return _hybrid_minimize(score, start, sa, floor_fn)


def effort_split(opt: Controls) -> Tuple[float, float]:
    """Relative shares of the two controls in the total effort; (nan, nan) at zero effort."""
    c1, c2 = opt
    total = c1 + c2
    if total <= 0.0:
        return (math.nan, math.nan)
    share1 = c1 / total
    # second share as the complement so the pair sums to one exactly
    return (share1, 1.0 - share1)
