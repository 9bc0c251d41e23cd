"""Equilibrium, threshold, spectrum, Routh-Hurwitz and bifurcation tests."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import sample_params
from seirv.cli import main
from seirv.equilibria import (
    bifurcation_scan,
    compute_endemic,
    compute_mfe,
    compute_rc,
    critical_beta,
    endemic_jacobian,
    endemic_stability,
    mfe_spectrum,
    threshold_sides,
)
from seirv.errors import NoEndemicPointError
from seirv.model import (
    IntegratorConfig,
    ModelParams,
    State,
    DEFAULT_PARAMS,
    integrate,
    rhs,
)


def residual_scale(p, state):
    return p.lam + p.mu * state.total


# ---------------------------------------------------------------- MFE


def test_mfe_collapses_without_resets_and_vaccination():
    p = replace(DEFAULT_PARAMS, eta1=0.0, c1=0.0)
    mfe = compute_mfe(p)
    assert mfe.s0 == p.lam / p.mu
    assert mfe.r0 == 0.0
    assert mfe.v0 == 0.0
    assert mfe.e0 == 0.0 and mfe.i0 == 0.0


def test_mfe_at_reference_point():
    # Term-by-term arithmetic oracle for the unsimplified denominator.
    p = DEFAULT_PARAMS.with_controls(0.1, 0.0)
    d_oracle = (
        p.eta1
        - p.sigma1 * p.eta1 / (p.sigma1 + p.mu)
        + p.c1
        + p.mu
        - p.c1 * p.sigma2 / (p.sigma2 + p.mu)
    )
    mfe = compute_mfe(p)
    assert mfe.denominator_d == pytest.approx(d_oracle, rel=1e-14)
    assert mfe.denominator_d == pytest.approx(0.0182687, abs=1e-7)
    assert mfe.s0 == pytest.approx(1.2546e7, rel=1e-4)
    assert mfe.r0 == pytest.approx(p.eta1 * mfe.s0 / (p.sigma1 + p.mu), rel=1e-14)
    assert mfe.v0 == pytest.approx(p.c1 * mfe.s0 / (p.sigma2 + p.mu), rel=1e-14)


def test_mfe_refuses_a_denominator_that_rounds_to_zero():
    # the unsimplified denominator cancels to 0.0 when mu is tiny and c1 > 0
    with pytest.raises(ArithmeticError, match="mu = 1e-300"):
        compute_mfe(replace(DEFAULT_PARAMS, mu=1e-300, c1=0.1))


def test_mfe_zeroes_the_vector_field_on_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = sample_params(rng)
        mfe = compute_mfe(p)
        st = State(*mfe.as_state_tuple())
        res = max(abs(x) for x in rhs(st, p))
        assert res / residual_scale(p, st) < 1e-10


# ---------------------------------------------------------------- threshold


def test_rc_zero_without_transmission():
    assert compute_rc(replace(DEFAULT_PARAMS, beta=0.0)).rc == 0.0


def test_rc_reference_values():
    assert compute_rc(DEFAULT_PARAMS.with_controls(0.1, 0.1)).rc == pytest.approx(
        0.5936736546061635, rel=1e-12
    )
    assert compute_rc(DEFAULT_PARAMS).rc == pytest.approx(13.0320263265221, rel=1e-12)


def test_rc_square_root_homogeneity_in_beta():
    base = compute_rc(DEFAULT_PARAMS.with_controls(0.05, 0.02)).rc
    scaled = compute_rc(replace(DEFAULT_PARAMS, beta=4 * DEFAULT_PARAMS.beta, c1=0.05, c2=0.02)).rc
    assert scaled == pytest.approx(2.0 * base, rel=1e-12)


def test_rc_population_bound(tmp_path):
    thr = compute_rc(DEFAULT_PARAMS)
    assert thr.rc == pytest.approx(math.sqrt(thr.rc_squared), rel=1e-15)
    # the CLI threshold report adds n_tilde = max{N(0), lam/mu} after rc
    out = tmp_path / "eq.json"
    for s0, n_tilde in (("1e9", 1e9 + 1), ("0", DEFAULT_PARAMS.lam / DEFAULT_PARAMS.mu)):
        assert main(["equilibria", "--s0", s0, "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))["threshold"]
        assert report == {"rc": thr.rc, "rc_squared": thr.rc_squared, "n_tilde": n_tilde}
        assert list(report) == ["rc", "rc_squared", "n_tilde"]


# ---------------------------------------------------------------- MFE spectrum


def test_spectrum_subcritical_all_negative():
    spectrum = mfe_spectrum(DEFAULT_PARAMS.with_controls(0.1, 0.1))
    assert spectrum.stable
    assert all(ev < 0.0 for ev in spectrum.eigenvalues)


def test_spectrum_supercritical_single_positive():
    spectrum = mfe_spectrum(DEFAULT_PARAMS)
    assert not spectrum.stable
    positive = [ev for ev in spectrum.eigenvalues if ev > 0.0]
    assert len(positive) == 1
    assert positive[0] == spectrum.eigenvalues[1]  # the lambda2 slot


def test_spectrum_fixed_root_and_sign_rule():
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = sample_params(rng)
        spectrum = mfe_spectrum(p)
        assert spectrum.eigenvalues[0] == -p.mu
        rc = compute_rc(p).rc
        if abs(rc - 1.0) > 1e-9:
            assert (spectrum.eigenvalues[1] > 0) == (rc > 1.0)


def test_spectrum_roots_solve_their_quadratics():
    rng = np.random.default_rng(29)
    for _ in range(100):
        p = sample_params(rng)
        spectrum = mfe_spectrum(p)
        lam2, lam3, lam4, lam5 = spectrum.eigenvalues[1:]
        scale12 = abs(spectrum.l1) + abs(spectrum.l2) + 1.0
        scale34 = abs(spectrum.l3) + abs(spectrum.l4) + 1.0
        for lam in (lam2, lam3):
            assert abs(lam * lam + spectrum.l1 * lam + spectrum.l2) < 1e-9 * scale12 * max(1.0, lam * lam)
        for lam in (lam4, lam5):
            assert abs(lam * lam + spectrum.l3 * lam + spectrum.l4) < 1e-9 * scale34 * max(1.0, lam * lam)


# ---------------------------------------------------------------- endemic point


def test_endemic_absent_below_threshold():
    assert compute_endemic(DEFAULT_PARAMS.with_controls(0.1, 0.1)) is None


def test_endemic_reference_point_uncontrolled():
    p = DEFAULT_PARAMS
    point = compute_endemic(p)
    assert point is not None
    se_oracle = (p.alpha + p.eta2 + p.mu) * (p.c2 + p.mu) / (p.beta * p.alpha)
    assert point.se == pytest.approx(se_oracle, rel=1e-14)
    assert point.se == pytest.approx(1.4182e5, rel=1e-4)
    rc2 = compute_rc(p).rc_squared
    assert point.se * rc2 == pytest.approx(compute_mfe(p).s0, rel=1e-12)


def test_endemic_structure_identities_on_random_draws():
    rng = np.random.default_rng(37)
    found = 0
    for _ in range(600):
        p = sample_params(rng)
        point = compute_endemic(p)
        rc = compute_rc(p)
        if point is None:
            assert rc.rc_squared <= 1.0
            continue
        found += 1
        assert rc.rc_squared > 1.0
        assert point.ie > 0.0
        # S^e * rc^2 = S^0
        assert point.se * rc.rc_squared == pytest.approx(
            compute_mfe(p).s0, rel=1e-12
        )
        # closed-form identity pinning the ie denominator
        lhs = p.alpha * (p.sigma1 + p.mu) * point.a1
        rhs_ = p.mu * (
            p.sigma1 * (p.alpha + p.c2 + p.mu)
            + (p.alpha + p.eta2 + p.mu) * (p.c2 + p.mu)
        )
        assert lhs == pytest.approx(rhs_, rel=1e-10)
        # the point zeroes the vector field
        st = State(*point.as_state_tuple())
        res = max(abs(x) for x in rhs(st, p))
        assert res / residual_scale(p, st) < 1e-9
    assert found >= 50  # the draw covers both regimes


# ---------------------------------------------------------------- Routh-Hurwitz


def test_endemic_stability_refused_below_threshold():
    with pytest.raises(NoEndemicPointError):
        endemic_stability(DEFAULT_PARAMS.with_controls(0.1, 0.1))


def test_endemic_stability_uncontrolled_is_stable():
    report = endemic_stability(DEFAULT_PARAMS)
    assert report.stable
    assert all(report.conditions)
    assert not report.marginal
    assert all(z.real < 0 for z in report.eigenvalues)


def test_endemic_point_one_ulp_above_threshold_is_the_malware_free_point():
    # at beta = critical_beta(p) gain rounds one ulp above loss, so rc > 1,
    # but se rounds to S0: the endemic point coincides with the malware-free
    # one, whose zero eigenvalue endemic_stability flags as marginal (the
    # Routh-Hurwitz verdict rests on h5, which is 0 up to rounding)
    p = DEFAULT_PARAMS.with_controls(0.02, 0.02)
    p = replace(p, beta=critical_beta(p))
    gain, loss = threshold_sides(p, compute_mfe(p).s0, p.c2)
    assert gain == math.nextafter(loss, math.inf)
    point = compute_endemic(p)
    assert point.a0 == 0.0 and point.ie == 0.0
    assert point.as_state_tuple() == compute_mfe(p).as_state_tuple()
    assert not mfe_spectrum(p).stable
    assert endemic_stability(p).marginal


def test_every_endemic_point_that_is_the_malware_free_point_is_marginal():
    # each draw's Jacobian has an exact zero eigenvalue; the eigensolver puts
    # it within its resolution n * eps * max|lambda| of the imaginary axis
    rng = np.random.default_rng(0)
    coinciding = 0
    for _ in range(300):
        p = sample_params(rng).with_controls(0.05, 0.05)
        p = replace(p, beta=critical_beta(p))
        point = compute_endemic(p)
        if point is not None and point.ie == 0.0:
            coinciding += 1
            assert endemic_stability(p).marginal, p
    assert coinciding > 0


def test_vieta_and_root_round_trip():
    report = endemic_stability(DEFAULT_PARAMS)
    prod = np.prod(report.eigenvalues)
    # product of the five roots equals (-1)^5 * h5
    assert prod.real == pytest.approx(-report.h5, rel=1e-8)
    assert abs(prod.imag) <= 1e-8 * abs(report.h5)
    rebuilt = np.poly(report.eigenvalues)
    coeffs = np.array([1.0, report.h1, report.h2, report.h3, report.h4, report.h5])
    scale = float(np.max(np.abs(coeffs)))
    assert np.allclose(rebuilt.real, coeffs, rtol=1e-8, atol=1e-8 * scale)
    assert np.max(np.abs(rebuilt.imag)) <= 1e-8 * scale


def _exact_charpoly(m):
    """h1..h5 of det(xI - m) for the float matrix m, exactly: the
    Faddeev-LeVerrier trace recursion run in rationals."""
    a = [[Fraction(x) for x in row] for row in m.tolist()]
    n = len(a)
    work = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    h = []
    for k in range(1, n + 1):
        work = [[sum(a[i][l] * work[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)]
        h.append(-sum(work[i][i] for i in range(n)) / k)
        for i in range(n):
            work[i][i] += h[-1]
    return h


def _exact_routh_hurwitz_stable(h):
    """All roots of x^n + h1 x^(n-1) + ... + hn in the open left half-plane,
    decided exactly: every first-column entry of the Routh array is > 0."""
    coeffs = [Fraction(1), *h]
    width = (len(coeffs) + 1) // 2
    rows = [coeffs[0::2], coeffs[1::2]]
    rows = [row + [Fraction(0)] * (width - len(row)) for row in rows]
    while len(rows) < len(coeffs):
        upper, lower = rows[-2], rows[-1]
        if lower[0] <= 0:
            return False
        rows.append([(lower[0] * upper[j + 1] - upper[0] * lower[j + 1]) / lower[0]
                     for j in range(width - 1)] + [Fraction(0)])
    return all(row[0] > 0 for row in rows)


def _exact_verdict(p):
    return _exact_routh_hurwitz_stable(_exact_charpoly(endemic_jacobian(p, compute_endemic(p))))


def test_stiff_endemic_jacobian_keeps_h5_and_the_verdict():
    # a tiny mu puts the eigenvalue -mu six to eight decades below the
    # largest one; a float trace recursion loses all of h5 there
    for mu in (1e-6, 1e-7, 1e-8):
        p = replace(DEFAULT_PARAMS, mu=mu)
        report = endemic_stability(p)
        assert report.stable and not report.marginal, mu
        exact_h5 = _exact_charpoly(endemic_jacobian(p, compute_endemic(p)))[-1]
        assert abs(Fraction(report.h5) - exact_h5) <= Fraction(1e-12) * abs(exact_h5), mu


def test_routh_hurwitz_agrees_with_eigenvalue_signs():
    rng = np.random.default_rng(43)
    checked = 0
    attempts = 0
    while checked < 500 and attempts < 20000:
        attempts += 1
        p = sample_params(rng)
        if compute_rc(p).rc_squared <= 1.0:
            continue
        report = endemic_stability(p)
        if report.marginal:
            continue
        eig_stable = all(z.real < 0 for z in report.eigenvalues)
        assert report.stable == eig_stable, f"disagreement at {p}"
        assert report.stable == _exact_verdict(p), f"disagrees with the exact verdict at {p}"
        checked += 1
    assert checked == 500


# ---------------------------------------------------------------- bifurcation


def test_bifurcation_zero_branch_below_threshold():
    p = DEFAULT_PARAMS
    beta_star = critical_beta(p)
    branch = bifurcation_scan(p, (0.2 * beta_star, 4.0 * beta_star), 61)
    below = branch.rc_values < 1.0
    assert np.all(branch.ie_values[below] == 0.0)
    assert np.all(branch.ie_values[~below & (branch.rc_values > 1.0)] > 0.0)
    labels_below = {branch.stability_flags[k] for k in np.nonzero(below)[0]}
    assert labels_below == {"stable"}


def test_bifurcation_crossing_bracketed_at_closed_form():
    p = DEFAULT_PARAMS
    beta_star = critical_beta(p)
    rc_at_star = compute_rc(replace(p, beta=beta_star)).rc
    assert rc_at_star == pytest.approx(1.0, rel=1e-12)
    # grid chosen so no point lands exactly on the crossing
    branch = bifurcation_scan(p, (0.5 * beta_star, 2.0 * beta_star), 30)
    first_pos = int(np.argmax(branch.ie_values > 0.0))
    assert branch.beta_grid[first_pos - 1] < beta_star < branch.beta_grid[first_pos]


def test_bifurcation_forward_shape_and_stability():
    p = DEFAULT_PARAMS
    beta_star = critical_beta(p)
    branch = bifurcation_scan(p, (beta_star, 5.0 * beta_star), 41)
    pos = branch.ie_values > 0.0
    ie_pos = branch.ie_values[pos]
    assert np.all(np.diff(ie_pos) > 0.0)  # strictly increasing endemic branch
    flags_pos = [branch.stability_flags[k] for k in np.nonzero(pos)[0]]
    assert all(f in ("stable", "marginal") for f in flags_pos)
    assert flags_pos.count("stable") >= len(flags_pos) - 2


def test_bifurcation_branch_emanates_from_zero():
    # in a tight window just above the crossing, the endemic level is a
    # small fraction of its value further up the branch
    p = DEFAULT_PARAMS
    beta_star = critical_beta(p)
    tight = bifurcation_scan(p, (beta_star * (1 + 1e-6), beta_star * 1.01, ), 11)
    wide = bifurcation_scan(p, (beta_star, 5.0 * beta_star), 11)
    assert np.all(tight.ie_values > 0.0)
    assert np.all(np.diff(tight.ie_values) > 0.0)
    assert tight.ie_values[0] < 1e-3 * float(wide.ie_values[-1])


def test_bifurcation_validation():
    with pytest.raises(ValueError):
        bifurcation_scan(DEFAULT_PARAMS, (1e-9, 1e-8), 1)
    with pytest.raises(ValueError):
        bifurcation_scan(DEFAULT_PARAMS, (1e-8, 1e-9), 10)


@pytest.mark.parametrize("beta_range", [(1e-9, math.inf), (1e-9, math.nan), (math.nan, 1e-8)])
def test_bifurcation_refuses_a_non_finite_beta_range(beta_range):
    # (1e-9, inf) once reached linspace, warned, and failed on a nan beta
    with pytest.raises(ValueError, match="invalid beta range"):
        bifurcation_scan(DEFAULT_PARAMS, beta_range, 10)


def test_bifurcation_refuses_a_non_integer_point_count():
    with pytest.raises(ValueError, match="n_points must be an integer"):
        bifurcation_scan(DEFAULT_PARAMS, (1e-9, 1e-8), 2.5)
    branch = bifurcation_scan(DEFAULT_PARAMS, (1e-9, 1e-8), np.int64(3))
    assert branch.beta_grid.shape == (3,)


@pytest.mark.parametrize("name", ["lam", "alpha"])
def test_critical_beta_refuses_a_threshold_that_is_zero_for_every_beta(name):
    p = replace(DEFAULT_PARAMS, **{name: 0.0})
    assert compute_rc(p).rc == 0.0
    with pytest.raises(ValueError, match=f"no beta reaches rc = 1.*{name} = 0.0"):
        critical_beta(p)


# ------------------------------------------- threshold vs long-run dynamics


def _gentle_params(rng, lo, hi):
    """Rejection-sample a draw with rc in [lo, hi] and RK4-friendly rates."""
    while True:
        p = sample_params(rng, decades=1.0)
        rates = (p.alpha, p.eta1, p.eta2, p.sigma1, p.sigma2, p.mu)
        if max(rates) > 4.0:
            continue
        n_tilde = max(1e9, p.lam / p.mu)
        if p.beta * n_tilde > 4.0:  # infection rate scale at full prevalence
            continue
        rc = compute_rc(p).rc
        if lo <= rc <= hi:
            return p


def test_subcritical_draws_go_extinct():
    rng = np.random.default_rng(47)
    cfg = IntegratorConfig(dt=0.05)
    for _ in range(20):
        p = _gentle_params(rng, 0.3, 0.9)
        init = State(0.9 * p.lam / p.mu, 0.0, 1e-3 * p.lam / p.mu, 0.0, 0.0)
        traj = integrate(p, init, 2000.0, cfg)
        i_end = float(traj.i[-1])
        for _ in range(6):
            if i_end <= 1e-6 * init.total:
                break
            traj = integrate(p, traj.final_state(), 2000.0, cfg)
            i_end = float(traj.i[-1])
        assert i_end <= 1e-6 * init.total


@pytest.mark.slow
def test_supercritical_draws_settle_at_endemic_level():
    # Horizon chosen adaptively from the slowest decay rate of the endemic
    # spectrum; draws that would need more than 4e4 time units are skipped.
    rng = np.random.default_rng(53)
    cfg = IntegratorConfig(dt=0.05)
    settled = 0
    while settled < 20:
        p = _gentle_params(rng, 1.1, 8.0)
        point = compute_endemic(p)
        assert point is not None
        report = endemic_stability(p)
        if not report.stable or report.marginal:
            continue
        slowest = max(z.real for z in report.eigenvalues)
        horizon = 18.0 / abs(slowest)
        if horizon > 4e4:
            continue
        init = State(0.9 * p.lam / p.mu, 0.0, 1e-3 * p.lam / p.mu, 0.0, 0.0)
        traj = integrate(p, init, min(horizon, 4000.0), cfg)
        elapsed = min(horizon, 4000.0)
        while elapsed < horizon and abs(float(traj.i[-1]) - point.ie) > 0.01 * point.ie:
            chunk = min(4000.0, horizon - elapsed)
            traj = integrate(p, traj.final_state(), chunk, cfg)
            elapsed += chunk
        assert abs(float(traj.i[-1]) - point.ie) <= 0.01 * point.ie
        settled += 1
