"""Equilibria of the SEIRV system: malware-free and endemic points, the
propagation threshold, spectra, Routh-Hurwitz verdicts and bifurcation scans.

The threshold rc is the spectral radius of the next-generation matrix at the
malware-free equilibrium: rc = sqrt(gain / loss), with both sides written out
once in threshold_sides, whose docstring states the one rc-versus-1 rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import NoEndemicPointError
from .model import ModelParams

__all__ = [
    "MfePoint",
    "ThresholdResult",
    "MfeSpectrum",
    "EndemicPoint",
    "RouthHurwitzReport",
    "BifurcationBranch",
    "compute_mfe",
    "compute_rc",
    "mfe_spectrum",
    "compute_endemic",
    "endemic_jacobian",
    "characteristic_polynomial",
    "polynomial_roots",
    "endemic_stability",
    "critical_beta",
    "bifurcation_scan",
]

#: Eigenvalues with |Re| below this are treated as marginal (root-finding noise
#: at the bifurcation point), not as a stability verdict.
NEUTRAL_MARGIN = 1e-10


@dataclass(frozen=True)
class MfePoint:
    """Malware-free equilibrium (E = I = 0)."""

    s0: float
    e0: float
    i0: float
    r0: float
    v0: float
    denominator_d: float

    def as_state_tuple(self) -> Tuple[float, float, float, float, float]:
        return (self.s0, self.e0, self.i0, self.r0, self.v0)


@dataclass(frozen=True)
class ThresholdResult:
    """Propagation threshold rc and its square."""

    rc: float
    rc_squared: float


@dataclass(frozen=True)
class MfeSpectrum:
    """Closed-form spectrum of the Jacobian at the malware-free equilibrium.

    The characteristic polynomial factors as
    (x + mu)(x^2 + l1 x + l2)(x^2 + l3 x + l4); all five roots are real.
    """

    l1: float
    l2: float
    l3: float
    l4: float
    eigenvalues: Tuple[float, float, float, float, float]
    stable: bool


@dataclass(frozen=True)
class EndemicPoint:
    """Endemic equilibrium, defined only for rc > 1. ie = a0 / a1."""

    se: float
    ee: float
    ie: float
    re: float
    ve: float
    a0: float
    a1: float

    def as_state_tuple(self) -> Tuple[float, float, float, float, float]:
        return (self.se, self.ee, self.ie, self.re, self.ve)


@dataclass(frozen=True)
class RouthHurwitzReport:
    """Routh-Hurwitz analysis of the endemic Jacobian.

    h1..h5 are the characteristic-polynomial coefficients
    x^5 + h1 x^4 + h2 x^3 + h3 x^2 + h4 x + h5, extracted from the 5x5
    matrix itself. conditions holds the five criterion booleans; stable is
    their conjunction. eigenvalues are the polynomial roots (independent
    cross-check); marginal flags any root with |Re| < NEUTRAL_MARGIN.
    """

    h1: float
    h2: float
    h3: float
    h4: float
    h5: float
    conditions: Tuple[bool, bool, bool, bool, bool]
    stable: bool
    marginal: bool
    eigenvalues: Tuple[complex, ...]


@dataclass(frozen=True)
class BifurcationBranch:
    """Endemic infection level and stability along a transmission-rate scan."""

    beta_grid: np.ndarray
    ie_values: np.ndarray
    stability_flags: Tuple[str, ...]
    rc_values: np.ndarray


def _mfe_denominator(p: ModelParams) -> float:
    # Unsimplified form; algebraically equal to
    # eta1*mu/(sigma1+mu) + c1*mu/(sigma2+mu) + mu, hence always > 0 for mu > 0.
    return (
        p.eta1
        - p.sigma1 * p.eta1 / (p.sigma1 + p.mu)
        + p.c1
        + p.mu
        - p.c1 * p.sigma2 / (p.sigma2 + p.mu)
    )


def compute_mfe(p: ModelParams) -> MfePoint:
    """Malware-free equilibrium; ArithmeticError when its denominator rounds
    to <= 0 or its susceptible level S0 = lam / d overflows."""
    d = _mfe_denominator(p)
    if not d > 0.0:  # the unsimplified form cancels when mu is tiny
        raise ArithmeticError(f"malware-free denominator d = {d!r} is not > 0 at mu = {p.mu!r}")
    s0 = p.lam / d
    if not math.isfinite(s0):
        raise ArithmeticError(f"malware-free S0 = lam / d overflows at lam = {p.lam!r}, d = {d!r}")
    r0 = p.eta1 * s0 / (p.sigma1 + p.mu)
    v0 = p.c1 * s0 / (p.sigma2 + p.mu)
    return MfePoint(s0=s0, e0=0.0, i0=0.0, r0=r0, v0=v0, denominator_d=d)


def threshold_sides(p: ModelParams, s0, c2):
    """The two sides of rc^2 = gain / loss at susceptible level s0 and
    treatment rate c2: gain = beta * S0 * alpha (new exposures per infected
    device times the E -> I rate) and loss = (c2 + mu)(alpha + eta2 + mu), the
    product of the exit rates of I and E. Broadcasts over arrays.

    Every rc-versus-1 verdict compares these sides exactly: gain > loss is
    rc > 1 (endemic point, growth), gain < loss is rc < 1 (stable malware-free
    point), and a tie, the separatrix rc = 1, is neither (so extinction)."""
    gain = p.beta * s0 * p.alpha
    loss = (c2 + p.mu) * (p.alpha + p.eta2 + p.mu)
    return gain, loss


def compute_rc(p: ModelParams) -> ThresholdResult:
    """Propagation threshold rc from the next-generation matrix."""
    gain, loss = threshold_sides(p, compute_mfe(p).s0, p.c2)
    rc2 = gain / loss
    return ThresholdResult(rc=math.sqrt(rc2), rc_squared=rc2)


def mfe_spectrum(p: ModelParams) -> MfeSpectrum:
    """Eigenvalues of the Jacobian at the malware-free equilibrium.

    Both quadratic factors have nonnegative discriminants for any admissible
    parameters, so all five eigenvalues are real. Exactly one eigenvalue
    (the larger root of the infected block) is positive when rc > 1.
    ArithmeticError when a coefficient or discriminant overflows.
    """
    gain, loss = threshold_sides(p, compute_mfe(p).s0, p.c2)
    rc2 = gain / loss
    l1 = p.alpha + p.c2 + p.eta2 + 2.0 * p.mu
    l2 = loss * (1.0 - rc2)
    l3 = p.c1 + p.eta1 + p.sigma1 + p.sigma2 + 2.0 * p.mu
    l4 = (
        p.c1 * p.mu
        + p.c1 * p.sigma1
        + p.eta1 * p.mu
        + p.eta1 * p.sigma2
        + p.mu * p.mu
        + p.mu * p.sigma1
        + p.mu * p.sigma2
        + p.sigma1 * p.sigma2
    )
    disc12 = l1 * l1 - 4.0 * l2
    disc34 = l3 * l3 - 4.0 * l4
    if not all(map(math.isfinite, (l1, l2, l3, l4, disc12, disc34))):
        raise ArithmeticError("malware-free spectrum overflows: a coefficient l1..l4 or a "
                              "discriminant is not finite")
    sq12 = math.sqrt(max(disc12, 0.0))
    sq34 = math.sqrt(max(disc34, 0.0))
    lam1 = -p.mu
    lam2 = 0.5 * (-l1 + sq12)
    lam3 = 0.5 * (-l1 - sq12)
    lam4 = 0.5 * (-l3 + sq34)
    lam5 = 0.5 * (-l3 - sq34)
    return MfeSpectrum(
        l1=l1, l2=l2, l3=l3, l4=l4,
        eigenvalues=(lam1, lam2, lam3, lam4, lam5),
        stable=gain < loss,
    )


def compute_endemic(p: ModelParams) -> Optional[EndemicPoint]:
    """Endemic equilibrium, or None unless gain > loss (rc > 1)."""
    mfe = compute_mfe(p)
    gain, loss = threshold_sides(p, mfe.s0, p.c2)
    if not gain > loss:
        return None
    w3 = p.c2 + p.mu
    se = loss / (p.beta * p.alpha)
    a0 = mfe.denominator_d * (mfe.s0 - se)
    a1 = (
        p.beta * se
        - p.sigma1 * p.c2 / (p.sigma1 + p.mu)
        - p.sigma1 * p.eta2 * w3 / ((p.sigma1 + p.mu) * p.alpha)
    )
    ie = a0 / a1
    ee = w3 * ie / p.alpha
    ve = p.c1 * se / (p.sigma2 + p.mu)
    re = (p.eta1 * se + p.eta2 * ee + p.c2 * ie) / (p.sigma1 + p.mu)
    return EndemicPoint(se=se, ee=ee, ie=ie, re=re, ve=ve, a0=a0, a1=a1)


def endemic_jacobian(p: ModelParams, point: EndemicPoint) -> np.ndarray:
    """5x5 Jacobian of the system evaluated at an endemic point."""
    w1 = p.eta1 + p.c1 + p.mu
    w2 = p.alpha + p.eta2 + p.mu
    w3 = p.c2 + p.mu
    w4 = p.sigma1 + p.mu
    w5 = p.sigma2 + p.mu
    bi = p.beta * point.ie
    bs = p.beta * point.se
    return np.array(
        [
            [-(w1 + bi), 0.0, -bs, p.sigma1, p.sigma2],
            [bi, -w2, bs, 0.0, 0.0],
            [0.0, p.alpha, -w3, 0.0, 0.0],
            [p.eta1, p.eta2, p.c2, -w4, 0.0],
            [p.c1, 0.0, 0.0, 0.0, -w5],
        ]
    )


def characteristic_polynomial(m: np.ndarray) -> np.ndarray:
    """Monic characteristic-polynomial coefficients of a square matrix.

    Faddeev-LeVerrier trace recursion; returns [1, c1, ..., cn] with
    det(xI - M) = x^n + c1 x^(n-1) + ... + cn.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    work = np.eye(n)
    for k in range(1, n + 1):
        work = m @ work
        ck = -np.trace(work) / k
        coeffs[k] = ck
        work = work + ck * np.eye(n)
    return coeffs


def polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a monic polynomial via the companion matrix, with a
    backward-error check on every root."""
    coeffs = np.asarray(coeffs, dtype=float)
    roots = np.roots(coeffs)
    n = len(coeffs) - 1
    powers = np.arange(n, -1, -1)
    for z in roots:
        val = abs(np.polyval(coeffs, z))
        scale = float(np.sum(np.abs(coeffs) * np.maximum(abs(z), 1e-300) ** powers))
        if val > 1e-8 * max(scale, 1.0):
            raise ArithmeticError(
                f"polynomial root {z!r} failed the residual check ({val:g} vs scale {scale:g})"
            )
    return roots


def _routh_hurwitz_conditions(h: np.ndarray) -> Tuple[bool, bool, bool, bool, bool]:
    """The five stability tests for a monic quintic with coefficients h1..h5.

    Last test uses the classical Routh-array form with the squared factor,
    (d3 * (h1 h4 - h5) - (h1 h2 - h3)^2 * h5 > 0); together with the others
    it is equivalent to all roots lying in the open left half-plane.
    """
    h1, h2, h3, h4, h5 = (float(x) for x in h)
    d2 = h1 * h2 - h3
    b2 = h1 * h4 - h5
    d3 = d2 * h3 - h1 * b2
    cond1 = h1 > 0.0 and h2 > 0.0 and h3 > 0.0 and h4 > 0.0 and h5 > 0.0
    cond2 = d2 > 0.0
    cond3 = b2 > 0.0
    cond4 = d3 > 0.0
    cond5 = d3 * b2 - d2 * d2 * h5 > 0.0
    return (cond1, cond2, cond3, cond4, cond5)


def endemic_stability(p: ModelParams) -> RouthHurwitzReport:
    """Routh-Hurwitz stability report for the endemic equilibrium.

    Refuses (NoEndemicPointError) when rc <= 1, since there is no endemic
    point to analyze. The quintic coefficients come from the Jacobian matrix
    itself, and the eigenvalues are recomputed from the polynomial as an
    independent cross-check. ArithmeticError when the polynomial overflows.
    """
    point = compute_endemic(p)
    if point is None:
        rc = compute_rc(p).rc
        raise NoEndemicPointError(f"no endemic equilibrium: rc = {rc:.6g} <= 1 at these parameters")
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        coeffs = characteristic_polynomial(endemic_jacobian(p, point))
    if not np.all(np.isfinite(coeffs)):
        raise ArithmeticError("characteristic polynomial of the endemic Jacobian is not finite")
    h = coeffs[1:]
    conditions = _routh_hurwitz_conditions(h)
    roots = polynomial_roots(coeffs)
    marginal = bool(np.any(np.abs(roots.real) < NEUTRAL_MARGIN))
    return RouthHurwitzReport(
        h1=float(h[0]), h2=float(h[1]), h3=float(h[2]), h4=float(h[3]), h5=float(h[4]),
        conditions=conditions,
        stable=all(conditions),
        marginal=marginal,
        eigenvalues=tuple(complex(z) for z in roots),
    )


def critical_beta(p: ModelParams) -> float:
    """Transmission rate where rc = 1 (bifurcation point), at p's controls.
    ValueError when S0 * alpha is 0, since then rc = 0 for every beta."""
    s0 = compute_mfe(p).s0
    if s0 * p.alpha == 0.0:  # lam or alpha is zero, or their product underflowed
        raise ValueError(f"no beta reaches rc = 1: rc = 0 for every beta "
                         f"(lam = {p.lam!r}, alpha = {p.alpha!r})")
    return threshold_sides(p, s0, p.c2)[1] / (s0 * p.alpha)


def bifurcation_scan(
    p: ModelParams, beta_range: Tuple[float, float], n_points: int
) -> BifurcationBranch:
    """Endemic infection level I^e over an ascending beta grid.

    ie is exactly 0 unless rc > 1. Stability flags are "stable" /
    "unstable" / "marginal": where there is no endemic point they describe
    the malware-free equilibrium, elsewhere the endemic point.
    """
    if not isinstance(n_points, numbers.Integral) or n_points < 2:
        raise ValueError(f"n_points must be an integer >= 2, got {n_points!r}")
    lo, hi = beta_range
    if not (0.0 <= lo < hi < math.inf):
        raise ValueError(f"invalid beta range {beta_range!r}: need finite 0 <= lo < hi")
    beta_grid = np.linspace(lo, hi, n_points)
    ie_values = np.zeros(n_points)
    rc_values = np.empty(n_points)
    flags = []
    for idx, beta in enumerate(beta_grid):
        pb = replace(p, beta=beta)
        rc_values[idx] = compute_rc(pb).rc
        point = compute_endemic(pb)
        if point is None:  # ie stays 0
            gain, loss = threshold_sides(pb, compute_mfe(pb).s0, pb.c2)
            flags.append("stable" if gain < loss else "marginal")
        else:
            ie_values[idx] = point.ie
            report = endemic_stability(pb)
            flags.append("marginal" if report.marginal
                         else "stable" if report.stable else "unstable")
    return BifurcationBranch(
        beta_grid=beta_grid,
        ie_values=ie_values,
        stability_flags=tuple(flags),
        rc_values=rc_values,
    )
