"""Shared fixtures plus a terminal summary of the acceptance criteria."""

import numpy as np
import pytest

from seirv.model import IntegratorConfig, State, DEFAULT_PARAMS, integrate

_ACCEPTANCE_RESULTS = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.split("::")[-1]
    if name.startswith("test_criterion_"):
        _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{_ACCEPTANCE_RESULTS[name]:4s}  {name}")


@pytest.fixture(scope="session")
def init_state():
    return State(1e9, 0.0, 1.0, 0.0, 0.0)


@pytest.fixture(scope="session")
def default_trajectory(init_state):
    """Uncontrolled reference run: default parameters, dt = 0.01, horizon 2000."""
    return integrate(DEFAULT_PARAMS, init_state, 2000.0, IntegratorConfig(dt=0.01))


def sample_params(rng: np.random.Generator, decades: float = 2.0):
    """Random parameter draw, log-uniform around the default rates.

    Each rate moves up to `decades` decades either way; the controls are
    drawn log-uniformly in [1e-4, 1] so that both threshold regimes occur.
    """
    from seirv.model import ModelParams

    def jitter(x):
        return x * 10.0 ** rng.uniform(-decades, decades)

    return ModelParams(
        lam=jitter(DEFAULT_PARAMS.lam),
        beta=jitter(DEFAULT_PARAMS.beta),
        alpha=jitter(DEFAULT_PARAMS.alpha),
        eta1=jitter(DEFAULT_PARAMS.eta1),
        eta2=jitter(DEFAULT_PARAMS.eta2),
        sigma1=jitter(DEFAULT_PARAMS.sigma1),
        sigma2=jitter(DEFAULT_PARAMS.sigma2),
        mu=jitter(DEFAULT_PARAMS.mu),
        c1=min(1.0, 10.0 ** rng.uniform(-4, 0)),
        c2=min(1.0, 10.0 ** rng.uniform(-4, 0)),
    )


def at(c, cp, init, cfg):
    """The arguments (p, cp, forward) of cost and gradient at the controls c."""
    p = DEFAULT_PARAMS.with_controls(*c)
    return p, cp, integrate(p, init, cp.horizon, cfg)
