"""Exception types shared across the package."""

__all__ = ["SeirvError", "IntegrationDivergedError", "NoEndemicPointError",
           "DegenerateObjectiveError"]


class SeirvError(Exception):
    """Base class for all package-specific errors."""


class IntegrationDivergedError(SeirvError):
    """Raised when the integrator produces a non-finite state.

    Carries the index and time of the first bad step.
    """

    def __init__(self, step: int, time: float):
        self.step = step
        self.time = time
        super().__init__(f"integration diverged at step {step} (t = {time:g})")


class NoEndemicPointError(SeirvError):
    """Raised when an endemic-equilibrium computation is requested below threshold."""


class DegenerateObjectiveError(SeirvError):
    """Raised when an objective is non-finite at every initial simplex vertex."""
