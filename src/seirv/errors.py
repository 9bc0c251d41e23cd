"""Exception types shared across the package, each a subclass of the builtin it is."""

__all__ = ["IntegrationDivergedError", "NoEndemicPointError", "DegenerateObjectiveError"]


class IntegrationDivergedError(ArithmeticError):
    """Raised when the integrator produces a non-finite state.

    Carries the index and time of the first bad step.
    """

    def __init__(self, step: int, time: float):
        self.step = step
        self.time = time
        super().__init__(f"integration diverged at step {step} (t = {time:g})")


class NoEndemicPointError(ValueError):
    """Raised when an endemic-equilibrium computation is requested below threshold."""


class DegenerateObjectiveError(ValueError):
    """Raised when an objective is non-finite at every initial simplex vertex."""
