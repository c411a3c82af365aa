"""Exception types shared across the package."""

import math


class SingularMatrixError(RuntimeError):
    """Linear system is singular to the solver's working tolerance."""


class StepFailureError(RuntimeError):
    """Newton failed to converge within the iteration cap, or its residual
    norm became inf or NaN.

    Carries the time-step index and the last residual norm so drivers
    can report where a run died.
    """

    def __init__(self, step, residual, iterations):
        self.step = step
        self.residual = residual
        self.iterations = iterations
        why = "is not finite" if not math.isfinite(residual) else f"{residual:.3e}"
        super().__init__(f"Newton did not converge at step {step}: "
                         f"residual {why} after {iterations} iterations")


class UnsupportedCaseError(ValueError):
    """Manufactured case lacks the structure an operation requires."""


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""
