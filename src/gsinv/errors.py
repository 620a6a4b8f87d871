"""Exception types shared across the package."""
from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the domain an operation supports."""


class QuadratureError(RuntimeError):
    """The quadrature refinement ladder failed to converge.

    Carries the last two level estimates for diagnosis.
    """

    def __init__(self, message, last_estimates=None):
        super().__init__(message)
        self.last_estimates = last_estimates


class TransformEvaluationError(RuntimeError):
    """A transform evaluator failed; ``z`` is the offending abscissa."""

    def __init__(self, message, z=None):
        super().__init__(message)
        self.z = z


class ProbeError(RuntimeError):
    """A diagnostic fit or probe did not meet its quality threshold."""


class PrecisionError(RuntimeError):
    """Raised only by Halley's fallback in ``lambertw._halley``: no w meets its bound."""


def as_number(convert, value, kind: str):
    """``convert(value)``, or DomainError when ``value`` is not a ``kind`` (None, "abc")."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: Fraction(inf)
        raise DomainError(f"not a {kind}: {value!r}") from exc


# what a numerical routine of the package raises on bad input or failure
NUMERICAL_ERRORS = (DomainError, QuadratureError, ProbeError, PrecisionError,
                    TransformEvaluationError)
