"""Exception taxonomy shared across the package.

The command-line driver maps these onto process exit codes:
``InputError`` -> 1, ``NumericalError`` -> 2, ``VerificationMismatch`` -> 3.
"""


class FilippovError(Exception):
    """Base class for every error raised by this package."""


class InputError(FilippovError):
    """Malformed or out-of-contract input (scenario, polynomial, parameters)."""


class NumericalError(FilippovError):
    """A numerical procedure failed or left its region of validity."""


class VerificationMismatch(FilippovError):
    """A verifier found a violated identity or prediction.

    Carries the offending report (when available) so callers can still
    serialize it alongside the failure.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


# --- input errors -----------------------------------------------------------

class DuplicateTerm(InputError):
    """A serialized polynomial repeats an exponent pair."""


class DegreeCapExceeded(InputError):
    """A polynomial operation would exceed the supported total degree."""


class InvalidLambda(InputError):
    """An unfolding parameter vector violates its domain constraints."""


class NotMonodromic(InputError):
    """The origin fails one of the classification conditions C1, C2, C3."""

    def __init__(self, condition, message):
        super().__init__(f"{condition}: {message}")
        self.condition = condition


class WrongSign(InputError):
    """A parameter sign precondition was violated."""


# --- numerical errors -------------------------------------------------------

class SingularX(NumericalError):
    """The horizontal component vanishes where it must not."""


class DegenerateContact(NumericalError):
    """All derivatives of the restricted vertical component vanish."""


class DivisionResidual(NumericalError):
    """An exact polynomial division left a residual above tolerance."""


class IllConditioned(NumericalError):
    """Two independent solution routes disagree beyond tolerance."""


class NoReturn(NumericalError):
    """An orbit never returned to the switching line within max_time."""


class StepFailure(NumericalError):
    """The adaptive integrator's step control failed."""


class NotInWindow(NumericalError):
    """An orbit arc escaped the configured window on the switching line."""


class Inconclusive(NumericalError):
    """A fit did not meet its quality gates."""


class ScaleSeparationViolated(NumericalError):
    """Cycle search windows would overlap at the requested parameters."""
