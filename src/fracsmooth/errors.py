"""Exception types shared across the package."""


class FracsmoothError(Exception):
    """Base class for all package errors."""


class InvalidSetError(FracsmoothError, ValueError):
    """Set descriptor violates its invariants."""


class InvalidResolutionError(FracsmoothError, ValueError):
    """Resolution delta is not in (0, 1]."""


class InvalidThetaError(FracsmoothError, ValueError):
    """Assouad spectrum parameter theta outside the usable range."""


class InvalidSpectrumError(FracsmoothError, ValueError):
    """Spectrum values outside [0, 1]."""


class UnsupportedOrderError(FracsmoothError, ValueError):
    """Bessel order outside the supported set {0, 1/2, 1, 3/2}."""


class OutOfRangeError(FracsmoothError, ValueError):
    """Scalar parameter outside the documented domain."""


class RefineFailureError(FracsmoothError, RuntimeError):
    """Quadrature or grid refinement exhausted its budget.

    Carries the best error estimate achieved so far.
    """

    def __init__(self, message, achieved_error):
        super().__init__(f"{message} (achieved error {achieved_error:.3e})")
        self.achieved_error = achieved_error


class AdmissibilityError(FracsmoothError, ValueError):
    """A function failed the admissibility checks required by the operation."""


class DegenerateWindowError(FracsmoothError, RuntimeError):
    """Chosen window contains too few discretization points to proceed."""


class UnsupportedSetError(FracsmoothError, ValueError):
    """Operation needs a closed-form reference this set does not have."""
