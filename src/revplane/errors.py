"""Shared exception types for the revplane package."""


class StarViolation(Exception):
    """The radial metric coefficient m hit zero at some r > 0.

    The prescribed curvature does not define a complete smooth plane:
    the warping function of a genuine plane must stay positive away
    from the origin.
    """

    def __init__(self, first_zero, message=None):
        self.first_zero = float(first_zero)
        super().__init__(message or f"m(r) vanishes at r = {self.first_zero:.10g}")


class OutOfWindow(ValueError):
    """A radius outside the solved window [0, r_max] was requested."""


class Undetermined(Exception):
    """A turn-angle comparison against pi landed inside the error band.

    Carries the computed value and error so callers can decide whether
    to retry at a tighter tolerance.
    """

    def __init__(self, value, abs_error, message=None):
        self.value = float(value)
        self.abs_error = float(abs_error)
        super().__init__(
            message
            or f"turn angle {self.value:.12g} within {self.abs_error:.3g} of pi; refine tolerance"
        )


class BuildError(Exception):
    """A plane construction failed validation (bad parameters, no bracket...)."""
