"""Exception hierarchy shared by all domekit modules."""


class DomekitError(Exception):
    """Base class for all domain errors raised by domekit."""


class DegenerateMobius(DomekitError):
    """Coefficient matrix has (numerically) zero determinant."""


class CrossingLeaves(DomekitError):
    """Two geodesics that are required to be disjoint interleave."""

    def __init__(self, i, j, message=None):
        self.i = i
        self.j = j
        super().__init__(message or f"leaves {i} and {j} cross")


class NonpositiveWeight(DomekitError):
    def __init__(self, i, message=None):
        self.i = i
        super().__init__(message or f"weight {i} is not strictly positive")


class MismatchedLengths(DomekitError, ValueError):
    """Two sequences that must pair up element by element differ in length."""


class TooManyLeaves(DomekitError):
    """Hard cap on lamination size exceeded."""


class NotTransverse(DomekitError):
    """An arc endpoint lies on a leaf (within tolerance)."""


class NonpositiveScale(DomekitError):
    pass


class UnknownGap(DomekitError):
    pass


class DegenerateCrescent(DomekitError):
    """The two circles are tangent or disjoint."""


class OutsideWedge(DomekitError):
    pass


class NotInjective(DomekitError):
    """Angle scaling parameters give a non-injective map."""


class TooFewPoints(DomekitError):
    pass


class NumericallyCoincident(DomekitError):
    pass


class PointNotInDomain(DomekitError):
    pass


class DepthTooSmall(DomekitError):
    """No essential loop closed up within the unfolding depth."""


class OutOfDomain(DomekitError):
    pass


class NonpositiveInput(DomekitError):
    pass


class NonpositiveModulusParameter(DomekitError):
    pass


class EmptyField(DomekitError):
    """No unmasked, non-degenerate cells to take statistics over."""
