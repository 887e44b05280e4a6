"""Exception hierarchy shared by all domekit modules, and the input checks
that turn a malformed input file into one of these errors."""
import json
import math


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
    def __init__(self, i):
        self.i = i
        super().__init__(f"weight {i} is not strictly positive")


class MismatchedLengths(DomekitError, ValueError):
    """Two sequences that must pair up element by element differ in length."""


class InvalidInput(DomekitError, ValueError):
    """Input that describes no valid object: malformed JSON, a missing key, a
    wrongly shaped entry, a non-finite number, coincident endpoints or
    identical leaves."""


class DevelopmentFailed(DomekitError, ValueError):
    """The dome surface could not be developed from a point: the point lies
    off the face it is said to lie on.  Every edge has a gluing map."""


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


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


def read_json(path):
    """Parse a JSON input file; text that is not JSON raises InvalidInput."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise InvalidInput(f"{path}: not valid JSON: {exc}") from None


def input_field(data, key: str, parse):
    """``parse(data[key])``, a missing key or a malformed value raising InvalidInput.

    ``parse`` signals a malformed value by TypeError or ValueError.
    """
    try:
        value = data[key]
    except (KeyError, TypeError):
        raise InvalidInput(f"missing key {key!r}") from None
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{key}: {exc}") from None


def finite_float(x) -> float:
    """float(x), raising ValueError unless it is finite (JSON NaN included)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x}")
    return x
