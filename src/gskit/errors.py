"""Exception types shared across the toolkit."""


class GSKitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(GSKitError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class NotAnEquilibrium(GSKitError):
    """A point handed to a stability routine is not a fixed point."""


class NotOnHopfCurve(GSKitError):
    """Lyapunov-coefficient routines require a point on the Hopf curve."""


class ZeroPolynomial(GSKitError, ValueError):
    """Resultant of a zero polynomial is undefined."""


class SeedInvalid(GSKitError):
    """Continuation seed does not satisfy the defining system."""


class StepUnderflow(GSKitError):
    """Adaptive step size shrank below the minimum; the curve was lost."""


class NoReturn(GSKitError):
    """A trajectory never returned to the Poincare section."""


class NewtonDiverged(GSKitError):
    """Newton iteration failed to converge."""


class SaddleMissing(GSKitError):
    """Separatrix computation requires the saddle, which does not exist here."""


class SectionMiss(GSKitError):
    """A separatrix never reached the cross-section."""


class BracketNotFound(GSKitError):
    """No sign change was found for a bisection search."""
