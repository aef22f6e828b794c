"""Exception hierarchy shared by all modules."""


class RoughBodyError(Exception):
    """Base class for every error raised by this package."""


class DegenerateSimplex(RoughBodyError):
    """A simplex has (numerically) zero k-volume."""


class NonManifoldOverlap(RoughBodyError):
    """Two simplices of the same degree have intersecting interiors."""


class ComplexMismatch(RoughBodyError):
    """Operands live on different complexes."""


class DegreeMismatch(RoughBodyError):
    """Operands have incompatible degrees."""


class DegreeZero(RoughBodyError):
    """Operation requires degree >= 1."""


class TopDegree(RoughBodyError):
    """Coboundary of a top-degree cochain is not defined on the mesh."""


class DegreeOverflow(RoughBodyError):
    """A wedge product would exceed the ambient dimension."""


class WrongDegree(RoughBodyError):
    """A chain of unexpected degree was supplied."""


class AmbientTooSmall(RoughBodyError):
    """A chain references simplices outside the ambient complex."""


class TooFewChains(RoughBodyError, ValueError):
    """A sequence certificate was given fewer than two chains."""


class MassBudgetExceeded(RoughBodyError):
    """An adaptive mass integral did not close its bracket within the piece budget."""


class LPNumericalFailure(RoughBodyError):
    """The simplex solver failed to produce a verified optimum."""


class EmptyRegion(RoughBodyError):
    """A region argument contains no simplices."""


class NonSimplexImage(RoughBodyError):
    """A piecewise-affine map cannot produce simplex images (dimension mismatch)."""


class GeneratorOverlap(RoughBodyError):
    """A trace generator's boundary overlaps the body boundary with positive measure."""


class OverlayFailure(RoughBodyError):
    """Two bodies cannot be traced against each other, or a prefractal level failed its area check."""


class ExtensionDependence(RoughBodyError):
    """Two admissible velocity extensions give different flux values."""


class DeclaredConstantViolated(RoughBodyError):
    """An empirical balance constant exceeds the declared one."""


class OrientationReversal(RoughBodyError):
    """A configuration has a simplex with non-positive Jacobian determinant."""


class SchemaViolation(RoughBodyError):
    """An input file does not match its JSON schema."""
