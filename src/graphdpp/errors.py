"""Exception and warning types shared across the package."""


class GraphDppError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(GraphDppError, ValueError):
    """Parameter values outside the supported domain."""


class OutOfRange(GraphDppError, ValueError):
    """An index or count argument outside its valid range."""


class TooLarge(GraphDppError):
    """Problem size exceeds a dense-computation guard."""


class NumericalDegeneracy(GraphDppError):
    """A probability mass or basis lost consistency beyond tolerance."""


class ZeroMarginal(GraphDppError):
    """A sampled node has zero inclusion probability."""


class DegenerateBasis(GraphDppError):
    """A selected sampling set left the restricted basis singular."""


class NoConvergence(GraphDppError):
    """An iterative routine failed to converge or exhausted its budget."""


class InvalidDistribution(GraphDppError, ValueError):
    """A probability vector is negative or not normalized."""


class ShapeMismatch(GraphDppError, ValueError):
    """Vector or matrix dimensions do not agree."""


class MissingWeights(GraphDppError):
    """A sampling set lacks the per-sample weights recovery requires."""


class SolverDiverged(GraphDppError):
    """The linear solver did not reach its residual tolerance."""


class WatchdogExceeded(GraphDppError):
    """A random-walk run exceeded its global step budget."""


class ParseError(GraphDppError, ValueError):
    """A config or CSV file could not be parsed."""


class IllConditionedWarning(UserWarning):
    """Recovery proceeded through a nearly singular restricted basis."""


class DegenerateCutoffWarning(UserWarning):
    """The bandlimit falls inside a repeated Laplacian eigenvalue."""
