"""Exception hierarchy shared across the package."""


class LeaderSelError(Exception):
    """Base class for all domain errors raised by this package."""


# -- graph construction and I/O ------------------------------------------

class GraphError(LeaderSelError):
    """Invalid graph structure."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class NonPositiveWeightError(GraphError):
    pass


class NodeOutOfRangeError(GraphError):
    pass


class InvalidProbabilityError(GraphError):
    pass


class ParseError(LeaderSelError):
    """Graph file is not valid JSON."""


class SchemaError(LeaderSelError):
    """Graph file parses but violates the documented schema."""


# -- linear algebra kernel -----------------------------------------------

class NotSymmetricError(LeaderSelError):
    pass


class NotPositiveDefiniteError(LeaderSelError):
    pass


class SingularUpdateError(LeaderSelError):
    """Rank-one update denominator is at or below tolerance."""


class UnstableMatrixError(LeaderSelError):
    """Lyapunov solve failed: A is singular, not stable, or the residual bound is missed."""


class LyapunovAccuracyError(UnstableMatrixError):
    """The Lyapunov solution misses its residual bound (A too close to the boundary)."""


class DimensionCapError(LeaderSelError):
    pass


class EigenFailureError(LeaderSelError):
    pass


# -- stability / coherence / selection ------------------------------------

class UnsupportedOrderError(LeaderSelError):
    pass


class EmptyLeaderSetError(LeaderSelError):
    pass


class UnstableSystemError(LeaderSelError):
    """System fails the stability conditions (or is within the marginal band)."""


class PreconditionViolatedError(LeaderSelError):
    pass


class CombinatorialCapError(LeaderSelError):
    pass


# -- simulation ------------------------------------------------------------

class StepTooLargeError(LeaderSelError):
    pass
