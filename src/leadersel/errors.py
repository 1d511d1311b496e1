"""Exception hierarchy shared across the package.

A caller learns the kind of refusal from the class and the details from
the message.
"""


class LeaderSelError(Exception):
    """Base class for all domain errors raised by this package."""


class GraphError(LeaderSelError):
    """Invalid graph structure."""


class SchemaError(LeaderSelError):
    """Graph file parses but violates the documented schema."""


class UnstableSystemError(LeaderSelError):
    """System fails the stability conditions (or is within the marginal band)."""


class LyapunovAccuracyError(LeaderSelError):
    """The Lyapunov solution misses its residual bound (A too close to the boundary)."""
