"""Stability, coherence, and leader selection for noisy consensus networks.

Nodes run order-m integrator chains driven by relative neighbor feedback;
leader nodes add absolute feedback, which grounds the Laplacian and makes
the steady-state output variance (coherence) finite.  This package checks
stability of such systems for m = 1..4, evaluates coherence in closed
form (validated by a Lyapunov-Gramian oracle and a stochastic
integrator), and picks near-optimal leader sets with a submodular greedy
that carries a 1 - 1/e guarantee.
"""

from .coherence import SystemContext, coherence_closed
from .graphs import erdos_renyi_connected
from .selection import certify_bound, exhaustive_select, greedy_select
from .system import GainVector, GroundedSystem

__version__ = "0.1.0"

# The README "Library sketch" names; the rest is imported from its module.
__all__ = [
    "GainVector",
    "GroundedSystem",
    "SystemContext",
    "certify_bound",
    "coherence_closed",
    "erdos_renyi_connected",
    "exhaustive_select",
    "greedy_select",
]
