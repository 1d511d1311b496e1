"""Stability, coherence, and leader selection for noisy consensus networks.

Nodes run order-m integrator chains driven by relative neighbor feedback;
leader nodes add absolute feedback, which grounds the Laplacian and makes
the steady-state output variance (coherence) finite.  This package checks
stability of such systems for m = 1..4, evaluates coherence in closed
form (validated by a Lyapunov-Gramian oracle and a stochastic
integrator), and picks near-optimal leader sets with a submodular greedy
that carries a 1 - 1/e guarantee.
"""

from .coherence import (
    CoherenceReport,
    SystemContext,
    TraceSetFunction,
    coherence_closed,
    coherence_lyapunov_oracle,
)
from .errors import LeaderSelError
from .graphs import (
    Graph,
    GraphFile,
    KappaWeights,
    LeaderSet,
    build_graph,
    erdos_renyi,
    erdos_renyi_connected,
    is_connected,
    laplacian,
    read_graph_file,
    six_node_example,
    unit_kappa,
    write_graph,
)
from .linalg import (
    TOLERANCES,
    SpectralDecomposition,
    lyapunov_solve,
    sherman_morrison_update,
    spd_inverse,
    spd_solve,
    sym_eigenvalues,
)
from .selection import (
    BoundCertificate,
    SelectionResult,
    Violation,
    certify_bound,
    check_monotone_submodular,
    exhaustive_select,
    exhaustive_sweep,
    greedy_select,
)
from .simulate import (
    SimulationSpec,
    simulate_coherence,
    simulate_trajectory,
    write_trajectory_csv,
)
from .stability import (
    StabilityReport,
    StateMatrices,
    auto_gains,
    build_state_matrices,
    check_stability,
    equal_gain_verdict,
    hurwitz_determinants,
    spectral_stability_oracle,
)
from .system import GainVector, GroundedSystem, grounded_matrix

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "CoherenceReport",
    "GainVector",
    "Graph",
    "GraphFile",
    "GroundedSystem",
    "KappaWeights",
    "LeaderSet",
    "LeaderSelError",
    "SelectionResult",
    "SimulationSpec",
    "SpectralDecomposition",
    "StabilityReport",
    "StateMatrices",
    "SystemContext",
    "TOLERANCES",
    "TraceSetFunction",
    "Violation",
    "auto_gains",
    "build_graph",
    "build_state_matrices",
    "certify_bound",
    "check_monotone_submodular",
    "check_stability",
    "coherence_closed",
    "coherence_lyapunov_oracle",
    "equal_gain_verdict",
    "erdos_renyi",
    "erdos_renyi_connected",
    "exhaustive_select",
    "exhaustive_sweep",
    "greedy_select",
    "grounded_matrix",
    "hurwitz_determinants",
    "is_connected",
    "laplacian",
    "lyapunov_solve",
    "read_graph_file",
    "sherman_morrison_update",
    "simulate_coherence",
    "simulate_trajectory",
    "six_node_example",
    "spd_inverse",
    "spd_solve",
    "spectral_stability_oracle",
    "sym_eigenvalues",
    "unit_kappa",
    "write_graph",
    "write_trajectory_csv",
]
