"""Sphere-valued oscillator networks over coupling graphs.

Simulation of the heterogeneous model, exact linearization at
equilibria, and certificates of exponential instability for dispersed
equilibria under a total frequency budget.
"""

from .dynamics import (
    LoheSystem,
    disagreement,
    disagreement_gradient,
    extended_rhs,
    hetero_rhs,
    homo_rhs,
    kuramoto_rhs,
    random_configuration,
    random_frequencies,
    zero_frequencies,
)
from .geometry import (
    great_circle_point,
    pairwise_angle,
    project_tangent,
    random_skew,
    random_unit,
    renormalize,
    spectral_norm,
)
from .network import (
    CouplingGraph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    min_gain,
    path_graph,
)
from .simulate import (
    EquilibriumResult,
    IntegrationDiverged,
    Trajectory,
    find_equilibrium,
    integrate,
    integrate_kuramoto,
    is_practically_synced,
    sync_radius,
)
from .spectral import (
    KahanBound,
    LinearizationReport,
    assemble_A,
    assemble_B,
    eigenvalues,
    kahan_bound,
    linearize,
    spectral_abscissa,
)
from .stability import (
    BoundReport,
    DispersedReport,
    bound_f,
    fixture_by_name,
    g1,
    g2,
    is_dispersed,
    lagrange_residual,
    lagrange_roots,
    theorem_rhs,
    twisted_state,
    verify_theorem,
)

__version__ = "0.1.0"
