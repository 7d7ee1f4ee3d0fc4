"""Sphere-valued oscillator networks over coupling graphs.

Simulation of the heterogeneous model, exact linearization at equilibria, and
certificates of exponential instability for dispersed equilibria under a total
frequency budget. Each public name loads its submodule, and numpy, on first use.
"""

import importlib

_EXPORTS = {name: module for module, names in {
    "dynamics": "LoheSystem disagreement disagreement_gradient extended_rhs hetero_rhs homo_rhs "
                "kuramoto_rhs random_configuration random_frequencies zero_frequencies",
    "geometry": "pairwise_angle",
    "network": "CouplingGraph complete_graph cycle_graph from_edge_list min_gain path_graph",
    "simulate": "EquilibriumResult IntegrationDiverged Trajectory find_equilibrium integrate "
                "integrate_kuramoto sync_radius",
    "spectral": "KahanBound LinearizationReport assemble_A assemble_B eigenvalues kahan_bound "
                "linearize",
    "stability": "BoundReport DispersedReport bound_f g1 g2 is_dispersed "
                 "lagrange_residual lagrange_roots theorem_rhs twisted_state verify_theorem",
}.items() for name in names.split()}
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
