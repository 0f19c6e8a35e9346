"""Spectral articulation-point certificates for weighted undirected networks.

The package certifies that nodes of a connected weighted graph are not
articulation points from eigenvalues of a locally perturbed Laplacian,
validates every certificate against exact combinatorial oracles, and ships a
numerical verification suite for the spectral identities the certificate
rests on.

:mod:`biconcert.verify`, that suite, is imported on the first read of one of
its names here (PEP 562), or by the ``verify`` command, not with the package.
"""

__version__ = "0.1.0"

from .bicon import (
    BiconnectivityReport,
    BoundMode,
    NodeCertificate,
    SpectralTest,
    articulation_points_bruteforce,
    articulation_points_oracle,
    certify_graph,
    doubly_connected_oracle,
    exact_norm_bound,
    is_biconnected_oracle,
    locally_biconnected,
    report_csv_rows,
    report_to_dict,
    simplified_bound,
    spectral_certificate,
    spectral_tests,
    spectral_tests_many,
)
from .errors import EigenConvergenceError, GraphInputError, PreconditionError
from .graph_core import (
    NodeId,
    PerturbationConfig,
    ProximityModel,
    WeightedGraph,
    coupling_matrix,
    from_edge_list,
    graph_from_dict,
    graph_to_dict,
    intermediate_matrix,
    laplacian,
    neighbor_weight_vector,
    perturbed_laplacian,
    proximity_graph,
    reduced_graph,
)
from .spectral import (
    algebraic_connectivity,
    general_eigen,
    is_connected_bfs,
    is_connected_spectral,
    symmetric_eigen,
)

__all__ = [
    "__version__",
    "BiconnectivityReport",
    "BoundMode",
    "CheckOutcome",
    "CombinationParams",
    "EigenConvergenceError",
    "GraphInputError",
    "NodeCertificate",
    "NodeId",
    "PerturbationConfig",
    "PreconditionError",
    "ProximityModel",
    "SpectralTest",
    "WeightedGraph",
    "algebraic_connectivity",
    "articulation_points_bruteforce",
    "articulation_points_oracle",
    "certify_graph",
    "check_combination_realness",
    "check_eigenvalue_gap_bound",
    "check_intermediate_spectrum",
    "check_null_drift_derivative",
    "check_rank_one_update_spectrum",
    "counterexample_search",
    "coupling_matrix",
    "doubly_connected_oracle",
    "exact_norm_bound",
    "from_edge_list",
    "general_eigen",
    "graph_from_dict",
    "graph_to_dict",
    "intermediate_matrix",
    "is_biconnected_oracle",
    "is_connected_bfs",
    "is_connected_spectral",
    "laplacian",
    "locally_biconnected",
    "neighbor_weight_vector",
    "perturbed_laplacian",
    "proximity_graph",
    "random_connected_graph",
    "random_graph",
    "reduced_graph",
    "report_csv_rows",
    "report_to_dict",
    "run_suite",
    "simplified_bound",
    "spectral_certificate",
    "spectral_tests",
    "spectral_tests_many",
    "suite_passed",
    "symmetric_eigen",
]


def __getattr__(name: str):
    # every name of __all__ not bound above belongs to biconcert.verify
    if name in __all__:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
