"""Wheel-like guest networks, tree and circulant hosts, constructive
embeddings, and exact dilation/congestion/wirelength analysis."""

from .bounds import (
    BoundReport,
    THEOREM_IDS,
    congestion_lower_bound,
    dilation_lower_bound,
    verify_theorem,
    wirelength_lower_bound,
)
from .embedding import (
    EmbeddingMap,
    EmbeddingMetrics,
    HostNotHamiltonianError,
    build_embedding,
    embed_fan_via_median,
    embed_wheel_like_into_tree_host,
    embed_wheel_via_median,
    embed_windmill_into_circulant,
    evaluate,
    route_shortest,
)
from .families import (
    build_family,
    circulant,
    complete,
    complete_binary_tree,
    cycle,
    fan,
    friendship,
    generalized_petersen,
    hypertree,
    path,
    sibling_tree,
    star,
    torus,
    wheel,
    windmill,
    x_tree,
)
from .graphs import (
    Graph,
    all_pairs_distances,
    build_graph,
    graph_from_json,
    graph_to_json,
    has_universal_vertex,
    is_connected,
    max_degree,
    radius_diameter,
    shells,
    status_and_median,
)
from .hamiltonian import (
    HamiltonicityReport,
    SearchBudgetExceeded,
    find_hamiltonian_cycle,
    find_hamiltonian_path,
    is_f_fault_hamiltonian,
    is_f_fault_traceable,
    is_hypohamiltonian,
)
from .oracle import OracleResult, exact_congestion, exact_dilation, exact_wirelength

__version__ = "0.1.0"
