"""Grow the k-truss of an undirected simple graph by merging node pairs."""

__version__ = "0.1.0"

from .graph import Edge, Graph, MergeOutcome, NodeId, ParseError, canon, merge_all
from .decomposition import (CoreDecomposition, TrussDecomposition, TrussView,
                            core_decompose, k_truss_edges, node_trussness,
                            post_merger_truss_size, shell_edges, truss_decompose,
                            truss_subgraph)
from .pruning import NodePartition, partition_nodes, prune_outside_maximal
from .candidates import (CandidateMerger, ConstraintFilter, MergerKind,
                         ScoringContext, find_iim_candidates, find_iom_candidates,
                         haversine_km, iim_score, incident_prospects,
                         load_coordinates, new_inside_neighbors, phse,
                         top_inside_nodes, top_outside_nodes)
from .search import (Method, MergerPlan, MergerStep, ObjectiveValue, RunConfig,
                     adaptive_search, adaptive_update, build_round_state, objective,
                     run_method)
from .baselines import (FixtureSpec, baseline_ne, baseline_nt, baseline_rd,
                        brute_force_best_merger, hardness_fixture, naive_greedy,
                        nonsubmodularity_witness, set_merge_pairs)
from .metrics import (CORE_METRICS, METRIC_DIRECTION, MetricId, StudyTrace, TraceRow,
                      avg_local_clustering, avg_edge_betweenness,
                      avg_vertex_betweenness, average_distance,
                      betweenness_profile, compute_metrics, correlation_study,
                      effective_resistance_total, evaluate_metric, gen_er,
                      gen_hk, gen_ws, greedy_improve, is_connected,
                      natural_connectivity, pearson_r, spectral_gap,
                      transitivity)

__all__ = [
    "__version__",
    "Edge", "Graph", "MergeOutcome", "NodeId", "ParseError", "canon", "merge_all",
    "CoreDecomposition", "TrussDecomposition", "TrussView", "core_decompose",
    "k_truss_edges", "node_trussness", "post_merger_truss_size", "shell_edges",
    "truss_decompose", "truss_subgraph",
    "NodePartition", "partition_nodes", "prune_outside_maximal",
    "CandidateMerger", "ConstraintFilter", "MergerKind", "ScoringContext",
    "find_iim_candidates", "find_iom_candidates", "haversine_km", "iim_score",
    "incident_prospects", "load_coordinates", "new_inside_neighbors", "phse",
    "top_inside_nodes", "top_outside_nodes",
    "Method", "MergerPlan", "MergerStep", "ObjectiveValue", "RunConfig",
    "adaptive_search", "adaptive_update", "build_round_state", "objective", "run_method",
    "FixtureSpec", "baseline_ne", "baseline_nt", "baseline_rd",
    "brute_force_best_merger", "hardness_fixture", "naive_greedy",
    "nonsubmodularity_witness", "set_merge_pairs",
    "CORE_METRICS", "METRIC_DIRECTION", "MetricId", "StudyTrace", "TraceRow",
    "avg_local_clustering", "avg_edge_betweenness", "avg_vertex_betweenness",
    "average_distance", "betweenness_profile", "compute_metrics",
    "correlation_study", "effective_resistance_total", "evaluate_metric",
    "gen_er", "gen_hk", "gen_ws", "greedy_improve", "is_connected",
    "natural_connectivity", "pearson_r", "spectral_gap", "transitivity",
]
