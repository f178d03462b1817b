"""Neighborhood complexes of finite graphs.

Construction of the complex of commonly-dominated vertex sets, its
homology computed on its strong core (dominated vertices deleted, which
keeps the homotopy type and shrinks the chain complex), the closed-set
poset and its order complex as an independent cross-check, the clique
number from a pruned maximum-clique search, sphere certificates on the
maximal cliques of simplicial vertices, chromatic lower bounds,
first-moment bounds with asymptotic windows, and seeded random-graph
surveys that reproduce byte for byte.
"""

from .errors import FormatError, ParseError, ResourceCapError
from .graphs import (Graph, SubgraphWitness, clique_number,
                     complete_bipartite_graph, complete_graph,
                     contains_complete_bipartite, contains_xn, cycle_graph,
                     density, derive_trial_seed, from_family_spec,
                     gnp_sample, is_strictly_balanced, kneser_graph,
                     make_named_graph, maximal_cliques, maximum_clique,
                     parse_edge_list, path_graph, serialize_edge_list,
                     witness_is_valid, xn_graph)
from .complexes import (ClosedSetPoset, SimplicialComplex, closed_set_poset,
                        closed_set_stats, closure, common_neighbors,
                        facet_list_text, lovasz_retract, neighborhood_complex,
                        neighborliness, parse_facet_list)
from .homology import (AtLeast, ChainComplexData, HomologyResult,
                       betti_field2, boundary_matrices,
                       euler_characteristic, graph_homology,
                       homological_connectivity, homology_integer,
                       smith_normal_form)
from .certificates import (BoundComparison, ObstructionWitness,
                           SphereCertificate, bound_comparison,
                           chromatic_number_exact, comparisons_csv,
                           find_sphere_certificates,
                           neighborliness_chromatic_bound,
                           obstructed_clique_extension, obstruction_test,
                           sphere_certificate)
from .asymptotics import (WindowReport, biclique_count_bound,
                          biclique_count_bound_exact, clique_extension_bound,
                          neighborliness_failure_bound,
                          neighborliness_failure_bound_exact,
                          nonvanishing_dimension_window,
                          nonvanishing_exponent_window,
                          subgraph_threshold_exponent,
                          vanishing_dimension_window,
                          vanishing_exponent_bounds)
from .experiments import (Caps, ExperimentConfig, ProbabilitySummary,
                          SurveySummary, TrialRecord, aggregate, betti_sweep,
                          count_strict_local_maxima, read_records,
                          records_from_csv, records_from_jsonl,
                          records_to_csv, records_to_jsonl, run_survey,
                          run_trial, write_records)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
