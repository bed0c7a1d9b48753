"""rtlab: builders and exhaustive checkers for sphere-based extremal
graph and hypergraph constructions."""

from .constructions import (ConstructionParams, bollobas_erdos,
                            corollary_graph, full_construction, optimize_a,
                            random_blowup, shadow_first_parts,
                            sphere_hypergraph, theta_lower_bound,
                            tuple_vertices)
from .drc import (DrcParams, FWitness, PipelineFailure, drc_feasible,
                  drc_find_set, find_f_witness, find_tkf5_tk4, hyper_drc)
from .hypergraph import (PartitionedHypergraph, SimpleGraph, blowup,
                         clean_low_codegree, complete_join, read_graph,
                         read_hypergraph, shadow, turan_hypergraph,
                         write_graph, write_hypergraph)
from .sphere import (SphericalCap, SpherePartition, build_partition,
                     cap_measure, check_p4, distance, estimate_dt,
                     find_eps_k)
from .verifiers import (BudgetExceeded, Embedding, VerificationReport,
                        alpha_t, density_report, find_clique, find_tk,
                        find_tkf_core, hyper_independence,
                        scan_sparse_patterns, scan_split_core)

__version__ = "0.1.0"
