"""Exact face-number invariants, Cohen-Macaulay tests, and d-colorable
multicomplex witnesses for simplicial complexes at desk scale."""

from .complexes import (ComplexError, Graph, SimplicialComplex, VerificationError,
                        clique_complex, convolve, f_from_h, h_from_f,
                        independence_complex, is_full_dimensional_subcomplex,
                        maximal_independent_sets, parse_complex, parse_graph)
from .homology import (BettiProfile, CMViolation, boundary_rank, cm_report,
                       is_cohen_macaulay, reduced_betti)
from .polynomials import (LinearAutomorphism, Multicomplex, Specialization,
                          StandardBasisOverflow, TermOrder, apply_automorphism,
                          initial_ideal_by_degree, specialization_stream,
                          stanley_reisner_generators, standard_monomial_basis)
from .balancing import (BalancedWitness, BalancingPair, CoverError,
                        balanced_witness, base_pair_points,
                        base_pair_near_bipartite, compose_pairs, factor_complex,
                        inherit_to_subcomplex, join_of_factors,
                        kind_kleinschmidt, parse_cover)
from .classify import (PGDecomposition, Verdict, basic_5_cycles, beta,
                       classify_girth5, count_triangles, embed_in_join,
                       exceptional_catalog, girth,
                       independent_facet_transversal, is_isomorphic,
                       is_well_covered, pendant_edges, pg_decomposition,
                       turan_graph)
from .samples import flag_sphere_graph, pg_sample_graph

__version__ = "0.1.0"
