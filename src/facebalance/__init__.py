"""Exact face-number invariants, Cohen-Macaulay tests, and d-colorable
multicomplex witnesses for simplicial complexes at desk scale."""

from .complexes import (ComplexError, Graph, SimplicialComplex, VerificationError,
                        clique_complex, convolve, f_from_h, h_from_f,
                        independence_complex, is_full_dimensional_subcomplex,
                        maximal_independent_sets, parse_complex, parse_graph)
from .homology import CMViolation, cm_report, is_cohen_macaulay, reduced_betti
from .polynomials import (LinearAutomorphism, Multicomplex, Specialization,
                          StandardBasisOverflow, TermOrder,
                          specialization_stream, standard_monomial_basis)
from .balancing import (BalancedWitness, BalancingPair, CoverError,
                        balanced_witness, factor_complex, join_of_factors,
                        kind_kleinschmidt, parse_cover)
from .classify import (PGDecomposition, Verdict, basic_5_cycles,
                       classify_girth5, embed_in_join, exceptional_catalog,
                       girth, independent_facet_transversal, is_isomorphic,
                       is_well_covered, pendant_edges, pg_decomposition)
from .samples import flag_sphere_graph, pg_sample_graph

__version__ = "0.1.0"
