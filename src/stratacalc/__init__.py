"""Exact symbolic calculus on decorated stable dual graphs.

Graphs, canonical forms and enumeration live in :mod:`stratacalc.graphs`;
formal rational classes in :mod:`stratacalc.classes`; the genus-lowering
operator in :mod:`stratacalc.invariance`; the interior forgetful-pushforward
calculus in :mod:`stratacalc.pushforward`; the per-instance independence
verifier in :mod:`stratacalc.verifier`.
"""

from .classes import (
    INHOMOGENEOUS,
    ZERO_DEGREE,
    AmbientSignature,
    TautClass,
    monomial_class,
)
from .errors import InvalidGraphError, SignatureError, SizeGuardError
from .graphs import (
    DecoratedGraph,
    arithmetic_genus,
    automorphism_count,
    canonical_form,
    canonicalize,
    component_count,
    disjoint_union,
    enumerate_stable_graphs,
    single_vertex,
)
from .invariance import (
    cut_edges,
    invariance_operator,
    reduce_genus,
    split_vertices,
)
from .pushforward import (
    InteriorClass,
    InteriorMonomial,
    double_factorial,
    faber_constant,
    forget_pushforward,
    interior_to_taut,
    kappa_nonvanishing_report,
    pullback_lift,
    taut_to_interior,
    verify_kappa_identity,
)
from .verifier import (
    boundary_generators,
    generator_monomials,
    solve_coefficient_system,
    verify_witness_independence,
    witness_graph_for,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientSignature",
    "DecoratedGraph",
    "INHOMOGENEOUS",
    "InteriorClass",
    "InteriorMonomial",
    "InvalidGraphError",
    "SignatureError",
    "SizeGuardError",
    "TautClass",
    "ZERO_DEGREE",
    "arithmetic_genus",
    "automorphism_count",
    "boundary_generators",
    "canonical_form",
    "canonicalize",
    "component_count",
    "cut_edges",
    "disjoint_union",
    "double_factorial",
    "enumerate_stable_graphs",
    "faber_constant",
    "forget_pushforward",
    "generator_monomials",
    "interior_to_taut",
    "invariance_operator",
    "kappa_nonvanishing_report",
    "monomial_class",
    "pullback_lift",
    "reduce_genus",
    "single_vertex",
    "solve_coefficient_system",
    "split_vertices",
    "taut_to_interior",
    "verify_kappa_identity",
    "verify_witness_independence",
    "witness_graph_for",
]
