"""Generator/boundary enumeration, witnesses, coefficient systems, reports."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest

from stratacalc import (
    AmbientSignature,
    DecoratedGraph,
    InteriorMonomial,
    SignatureError,
    SizeGuardError,
    TautClass,
    boundary_generators,
    canonical_form,
    disjoint_union,
    enumerate_stable_graphs,
    generator_monomials,
    invariance_operator,
    kappa_nonvanishing_report,
    single_vertex,
    solve_coefficient_system,
    verify_kappa_identity,
    verify_witness_independence,
    witness_graph_for,
)
from stratacalc import graphs, pushforward, verifier
from stratacalc.invariance import _BARE, _candidates, _reach, _shape, _target_key
from stratacalc.serialize import dumps

from oracles import (
    boundary_generators_reference,
    full_image_extraction,
    generator_monomials_reference,
    targeted_image_reference,
    witness_assumptions_reference,
    witness_graph_reference,
)


def mono(kappa=(), psi=None):
    return InteriorMonomial(tuple(kappa), psi or {})


# ------------------------------------------------------------- generators

def test_generators_degree1():
    assert generator_monomials(6, 0, 1) == [mono((1,))]
    assert set(generator_monomials(9, 2, 1)) == {
        mono((1,)), mono(psi={1: 1}), mono(psi={2: 1})}


def test_generators_degree2():
    got = set(generator_monomials(6, 1, 2))
    assert got == {mono((1, 1)), mono((2,)), mono((1,), {1: 1}), mono(psi={1: 2})}


def test_generators_sorted_and_bounded():
    gens = generator_monomials(9, 1, 3)
    assert gens == sorted(gens)
    assert all(m.degree == 3 for m in gens)
    assert all(k <= 3 for m in gens for k in m.kappa)
    with pytest.raises(ValueError):
        generator_monomials(6, 0, 3)   # k > floor(g/3)
    with pytest.raises(ValueError, match="n must be non-negative, got -1"):
        generator_monomials(6, -1, 1)


def test_generator_monomials_match_reference():
    """The decoration walk gives the former generator loop's list, in order,
    over the verifier's range and at the benchmark's set-up inputs."""
    cases = [(g, n, k) for g in range(3, 13) for n in range(9)
             for k in range(min(3, g // 3) + 1)]
    for g, n, k in cases + [(12, 8, 4), (30, 6, 6), (24, 8, 5)]:
        assert generator_monomials(g, n, k) == generator_monomials_reference(g, n, k), (g, n, k)


# ------------------------------------------------------- boundary generators

def test_boundary_degree1_genus6():
    graphs = boundary_generators(6, 0, 1)
    assert len(graphs) == 4
    assert all(G.n_edges == 1 and G.degree() == 1 for G in graphs)
    genera = sorted(tuple(sorted(G.genera)) for G in graphs)
    assert genera == [(1, 5), (2, 4), (3, 3), (5,)]


def test_boundary_degree1_matches_enumeration():
    graphs = boundary_generators(2, 0, 1)
    assert len(graphs) == 2
    # one edge already has degree 1, so no boundary graph carries a decoration
    assert graphs == enumerate_stable_graphs(2, 0, 1)


def test_boundary_degree2_genus3():
    graphs = boundary_generators(3, 0, 2)
    assert all(G.degree() == 2 and G.n_edges >= 1 for G in graphs)
    one_edge = [G for G in graphs if G.n_edges == 1]
    two_edge = [G for G in graphs if G.n_edges == 2]
    # one-edge graphs carry a single degree-1 decoration; two-edge are bare
    assert all(G.degree() - G.n_edges == 1 for G in one_edge)
    assert all(G.degree() - G.n_edges == 0 for G in two_edge)
    assert len(one_edge) == 6 and len(two_edge) == 5
    forms = [canonical_form(G) for G in graphs]
    assert len(set(forms)) == len(forms) and forms == sorted(forms)


def test_boundary_size_guard():
    with pytest.raises(SizeGuardError):
        boundary_generators(12, 0, 4)


def test_boundary_generators_match_decorated_degeneration_oracle():
    """Forms and representatives equal those of every decoration of the
    ``degeneration_strata`` graphs, placed by brute force and searched by the
    reference search: fixed instances, n = 0 ones whose top level has k edges
    among them, and a seeded sweep with g <= 9, n <= 5 and k <= 3, whose
    grid bounds the cost of the instances drawn."""
    rng = random.Random(2201)
    grid = [(g, n, k) for g in range(10) for n in range(6) for k in range(1, 4)
            if n + 2 * k <= 7]
    fixed = [(2, 5, 2), (9, 0, 3), (6, 2, 2), (6, 0, 2), (3, 0, 2), (2, 0, 3), (1, 1, 1),
             (0, 2, 1)]
    for g, n, k in fixed + rng.sample(grid, 8):
        ours = boundary_generators(g, n, k)
        reference = boundary_generators_reference(g, n, k)
        assert [canonical_form(G) for G in ours] == [form for form, _ in reference], (g, n, k)
        assert ours == [canon for _, canon in reference], (g, n, k)


def test_boundary_generators_search_each_decorated_candidate_once(monkeypatch):
    """The search cache misses once per shape candidate and once per
    decoration of a placed graph.  At (2,5,2): 862 misses for 842 forms and
    12 shapes, where decorating the enumerated representatives missed 1,041
    times.  At (9,0,3): 684 misses for 360 forms, as a shape with k edges is
    its own only graph and decoration, searched already; searching its
    representative again makes 741.  No graph below degree k is searched
    but the shapes: a placed graph with fewer than k edges is only
    decorated."""
    real = graphs._canonical_search
    for (g, n, k), forms, shape_count, want in (((2, 5, 2), 842, 12, 862),
                                                ((9, 0, 3), 360, 186, 684)):
        searched = []

        def recording(G):
            searched.append(G)
            return real(G)

        real.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(graphs, "_canonical_search", recording)
            found = boundary_generators(g, n, k)
        misses = real.cache_info().misses
        shapes = {real(DecoratedGraph(G.genera, (),
                                      [(v1, 0, v2, 0) for v1, _, v2, _ in G.edges]))[0]
                  for G in enumerate_stable_graphs(g, n, k, 0)}
        assert len(found) == forms and len(shapes) == shape_count, (g, n, k)
        assert misses == len(set(searched)) == want <= len(found) + 2 * len(shapes)
        dressed = [G for G in searched if G.legs or G.degree() > G.n_edges]
        assert dressed and all(G.degree() == k for G in dressed), (g, n, k)


# ----------------------------------------------------------------- witnesses

def test_witness_generic_kappa1():
    w = witness_graph_for(mono((1,)), 6, 0)
    expected = disjoint_union(single_vertex(5, [(1, 0)], (1,)),
                              single_vertex(1, [(2, 0)]))
    assert canonical_form(w) == canonical_form(expected)


def test_witness_mixed_top_degree():
    w = witness_graph_for(mono((1,), {1: 1}), 6, 1)
    expected = disjoint_union(single_vertex(3, [(2, 0)], (1,)),
                              single_vertex(3, [(1, 1), (3, 0)]))
    assert canonical_form(w) == canonical_form(expected)


def test_witness_pure_psi_two_marks():
    w = witness_graph_for(mono(psi={1: 1, 2: 1}), 6, 2)
    expected = disjoint_union(single_vertex(3, [(1, 1), (3, 0)]),
                              single_vertex(3, [(2, 1), (4, 0)]))
    assert canonical_form(w) == canonical_form(expected)


def test_witness_no_witness_branches():
    assert witness_graph_for(mono((2,)), 6, 0) is None
    assert witness_graph_for(mono((2,)), 6, 1) is None
    assert witness_graph_for(mono(psi={1: 2}), 6, 1) is None


def test_witness_top_kappa_with_two_marks_exists():
    w = witness_graph_for(mono((2,)), 6, 2)
    assert w is not None
    assert w.n_edges == 0
    genera = tuple(sorted(w.genera))
    assert genera == (0, 6)


def test_witness_degree_range():
    with pytest.raises(ValueError):
        witness_graph_for(mono((1, 1, 1)), 6, 0)


# ----------------------------------------------------------- linear systems

@pytest.mark.parametrize("g", [3, 4, 6, 9])
def test_system_two_by_two(g):
    rep = solve_coefficient_system(g, 1)
    assert rep.mode == "two-by-two"
    assert rep.matrix == ((2 * g - 1, 1), (1, 1))
    assert rep.determinant == 2 * g - 2
    assert rep.passed


def test_system_distinct_images():
    rep = solve_coefficient_system(6, 3)
    assert rep.mode == "distinct-images"
    assert rep.factor == 12
    assert rep.passed
    rep = solve_coefficient_system(6, 2)
    assert rep.factor == 11 and rep.passed
    rep = solve_coefficient_system(9, 2)
    assert rep.factor == 17 and rep.passed


# ------------------------------------------------------------- verification

# witness overrides for kappa_1 on (6, 0, 1); legs 1 and 2 are i and j.
# The (4,2) split term is a second legitimate witness for kappa_1.
ALT_WITNESS = disjoint_union(single_vertex(4, [(1, 0)], (1,)),
                             single_vertex(2, [(2, 0)]))
# Wrong kappa decoration: the graph never appears in the image of kappa_1.
BOGUS_WITNESS = disjoint_union(single_vertex(5, [(1, 0)], (2,)),
                               single_vertex(1, [(2, 0)]))
# psi on leg i: cutting the (5,1) bridge produces it, and it breaks the
# structural shape.
PSI_WITNESS = disjoint_union(single_vertex(5, [(1, 1)]),
                             single_vertex(1, [(2, 0)]))
# One edge: a term of the split image of the (5,1) bridge.
EDGE_WITNESS = DecoratedGraph((4, 1, 1), ((0, 1, 0), (2, 2, 0)), ((0, 0, 1, 0),))
# One vertex: the reduce image of kappa_1.
REDUCE_WITNESS = single_vertex(5, [(1, 0), (2, 0)], (1,))
# Genera 4 + 1: the legs and kappa of kappa_1 split, but not its genus 6, so no
# move of kappa_1 gives it.
GENUS_WITNESS = disjoint_union(single_vertex(4, [(1, 0)], (1,)),
                               single_vertex(1, [(2, 0)]))

def test_verify_basic_instance():
    rep = verify_witness_independence(6, 0, 1)
    assert rep.passed
    assert rep.boundary_total == 4
    (entry,) = rep.entries
    assert entry.branch == "witness-split"
    assert entry.self_coefficient == "-1/2"
    assert entry.boundary_coefficients == ("0", "0", "0", "0")
    assert entry.generator_coefficients == ()


def test_verify_branch_totality_and_routing():
    rep = verify_witness_independence(6, 1, 2)
    assert rep.passed
    branches = {e.monomial: e.branch for e in rep.entries}
    assert branches == {
        "kappa_1^2": "witness-split",
        "kappa_1*psi_1": "witness-split",
        "kappa_2": "pushforward-system",
        "psi_1^2": "pushforward-system",
    }
    assert len(rep.entries) == len(generator_monomials(6, 1, 2))


def test_verify_proposition_branch_at_top_kappa():
    rep = verify_witness_independence(6, 0, 2)
    branches = {e.monomial: e.branch for e in rep.entries}
    assert branches["kappa_2"] == "proposition1"
    assert branches["kappa_1^2"] == "witness-split"
    entry = next(e for e in rep.entries if e.monomial == "kappa_2")
    assert entry.constant == str(Fraction(231, 5))
    assert rep.passed


def test_verify_structural_argument_recorded():
    rep = verify_witness_independence(7, 0, 1)
    assert rep.structural_ok
    assert rep.passed
    (entry,) = rep.entries
    assert entry.self_coefficient == "-1/2"


def test_verify_reports_are_byte_identical():
    a = dumps(verify_witness_independence(6, 1, 1).to_obj())
    b = dumps(verify_witness_independence(6, 1, 1).to_obj())
    assert a == b


def test_report_records_keep_fields_defaults_and_repr():
    """The six report records are named tuples with the fields, in order, and
    the defaults they had as dataclasses, and they print as they did then (the
    digest was taken of the dataclass reprs).  A report is immutable."""
    records = {
        verifier.SystemReport: (
            ("g", "n", "k", "mode", "unknowns", "matrix", "determinant", "factor",
             "images", "assumptions", "passed"), {}),
        verifier.MonomialEntry: (
            ("monomial", "branch", "passed", "witness_hex", "witness_display",
             "self_coefficient", "generator_coefficients", "boundary_coefficients",
             "constant", "system", "assumptions", "extrapolated", "violations"),
            {"witness_hex": None, "witness_display": None, "self_coefficient": None,
             "generator_coefficients": (), "boundary_coefficients": (), "constant": None,
             "system": None, "assumptions": (), "extrapolated": False, "violations": ()}),
        verifier.VerificationReport: (
            ("g", "n", "k", "i_label", "j_label", "entries", "boundary_forms",
             "structural_ok", "structural_violations", "sub_instances", "passed",
             "not_checked"),
            {"sub_instances": (), "passed": False, "not_checked": ()}),
        pushforward.KappaIdentityReport: (
            ("g", "l", "ok", "lhs", "rhs", "extreme_constant"), {}),
        pushforward.KappaFactorEntry: (("l", "constant", "nondegenerate", "relation"), {}),
        pushforward.KappaNonvanishingReport: (
            ("g", "entries", "all_nondegenerate", "axiom"),
            {"axiom": "kappa_{g-2} != 0 in the interior ring (assumed, not verified)"}),
    }
    for record, (fields, defaults) in records.items():
        assert (record._fields, record._field_defaults) == (fields, defaults), record
    report = verify_witness_independence(6, 1, 1)
    text = "".join(map(repr, (
        verify_kappa_identity(4, 1), verify_kappa_identity(5, 0),
        kappa_nonvanishing_report(5), solve_coefficient_system(6, 1),
        solve_coefficient_system(6, 3), report)))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e425671a9eb10da5f1f7687c78c7d6d23779f606fadae2bee597e7cc907d1193"
    with pytest.raises(AttributeError):
        report.passed = False


def test_report_with_a_pushforward_system_entry_hashes():
    """A pushforward-system entry holds its ``SystemReport``, a tuple of
    hashable fields, so a report holding one hashes as its field tuple; the
    report writes the system's ``to_obj``."""
    report = verify_witness_independence(6, 1, 2)
    system = solve_coefficient_system(6, 1)
    systems = [e.system for e in report.entries if e.branch == "pushforward-system"]
    assert len(systems) == 2 and set(systems) == {system}
    assert hash(report) == hash(verify_witness_independence(6, 1, 2))
    assert [e["system"] for e in report.to_obj()["entries"] if "system" in e] == \
        [system.to_obj()] * 2


def test_verify_extrapolated_flag_multimark_low_degree():
    rep = verify_witness_independence(6, 2, 1)
    assert rep.passed
    assert all(e.extrapolated for e in rep.entries)


def test_verify_alternative_valid_witness_still_passes():
    rep = verify_witness_independence(
        6, 0, 1, witness_overrides={mono((1,)): ALT_WITNESS})
    assert rep.passed


def test_witness_table_matches_reference_sweep():
    """One table gives the witness and its induction inputs: on every generator
    monomial of the guarded range the witness graph equals the former
    case-by-case one, and the inputs read off it equal those the former case
    split named from the monomial."""
    count = 0
    for g in range(3, 31):
        for n in range(9):
            for k in range(1, min(3, g // 3) + 1):
                for m in generator_monomials(g, n, k):
                    count += 1
                    witness = witness_graph_for(m, g, n)
                    assert witness == witness_graph_reference(m, g, n), (g, n, m)
                    if witness is not None:
                        insts, notes, extrapolated = verifier._witness_assumptions(
                            m, g, n, witness)
                        assert (insts, notes, extrapolated) == \
                            witness_assumptions_reference(m, g, n), (g, n, m)
    assert count == 17688


def test_override_assumptions_are_read_off_the_override():
    # the (4,2) split assumes the genus-4 part; the default (5,1) split's
    # instance is not assumed
    rep = verify_witness_independence(
        6, 0, 1, witness_overrides={mono((1,)): ALT_WITNESS})
    (entry,) = rep.entries
    assert entry.assumptions == (
        "independence of degree-1 generator monomials on (g=4, n=1)",)


# kappa_2 on (6, 1, 2) has no default witness; this one splits it as
# kappa_1 on a (3, {i}) part and kappa_1 on a (3, {1, j}) part
KAPPA2_WITNESS = disjoint_union(single_vertex(3, [(2, 0)], (1,)),
                                single_vertex(3, [(1, 0), (3, 0)], (1,)))


def test_override_without_default_witness_assumes_its_own_split():
    overrides = {mono((2,)): KAPPA2_WITNESS}
    rep = verify_witness_independence(6, 1, 2, witness_overrides=overrides)
    entry = next(e for e in rep.entries if e.monomial == "kappa_2")
    assert entry.branch == "witness-split"
    assert entry.assumptions == (
        "independence of degree-1 generator monomials on (g=3, n=1)",
        "independence of degree-1 generator monomials on (g=3, n=2)")
    assert not any("(g=6, n=2)" in a or "(g=0, n=1)" in a for a in entry.assumptions)
    rec = verify_witness_independence(6, 1, 2, recursive=True,
                                      witness_overrides=overrides)
    assert [inst[:3] for inst in rec.sub_instances] == [(3, 1, 1), (3, 2, 1)]
    assert rec.not_checked == ()


def test_recursive_lists_an_override_instance_outside_the_range():
    # BOGUS_WITNESS puts kappa_2 on a genus-5 part: degree 2 > [5/3]
    rep = verify_witness_independence(
        6, 0, 1, recursive=True, witness_overrides={mono((1,)): BOGUS_WITNESS})
    assert rep.entries[0].assumptions == (
        "independence of degree-2 generator monomials on (g=5, n=1)",)
    assert rep.sub_instances == ()
    assert rep.not_checked == ((5, 1, 2, "range"),)
    assert not rep.passed


def test_assumptions_count_edges_and_skip_degree_zero_parts():
    # EDGE_WITNESS: a (4,{i}) vertex joined to a (1) vertex, and a bare (1,{j})
    # part of degree 0; the edge adds one to the genus and one to the degree
    insts, _, _ = verifier._witness_assumptions(mono((1,)), 6, 0, EDGE_WITNESS)
    assert insts == [(5, 1, 1)]


def test_verify_corrupted_witness_fails_cleanly():
    rep = verify_witness_independence(
        6, 0, 1, witness_overrides={mono((1,)): BOGUS_WITNESS})
    assert not rep.passed
    (entry,) = rep.entries
    assert any("zero coefficient" in v for v in entry.violations)


@pytest.mark.parametrize("unused", [mono((2,)), mono(psi={1: 1})])
def test_verify_refuses_an_override_for_no_generator(unused):
    # kappa_2 has the wrong degree and psi_1 a marking that (6, 0) lacks
    with pytest.raises(ValueError, match=rf"\(g=6, n=0, k=1\): {unused}$"):
        verify_witness_independence(6, 0, 1, witness_overrides={
            mono((1,)): ALT_WITNESS, unused: ALT_WITNESS})


def test_verify_recursive_subinstances():
    rep = verify_witness_independence(6, 0, 1, recursive=True)
    assert rep.passed
    assert (5, 1, 1, True) in rep.sub_instances


def test_verify_recursive_guard_lists_skipped_instances_at_depth(monkeypatch):
    # (9,0,2) checks (8,1,2); two of the instances that one assumes are past
    # the n guard, and the run goes on past them
    monkeypatch.setattr(verifier, "_MAX_N", 1)
    rep = verify_witness_independence(9, 0, 2, recursive=True)
    assert rep.sub_instances == ((8, 1, 2, False),)
    assert rep.not_checked == ((3, 2, 1, "guard"), (5, 2, 1, "guard"))
    assert not rep.passed
    assert all(e.passed for e in rep.entries) and rep.structural_ok


def test_verify_recursive_budget_lists_every_skipped_instance(monkeypatch):
    # (9,0,2) checks (8,1,2), which assumes four more instances; a budget of
    # three instances in all leaves room for (3,1,1) alone, and the other
    # three are listed from inside (8,1,2)
    monkeypatch.setattr(verifier, "_RECURSION_BUDGET", 3)
    rep = verify_witness_independence(9, 0, 2, recursive=True)
    assert rep.sub_instances == ((8, 1, 2, False),)
    assert rep.not_checked == ((3, 2, 1, "budget"), (5, 1, 1, "budget"),
                               (5, 2, 1, "budget"))
    assert not rep.passed


def test_verify_guards():
    with pytest.raises(ValueError):
        verify_witness_independence(6, 0, 0)
    with pytest.raises(SizeGuardError):
        verify_witness_independence(31, 0, 1)


def test_verify_text_rendering():
    text = verify_witness_independence(6, 0, 1).to_text()
    assert "kappa_1" in text and "overall: pass" in text


def test_verify_multimark_top_degree_branches():
    """(6,2,2) exercises every branch: the disjoint-psi factorization witness,
    the mixed kappa/psi witness, the marking-offload witness for pure kappa
    monomials (including the top kappa power), and the linear system."""
    rep = verify_witness_independence(6, 2, 2)
    assert rep.passed
    branches = {e.monomial: e.branch for e in rep.entries}
    assert branches["psi_1*psi_2"] == "witness-split"
    assert branches["kappa_1*psi_1"] == "witness-split"
    assert branches["kappa_1^2"] == "witness-split"
    assert branches["kappa_2"] == "witness-split"
    assert branches["psi_1^2"] == "pushforward-system"
    assert branches["psi_2^2"] == "pushforward-system"


# ------------------------------------------- targeted vs full-image extraction

def _assert_matches_reference(rep, rows, structural):
    witness_entries = [e for e in rep.entries if e.branch == "witness-split"]
    assert [e.monomial for e in witness_entries] == list(rows)
    for e in witness_entries:
        assert (e.self_coefficient, e.generator_coefficients,
                e.boundary_coefficients, e.violations) == rows[e.monomial]
    assert rep.structural_violations == structural
    assert rep.structural_ok == (not structural)


@pytest.mark.parametrize("g,n,k", [(6, 0, 1), (7, 0, 1), (6, 1, 1), (6, 2, 1),
                                   (6, 2, 2), (6, 3, 1), (9, 0, 2)])
def test_targeted_extraction_matches_full_image(g, n, k):
    rep = verify_witness_independence(g, n, k)
    _assert_matches_reference(rep, *full_image_extraction(g, n, k))


@pytest.mark.parametrize("witness", [ALT_WITNESS, BOGUS_WITNESS, PSI_WITNESS,
                                     EDGE_WITNESS, REDUCE_WITNESS, GENUS_WITNESS])
def test_targeted_extraction_matches_full_image_with_overrides(witness):
    overrides = {mono((1,)): witness}
    rep = verify_witness_independence(6, 0, 1, witness_overrides=overrides)
    _assert_matches_reference(rep, *full_image_extraction(
        6, 0, 1, witness_overrides=overrides))


@pytest.mark.parametrize("g,n,k", [(6, 0, 1), (6, 2, 2), (6, 3, 1), (9, 0, 2)])
def test_shape_filtered_boundary_images_match_targeted_reference(g, n, k):
    """Boundary images gated by ``_reach`` as the verifier gates them, built
    from the full streams of a row on the input ambient and restricted to
    the wanted shapes after merging, equal those that build and check every
    candidate and keep the wanted shapes, on witness, one-edge and psi^1
    shapes, and on shapes only a cut of an edge with end psi (in either
    orientation), a two-edge cut or a reduce or split of a two-edge graph
    reaches; a row that cannot reach the shapes builds nothing."""
    i_lab, j_lab = n + 1, n + 2
    ambient = AmbientSignature(g, range(1, n + 1))
    out = AmbientSignature(g - 1, frozenset(range(1, n + 3)), 2)
    witnesses = (witness_graph_for(m, g, n) for m in generator_monomials(g, n, k))
    witness_shapes = {_BARE} | {_shape(w, i_lab, j_lab) for w in witnesses if w is not None}
    # psi^2 or psi^1 on both new legs: a cut of the one edge, with psi on an
    # end; one edge left: a cut of two; two edges: a reduce or split
    hard = ({(0, 2, 0)}, {(0, 0, 2)}, {(0, 1, 1)}, {(1, 1, 0)}, {(2, 0, 0)})
    terms = Counter()
    for shapes in (witness_shapes, {(0, 1, 0), (0, 0, 1), (1, 0, 0)}, *hard):
        for G in boundary_generators(g, n, k):
            ambient.check(G)
            stream = [] if _reach(G).isdisjoint(shapes) else _candidates(G, (i_lab, j_lab))
            image = TautClass(out, ((cand, Fraction(sign, 2)) for cand, sign in stream))
            got = TautClass(out, [(graph, c) for _, graph, c in image.items()
                                  if _shape(graph, i_lab, j_lab) in shapes])
            assert got == targeted_image_reference(G, out, shapes, i_lab, j_lab)
            terms[frozenset(shapes)] += len(got)
    assert sum(terms.values()) > 0
    if k >= 2:
        assert all(terms[frozenset(shapes)] for shapes in hard), terms


def _inject(monkeypatch, target, extras):
    """Append ``extras``, ``(graph, sign)`` pairs whose coefficient is ``sign /
    2`` as in the stream, to the verifier's candidate stream of the boundary
    row ``target``.  It also reaches the bare shape, so it passes the gate and
    its image, extras included, is built and checked."""
    def stream(graph, labels, real=verifier._candidates):
        yield from real(graph, labels)
        if graph == target:
            yield from extras

    monkeypatch.setattr(verifier, "_candidates", stream)
    real_reach = verifier._reach
    monkeypatch.setattr(verifier, "_reach", lambda graph: real_reach(graph)
                        | ({_BARE} if graph == target else set()))


def _inject_split_rule(monkeypatch, target, extras):
    """Add the signs of ``extras``, keyed graphs as ``(graph, sign)`` pairs, to
    the numerators the split rule gives the generator row ``target`` at their
    keys, which the rule must reach already."""
    def rule(graph, labels, keys, real=verifier._split_rule):
        extra = Counter()
        for cand, sign in extras if graph == target else ():
            extra[_target_key(cand, labels)] += sign
        for key, num in real(graph, labels, keys):
            yield key, num + extra[key]

    monkeypatch.setattr(verifier, "_split_rule", rule)


# bare (edge-free, psi^0 on i and j) terms on the (5, {1, 2}) output ambient of
# (6, 0, 1); each pair is one isomorphism class written two ways
BARE = disjoint_union(single_vertex(3, [(1, 0)]), single_vertex(3, [(2, 0)]))
BARE_SWAPPED = disjoint_union(single_vertex(3, [(2, 0)]), single_vertex(3, [(1, 0)]))
KAPPA1_WITNESS = disjoint_union(single_vertex(5, [(1, 0)], (1,)),
                                single_vertex(1, [(2, 0)]))
KAPPA1_WITNESS_SWAPPED = disjoint_union(single_vertex(1, [(2, 0)]),
                                        single_vertex(5, [(1, 0)], (1,)))


@pytest.mark.parametrize("extras,n_structural,into_generator", [
    ([(BARE, 1)], 1, False),
    ([(BARE, 1), (BARE_SWAPPED, 1)], 1, False),
    ([(BARE, 1), (BARE_SWAPPED, -1)], 0, False),
    ([(KAPPA1_WITNESS, 1), (KAPPA1_WITNESS_SWAPPED, 3)], 1, False),
    # into the split rule of the kappa_1 generator, at its witness's key: its
    # self coefficient moves, and a generator row has no structural check
    ([(KAPPA1_WITNESS, 1), (KAPPA1_WITNESS_SWAPPED, 3)], 0, True),
], ids=["extras0-1", "extras1-1", "extras2-0", "extras3-1", "generator-extras3-0"])
def test_injected_candidates_match_full_image(monkeypatch, extras, n_structural,
                                              into_generator):
    g, n, k = 6, 0, 1
    amb = AmbientSignature(g, frozenset(), 1)
    out = AmbientSignature(g - 1, frozenset({1, 2}), 2)
    # the smooth kappa_1 graph is its own canonical graph
    target = (single_vertex(g, kappa=(1,)) if into_generator
              else boundary_generators(g, n, k)[0])
    (_inject_split_rule if into_generator else _inject)(monkeypatch, target, extras)
    rep = verify_witness_independence(g, n, k)
    assert len(rep.structural_violations) == n_structural
    assert rep.structural_ok == (n_structural == 0)

    def image(G):
        full = invariance_operator(TautClass(amb, [(G, 1)]))
        return full + TautClass(out, extras).scale(Fraction(1, 2)) if G == target else full

    _assert_matches_reference(rep, *full_image_extraction(
        g, n, k, boundary_image=image,
        generator_image=lambda m: image(single_vertex(g, kappa=m.kappa))))


def test_candidate_off_the_ambient_raises_even_when_filtered_out(monkeypatch):
    # genus 6 instead of 5, and psi on leg i: no witness or structural
    # suspect has these invariants, yet the class built from the stream
    # checks the signature of each distinct form it is given
    stray = single_vertex(6, [(1, 1), (2, 0)])
    _inject(monkeypatch, boundary_generators(6, 0, 1)[-1], [(stray, 1)])
    with pytest.raises(SignatureError, match="arithmetic genus 6"):
        verify_witness_independence(6, 0, 1)


def test_candidate_that_repeats_a_marking_raises(monkeypatch):
    # legs carrying marking 1 twice have the ambient's marking set (1, 2),
    # yet each ambient marking must appear exactly once; a stream builds its
    # candidates unvalidated, so only the merge's check can catch this
    stray = DecoratedGraph._of((5,), ((0, 1, 0), (0, 1, 0), (0, 2, 0)), (), ((),))
    _inject(monkeypatch, boundary_generators(6, 0, 1)[-1], [(stray, 1)])
    with pytest.raises(SignatureError) as exc:
        verify_witness_independence(6, 0, 1)
    assert str(exc.value) == "graph markings (1, 1, 2) differ from ambient (1, 2)"


@pytest.mark.parametrize("stray,message", [
    # a self-loop on genus 6: arithmetic genus 7 on the genus-6 instance
    (DecoratedGraph((6,), (), ((0, 0, 0, 0),)),
     "graph has arithmetic genus 7, ambient requires 6"),
    # a marking on an instance with none
    (DecoratedGraph((5,), ((0, 3, 0),), ((0, 0, 0, 0),)),
     "graph markings (3,) differ from ambient ()"),
    # marking 1, which leg i also carries when n = 0: each candidate would
    # repeat it, with the right marking set (1, 2)
    (DecoratedGraph((5,), ((0, 1, 0),), ((0, 0, 0, 0),)),
     "graph markings (1,) differ from ambient ()"),
])
def test_boundary_row_off_the_ambient_raises_though_it_builds_no_move(
        monkeypatch, stray, message):
    # the row's moves all keep an edge or put psi on leg i or j, so none
    # reaches a witness or a bare term, yet its signature is still checked
    assert _reach(stray).isdisjoint({_BARE})
    real = verifier._listing
    monkeypatch.setattr(verifier, "_listing", lambda *instance, **degree: {
        **real(*instance, **degree), canonical_form(stray): stray})
    with pytest.raises(SignatureError) as exc:
        verify_witness_independence(6, 0, 1)
    assert str(exc.value) == message


def test_witness_self_coefficients_match_the_split_rule():
    """A witness is two single vertices, leg i on the first, reached from the
    generator only by splits with psi^0 on i and j, coefficient -1/2 each.  A
    split sends each kappa factor to either part, so the self coefficient is
    ``-1/2 * prod_a C(m_a, m_a^i)``: m_a is the multiplicity of kappa_a in the
    monomial, m_a^i its multiplicity on the part with leg i.  This is read off
    the monomial and the witness parts alone, with no graph built."""
    seen = Counter()
    for g, n, k in ((6, 0, 2), (6, 2, 2), (6, 3, 1), (9, 0, 2), (6, 2, 1), (9, 1, 3),
                    (6, 4, 2), (12, 0, 3)):
        monos = {str(m): m for m in generator_monomials(g, n, k)}
        for entry in verify_witness_independence(g, n, k).entries:
            if entry.branch != "witness-split":
                continue
            mono = monos[entry.monomial]
            (_, _, kappa_i), _ = verifier._witness_parts(mono, g, n)
            want = Fraction(-1, 2) * prod(comb(mono.kappa.count(a), kappa_i.count(a))
                                          for a in set(mono.kappa))
            assert Fraction(entry.self_coefficient) == want, (g, n, k, entry.monomial)
            seen[want] += 1
    # kappa_1^2 at (6, 0, 2) and kappa_1^3 at (9, 1, 3) split their factors
    assert sum(seen.values()) == 35 and seen[-1] and seen[Fraction(-3, 2)], seen


# every in-range instance with g <= 12, n <= 8 and k <= 3
IN_RANGE = [(g, n, k) for g in range(3, 13) for n in range(9)
            for k in range(1, min(3, g // 3) + 1)]


def _generator_rows(monkeypatch, g, n, k):
    """The witness-split entries of (g, n, k) with the boundary rows left out:
    a witness's self and generator coefficients are read off the generator
    rows alone, so the sweeps below reach (12, 8, 3) without enumerating its
    boundary graphs."""
    monkeypatch.setattr(verifier, "_listing", lambda *instance, **degree: {})
    return [e for e in verify_witness_independence(g, n, k).entries
            if e.branch == "witness-split"]


def test_split_rule_over_a_seeded_sweep(monkeypatch):
    """The closed form of ``test_witness_self_coefficients_match_the_split_rule``
    on every witness entry of a seeded sample of the in-range instances."""
    sample = random.Random(2006).sample(IN_RANGE, 24) + [(12, 8, 3)]
    seen = Counter()
    for g, n, k in sample:
        monos = {str(m): m for m in generator_monomials(g, n, k)}
        for entry in _generator_rows(monkeypatch, g, n, k):
            mono = monos[entry.monomial]
            (_, _, kappa_i), _ = verifier._witness_parts(mono, g, n)
            want = Fraction(-1, 2) * prod(comb(mono.kappa.count(a), kappa_i.count(a))
                                          for a in set(mono.kappa))
            assert Fraction(entry.self_coefficient) == want, (g, n, k, entry.monomial)
            assert entry.passed, (g, n, k, entry.monomial)
            seen[want] += 1
    assert seen[Fraction(-1, 2)] and seen[Fraction(-3, 2)], seen


def _split_moves(g, n, k):
    """The (g1, leg mask, kappa mask) triples of the split moves of every
    generator of (g, n, k), unstable parts included."""
    return sum((g + 1) << (n + len(m.kappa)) for m in generator_monomials(g, n, k))


def test_targeted_generator_rows_match_the_full_stream(monkeypatch):
    """On every generator and witness pair of a seeded sample of the in-range
    instances, the coefficient the generator row reads by the split rule
    equals the one read off the generator's full stream, every candidate
    built and checked.  An
    instance whose full streams exceed 10,000 split moves is left to the
    closed-form sweep, as the reference canonicalizes every candidate."""
    cheap = [inst for inst in IN_RANGE if _split_moves(*inst) <= 10_000]
    pairs = 0
    for g, n, k in random.Random(2006).sample(cheap, 10):
        i_lab, j_lab = n + 1, n + 2
        out = AmbientSignature(g - 1, frozenset(range(1, n + 3)), 2)
        monos = {str(m): m for m in generator_monomials(g, n, k)}
        full = {s: targeted_image_reference(
                    single_vertex(g, [(l, m.psi_dict().get(l, 0)) for l in range(1, n + 1)],
                                  m.kappa), out, {_BARE}, i_lab, j_lab)
                for s, m in monos.items()}
        for entry in _generator_rows(monkeypatch, g, n, k):
            witness = witness_graph_for(monos[entry.monomial], g, n)
            got = dict(entry.generator_coefficients, **{entry.monomial: entry.self_coefficient})
            assert got == {m: str(image.coefficient_of(witness))
                           for m, image in full.items()}, (g, n, k, entry.monomial)
            pairs += len(got)
    assert pairs > 100, pairs
