"""Graph core: validation, genus bookkeeping, canonical forms, enumeration."""

import random
from math import factorial

import pytest

from stratacalc import (
    DecoratedGraph,
    InvalidGraphError,
    SizeGuardError,
    arithmetic_genus,
    automorphism_count,
    canonical_form,
    canonicalize,
    component_count,
    disjoint_union,
    enumerate_stable_graphs,
    invariance_operator,
    monomial_class,
    single_vertex,
)
from stratacalc import graphs, verifier
from stratacalc.cli import main

from oracles import (
    automorphisms_bruteforce,
    candidate_orders_reference,
    canonical_search_reference,
    degeneration_strata,
    enumerate_bruteforce,
    iso_bruteforce,
    random_decorated_graph,
    relabeled,
    validate_reference,
)


def two_vertex_bridge(g1=1, g2=1):
    return DecoratedGraph((g1, g2), (), ((0, 0, 1, 0),))


# ----------------------------------------------------------------- validation

def test_validate_smooth_genus2():
    assert single_vertex(2).validate() == []


def test_validate_unstable_rational_leg():
    diags = single_vertex(0, [(1, 0)]).validate()
    assert any("unstable vertex" in d for d in diags)


def test_validate_bridge_genus():
    g = two_vertex_bridge()
    assert g.validate() == []
    assert arithmetic_genus(g) == 2


def test_validate_dangling_and_duplicate():
    bad = DecoratedGraph((1,), ((0, 1, 0), (5, 2, 0)), ())
    assert any("dangling half-edge" in d for d in bad.validate())
    dup = DecoratedGraph((2,), ((0, 1, 0), (0, 1, 0)), ())
    assert any("duplicate marking" in d for d in dup.validate())


def test_require_valid_raises():
    with pytest.raises(InvalidGraphError):
        single_vertex(0, [(1, 0)]).require_valid()


#: The start of each diagnostic ``validate`` reports.
DIAGNOSTIC_KINDS = (
    "empty graph", "decoration arity mismatch", "negative genus",
    "dangling half-edge: leg", "invalid marking label", "negative psi exponent on leg",
    "duplicate marking", "dangling half-edge: edge", "negative psi exponent on edge",
    "invalid kappa index", "unstable vertex", "negative arithmetic genus",
)


def _random_raw_graph(rng) -> DecoratedGraph:
    """A graph with fields drawn around their valid ranges, mostly invalid."""
    if rng.random() < 0.15:
        # stable genus-0 pieces side by side: valid apart from arithmetic genus
        pieces = rng.randint(2, 3)
        return DecoratedGraph((0,) * pieces,
                              tuple((v, 3 * v + i + 1, 0)
                                    for v in range(pieces) for i in range(3)))
    V = rng.randint(0, 4)
    legs = tuple((rng.randint(-1, V), rng.randint(-1, 4), rng.randint(-1, 2))
                 for _ in range(rng.randint(0, 4)))
    edges = tuple((rng.randint(-1, V), rng.randint(-1, 1), rng.randint(-1, V),
                   rng.randint(-1, 1)) for _ in range(rng.randint(0, 3)))
    kappa = tuple(rng.choice(((), (), (1,), (0,), (2, -1)))
                  for _ in range(max(V + rng.choice((0, 0, 0, 1, -1)), 0)))
    return DecoratedGraph(tuple(rng.randint(-1, 2) for _ in range(V)), legs, edges, kappa)


def test_validate_matches_reference_on_every_kind_of_diagnostic():
    rng = random.Random(8080)
    seen = set()
    for _ in range(3000):
        g = _random_raw_graph(rng)
        diags = g.validate()
        assert diags == validate_reference(g)
        seen.update(kind for kind in DIAGNOSTIC_KINDS for d in diags if d.startswith(kind))
    for _ in range(200):
        g = random_decorated_graph(rng, genus_range=(0, 6), connected=False)
        assert g.validate() == validate_reference(g) == []
    assert seen == set(DIAGNOSTIC_KINDS)


# ------------------------------------------------------------------- genus

def test_genus_single_vertex():
    for g in range(7):
        if g >= 2:
            assert arithmetic_genus(single_vertex(g)) == g


def test_genus_self_loop():
    loop = DecoratedGraph((1,), (), ((0, 0, 0, 0),))
    assert arithmetic_genus(loop) == 2


def test_genus_disconnected_pair():
    # genus 5 and genus 1 pieces with one leg each, no edges
    g = disjoint_union(single_vertex(5, [(1, 0)]), single_vertex(1, [(2, 0)]))
    assert arithmetic_genus(g) == 5
    assert component_count(g) == 2


def test_genus_additive_under_disjoint_union():
    rng = random.Random(20240811)
    for _ in range(25):
        a = random_decorated_graph(rng, max_marks=2)
        b = random_decorated_graph(rng, max_marks=2)
        # shift b's markings clear of a's
        off = max(a.markings(), default=0)
        b = DecoratedGraph(b.genera,
                           tuple((v, m + off, p) for v, m, p in b.legs),
                           b.edges, b.kappa)
        u = disjoint_union(a, b)
        assert arithmetic_genus(u) == arithmetic_genus(a) + arithmetic_genus(b) - 1


def test_component_count():
    assert component_count(single_vertex(2)) == 1
    assert component_count(two_vertex_bridge()) == 1


# --------------------------------------------------------------- canonical form

def test_canonical_swap_presentation():
    a = DecoratedGraph((1, 2), (), ((0, 0, 1, 0),))
    b = DecoratedGraph((2, 1), (), ((0, 0, 1, 0),))
    assert canonical_form(a) == canonical_form(b)


def test_canonical_marking_distinguishes_psi_side():
    a = single_vertex(1, [(1, 1), (2, 0)])
    b = single_vertex(1, [(1, 0), (2, 1)])
    assert canonical_form(a) != canonical_form(b)


def test_canonical_idempotent():
    rng = random.Random(7)
    for _ in range(30):
        g = random_decorated_graph(rng)
        form, canon = canonicalize(g)
        form2, canon2 = canonicalize(canon)
        assert form == form2 and canon == canon2


def test_canonical_relabel_invariance_fuzz():
    rng = random.Random(20240809)
    for _ in range(40):
        g = random_decorated_graph(rng, max_vertices=4)
        forms = set()
        V = g.n_vertices
        for _ in range(25):
            perm = list(range(V))
            rng.shuffle(perm)
            forms.add(canonical_form(relabeled(g, perm)))
        assert len(forms) == 1


def test_canonical_agrees_with_bruteforce_oracle():
    rng = random.Random(424242)
    for _ in range(60):
        a = random_decorated_graph(rng, max_vertices=3, max_marks=2)
        if rng.random() < 0.5:
            perm = list(range(a.n_vertices))
            rng.shuffle(perm)
            b = relabeled(a, perm)
        else:
            b = random_decorated_graph(rng, max_vertices=3, max_marks=2)
        assert (canonical_form(a) == canonical_form(b)) == iso_bruteforce(a, b)


def _assert_search_matches_reference(g):
    form, canon, ties = graphs._canonical_search.__wrapped__(g)
    ref_form, ref_canon, ref_ties = canonical_search_reference(g)
    assert form == ref_form
    assert (canon.genera, canon.legs, canon.edges, canon.kappa) == (
        ref_canon.genera, ref_canon.legs, ref_canon.edges, ref_canon.kappa)
    assert ties == ref_ties


def test_canonical_search_matches_reference_on_enumerate_ladder(monkeypatch):
    """Every graph the enumerate-ladder benchmark canonicalizes: the candidates
    of enumeration and of boundary decoration, and the graphs they return."""
    inputs = set()
    real = graphs.canonicalize

    def recording(g):
        inputs.add(g)
        return real(g)

    monkeypatch.setattr(graphs, "canonicalize", recording)
    monkeypatch.setattr(verifier, "canonicalize", recording)
    for g, n, e in ((2, 5, 2), (4, 4, 2), (9, 0, 3), (12, 1, 2)):
        inputs.update(enumerate_stable_graphs(g, n, e))
        inputs.update(verifier.boundary_generators(g, n, e))
    assert len(inputs) > 4000
    for g in inputs:
        _assert_search_matches_reference(g)


def test_canonical_search_matches_reference_on_random_graphs():
    rng = random.Random(1301)
    features = dict.fromkeys(("disconnected", "self-loop", "parallel edges",
                              "non-discrete refinement", "ties"), 0)
    for i in range(480):
        g = random_decorated_graph(rng, max_vertices=4, max_extra_edges=3,
                                   max_marks=3 if i % 4 else 0,
                                   genus_range=(0 if i % 4 else 1, 6),
                                   decorated=i % 3 > 0, connected=i % 2 > 0)
        if i % 4 == 0:
            # two copies of an unmarked graph, apart or joined by an edge
            g = disjoint_union(g, g)
            if i % 8:
                g = DecoratedGraph(g.genera, g.legs,
                                   g.edges + ((0, 0, g.n_vertices // 2, 0),), g.kappa)
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        for h in (g, relabeled(g, perm)):
            _assert_search_matches_reference(h)
        features["disconnected"] += component_count(g) > 1
        features["self-loop"] += any(v1 == v2 for v1, _, v2, _ in g.edges)
        ends = [(v1, v2) for v1, _, v2, _ in g.edges]
        features["parallel edges"] += len(set(ends)) < len(ends)
        features["non-discrete refinement"] += sum(1 for _ in candidate_orders_reference(g)) > 1
        features["ties"] += graphs._canonical_search.__wrapped__(g)[2] > 1
    assert min(features.values()) >= 30, features


# --------------------------------------------------------------- automorphisms

def test_automorphism_single_vertex():
    assert automorphism_count(single_vertex(2)) == 1


def test_automorphism_bridge_swap():
    assert automorphism_count(two_vertex_bridge()) == 2


def test_automorphism_kappa_breaks_symmetry():
    g = DecoratedGraph((1, 1), (), ((0, 0, 1, 0),), ((1,), ()))
    assert automorphism_count(g) == 1


def test_automorphism_loop_and_theta():
    loop = DecoratedGraph((1,), (), ((0, 0, 0, 0),))
    assert automorphism_count(loop) == 2
    marked_theta = DecoratedGraph((0, 0), ((0, 1, 0), (1, 2, 0)),
                                  ((0, 0, 1, 0), (0, 0, 1, 0), (0, 0, 1, 0)))
    assert automorphism_count(marked_theta) == 6   # legs pin the vertices
    double_loop = DecoratedGraph((0,), ((0, 1, 0),), ((0, 0, 0, 0), (0, 0, 0, 0)))
    assert automorphism_count(double_loop) == 8


def test_automorphism_genus2_deepest_strata():
    # the two edge-maximal genus-2 graphs: theta and the dumbbell
    theta = DecoratedGraph((0, 0), (),
                           ((0, 0, 1, 0), (0, 0, 1, 0), (0, 0, 1, 0)))
    assert automorphism_count(theta) == 12    # vertex swap x 3! edges
    dumbbell = DecoratedGraph((0, 0), (),
                              ((0, 0, 0, 0), (1, 0, 1, 0), (0, 0, 1, 0)))
    assert automorphism_count(dumbbell) == 8  # vertex swap x loop flips


def test_automorphism_matches_halfedge_oracle():
    rng = random.Random(99)
    graphs = [random_decorated_graph(rng, max_vertices=5, max_extra_edges=3,
                                     genus_range=(0, 8), connected=i % 2 == 0)
              for i in range(400)]
    assert any(g.n_vertices == 5 for g in graphs)
    assert any(component_count(g) > 1 for g in graphs)
    image = [g for _, g, _ in
             invariance_operator(monomial_class(3, 2, kappa=(1,), psi={1: 1})).items()]
    assert any(component_count(g) == 2 for g in image)
    graphs += image
    graphs += enumerate_stable_graphs(2, 0, 3) + enumerate_stable_graphs(0, 5, 2)
    for g in graphs:
        assert automorphism_count(g) == automorphisms_bruteforce(g)
    with pytest.raises(InvalidGraphError):
        automorphism_count(DecoratedGraph((0,), ((0, 1, 0),), ()))


def star(leaves):
    """A genus-0 centre joined by one edge each to ``leaves`` genus-1 vertices."""
    return DecoratedGraph((0,) + (1,) * leaves, (),
                          tuple((0, 0, v, 0) for v in range(1, leaves + 1)))


def test_automorphism_star_of_nine_vertices():
    # 9 vertices and 8! leaf orders, inside the search's guard of 10^6 orders
    assert automorphism_count(star(8)) == factorial(8)


def test_automorphism_size_guard():
    # 10! leaf orders exceed the search's guard of 10^6: both callers fail closed
    with pytest.raises(SizeGuardError):
        automorphism_count(star(10))
    with pytest.raises(SizeGuardError):
        canonicalize(star(10))


# ----------------------------------------------------------------- enumeration

def test_enumerate_genus2_one_edge():
    graphs = enumerate_stable_graphs(2, 0, 1)
    assert len(graphs) == 2
    shapes = {(G.genera, G.edges) for G in graphs}
    assert ((1,), ((0, 0, 0, 0),)) in shapes          # self-loop
    assert ((1, 1), ((0, 0, 1, 0),)) in shapes        # two genus-1 vertices


def test_enumerate_includes_smooth_with_min_edges_zero():
    graphs = enumerate_stable_graphs(2, 0, 1, min_edges=0)
    assert len(graphs) == 3


def test_enumerate_genus3_one_edge():
    assert len(enumerate_stable_graphs(3, 0, 1)) == 2


def test_enumerate_rational_three_marks():
    graphs = enumerate_stable_graphs(0, 3, 0)
    assert len(graphs) == 1
    assert graphs[0].genera == (0,)
    assert len(graphs[0].legs) == 3


def test_enumerate_full_genus2_poset():
    # 1 smooth + 2 one-edge + 2 two-edge + 2 three-edge strata
    levels = {e: len(enumerate_stable_graphs(2, 0, e, min_edges=e))
              for e in range(4)}
    assert levels == {0: 1, 1: 2, 2: 2, 3: 2}


@pytest.mark.parametrize("g,n,emax", [(2, 0, 2), (3, 0, 1), (1, 1, 2), (2, 1, 2),
                                      (3, 0, 3), (2, 2, 2), (4, 0, 2)])
def test_enumerate_matches_degeneration_oracle(g, n, emax):
    oracle = degeneration_strata(g, n, emax)
    for e in range(emax + 1):
        ours = enumerate_stable_graphs(g, n, e, min_edges=e)
        forms = {canonical_form(G) for G in ours}
        assert forms == set(oracle[e])


@pytest.mark.parametrize("g,n", [(g, n) for g in range(4) for n in range(4)])
def test_enumerate_matches_bruteforce(g, n):
    # max_edges up to 3 also runs past the top level 3g-3+n of small (g, n)
    reference = enumerate_bruteforce(g, n, 3, min_edges=0)
    for emax in range(4):
        for emin in [None] + list(range(emax + 1)):
            lo = min(1, emax) if emin is None else emin
            expected = [G for G in reference if lo <= len(G.edges) <= emax]
            assert enumerate_stable_graphs(g, n, emax, emin) == expected


def test_enumerate_size_guard_boundary(monkeypatch, tmp_path):
    # The cap bounds the returned list only; levels below min_edges are
    # grown but do not count toward it.
    size = len(enumerate_stable_graphs(3, 0, 2))
    top = len(enumerate_stable_graphs(3, 0, 2, min_edges=2))
    assert top < size   # a cap of ``top`` trips if level 1 is counted
    for min_edges, cap in ((None, size), (2, top)):
        extra = [] if min_edges is None else ["--min-edges", "2"]
        argv = ["enumerate", "--g", "3", "--n", "0", "--max-edges", "2",
                "--out", str(tmp_path / "x.json")] + extra
        monkeypatch.setenv("STRATA_MAX_GRAPHS", str(cap))
        assert len(enumerate_stable_graphs(3, 0, 2, min_edges)) == cap
        assert main(argv) == 0
        monkeypatch.setenv("STRATA_MAX_GRAPHS", str(cap - 1))
        with pytest.raises(SizeGuardError):
            enumerate_stable_graphs(3, 0, 2, min_edges)
        assert main(argv) == 3


def test_enumerate_sorted_and_deterministic():
    a = enumerate_stable_graphs(3, 1, 2)
    b = enumerate_stable_graphs(3, 1, 2)
    assert a == b
    encodings = [canonical_form(G) for G in a]
    assert encodings == sorted(encodings)
    assert all(type(form) is bytes for form in encodings)


def test_enumerate_no_isomorphic_duplicates():
    graphs = enumerate_stable_graphs(3, 0, 2)
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert not iso_bruteforce(graphs[i], graphs[j])


def test_enumerate_size_guard(monkeypatch):
    monkeypatch.setenv("STRATA_MAX_GRAPHS", "1")
    with pytest.raises(SizeGuardError, match=r"^enumeration of \(g=3, n=0, max_edges=2\) "
                                             r"exceeded STRATA_MAX_GRAPHS=1$"):
        enumerate_stable_graphs(3, 0, 2)


def test_enumerate_returns_undecorated_canonical_graphs():
    for g, n, emax in ((2, 0, 3), (0, 5, 2), (3, 2, 2)):
        graphs = enumerate_stable_graphs(g, n, emax, min_edges=0)
        assert graphs
        for G in graphs:
            assert canonicalize(G)[1] == G
            assert G.degree() == G.n_edges   # psi = 0 and no kappa anywhere
