"""Graph core: validation, genus bookkeeping, canonical forms, enumeration."""

import copy
import itertools
import json
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

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
    assert_normal_form,
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


# -------------------------------------------------------------- representation

def test_graph_is_the_named_tuple_of_its_fields():
    """A graph is the tuple ``(genera, legs, edges, kappa)`` of its normal-form
    fields: it prints, compares, hashes, sorts, copies and pickles as one, and
    ``_of`` of normal-form fields equals the public constructor."""
    assert repr(DecoratedGraph((2,), ((0, 1, 1),), (), ((1,),))) == \
        "DecoratedGraph(genera=(2,), legs=((0, 1, 1),), edges=(), kappa=((1,),))"
    # legs out of marking order, an edge's ends out of order, kappa unsorted
    g = DecoratedGraph((1, 1), [(1, 2, 0), (0, 1, 3)], [(1, 0, 0, 2)], [(2, 1), ()])
    fields = ((1, 1), ((0, 1, 3), (1, 2, 0)), ((0, 2, 1, 0),), ((1, 2), ()))
    assert tuple(g) == (g.genera, g.legs, g.edges, g.kappa) == fields
    assert g == DecoratedGraph._of(*fields) == DecoratedGraph(*fields)
    assert type(DecoratedGraph._of(*fields)) is DecoratedGraph
    assert hash(g) == hash(fields) == hash(DecoratedGraph._of(*fields))
    assert DecoratedGraph(genera=(1, 1), legs=fields[1], edges=fields[2]).kappa == ((), ())
    for copied in [copy.copy(g), copy.deepcopy(g)] + [
            pickle.loads(pickle.dumps(g, proto))
            for proto in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert copied == g and type(copied) is DecoratedGraph
    rng = random.Random(20261019)
    pool = [random_decorated_graph(rng) for _ in range(40)]
    assert sorted(pool) == sorted(pool, key=lambda x: (x.genera, x.legs, x.edges, x.kappa))


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


def _assert_search_matches_reference(g, stable=True):
    """The search agrees with the reference, and each automorphism it returns
    maps the representative onto itself: distinct non-identity permutations,
    one per further tied order of the reference, so all of the group."""
    form, canon, autos = graphs._canonical_search.__wrapped__(g)
    ref_form, ref_canon, ref_ties = canonical_search_reference(g, stable)
    assert form == ref_form
    assert (canon.genera, canon.legs, canon.edges, canon.kappa) == (
        ref_canon.genera, ref_canon.legs, ref_canon.edges, ref_canon.kappa)
    assert 1 + len(autos) == ref_ties
    assert len(set(autos)) == len(autos) and tuple(range(g.n_vertices)) not in autos
    for s in autos:
        assert sorted(s) == list(range(g.n_vertices)) and relabeled(canon, s) == canon


def test_canonical_search_matches_reference_on_enumerate_ladder(monkeypatch):
    """Every graph the enumerate-ladder benchmark canonicalizes: the shapes
    and marked graphs of enumeration and the candidates of boundary
    decoration, recorded where they enter the search, and the graphs they
    return.  Shapes may have unstable vertices."""
    inputs = set()
    real = graphs._canonical_search

    def recording(g):
        inputs.add(g)
        return real(g)

    with monkeypatch.context() as patch:
        patch.setattr(graphs, "_canonical_search", recording)
        for g, n, e in ((2, 5, 2), (4, 4, 2), (9, 0, 3), (12, 1, 2)):
            inputs.update(enumerate_stable_graphs(g, n, e))
            inputs.update(verifier.boundary_generators(g, n, e))
    # 3,032 graphs; degeneration-grown enumeration searched 4,128, most of
    # the difference being duplicate candidates
    assert len(inputs) > 3000
    assert any(not g.legs and g.validate() for g in inputs)   # unstable shapes
    for g in inputs:
        _assert_search_matches_reference(g, stable=False)


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
        features["ties"] += len(graphs._canonical_search.__wrapped__(g)[2]) > 0
    assert min(features.values()) >= 30, features


def test_canonical_form_is_compact_json_of_the_least_key():
    """The encoder built once at import writes the bytes of ``json.dumps`` with
    compact separators: empty and repeated kappa, multi-digit values,
    self-loops and two components included."""
    rng = random.Random(1302)
    features = Counter()
    for i in range(300):
        g = random_decorated_graph(rng, connected=i % 2 > 0)
        if i % 4 == 1:
            g = disjoint_union(g, random_decorated_graph(rng, max_vertices=2))
        if i % 3 == 0:
            # multi-digit genera, markings and psi, and a repeated kappa
            g = DecoratedGraph(tuple(h + 10 for h in g.genera),
                               tuple((v, m + 9, 11 * p) for v, m, p in g.legs),
                               g.edges, ((12, 12),) + g.kappa[1:])
        form, canon, _ = graphs._canonical_search(g)
        key = graphs._encode_under(canon, range(canon.n_vertices))
        assert form == json.dumps(key, separators=(",", ":")).encode("ascii")
        features["empty kappa"] += () in canon.kappa
        features["repeated kappa"] += any(len(set(ks)) < len(ks) for ks in canon.kappa)
        features["multi-digit"] += max(canon.genera) >= 10
        features["self-loop"] += any(v1 == v2 for v1, _, v2, _ in canon.edges)
        features["two components"] += component_count(canon) > 1
    assert len(features) == 5 and min(features.values()) >= 30, features


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
    # 10! leaf orders exceed the search's guard of 10^6: both callers fail
    # closed, and the refusal names the graph and both counts
    refusal = re.escape(f"3628800 vertex orders, over the 1000000 allowed, for {star(10)!r}")
    with pytest.raises(SizeGuardError, match=refusal):
        automorphism_count(star(10))
    with pytest.raises(SizeGuardError, match=refusal):
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


# Values from outside this package: the strata counts of M_g-bar (g = 2..4)
# and of M_{0,n}-bar (Schroeder's fourth problem, OEIS A000311)
@pytest.mark.parametrize("g,n,count", [(2, 0, 7), (3, 0, 42), (4, 0, 379), (0, 4, 4),
                                       (0, 5, 26), (0, 6, 236), (0, 7, 2752)])
def test_strata_counts_match_published_values(g, n, count):
    assert len(enumerate_stable_graphs(g, n, 3 * g - 3 + n, min_edges=0)) == count


def _bernoulli(m: int) -> Fraction:
    """B_m, with B_1 = -1/2, from sum_{i<=m} C(m+1, i) B_i = 0."""
    b = [Fraction(1)]
    for top in range(1, m + 1):
        b.append(-sum(comb(top + 1, i) * b[i] for i in range(top)) / (top + 1))
    return b[m]


def _euler_characteristic_of_open_stratum(genus: int, valence: int) -> Fraction:
    """Harer-Zagier chi(M_{g,n}): (-1)^(n-3) (n-3)! in genus 0, and for g >= 1
    chi(M_{g,1}) = -B_{2g} / 2g with chi(M_{g,n+1}) = (2 - 2g - n) chi(M_{g,n})."""
    if genus == 0:
        return Fraction((-1) ** (valence - 3) * factorial(valence - 3))
    chi = -_bernoulli(2 * genus) / (2 * genus)
    if valence == 0:
        return chi / (2 - 2 * genus)
    return chi * prod(2 - 2 * genus - n for n in range(1, valence))


# chi of M_{0,4..7}-bar are the Euler numbers of Keel's Betti numbers, and
# chi(M_{1,2}-bar) = 1/2 was summed by hand over its five strata.  The genus-2
# and genus-3 values are regression values of this engine: no table of them
# is at hand to check them against.
@pytest.mark.parametrize("g,n,chi", [(0, 4, 2), (0, 5, 7), (0, 6, 34), (0, 7, 213),
                                     (1, 1, Fraction(5, 12)), (1, 2, Fraction(1, 2)),
                                     (2, 0, Fraction(119, 1440)), (2, 1, Fraction(247, 1440)),
                                     (3, 0, Fraction(8027, 181440))])
def test_orbifold_euler_characteristic_over_the_strata(g, n, chi):
    """``sum over strata of prod_v chi(M_{g_v,n_v}) / |Aut|`` is the orbifold
    Euler characteristic of M_{g,n}-bar, with chi(M_{g,n}) from exact
    Bernoulli numbers.  The sum exercises enumeration, canonical forms and
    ``automorphism_count`` together."""
    total = Fraction(0)
    for G in enumerate_stable_graphs(g, n, 3 * g - 3 + n, min_edges=0):
        valence = Counter(v for v, _, _ in G.legs)
        valence.update(v for v1, _, v2, _ in G.edges for v in (v1, v2))
        total += Fraction(prod(_euler_characteristic_of_open_stratum(G.genera[v], valence[v])
                               for v in range(G.n_vertices)), automorphism_count(G))
    assert total == chi


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


def test_compositions_list_the_filtered_product_in_order():
    for total in range(6):
        for parts in range(8):
            expected = [c for c in itertools.product(range(total + 1), repeat=parts)
                        if sum(c) == total]
            assert list(graphs.compositions(total, parts)) == expected, (total, parts)


def _shape_of(graph):
    """The search result of ``graph``'s shape: its genera and edges, without
    legs, psi or kappa."""
    return graphs._canonical_search(DecoratedGraph(
        graph.genera, (), [(v1, 0, v2, 0) for v1, _, v2, _ in graph.edges]))


def test_degenerations_and_decorations_are_built_in_normal_form():
    """Enumeration and boundary decoration skip the public constructor, so
    each graph's fields must already be what it makes of them: the one-edge
    degenerations of the shape of every graph enumerated on the
    enumerate-ladder instances and of seeded decorated graphs, the marked
    graph of every placement on those shapes, every decoration of degree e
    less its edges on each canonical representative and on each placed graph
    of ``_placed_shapes``, which ``boundary_generators`` decorates though 257
    of the 1,473 are not canonical, and decorations of degree 3 on some of
    both.  They also skip validation on their way to the canonical-form
    search, so each marked graph must be valid, and each shape at most short
    of stability by the n markings; the verify-ladder instances join the
    enumerate-ladder ones for that."""
    rng = random.Random(20261019)
    seeded = [_shape_of(random_decorated_graph(rng, genus_range=(0, 4))) for _ in range(60)]
    built = relabelled = 0
    for g, n, e in ((2, 5, 2), (4, 4, 2), (9, 0, 3), (12, 1, 2),
                    (6, 2, 2), (6, 3, 1), (9, 0, 2), (6, 2, 1)):
        found = enumerate_stable_graphs(g, n, e, min_edges=0)
        for _, shape, autos in set(map(_shape_of, found)) | set(seeded):
            # a seeded shape may need more markings than n
            m = max(n, sum(graphs._deficits(shape)))
            for cand in graphs._shape_degenerations(shape, m):
                assert_normal_form(cand, shape)
                assert sum(graphs._deficits(cand)) <= m, (cand, shape)
                assert all(d.startswith("unstable vertex") for d in cand.validate()), cand
                built += 1
            for placement in graphs._placements(shape, autos, m):
                cand = graphs._placed(shape, placement)
                assert_normal_form(cand, shape)
                assert cand.validate() == [], (cand, shape)
                built += 1
        bases = [(base, e - base.n_edges) for base in found if base.n_edges]
        # boundary_generators decorates the placed graphs, not all canonical
        placed = [(graphs._placed(shape, p), e - edges)
                  for edges, _, shape, placements in graphs._placed_shapes(g, n, e)
                  for p in placements]
        relabelled += sum(base != canonicalize(base)[1] for base, _ in placed)
        # degree 3 has the first kappa multiset listed unsorted, (2, 1)
        deep = found[:5] + [base for base, _ in placed[-5:]]
        for base, d in bases + placed + [(base, 3) for base in deep]:
            for cand in graphs._decorations(base, d):
                assert_normal_form(cand, base)
                assert cand.validate() == [], (cand, base)
                built += 1
    assert built > 10_000 and relabelled > 100


def _shape_pool():
    """Shapes with up to 4 vertices: those of every stable graph of genus 0..3
    with up to 2 markings (unstable shapes among them) and of the unmarked
    ones of genus 4 with 3 edges, many with vertex automorphisms."""
    found = [G for g in range(4) for n in range(3) if 2 * g - 2 + n > 0
             for G in enumerate_stable_graphs(g, n, 3, min_edges=0)]
    found += enumerate_stable_graphs(4, 0, 3, min_edges=3)
    return sorted(set(map(_shape_of, found)))


def test_orbit_least_placements_match_bruteforce_placements():
    """On seeded shapes, the orbit-least placements of n markings give each
    stable marked graph of the shape once: their forms have no repeat, and
    equal those of all V^n placements that make every vertex stable."""
    rng = random.Random(2111)
    features = Counter()
    for _, shape, autos in rng.sample(_shape_pool(), 80):
        short = sum(graphs._deficits(shape))
        for n in sorted({0, short, short + 1, rng.randint(short, 4)}):
            least = graphs._placements(shape, autos, n)
            forms = [canonical_form(graphs._placed(shape, p)) for p in least]
            every = {canonical_form(graph) for graph in
                     map(graphs._placed, [shape] * shape.n_vertices ** n,
                         itertools.product(range(shape.n_vertices), repeat=n))
                     if not graph.validate()}
            assert len(set(forms)) == len(forms) and set(forms) == every, (shape, n)
            features["symmetric"] += bool(autos) and len(every) > 0
            features["pruned"] += len(least) < shape.n_vertices ** n and n > 0
            features["unstable shape"] += short > 0 and len(every) > 0
    assert min(features.values()) >= 20, features


def test_enumeration_matches_degeneration_oracle_on_seeded_sweep():
    """Seeded instances with g <= 12, n <= 8 and up to 3 edges, each level
    against ``degeneration_strata``, which grows the marked graphs
    themselves; the sum bounds the cost of the instances drawn."""
    rng = random.Random(2112)
    grid = [(g, n, e) for g in range(13) for n in range(9) for e in range(1, 4)
            if 2 * g - 2 + n > 0 and g // 3 + n + 3 * e <= 12]
    for g, n, e in rng.sample(grid, 24):
        oracle = degeneration_strata(g, n, e)
        ours = enumerate_stable_graphs(g, n, e, min_edges=0)
        for level in range(e + 1):
            forms = [canonical_form(G) for G in ours if G.n_edges == level]
            assert forms == sorted(oracle[level]), (g, n, e, level)


def test_enumeration_searches_each_marked_graph_once(monkeypatch):
    """At (2,5,2) the search cache misses once per distinct shape candidate
    and once per marked graph: 20 shape candidates, for 12 shapes, and 500
    graphs, where the degeneration-grown enumeration missed 940 times."""
    searched = []
    real = graphs._canonical_search

    def recording(g):
        searched.append(g)
        return real(g)

    real.cache_clear()
    monkeypatch.setattr(graphs, "_canonical_search", recording)
    found = enumerate_stable_graphs(2, 5, 2)
    monkeypatch.undo()
    misses = real.cache_info().misses
    shapes = {form for form, _, _ in map(_shape_of, enumerate_stable_graphs(2, 5, 2, 0))}
    marked = [g for g in searched if g.legs]
    assert len(set(marked)) == len(marked) == len(found) == 500
    assert misses == len(set(searched)) <= len(found) + 2 * len(shapes)
