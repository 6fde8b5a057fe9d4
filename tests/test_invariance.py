"""Genus-lowering operators: hand-checked values, linearity, invariants."""

import itertools
import random
from fractions import Fraction
from math import lcm, prod

import pytest

from stratacalc import (
    AmbientSignature,
    DecoratedGraph,
    InvalidGraphError,
    SignatureError,
    TautClass,
    arithmetic_genus,
    automorphism_count,
    canonical_form,
    canonicalize,
    component_count,
    cut_edges,
    disjoint_union,
    enumerate_stable_graphs,
    invariance_operator,
    monomial_class,
    reduce_genus,
    single_vertex,
    split_vertices,
)
from stratacalc.invariance import (
    _BARE,
    _candidates,
    _cut_candidates,
    _output_signature,
    _reach,
    _reduce_candidates,
    _shape,
    _split_candidates,
    _target_key,
)
from stratacalc.verifier import boundary_generators

from oracles import (
    assert_normal_form,
    cut_candidates_reference,
    operator_reference,
    random_decorated_graph,
    reduce_candidates_reference,
    split_candidates_reference,
)


def cls(ambient, *terms):
    return TautClass(ambient, terms)


def parts(x):
    """The cut, reduce and split parts of the operator image of ``x``, each
    the sum of its coefficient times the part of each term of ``x``."""
    _, out = _output_signature(x.ambient.genus, x.ambient.markings)
    by_name = {}
    for name, part in (("cut", cut_edges), ("reduce", reduce_genus),
                       ("split", split_vertices)):
        by_name[name] = TautClass(out)
        for _, graph, coeff in x.items():
            by_name[name] = by_name[name] + coeff * part(graph)
    return by_name


# -------------------------------------------------------------------- cutting

def test_cut_no_edges_gives_zero():
    out = cut_edges(single_vertex(3, kappa=(1,)))
    assert out.is_zero


def test_cut_bridge_two_term_class():
    bridge = DecoratedGraph((1, 1), (), ((0, 0, 1, 0),))
    out = cut_edges(bridge)   # labels i=1, j=2
    amb = AmbientSignature(1, frozenset({1, 2}), 2)
    psi_on_i = disjoint_union(single_vertex(1, [(1, 1)]), single_vertex(1, [(2, 0)]))
    psi_on_j = disjoint_union(single_vertex(1, [(1, 0)]), single_vertex(1, [(2, 1)]))
    expected = cls(amb, (psi_on_i, 1), (psi_on_j, -1))
    assert out == expected


def test_cut_self_loop():
    loop = DecoratedGraph((2,), (), ((0, 0, 0, 0),))
    out = cut_edges(loop)
    amb = AmbientSignature(2, frozenset({1, 2}), 2)
    expected = cls(amb,
                   (single_vertex(2, [(1, 1), (2, 0)]), 1),
                   (single_vertex(2, [(1, 0), (2, 1)]), -1))
    assert out == expected


def test_cut_multiplies_existing_psi():
    # decorated bridge: psi^2 already on one end
    bridge = DecoratedGraph((1, 1), (), ((0, 2, 1, 0),))
    out = cut_edges(bridge)
    deep = disjoint_union(single_vertex(1, [(1, 3)]), single_vertex(1, [(2, 0)]))
    assert out.coefficient_of(deep) == Fraction(1, 2)


# ------------------------------------------------------------ genus reduction

def test_reduce_smooth_genus2():
    out = reduce_genus(single_vertex(2))
    amb = AmbientSignature(1, frozenset({1, 2}), 2)
    assert out == cls(amb, (single_vertex(1, [(1, 0), (2, 0)]), Fraction(-1, 2)))


def test_reduce_genus1_one_leg():
    out = reduce_genus(single_vertex(1, [(1, 0)]))   # new labels 2, 3
    amb = AmbientSignature(0, frozenset({1, 2, 3}), 2)
    expected = cls(amb, (single_vertex(0, [(1, 0), (2, 0), (3, 0)]), Fraction(-1, 2)))
    assert out == expected


def test_reduce_all_rational_gives_zero():
    assert reduce_genus(single_vertex(0, [(1, 0), (2, 0), (3, 0)])).is_zero


# ------------------------------------------------------------------ splitting

def test_split_smooth_genus2():
    out = split_vertices(single_vertex(2))
    amb = AmbientSignature(1, frozenset({1, 2}), 2)
    pair = disjoint_union(single_vertex(1, [(1, 0)]), single_vertex(1, [(2, 0)]))
    assert out == cls(amb, (pair, Fraction(-1, 2)))


def test_split_genus6_kappa_witness_term():
    out = split_vertices(single_vertex(6, kappa=(1,)))
    witness = disjoint_union(single_vertex(5, [(1, 0)], (1,)),
                             single_vertex(1, [(2, 0)]))
    assert out.coefficient_of(witness) == Fraction(-1, 2)


def test_split_genus1_gives_zero():
    assert split_vertices(single_vertex(1, [(1, 0)])).is_zero


def test_split_repeated_kappa_multiplicity():
    # kappa_1^2 on genus 6: the balanced split receives both distributions
    out = split_vertices(single_vertex(6, kappa=(1, 1)))
    balanced = disjoint_union(single_vertex(3, [(1, 0)], (1,)),
                              single_vertex(3, [(2, 0)], (1,)))
    assert out.coefficient_of(balanced) == -1


# ----------------------------------------------------------------- operator

def test_operator_term_census_kappa1_genus6():
    """Full image of kappa_1 on the unmarked genus-6 ambient: one genus
    reduction term plus the ten ordered-split/kappa-side combinations,
    every coefficient -1/2."""
    out = invariance_operator(monomial_class(6, 0, kappa=(1,)))
    assert len(out) == 11
    assert all(c == Fraction(-1, 2) for _, _, c in out.items())
    reduced = single_vertex(5, [(1, 0), (2, 0)], (1,))
    assert out.coefficient_of(reduced) == Fraction(-1, 2)
    for a in range(1, 6):
        with_i = disjoint_union(single_vertex(a, [(1, 0)], (1,)),
                                single_vertex(6 - a, [(2, 0)]))
        with_j = disjoint_union(single_vertex(a, [(1, 0)]),
                                single_vertex(6 - a, [(2, 0)], (1,)))
        assert out.coefficient_of(with_i) == Fraction(-1, 2)
        assert out.coefficient_of(with_j) == Fraction(-1, 2)


def test_operator_worked_value_genus2():
    out = invariance_operator(monomial_class(2, 0))
    amb = AmbientSignature(1, frozenset({1, 2}), 2)
    joined = single_vertex(1, [(1, 0), (2, 0)])
    pair = disjoint_union(single_vertex(1, [(1, 0)]), single_vertex(1, [(2, 0)]))
    expected = cls(amb, (joined, Fraction(-1, 2)), (pair, Fraction(-1, 2)))
    assert out == expected


def test_operator_zero_in_zero_out():
    z = monomial_class(2, 0).scale(0)
    assert invariance_operator(z).is_zero


def test_operator_rejects_disconnected_ambient():
    amb = AmbientSignature(1, frozenset({1, 2}), 2)
    pair = disjoint_union(single_vertex(1, [(1, 0)]), single_vertex(1, [(2, 0)]))
    with pytest.raises(SignatureError):
        invariance_operator(TautClass(amb, [(pair, 1)]))


def test_operator_linearity_exact():
    rng = random.Random(556677)
    for _ in range(10):
        g = rng.randint(3, 6)
        n = rng.randint(0, 2)
        mons = [monomial_class(g, n, kappa=(1,)),
                monomial_class(g, n, kappa=(2,)),
                monomial_class(g, n, kappa=(1, 1))]
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        x, y = mons[rng.randrange(3)], mons[rng.randrange(3)]
        lhs = invariance_operator(a * x + b * y)
        rhs = a * invariance_operator(x) + b * invariance_operator(y)
        assert lhs == rhs


def test_operator_equals_sum_of_parts_multi_term():
    amb = AmbientSignature(4, frozenset({1}), 1)
    terms = [
        (single_vertex(4, [(1, 1)], (1,)), Fraction(3, 2)),
        (single_vertex(4, [(1, 0)], (1, 2)), Fraction(-1)),
        (DecoratedGraph((3, 1), ((1, 1, 0),), ((0, 1, 1, 0),), ((), (1,))), Fraction(2, 7)),
        (DecoratedGraph((3,), ((0, 1, 0),), ((0, 0, 0, 1),), ((1,),)), Fraction(-5)),
        (DecoratedGraph((2, 1), ((0, 1, 1),), ((0, 0, 1, 0), (0, 0, 1, 0)), ((), ())),
         Fraction(1, 3)),
    ]
    x = TautClass(amb, terms)
    assert len(x) == len(terms)
    by_name = parts(x)
    for name, op in (("cut", cut_edges), ("reduce", reduce_genus),
                     ("split", split_vertices)):
        termwise = TautClass(by_name[name].ambient)
        for _, graph, coeff in x.items():
            termwise = termwise + coeff * op(graph)
        assert by_name[name] == termwise, name
    total = by_name["cut"] + by_name["reduce"] + by_name["split"]
    assert not total.is_zero
    assert total == invariance_operator(x)


#: Denominators with many distinct prime factors between them.
_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _seeded(rng, ambient, graphs):
    """A class on ``ambient`` of ``graphs`` with coefficients p/(q r) for
    primes q != r."""
    return TautClass(ambient, [(graph, Fraction(rng.randint(-99, 99) or 1,
                                                 prod(rng.sample(_PRIMES, 2))))
                               for graph in graphs])


def _operator_sum_inputs():
    """``(x, form)``: seeded classes whose denominators have an lcm of at least
    10^6, with ``form`` None; where the images of two of their graphs a and b
    share a form (cut terms of graphs with psi on an edge can), b's
    coefficient of it times a minus a's times b, and that form, which
    cancels; a class on a genus-0 ambient, whose image cancels to the zero
    class; and the zero class."""
    rng = random.Random("integer-sums/1")
    for g, n, k in ((3, 1, 2), (3, 2, 2), (6, 0, 2), (3, 0, 3), (2, 1, 3)):
        ambient = AmbientSignature(g, frozenset(range(1, n + 1)))
        marks = range(1, n + 1)
        graphs = (boundary_generators(g, n, k) + [single_vertex(g, marks)]
                  + [single_vertex(g, marks, (d,)) for d in range(1, k + 1)])
        x = _seeded(rng, ambient, graphs)
        assert lcm(*(c.denominator for _, _, c in x.items())) >= 10 ** 6
        yield x, None
        images = [{form: c for form, _, c in
                   operator_reference(TautClass(ambient, [(G, 1)])).items()}
                  for G in graphs]
        pair = next(((a, b) for a, b in itertools.combinations(range(len(graphs)), 2)
                     if images[a].keys() & images[b].keys()), None)
        if pair is not None:
            a, b = pair
            form = min(images[a].keys() & images[b].keys())
            yield TautClass(ambient, [(graphs[a], images[b][form]),
                                      (graphs[b], -images[a][form])]), form
    ambient = AmbientSignature(0, frozenset(range(1, 6)))
    yield _seeded(rng, ambient, enumerate_stable_graphs(0, 5, 2, min_edges=0)), None
    yield TautClass(AmbientSignature(4, frozenset({1}))), None


def test_integer_sums_match_fraction_reference():
    """The operator sums integer numerators over one denominator; the
    reference multiplies and adds every raw term as a Fraction.  Both give the
    same terms, representatives and coefficients, whole and part by part."""
    cancelled = 0
    for x, form in _operator_sum_inputs():
        want = operator_reference(x)
        got = invariance_operator(x)
        assert list(got.items()) == list(want.items())
        assert all(type(c) is Fraction for _, _, c in got.items())
        for name, part in parts(x).items():
            assert list(part.items()) == list(operator_reference(x, (name,)).items())
        if form is not None:
            assert form not in {f for f, _, _ in got.items()} and not got.is_zero
            cancelled += 1
        elif x.ambient.genus == 0 or x.is_zero:
            assert got.is_zero
    assert cancelled >= 2


# ----------------------------------------------------------- invariant suite

def _class_of(graph):
    amb = AmbientSignature(arithmetic_genus(graph),
                           frozenset(graph.markings()), 1)
    return TautClass(amb, [(graph, 1)])


def test_operator_invariants_random():
    rng = random.Random(90210)
    checked = 0
    while checked < 40:
        g = random_decorated_graph(rng, genus_range=(1, 6))
        x = _class_of(g)
        out = invariance_operator(x)
        n_marks = len(x.ambient.markings)
        expected_marks = tuple(range(1, n_marks + 3))
        for _, term, _ in out.items():
            assert term.validate() == []
            assert arithmetic_genus(term) == x.ambient.genus - 1
            assert component_count(term) <= 2
            assert term.markings() == expected_marks
        deg = x.degree()
        if isinstance(deg, int) and not out.is_zero:
            assert out.degree() == deg
        checked += 1


def test_operator_determinism():
    rng = random.Random(777)
    for _ in range(10):
        g = random_decorated_graph(rng)
        a = invariance_operator(_class_of(g))
        b = invariance_operator(_class_of(g))
        assert a == b
        assert [f.hex() for f, _, _ in a.items()] == [f.hex() for f, _, _ in b.items()]


def test_separation_property():
    """2-component, edge-free terms with psi^0 on both new legs come only
    from vertex splitting."""
    rng = random.Random(13579)
    for _ in range(25):
        g = random_decorated_graph(rng, genus_range=(1, 6))
        x = _class_of(g)
        by_name = parts(x)
        i_lab = max(x.ambient.markings, default=0) + 1
        j_lab = i_lab + 1

        def plain_disconnected(term):
            if term.n_edges or component_count(term) != 2:
                return False
            psi = {m: p for _, m, p in term.legs}
            return psi.get(i_lab, 0) == 0 and psi.get(j_lab, 0) == 0

        for name in ("cut", "reduce"):
            for _, term, _ in by_name[name].items():
                assert not plain_disconnected(term), name
        total = by_name["cut"] + by_name["reduce"] + by_name["split"]
        assert total == invariance_operator(x)


# ------------------------------------------------- candidates by construction

def _decorated(graph):
    """``graph`` with kappa_1 added on vertex 0, psi on its first leg and psi^2
    on one end of its first edge."""
    legs, edges = list(graph.legs), list(graph.edges)
    if legs:
        v, m, p = legs[0]
        legs[0] = (v, m, p + 1)
    if edges:
        v1, p1, v2, p2 = edges[0]
        edges[0] = (v1, p1, v2, p2 + 2)
    return DecoratedGraph(graph.genera, legs, edges,
                          ((1,) + graph.kappa[0],) + graph.kappa[1:])


def _stream_inputs():
    """``(graph, labels)``: every stable graph with g, n <= 3 and up to 3 edges
    with fresh labels and with explicit ones (j < i), its decorated copy,
    genus-0 graphs with edges, and random graphs, disconnected ones included."""
    for g in range(4):
        for n in range(4):
            fresh, _ = _output_signature(g, range(1, n + 1))
            for graph in enumerate_stable_graphs(g, n, 3, min_edges=0):
                yield graph, fresh
                yield graph, (fresh[1] + 3, fresh[0])
                yield _decorated(graph), fresh
    # arithmetic genus 0, with edges, connected or not: every stream is empty
    for graph in enumerate_stable_graphs(0, 5, 2, min_edges=0):
        yield graph, (6, 7)
    tree = DecoratedGraph((0, 0), ((0, 2, 0), (0, 3, 0), (1, 4, 0), (1, 5, 0)),
                          ((0, 0, 1, 0),))
    yield disjoint_union(single_vertex(1, [1], (1,)), tree), (6, 7)
    rng = random.Random(20261018)
    for _ in range(60):
        graph = random_decorated_graph(rng, genus_range=(0, 3), connected=False)
        yield graph, _output_signature(arithmetic_genus(graph), graph.markings())[0]


def test_candidate_streams_match_validated_reference():
    """The library streams skip unstable splits and genus-0 inputs without
    validating; the reference builds every candidate and keeps the valid
    ones.  Both must agree in order, graph and coefficient, the library's
    signs standing for coefficients over 2.  Every candidate
    of a connected input lies on the output ambient, which the operator
    relies on without checking."""
    streams = ((_cut_candidates, cut_candidates_reference),
               (_reduce_candidates, reduce_candidates_reference),
               (_split_candidates, split_candidates_reference))
    total = checked = 0
    for graph, labels in _stream_inputs():
        out = AmbientSignature(arithmetic_genus(graph) - 1,
                               frozenset(graph.markings()) | set(labels), 2)
        for fast, reference in streams:
            got = list(fast(graph, labels))
            assert ([(cand, Fraction(sign, 2)) for cand, sign in got]
                    == list(reference(graph, labels))), (graph, labels)
            if arithmetic_genus(graph) == 0:
                assert got == []
            if component_count(graph) == 1:
                for cand, _ in got:
                    out.check(cand)
                    checked += 1
            total += len(got)
    assert total > 90_000 and checked > 50_000


def test_candidates_are_built_in_normal_form():
    """The streams skip the public constructor, so each candidate's fields
    must already be what it makes of them.  The labels (6, 2) are not above
    every marking once there are three, and collide with marking 2: the legs
    must be sorted in, not appended."""
    streams = (_cut_candidates, _reduce_candidates, _split_candidates)
    total = 0
    for graph, labels in _stream_inputs():
        for stream in streams:
            for labs in (labels, (6, 2)):
                for cand, _ in stream(graph, labs):
                    assert_normal_form(cand, (graph, labs))
                    total += 1
    assert total > 180_000


def test_each_row_has_one_shape_gate():
    """Every candidate's shape (edge count, psi on leg i, psi on leg j) lies in
    ``_reach`` of its graph, and ``_candidates`` yields the cut, reduce and
    split streams in that order.  So a boundary row whose reach misses the
    wanted shapes may build nothing, as the verifier does, and any other
    builds its whole image."""
    total = 0
    for graph, labels in _stream_inputs():
        reach = _reach(graph)
        full = []
        for stream in (_cut_candidates, _reduce_candidates, _split_candidates):
            for cand, sign in stream(graph, labels):
                assert _shape(cand, *labels) in reach, (graph, labels, cand)
                full.append((cand, sign))
        assert list(_candidates(graph, labels)) == full
        total += len(full)
    assert total > 90_000


def test_no_candidate_of_a_graph_with_an_edge_is_bare_or_keyed():
    """The shape rule: for a graph with e >= 1 edges, reduce and split keep
    all e edges, and a cut leaves e - 1 and puts psi >= 1 on leg i or j.  So
    no candidate of a boundary generator, or of a seeded graph with one to
    three edges, is bare or has a ``_target_key``: only a generator row
    reaches a witness key, by the split rule."""
    graphs = [G for instance in ((6, 2, 2), (6, 3, 1), (9, 0, 3), (4, 4, 2), (2, 5, 2),
                                 (12, 1, 2))
              for G in boundary_generators(*instance)]
    rng = random.Random("shape-rule")
    seeded = (random_decorated_graph(rng) for _ in itertools.count())
    graphs += itertools.islice((G for G in seeded if 1 <= G.n_edges <= 3), 300)
    total = 0
    for graph in graphs:
        labels, _ = _output_signature(arithmetic_genus(graph), graph.markings())
        for cand, _ in _candidates(graph, labels):
            assert _shape(cand, *labels) != _BARE, (graph, cand)
            assert _target_key(cand, labels) is None, (graph, cand)
            total += 1
    assert len(graphs) > 2_500 and total > 140_000, (len(graphs), total)


def _signature_inputs():
    yield from _stream_inputs()
    # two components already, so off a connected ambient: a cut of the
    # bridge, or any split of an edge-free vertex, would make a third
    bridge = DecoratedGraph((1, 1), (), ((0, 0, 1, 0),))
    yield disjoint_union(single_vertex(1, [1]), bridge), (2, 3)
    yield disjoint_union(single_vertex(2, [1, 2]), single_vertex(1, [3])), (4, 5)


def test_candidates_of_a_row_on_its_ambient_lie_on_the_output_ambient():
    """The signature rule the verifier checks each row by: every candidate
    of a graph that passes ``AmbientSignature(pa, markings, 1).check`` (its
    own genus and markings, connected) passes ``check`` on the ambient that
    ``_output_signature`` gives, with that ambient's labels.  Disconnected
    inputs fail the row check and are skipped."""
    checked = skipped = 0
    for graph, _ in _signature_inputs():
        pa, markings = arithmetic_genus(graph), graph.markings()
        try:
            AmbientSignature(pa, markings, 1).check(graph)
        except SignatureError:
            skipped += 1
            continue
        labels, out = _output_signature(pa, markings)
        for cand, _ in _candidates(graph, labels):
            out.check(cand)
            checked += 1
    assert checked > 50_000 and skipped > 0, (checked, skipped)


@pytest.mark.parametrize("graph", [
    single_vertex(0, [1, 2]),                               # unstable vertex
    DecoratedGraph((1,), ((0, 1, 0), (3, 2, 0)), ()),       # dangling leg
    DecoratedGraph((2,), ((0, 1, 0), (0, 1, 1)), ()),       # duplicate marking
    DecoratedGraph((1, 1), (), ((0, 0, 1, -1),)),           # negative psi on an edge
    # a leg at vertex -1, which an unchecked search would index from the end
    DecoratedGraph((1, 1), ((0, 1, 0), (-1, 2, 0)), ((0, 0, 1, 0),)),
])
def test_user_supplied_invalid_graphs_are_rejected(graph):
    """The public operator parts, canonical-form functions and class
    constructor validate the graph they are given, whatever its coefficient;
    only the package's own graphs, valid by construction, go to the
    canonical-form search unchecked."""
    diags = graph.validate()
    assert diags
    ambient = AmbientSignature(2, frozenset(graph.markings()))
    for call in (lambda: cut_edges(graph),
                 lambda: reduce_genus(graph), lambda: split_vertices(graph),
                 lambda: canonicalize(graph), lambda: canonical_form(graph),
                 lambda: automorphism_count(graph),
                 lambda: TautClass(ambient, [(graph, 1)]),
                 lambda: TautClass(ambient, [(graph, 0)]),
                 lambda: monomial_class(2, 2).coefficient_of(graph)):
        with pytest.raises(InvalidGraphError) as exc:
            call()
        assert exc.value.diagnostics == diags
