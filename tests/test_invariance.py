"""Genus-lowering operators: hand-checked values, linearity, invariants."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from stratacalc import (
    AmbientSignature,
    DecoratedGraph,
    SignatureError,
    TautClass,
    arithmetic_genus,
    component_count,
    cut_edges,
    disjoint_union,
    enumerate_stable_graphs,
    fundamental_class,
    invariance_operator,
    invariance_parts,
    monomial_class,
    reduce_genus,
    single_vertex,
    split_vertices,
)
from stratacalc.invariance import (
    _cut_candidates,
    _fresh_labels,
    _reduce_candidates,
    _split_candidates,
    operator_candidates,
)
from stratacalc.verifier import _BARE, _shape

from oracles import (
    cut_candidates_reference,
    random_decorated_graph,
    reduce_candidates_reference,
    split_candidates_reference,
)


def cls(ambient, *terms):
    return TautClass(ambient, terms)


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
    out = invariance_operator(fundamental_class(2, 0))
    amb = AmbientSignature(1, frozenset({1, 2}), 2)
    joined = single_vertex(1, [(1, 0), (2, 0)])
    pair = disjoint_union(single_vertex(1, [(1, 0)]), single_vertex(1, [(2, 0)]))
    expected = cls(amb, (joined, Fraction(-1, 2)), (pair, Fraction(-1, 2)))
    assert out == expected


def test_operator_zero_in_zero_out():
    z = fundamental_class(2, 0).scale(0)
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
    for level in (1, 2):
        parts = invariance_parts(x, level)
        for name, op in (("cut", cut_edges), ("reduce", reduce_genus),
                         ("split", split_vertices)):
            termwise = TautClass(parts[name].ambient)
            for _, graph, coeff in x.items():
                termwise = termwise + coeff * op(graph, level, (2, 3))
            assert parts[name] == termwise, name
        total = parts["cut"] + parts["reduce"] + parts["split"]
        assert not total.is_zero
        assert total == invariance_operator(x, level, experimental=True)


def test_experimental_gate():
    x = fundamental_class(3, 0)
    with pytest.raises(ValueError):
        invariance_operator(x, level=2)
    out = invariance_operator(x, level=2, experimental=True)
    assert not out.is_zero


def test_cut_level2_coefficients():
    bridge = DecoratedGraph((1, 1), (), ((0, 0, 1, 0),))
    out = cut_edges(bridge, level=2)   # (-1)^2/2 = +1/2 on the j side
    deep = disjoint_union(single_vertex(1, [(1, 2)]), single_vertex(1, [(2, 0)]))
    other = disjoint_union(single_vertex(1, [(1, 0)]), single_vertex(1, [(2, 2)]))
    assert out.coefficient_of(deep) == 1
    assert out.coefficient_of(other) == 1


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
        parts = invariance_parts(x)
        i_lab = max(x.ambient.markings, default=0) + 1
        j_lab = i_lab + 1

        def plain_disconnected(term):
            if term.n_edges or component_count(term) != 2:
                return False
            psi = {m: p for _, m, p in term.legs}
            return psi.get(i_lab, 0) == 0 and psi.get(j_lab, 0) == 0

        for name in ("cut", "reduce"):
            for _, term, _ in parts[name].items():
                assert not plain_disconnected(term), name
        total = parts["cut"] + parts["reduce"] + parts["split"]
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
    """``(graph, level, labels)``: every stable graph with g, n <= 3 and up to 3
    edges at level 1 with fresh labels and at level 2 with explicit ones, its
    decorated copy at level 1, genus-0 graphs with edges, and random graphs,
    disconnected ones included."""
    for g in range(4):
        for n in range(4):
            fresh = _fresh_labels(range(1, n + 1))
            for graph in enumerate_stable_graphs(g, n, 3, min_edges=0):
                yield graph, 1, fresh
                yield graph, 2, (fresh[1] + 3, fresh[0])
                yield _decorated(graph), 1, fresh
    # arithmetic genus 0, with edges, connected or not: every stream is empty
    for graph in enumerate_stable_graphs(0, 5, 2, min_edges=0):
        yield graph, 1, (6, 7)
    tree = DecoratedGraph((0, 0), ((0, 2, 0), (0, 3, 0), (1, 4, 0), (1, 5, 0)),
                          ((0, 0, 1, 0),))
    yield disjoint_union(single_vertex(1, [1], (1,)), tree), 2, (6, 7)
    rng = random.Random(20261018)
    for _ in range(60):
        graph = random_decorated_graph(rng, genus_range=(0, 3), connected=False)
        yield graph, 2, _fresh_labels(graph.markings())


def test_candidate_streams_match_validated_reference():
    """The library streams skip unstable splits and genus-0 inputs without
    validating; the reference builds every candidate and keeps the valid
    ones.  Both must agree in order, graph and coefficient."""
    streams = ((_cut_candidates, cut_candidates_reference),
               (_reduce_candidates, reduce_candidates_reference),
               (_split_candidates, split_candidates_reference))
    total = 0
    for graph, level, labels in _stream_inputs():
        for fast, reference in streams:
            got = list(fast(graph, level, labels))
            assert got == list(reference(graph, level, labels)), (graph, level, labels)
            if arithmetic_genus(graph) == 0:
                assert got == []
            total += len(got)
    assert total > 100_000


def test_shape_filtered_streams_match_filtered_full_streams():
    """Deciding a move by its shape before building it keeps exactly the
    candidates of the full stream whose shape is wanted, in stream order."""
    streams = (_cut_candidates, _reduce_candidates, _split_candidates)
    kept = Counter()
    for graph, level, labels in _stream_inputs():
        for stream in streams:
            full = list(stream(graph, level, labels))
            assert list(stream(graph, level, labels, None)) == full
            shape_of = [_shape(cand, *labels) for cand, _ in full]
            e = graph.n_edges
            # the bare shape, a one-edge shape, the psi^1 shapes of a cut, all
            # shapes, and psi on leg i only at level 2
            for idx, shapes in enumerate(({_BARE}, {(1, 0, 0)},
                                          {(e - 1, 1, 0), (e - 1, 0, 1)},
                                          set(shape_of), {(e, 1, 0)})):
                want = [item for item, shape in zip(full, shape_of) if shape in shapes]
                got = list(stream(graph, level, labels, shapes))
                assert got == want, (graph, level, labels, shapes)
                kept[stream.__name__, idx] += len(got)
    # a cut always puts psi^level on a new leg, so it is never bare; the
    # other sets keep candidates of every stream that can have their shape
    assert kept["_cut_candidates", 0] == 0 and kept["_cut_candidates", 1] == 0
    assert all(kept[name, 0] and kept[name, 1]
               for name in ("_reduce_candidates", "_split_candidates"))
    assert kept["_cut_candidates", 2] > 0
    assert kept["_reduce_candidates", 4] and kept["_split_candidates", 4]
    assert sum(kept[stream.__name__, 3] for stream in streams) > 100_000


def _first_signature_error(candidates, ambient):
    for cand, _ in candidates:
        try:
            ambient.check(cand)
        except SignatureError as exc:
            return str(exc)
    return None


def _signature_inputs():
    yield from _stream_inputs()
    # two components already: a cut of the bridge, or any split of an
    # edge-free vertex, makes a third
    bridge = DecoratedGraph((1, 1), (), ((0, 0, 1, 0),))
    yield disjoint_union(single_vertex(1, [1]), bridge), 1, (2, 3)
    yield disjoint_union(single_vertex(2, [1, 2]), single_vertex(1, [3])), 1, (4, 5)


def test_move_level_signature_check_matches_candidate_checks():
    """``operator_candidates(..., ambient=...)`` raises exactly when some
    candidate of the full stream fails ``AmbientSignature.check``, with the
    message of the first failing one, whether or not a move is built."""
    raised = Counter()
    for graph, level, labels in _signature_inputs():
        full = list(operator_candidates(graph, level, labels))
        pa = arithmetic_genus(graph)
        markings = frozenset(graph.markings()) | set(labels)
        ambients = [AmbientSignature(pa - 1, markings, 1),
                    AmbientSignature(pa - 1, markings, 2),
                    AmbientSignature(pa, markings, 2),
                    AmbientSignature(pa - 1, markings - {labels[1]}, 2)]
        for ambient in ambients:
            want = _first_signature_error(full, ambient)
            for shapes in (frozenset(), None):
                try:
                    list(operator_candidates(graph, level, labels, shapes=shapes,
                                             ambient=ambient))
                    got = None
                except SignatureError as exc:
                    got = str(exc)
                assert got == want, (graph, level, labels, ambient, shapes)
            if want is not None:
                raised[want.split()[1 if "markings" in want else 2]] += 1
    # each check fails somewhere: genus, markings, 2 and 3 components
    assert all(raised[kind] for kind in ("arithmetic", "markings", "2", "3")), raised
