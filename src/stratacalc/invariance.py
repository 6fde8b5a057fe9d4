"""Genus-lowering graph operators and their linear extension to classes.

Three elementary operations send a decorated graph on a genus-g ambient to an
exact rational class on the possibly disconnected genus-(g-1) ambient carrying
two extra legs labelled i and j:

* ``cut_edges`` - cut one edge into two new legs, label them i/j both ways,
  and decorate an extra psi^1 onto the i leg (coefficient 1/2) or onto the j
  leg (coefficient -1/2);
* ``reduce_genus`` - drop the genus of one vertex by one and attach legs i, j
  to it with psi^0, coefficient -1/2;
* ``split_vertices`` - split one vertex into two, distributing genus, legs,
  edge ends and kappa factors in all possible ways, leg i on the first part
  and leg j on the second, both with psi^0, coefficient -1/2.

Every move keeps the degree (edges plus psi and kappa powers): a cut trades
its edge for psi^1, and reduce and split add legs with psi^0.

A candidate's shape (``_shape``: edge count, psi on leg i, psi on leg j) lies
in the shapes ``_reach`` reads off its graph, whence the shape rule: for a
graph with e >= 1 edges, reduce and split keep all e edges, and a cut leaves
e - 1 and puts psi >= 1 on leg i or j, so no candidate is bare (``_BARE``: no
edge, psi^0 on both new legs) and none has a ``_target_key``.  Keyed
candidates come from the reduce and split moves of an edge-free one-vertex
graph, each -1/2, and ``_split_rule`` reads their merged coefficient off the
key (the split rule): -1/2 for the reduce key and -1/2 * prod_a C(m_a, m_a^i)
for a split key, m_a being the multiplicity of kappa_a and m_a^i its
multiplicity on the part with leg i.

Each operation is a stream of raw candidates: ``(graph, sign)`` pairs with
``sign = +-1`` standing for the coefficient ``sign / 2``, neither
canonicalized nor merged, whose graphs are valid and in normal form by
construction.  Every candidate of a valid input has the input's arithmetic
genus minus one, its markings plus i and j, and at most one more component
(the signature rule), so a genus-0 input yields no candidate at all, and
checking a connected input checks every candidate; cut and reduce keep every
vertex stable, and a split whose part would be unstable is skipped before
its graph is built.  Every image is built by the one merge,
``classes._merged``, over the denominator 2 for one graph and ``2 * den`` for
a class over ``den``; isomorphic candidates go to the canonical-form search
unchecked.  The new labels are the two integers following the largest input
marking, so a class on markings 1..n acquires legs n+1 (= i) and n+2 (= j).

Everything is pure and deterministic: the result is independent of the
evaluation order because terms merge by canonical form.
"""

from __future__ import annotations

from math import comb, prod

from .classes import AmbientSignature, TautClass, _merged
from .errors import SignatureError
from .graphs import (
    _BY_MARKING,
    DecoratedGraph,
    _moved_half_edges,
    arithmetic_genus,
)


def _output_signature(genus: int, markings):
    """New leg labels (i, j), the two integers after the largest marking, and
    the output ambient (genus - 1, markings + {i, j}, 2)."""
    base = max(markings, default=0)
    labels = (base + 1, base + 2)
    return labels, AmbientSignature(genus - 1, frozenset(markings) | set(labels), 2)


def _with_new_legs(legs, i_leg, j_leg):
    """``legs`` plus the new legs i and j, in marking order."""
    return tuple(sorted(legs + (i_leg, j_leg), key=_BY_MARKING))


def _cut_candidates(graph: DecoratedGraph, labels):
    if arithmetic_genus(graph) < 1:
        return
    i_lab, j_lab = labels
    for idx, (v1, p1, v2, p2) in enumerate(graph.edges):
        rest = graph.edges[:idx] + graph.edges[idx + 1:]
        for (iv, ip), (jv, jp) in (((v1, p1), (v2, p2)), ((v2, p2), (v1, p1))):
            # psi^1 onto the end that becomes leg i, or onto the one that becomes j
            for di, dj, sign in ((1, 0, 1), (0, 1, -1)):
                legs = _with_new_legs(graph.legs, (iv, i_lab, ip + di), (jv, j_lab, jp + dj))
                yield DecoratedGraph._of(graph.genera, legs, rest, graph.kappa), sign


def _reduce_candidates(graph: DecoratedGraph, labels):
    if arithmetic_genus(graph) < 1:
        return
    i_lab, j_lab = labels
    for v in range(graph.n_vertices):
        if graph.genera[v] < 1:
            continue
        genera = graph.genera[:v] + (graph.genera[v] - 1,) + graph.genera[v + 1:]
        legs = _with_new_legs(graph.legs, (v, i_lab, 0), (v, j_lab, 0))
        yield DecoratedGraph._of(genera, legs, graph.edges, graph.kappa), -1


def _split_candidates(graph: DecoratedGraph, labels):
    if arithmetic_genus(graph) < 1:
        return
    i_lab, j_lab = labels
    genera, kappa = graph.genera, graph.kappa
    new_v = len(genera)   # index of the second part
    for v, h in enumerate(genera):
        moves = list(_moved_half_edges(graph, v))
        # the kappa factors go to either part as if they were half-edges too,
        # in the higher bits of the move's mask
        kappas = []
        for mask in range(1 << len(kappa[v])):
            split = ([], [])
            for bit, k in enumerate(kappa[v]):
                split[mask >> bit & 1].append(k)
            kappas.append(kappa[:v] + (tuple(split[0]),) + kappa[v + 1:] + (tuple(split[1]),))
        i_leg, j_leg = (v, i_lab, 0), (new_v, j_lab, 0)
        for g1 in range(h + 1):
            parts = genera[:v] + (g1,) + genera[v + 1:] + (h - g1,)
            # each part also carries one new leg, i or j
            stable = [(_with_new_legs(legs, i_leg, j_leg), edges)
                      for stay, moved, legs, edges in moves
                      if 2 * g1 - 1 + stay > 0 and 2 * (h - g1) - 1 + moved > 0]
            for split_kappa in kappas:
                for legs, edges in stable:
                    yield DecoratedGraph._of(parts, legs, edges, split_kappa), -1


def _target_key(graph: DecoratedGraph, labels):
    """What a reduce or split of an edge-free one-vertex graph fixes
    of its candidate ``graph``: ``(genus, kappa, legs)`` of the vertex with
    leg i, then of the vertex with leg j if that is the other one, with legs
    as ``(marking, psi)``.  Two keyed graphs are isomorphic exactly when their
    keys are equal.  ``None`` when no such move lands on ``graph``: it has an
    edge, a third vertex, no leg i or j or psi on one, or i and j on one of
    two vertices."""
    at = {m: (v, p) for v, m, p in graph.legs}
    # a missing leg i or j reads as one with psi
    (vi, pi), (vj, pj) = (at.get(label, (None, 1)) for label in labels)
    order = (vi,) if vi == vj else (vi, vj)
    if graph.edges or pi or pj or len(order) != graph.n_vertices:
        return None
    return tuple((graph.genera[v], graph.kappa[v],
                  tuple([(m, p) for w, m, p in graph.legs if w == v])) for v in order)


def _split_rule(graph: DecoratedGraph, labels, keys):
    """``(key, numerator over 2)`` for each key in ``keys`` that a move of
    ``graph`` lands on, read off the key by the split rule with no candidate
    built.  A two-vertex key is reached when its genera, legs and kappa split
    the graph's, by one split move for each kappa mask whose i part sorts to
    the key's kappa on leg i's vertex."""
    if graph.edges or graph.n_vertices > 1 or graph.genera[0] < 1:
        return
    (h,), (kappa,) = graph.genera, graph.kappa
    # the legs of the candidates: the graph's, then the new legs i and j with psi^0
    marks = tuple([(m, p) for _, m, p in graph.legs]) + ((labels[0], 0), (labels[1], 0))
    for key in keys:
        if key == ((h - 1, kappa, marks),):
            yield key, -1
        elif len(key) == 2:
            (g1, kappa1, legs1), (g2, kappa2, legs2) = key
            if g1 + g2 == h and tuple(sorted(legs1 + legs2)) == marks \
                    and tuple(sorted(kappa1 + kappa2)) == kappa:
                yield key, -prod(comb(kappa.count(a), kappa1.count(a)) for a in set(kappa1))


#: Candidate stream of each operation, in the order the operator sums them.
_PARTS = {"cut": _cut_candidates, "reduce": _reduce_candidates,
          "split": _split_candidates}


def _part(graph: DecoratedGraph, stream) -> TautClass:
    """The class of one candidate stream of ``graph``, validated first, on its
    output ambient.  A genus-0 graph lands on a genus -1 ambient, which can
    only hold the zero class (its streams are empty)."""
    graph.require_valid()
    labels, ambient = _output_signature(arithmetic_genus(graph), graph.markings())
    return TautClass._of(*_merged(ambient, stream(graph, labels), 2))


def cut_edges(graph) -> TautClass:
    """Cut every edge in turn, in both i/j labellings, with an extra psi power.

    Each edge contributes four raw terms: psi^1 multiplied onto the i leg with
    coefficient 1/2 and onto the j leg with coefficient -1/2, under both label
    assignments.  The extra power multiplies any psi decoration already
    sitting on the cut half-edge.
    """
    return _part(graph, _cut_candidates)


def reduce_genus(graph) -> TautClass:
    """Lower the genus of each vertex by one, attaching legs i and j to it,
    both with psi^0, coefficient -1/2."""
    return _part(graph, _reduce_candidates)


def split_vertices(graph) -> TautClass:
    """Split each vertex into an ordered pair of vertices, leg i on the first.

    All ordered genus splits (g1, g2) are enumerated, every leg and edge end
    of the split vertex goes independently to either part, and the kappa
    factors are distributed as if they were extra half-edges (equal indices
    count as distinguishable, so repeated factors create multiplicity before
    canonical merging).  Coefficient -1/2, with psi^0 on legs i and j.
    """
    return _part(graph, _split_candidates)


#: Shape of a witness, and of the image terms the structural check flags:
#: no edge and psi^0 on both new legs.
_BARE = (0, 0, 0)


def _shape(graph: DecoratedGraph, i_lab: int, j_lab: int) -> tuple[int, int, int]:
    """Edge count and psi exponents on legs i and j (0 where there is no such
    leg): isomorphism invariants, the triples ``_reach`` gives."""
    psi = {m: p for _, m, p in graph.legs}
    return graph.n_edges, psi.get(i_lab, 0), psi.get(j_lab, 0)


def _reach(graph: DecoratedGraph) -> set:
    """The shapes (edge count, psi on leg i, psi on leg j) that a move of
    ``graph`` can give, a superset of those its streams yield: reduce and split
    keep every edge and put psi^0 on both legs, and a cut of edge
    ``(v1, p1, v2, p2)`` keeps the psi of its ends on legs i and j, either way
    round, with 1 added to one."""
    e = graph.n_edges
    shapes = {(e, 0, 0)}
    for _, p1, _, p2 in graph.edges:
        for pi, pj in ((p1, p2), (p2, p1)):
            shapes.add((e - 1, pi + 1, pj))
            shapes.add((e - 1, pi, pj + 1))
    return shapes


def _candidates(graph: DecoratedGraph, labels):
    """The candidates of cut, reduce and split of ``graph``, in that order."""
    for stream in _PARTS.values():
        yield from stream(graph, labels)


def invariance_operator(x: TautClass) -> TautClass:
    """The genus-lowering linear operator: cut + reduce + split, extended linearly.

    Maps a class on a connected (g, n) ambient to a class of the same degree
    on the at most 2-component (g-1, n+2) ambient.
    """
    if x.ambient.max_components != 1:
        raise SignatureError("the genus-lowering operator expects a connected ambient")
    labels, out = _output_signature(x.ambient.genus, x.ambient.markings)
    # signs over 2 times x's numerators lie over 2 * x._den; the candidates of
    # a valid term on a connected ambient are valid and lie on out
    pairs = ((cand, num * sign) for form, num in x._terms.items()
             for cand, sign in _candidates(x._graphs[form], labels))
    return TautClass._of(*_merged(out, pairs, 2 * x._den, check=False))
