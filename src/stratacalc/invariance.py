"""Genus-lowering graph operators and their linear extension to classes.

Three elementary operations send a decorated graph on a genus-g ambient to an
exact rational class on the possibly disconnected genus-(g-1) ambient carrying
two extra legs labelled i and j:

* ``cut_edges`` - cut one edge into two new legs, label them i/j both ways,
  and decorate an extra psi^level onto the i leg (coefficient 1/2) or onto the
  j leg (coefficient (-1)^level / 2);
* ``reduce_genus`` - drop the genus of one vertex by one and attach legs i, j
  to it with psi^(level-1-m) and psi^m, coefficient (1/2)(-1)^(m+1);
* ``split_vertices`` - split one vertex into two, distributing genus, legs,
  edge ends and kappa factors in all possible ways, leg i (psi^(level-1-m)) on
  the first part and leg j (psi^m) on the second, coefficient (1/2)(-1)^(m+1).

Each operation is a stream of raw candidates: ``(graph, coeff)`` pairs,
neither canonicalized nor merged, that are valid by construction.  Every
candidate of a valid input has the input's arithmetic genus minus one, so a
genus-0 input yields no candidate at all; cut and reduce keep every vertex
stable, and a split whose part would be unstable is skipped before its graph
is built.  Building a ``TautClass`` from a stream merges isomorphic candidates
(``canonicalize`` validates each distinct one).
``operator_candidates`` chains the three streams of one graph, for callers
that read only part of the image: it can skip every move whose shape (edge
count, psi on i and j) is not wanted before building it, and check every
move against an output ambient.  The new labels are the two integers
following the largest input marking, so a class on markings 1..n acquires
legs n+1 (= i) and n+2 (= j).

Everything is pure and deterministic: the result is independent of the
evaluation order because terms merge by canonical form.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .classes import AmbientSignature, TautClass
from .errors import SignatureError
from .graphs import DecoratedGraph, arithmetic_genus, component_count

__all__ = [
    "cut_edges",
    "reduce_genus",
    "split_vertices",
    "operator_candidates",
    "invariance_operator",
    "invariance_parts",
]


def _fresh_labels(markings) -> tuple[int, int]:
    base = max(markings, default=0)
    return base + 1, base + 2


def _output_ambient(graph: DecoratedGraph, labels) -> AmbientSignature:
    i_lab, j_lab = labels
    if i_lab == j_lab or i_lab < 1 or j_lab < 1:
        raise SignatureError(f"new leg labels must be distinct positive markings, "
                             f"got {labels}")
    if {i_lab, j_lab} & set(graph.markings()):
        raise SignatureError(f"new leg labels {labels} collide with existing markings")
    # genus-0 inputs land on a genus -1 ambient, which can only hold the
    # zero class (the candidate streams of a genus-0 graph are empty)
    pa = arithmetic_genus(graph)
    return AmbientSignature(pa - 1, frozenset(graph.markings()) | set(labels), 2)


def _prepare(graph: DecoratedGraph, level: int, labels):
    """Validated input graph, its new leg labels and its output ambient."""
    graph.require_valid()
    if level < 1:
        raise ValueError("level must be >= 1")
    labels = labels or _fresh_labels(set(graph.markings()))
    return graph, labels, _output_ambient(graph, labels)


def _cut_candidates(graph: DecoratedGraph, level: int, labels, shapes=None):
    if arithmetic_genus(graph) < 1:
        return
    i_lab, j_lab = labels
    on_j = Fraction((-1) ** level, 2)
    # a cut keeps the other edges and adds level to the psi of one cut end
    kept_edges = graph.n_edges - 1
    for idx, (v1, p1, v2, p2) in enumerate(graph.edges):
        rest = graph.edges[:idx] + graph.edges[idx + 1:]
        for (iv, ip), (jv, jp) in (((v1, p1), (v2, p2)), ((v2, p2), (v1, p1))):
            for di, dj, coeff in ((level, 0, Fraction(1, 2)), (0, level, on_j)):
                if shapes is not None and (kept_edges, ip + di, jp + dj) not in shapes:
                    continue
                legs = graph.legs + ((iv, i_lab, ip + di), (jv, j_lab, jp + dj))
                yield DecoratedGraph(graph.genera, legs, rest, graph.kappa), coeff


def _reduce_candidates(graph: DecoratedGraph, level: int, labels, shapes=None):
    if arithmetic_genus(graph) < 1:
        return
    i_lab, j_lab = labels
    # a reduce or split keeps every edge: its shape is (#edges, level-1-m, m)
    levels = [m for m in range(level)
              if shapes is None or (graph.n_edges, level - 1 - m, m) in shapes]
    for v in range(graph.n_vertices):
        if graph.genera[v] < 1:
            continue
        genera = graph.genera[:v] + (graph.genera[v] - 1,) + graph.genera[v + 1:]
        for m in levels:
            legs = graph.legs + ((v, i_lab, level - 1 - m), (v, j_lab, m))
            yield (DecoratedGraph(genera, legs, graph.edges, graph.kappa),
                   Fraction((-1) ** (m + 1), 2))


def _split_candidates(graph: DecoratedGraph, level: int, labels, shapes=None):
    levels = [m for m in range(level)
              if shapes is None or (graph.n_edges, level - 1 - m, m) in shapes]
    if arithmetic_genus(graph) < 1 or not levels:
        return
    i_lab, j_lab = labels
    genera, legs, edges, kappa = graph.genera, graph.legs, graph.edges, graph.kappa
    new_v = len(genera)   # index of the second part
    for v, h in enumerate(genera):
        ends = [(0, i, 0) for i, leg in enumerate(legs) if leg[0] == v]
        ends += [(1, i, side) for i, edge in enumerate(edges)
                 for side in (0, 2) if edge[side] == v]
        valence = len(ends)
        for m in levels:
            coeff = Fraction((-1) ** (m + 1), 2)
            for g1 in range(h + 1):
                parts = genera[:v] + (g1,) + genera[v + 1:] + (h - g1,)
                for mask in range(1 << (valence + len(kappa[v]))):
                    # each part also carries one new leg, i or j
                    moved = (mask & ((1 << valence) - 1)).bit_count()
                    if 2 * g1 - 1 + valence - moved <= 0 or 2 * (h - g1) - 1 + moved <= 0:
                        continue
                    rows = (list(map(list, legs)), list(map(list, edges)))
                    for bit, (kind, i, side) in enumerate(ends):
                        if mask >> bit & 1:
                            rows[kind][i][side] = new_v
                    rows[0].extend(([v, i_lab, level - 1 - m], [new_v, j_lab, m]))
                    split = ([], [])
                    for bit, k in enumerate(kappa[v], valence):
                        split[mask >> bit & 1].append(k)
                    yield DecoratedGraph(parts, *rows, kappa[:v] + (tuple(split[0]),)
                                         + kappa[v + 1:] + (tuple(split[1]),)), coeff


#: Candidate stream of each operation, in the order the operator sums them.
_PARTS = {"cut": _cut_candidates, "reduce": _reduce_candidates,
          "split": _split_candidates}


def cut_edges(graph, level: int = 1, labels=None) -> TautClass:
    """Cut every edge in turn, in both i/j labellings, with an extra psi power.

    Each edge contributes four raw terms: psi^level multiplied onto the i leg
    with coefficient 1/2 and onto the j leg with coefficient (-1)^level / 2,
    under both label assignments.  The extra power multiplies any psi
    decoration already sitting on the cut half-edge.
    """
    graph, labels, ambient = _prepare(graph, level, labels)
    return TautClass(ambient, _cut_candidates(graph, level, labels))


def reduce_genus(graph, level: int = 1, labels=None) -> TautClass:
    """Lower the genus of each vertex by one, attaching decorated legs i and j.

    For every vertex of genus >= 1 and every m in 0..level-1 the new legs
    carry psi^(level-1-m) on i and psi^m on j, coefficient (1/2)(-1)^(m+1).
    """
    graph, labels, ambient = _prepare(graph, level, labels)
    return TautClass(ambient, _reduce_candidates(graph, level, labels))


def split_vertices(graph, level: int = 1, labels=None) -> TautClass:
    """Split each vertex into an ordered pair of vertices, leg i on the first.

    All ordered genus splits (g1, g2) are enumerated, every leg and edge end
    of the split vertex goes independently to either part, and the kappa
    factors are distributed as if they were extra half-edges (equal indices
    count as distinguishable, so repeated factors create multiplicity before
    canonical merging).  Coefficient (1/2)(-1)^(m+1) with psi^(level-1-m) on
    leg i and psi^m on leg j, m in 0..level-1.
    """
    graph, labels, ambient = _prepare(graph, level, labels)
    return TautClass(ambient, _split_candidates(graph, level, labels))


def operator_candidates(graph, level: int = 1, labels=None, shapes=None,
                        ambient=None):
    """Yield the raw candidates of cut, reduce and split for one graph.

    Each item is a ``(graph, coeff)`` pair, valid by construction, neither
    canonicalized nor merged; ``TautClass(ambient, operator_candidates(graph))``
    on the output ambient is the operator image of ``graph``.

    With ``shapes``, only the moves whose candidates have a shape (edge count,
    psi on leg i, psi on leg j) in ``shapes`` are built, the shape read off the
    move.  With ``ambient``, every candidate, built or not, is checked against
    it before the first is yielded; otherwise checks are left to the consumer.
    """
    graph, labels, _ = _prepare(graph, level, labels)
    if ambient is not None:
        # all candidates share genus and markings and have at most one more
        # component than graph: below the bound the first stands for all
        full = (cand for stream in _PARTS.values()
                for cand, _ in stream(graph, level, labels))
        if component_count(graph) < ambient.max_components:
            full = itertools.islice(full, 1)
        for cand in full:
            ambient.check(cand)
    for stream in _PARTS.values():
        yield from stream(graph, level, labels, shapes)


def _collect(x: TautClass, streams, level: int) -> TautClass:
    """One class holding every candidate of every term of ``x`` in ``streams``."""
    if x.ambient.max_components != 1:
        raise SignatureError("the genus-lowering operator expects a connected ambient")
    if level < 1:
        raise ValueError("level must be >= 1")
    labels = _fresh_labels(x.ambient.markings)
    out = AmbientSignature(x.ambient.genus - 1,
                           x.ambient.markings | set(labels), 2)
    return TautClass(out, ((cand, coeff * c)
                           for _, graph, coeff in x.items()
                           for stream in streams
                           for cand, c in stream(graph, level, labels)))


def invariance_parts(x: TautClass, level: int = 1) -> dict[str, TautClass]:
    """Per-operation provenance of the operator output (diagnostic mode).

    Returns ``{"cut": ..., "reduce": ..., "split": ...}`` on the common output
    ambient; their sum is ``invariance_operator(x, level)``.
    """
    return {name: _collect(x, (stream,), level) for name, stream in _PARTS.items()}


def invariance_operator(x: TautClass, level: int = 1,
                        experimental: bool = False) -> TautClass:
    """The genus-lowering linear operator: cut + reduce + split, extended linearly.

    Maps a class on a connected (g, n) ambient to a class on the at most
    2-component (g-1, n+2) ambient.  Only level 1 preserves the grading;
    higher levels are implemented as written but gated behind
    ``experimental=True``.
    """
    if level != 1 and not experimental:
        raise ValueError("level >= 2 is experimental; pass experimental=True")
    return _collect(x, tuple(_PARTS.values()), level)
