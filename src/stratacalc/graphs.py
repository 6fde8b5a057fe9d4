"""Stable dual graphs with kappa/psi decorations.

A dual graph records the combinatorial type of a nodal curve: vertices are
irreducible components labelled by geometric genus, edges are nodes, legs are
marked points.  A decorated graph carries in addition a kappa-class monomial
on every vertex and a psi exponent on every half-edge (legs and edge ends).

Conventions:

* vertices are indexed ``0..V-1``;
* legs are ``(vertex, marking, psi)`` triples; markings are pairwise-distinct
  positive integers;
* edges are ``(v1, psi1, v2, psi2)`` quadruples whose two ends are unordered;
  self-loops (``v1 == v2``) are allowed and count twice toward valence;
* kappa decorations are per-vertex multisets of integers >= 1 (an index-0
  kappa never appears as a stored decoration; it only arises as a pushforward
  scalar).

All values are immutable and hashable and every function is pure, so the
module is safe to use from concurrent contexts.  Canonical forms are computed
by invariant-based partition refinement followed by exhaustive search over the
residual vertex orderings; graphs here are tiny, so correctness beats
sophistication.  The same search yields the vertex automorphisms: the
orderings that tie for the least encoding.  Enumeration uses them to place
markings on unmarked shapes once per isomorphism class.  One walk over the
placed graphs, ``_listing``, lists both the enumeration and the boundary
generators of ``verifier``: it searches each shape once, and each placed
graph or each of its decorations once.  Refinement almost always ends
discrete, leaving one ordering: measured searches try 1.000 to 1.12
orderings each (227 searches and 235 orderings for verify (6,2,2), 15,070
and 15,325 for the boundary generators of (9,3,3), 684 and 750 for
enumeration and boundary generators at (9,0,3)).  A search therefore costs
its fixed per-graph work, which is what the code here keeps small, and not
its branching.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter, defaultdict, namedtuple
from functools import lru_cache
from math import factorial, prod
from operator import index, itemgetter

from .errors import InvalidGraphError, SizeGuardError

#: Hard cap on vertex orderings explored by the canonical-form search, which
#: also serves automorphism_count.
_ORDERING_GUARD = 1_000_000

_DEFAULT_MAX_GRAPHS = 100_000

#: Compact-JSON encoder of canonical forms, built once (``JSONEncoder.encode``
#: builds one per call); it yields the JSON of the least key in str parts.
_COMPACT = json.encoder.c_make_encoder(None, None, json.encoder.encode_basestring_ascii,
                                       None, ":", ",", False, False, True)

#: Sort key of ``(vertex, marking, psi)`` legs: by marking.
_BY_MARKING = itemgetter(1, 0, 2)


def compositions(total: int, parts: int):
    """Yield every tuple of ``parts`` non-negative integers summing to
    ``total``, in lexicographic order: stars and bars, with the ``parts - 1``
    bars at each subset of ``total + parts - 1`` slots, in order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        yield tuple([b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,))])


class DecoratedGraph(namedtuple("DecoratedGraph", "genera legs edges kappa")):
    """Dual graph with a kappa monomial per vertex and a psi power per half-edge.

    The named tuple of its fields in normal form: ``genera``; ``legs`` as
    ``(vertex, marking, psi)``; ``edges`` as ``(v1, psi1, v2, psi2)``; ``kappa``,
    one tuple per vertex.  It compares, sorts and hashes as that tuple.
    """

    __slots__ = ()

    def __new__(cls, genera, legs=(), edges=(), kappa=()):
        # outside input only: the package's own graphs are built by _of
        genera = tuple(map(index, genera))
        legs = sorted([(index(v), index(m), index(p)) for v, m, p in legs], key=_BY_MARKING)
        edges = _sorted_edges((index(v1), index(p1), index(v2), index(p2))
                              for v1, p1, v2, p2 in edges)
        kappa = tuple(tuple(sorted(map(index, ks))) for ks in kappa or ((),) * len(genera))
        return tuple.__new__(cls, (genera, tuple(legs), edges, kappa))

    @classmethod
    def _of(cls, genera, legs, edges, kappa) -> "DecoratedGraph":
        """Graph of fields already in the normal form ``__new__`` makes:
        ints, legs by marking, each edge's ends in order and edges sorted,
        each kappa sorted and one per vertex."""
        return tuple.__new__(cls, (genera, legs, edges, kappa))

    # ------------------------------------------------------------------ shape

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def markings(self) -> tuple[int, ...]:
        return tuple([m for _, m, _ in self.legs])   # the legs are in marking order

    def degree(self) -> int:
        """Total degree: #edges + sum of psi exponents + sum of kappa indices."""
        return (self.n_edges
                + sum(p for _, _, p in self.legs)
                + sum(p1 + p2 for _, p1, _, p2 in self.edges)
                + sum(sum(ks) for ks in self.kappa))

    def _union_find(self):
        """Join the ends of every edge: the root-of-vertex function and the
        number of components."""
        parent = list(range(self.n_vertices))
        count = self.n_vertices

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for v1, _, v2, _ in self.edges:
            a, b = find(v1), find(v2)
            if a != b:
                parent[a] = b
                count -= 1
        return find, count

    def components(self) -> list[frozenset[int]]:
        find, _ = self._union_find()
        groups = defaultdict(set)
        for v in range(self.n_vertices):
            groups[find(v)].add(v)
        return [frozenset(vs) for vs in groups.values()]

    # ------------------------------------------------------------- validation

    def validate(self) -> list[str]:
        """Return the list of violated invariants (empty means valid)."""
        V = len(self.genera)
        if V == 0:
            return ["empty graph: no vertices"]
        if len(self.kappa) != V:
            return [f"decoration arity mismatch: {len(self.kappa)} kappa entries "
                    f"for {V} vertices"]
        diags = [f"negative genus at vertex {v}" for v, g in enumerate(self.genera) if g < 0]
        dangling = False
        valence = [0] * V      # legs plus edge ends; a self-loop counts twice
        for idx, (v, m, p) in enumerate(self.legs):
            if 0 <= v < V:
                valence[v] += 1
            else:
                diags.append(f"dangling half-edge: leg {idx} references vertex {v}")
                dangling = True
            if m < 1:
                diags.append(f"invalid marking label {m} on leg {idx}")
            if p < 0:
                diags.append(f"negative psi exponent on leg {idx}")
        markings = [m for _, m, _ in self.legs]
        if len(set(markings)) < len(markings):
            for m, count in sorted(Counter(markings).items()):
                if count > 1:
                    diags.append(f"duplicate marking: {m}")
        for idx, (v1, p1, v2, p2) in enumerate(self.edges):
            for v in (v1, v2):
                if 0 <= v < V:
                    valence[v] += 1
                else:
                    diags.append(f"dangling half-edge: edge {idx} references vertex {v}")
                    dangling = True
            if p1 < 0 or p2 < 0:
                diags.append(f"negative psi exponent on edge {idx}")
        for v, ks in enumerate(self.kappa):
            if ks and min(ks) < 1:
                diags.append(f"invalid kappa index at vertex {v} (indices must be >= 1)")
        if dangling:
            return diags
        for v, (g, val) in enumerate(zip(self.genera, valence)):
            if 2 * g - 2 + val <= 0:
                diags.append(f"unstable vertex: {v} (genus {g}, valence {val})")
        if not diags:
            pa = arithmetic_genus(self)
            if pa < 0:
                diags.append(f"negative arithmetic genus: {pa}")
        return diags

    def require_valid(self) -> "DecoratedGraph":
        """This graph, unless ``validate()`` finds a fault: then it raises."""
        diags = self.validate()
        if diags:
            raise InvalidGraphError(diags)
        return self


def _sorted_edges(edges) -> tuple:
    """``(v1, psi1, v2, psi2)`` edges in normal form: each edge's ends in
    order, and the edges sorted."""
    return tuple(sorted([(v1, p1, v2, p2) if (v1, p1) <= (v2, p2) else (v2, p2, v1, p1)
                         for v1, p1, v2, p2 in edges]))


def arithmetic_genus(g: DecoratedGraph) -> int:
    """sum of vertex genera + #edges - #vertices + 1 (any number of components)."""
    return sum(g.genera) + g.n_edges - g.n_vertices + 1


def component_count(g: DecoratedGraph) -> int:
    return g._union_find()[1]


def single_vertex(genus: int, legs=(), kappa=()) -> DecoratedGraph:
    """One-vertex decorated graph.

    ``legs`` is an iterable of markings or of ``(marking, psi)`` pairs.
    """
    norm = []
    for item in legs:
        if isinstance(item, tuple):
            m, p = item
        else:
            m, p = item, 0
        norm.append((0, m, p))
    return DecoratedGraph((genus,), tuple(norm), (), (tuple(kappa),))


def disjoint_union(a: DecoratedGraph, b: DecoratedGraph) -> DecoratedGraph:
    off = a.n_vertices
    return DecoratedGraph(
        a.genera + b.genera,
        a.legs + tuple((v + off, m, p) for v, m, p in b.legs),
        a.edges + tuple((v1 + off, p1, v2 + off, p2) for v1, p1, v2, p2 in b.edges),
        a.kappa + b.kappa,
    )


# --------------------------------------------------------------- canonical form

def _dense_ranks(keys):
    ranks = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [ranks[k] for k in keys]


def _candidate_orders(g: DecoratedGraph):
    """Vertex orders that list the vertices by isomorphism-invariant color:
    static data (genus, kappa, legs, edge-end count) refined along incidence,
    then every order within each color class."""
    V = len(g.genera)
    legs_at = [[] for _ in range(V)]       # in marking order, as the legs are
    for v, m, p in g.legs:
        legs_at[v].append((m, p))
    incident = [[] for _ in range(V)]      # v -> [(own psi, other vertex, other psi)]
    for v1, p1, v2, p2 in g.edges:
        incident[v1].append((p1, v2, p2))
        incident[v2].append((p2, v1, p1))
    base = list(zip(g.genera, g.kappa, map(tuple, legs_at), map(len, incident)))
    if len(set(base)) == V:
        # discrete already, and refinement keeps a discrete coloring
        return [tuple(sorted(range(V), key=base.__getitem__))]
    colors = _dense_ranks(base)
    while True:
        new = _dense_ranks([(colors[v], tuple(sorted((p, colors[u], q)
                                                     for p, u, q in incident[v])))
                            for v in range(V)])
        if new == colors:
            break
        colors = new
    cells = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    orders = prod(factorial(len(cell)) for cell in cells)
    if orders > _ORDERING_GUARD:
        raise SizeGuardError(
            f"canonicalization search space too large: {orders} vertex orders, over "
            f"the {_ORDERING_GUARD} allowed, for {g!r}")
    return (tuple(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*(itertools.permutations(cell)
                                             for cell in cells)))


def _encode_under(g: DecoratedGraph, order):
    pos = {old: new for new, old in enumerate(order)}
    verts = tuple([(g.genera[o], g.kappa[o]) for o in order])
    # the legs are in marking order, and markings are distinct
    legs = tuple([(m, pos[v], p) for v, m, p in g.legs])
    edges = []
    for v1, p1, v2, p2 in g.edges:
        a, b = (pos[v1], p1), (pos[v2], p2)
        edges.append(a + b if a <= b else b + a)
    edges.sort()
    return (verts, legs, tuple(edges))


@lru_cache(maxsize=1 << 18)
def _canonical_search(g: DecoratedGraph):
    """Canonical form, canonical representative, and the representative's
    non-identity vertex automorphisms, as tuples ``s`` mapping ``v`` to
    ``s[v]``: one per further candidate order tied for the least encoding.
    Tied orders differ by a vertex permutation preserving genus, kappa, legs
    and the edge multiset, and every such permutation keeps the refinement
    colors, so these are all of them; most graphs have none.  The search
    checks nothing (see ``canonicalize``), and runs on unstable shapes too."""
    best_key = None
    for order in _candidate_orders(g):
        key = _encode_under(g, order)
        if key == best_key:
            tied.append(order)
        elif best_key is None or key < best_key:
            best_key, best, tied = key, order, []
    verts, legs, edges = best_key
    genera, kappa = zip(*verts)
    canon = DecoratedGraph._of(genera, tuple([(v, m, p) for m, v, p in legs]), edges, kappa)
    autos = ()
    if tied:
        pos = {old: new for new, old in enumerate(best)}
        autos = tuple(tuple([pos[v] for v in order]) for order in tied)
    return "".join(_COMPACT(best_key, 0)).encode("ascii"), canon, autos


def canonicalize(g: DecoratedGraph) -> tuple[bytes, DecoratedGraph]:
    """Canonical form and canonical representative of ``g`` up to isomorphism.

    The form is the ASCII compact JSON of the least encoding over the orderings
    the refinement classes allow, and the representative is the relabelling
    that gives it.  Two graphs have equal forms exactly when some relabelling
    identifies them, decorations included; forms are ordered by their bytes.
    ``g`` is validated first, as by ``automorphism_count``; the package's own
    graphs go straight to the cached ``_canonical_search``, which trusts them.
    """
    g.require_valid()
    return _canonical_search(g)[:2]


def canonical_form(g: DecoratedGraph) -> bytes:
    return canonicalize(g)[0]


def automorphism_count(g: DecoratedGraph) -> int:
    """Order of the decoration- and marking-preserving automorphism group.

    The vertex permutations are the identity and the automorphisms that the
    canonical-form search returns; each one lifts to the half-edges in
    prod(mult!) * 2^loops ways: parallel edges with equal psi data permute
    freely, and a self-loop with equal psi on both ends may flip.
    """
    g.require_valid()
    _, canon, autos = _canonical_search(g)
    edges = Counter(canon.edges)
    loops = sum(mult for (v1, p1, v2, p2), mult in edges.items() if (v1, p1) == (v2, p2))
    return (1 + len(autos)) * prod(factorial(mult) for mult in edges.values()) * 2 ** loops


# ----------------------------------------------------------------- enumeration

def _graph_cap() -> int:
    raw = os.environ.get("STRATA_MAX_GRAPHS", "")
    if not raw:
        return _DEFAULT_MAX_GRAPHS
    if not raw.isdecimal():
        raise ValueError(f"STRATA_MAX_GRAPHS must be a non-negative integer, got {raw!r}")
    return int(raw)


def _moved_half_edges(graph: DecoratedGraph, v: int, last_stays: bool = False):
    """Move each subset of the half-edges at vertex ``v`` (its legs, then its
    edge ends, in order; subsets in binary order) to a new last vertex.  Yield,
    for each subset, the number of half-edges that stay and that move, and the
    legs and edges in normal form.  With ``last_stays``, only the subsets that
    leave the last half-edge at ``v``."""
    legs, edges, new_v = graph.legs, graph.edges, graph.n_vertices
    at_v = [i for i, leg in enumerate(legs) if leg[0] == v]
    ends = [(i, side) for i, edge in enumerate(edges) for side in (0, 2) if edge[side] == v]
    valence = len(at_v) + len(ends)
    for mask in range(1 << max(valence - last_stays, 0)):
        moved_legs, moved_edges = list(legs), list(edges)
        for bit, i in enumerate(at_v):
            if mask >> bit & 1:
                moved_legs[i] = (new_v,) + legs[i][1:]
        for bit, (i, side) in enumerate(ends, len(at_v)):
            if mask >> bit & 1:
                moved_edges[i] = moved_edges[i][:side] + (new_v,) + moved_edges[i][side + 1:]
        moved = mask.bit_count()
        # an edge with a moved end may need its ends swapped and a new place
        yield (valence - moved, moved, tuple(moved_legs),
               _sorted_edges(moved_edges) if mask >> len(at_v) else edges)


def _deficits(shape: DecoratedGraph) -> list[int]:
    """Per vertex, the markings it needs to be stable: ``max(0, 3 - 2h - d)``
    for genus h and d edge ends."""
    degree = [0] * len(shape.genera)
    for v1, _, v2, _ in shape.edges:
        degree[v1] += 1
        degree[v2] += 1
    return [max(0, 3 - 2 * h - d) for h, d in zip(shape.genera, degree)]


def _shape_degenerations(shape: DecoratedGraph, n: int):
    """Yield the shapes with one edge more than ``shape`` whose deficits sum
    to at most ``n``: a self-loop at a vertex of genus >= 1, lowering its
    genus, or a split of a vertex into two parts joined by a new edge, with
    every genus split and every assignment of the vertex's edge ends.  A
    loop keeps the deficit, and only the two parts of a split change it.
    Swapping the parts gives an isomorphic shape, so the vertex's last edge
    end stays on the old vertex."""
    genera, edges, kappa = shape.genera, shape.edges, shape.kappa
    new_v = len(genera)
    deficits = _deficits(shape)
    slack = n - sum(deficits)
    for v, h in enumerate(genera):
        if h:
            yield DecoratedGraph._of(genera[:v] + (h - 1,) + genera[v + 1:], (),
                                     tuple(sorted(edges + ((v, 0, v, 0),))), kappa)
        room = slack + deficits[v]
        for stay, moved, _, moved_edges in _moved_half_edges(shape, v, last_stays=True):
            moved_edges = tuple(sorted(moved_edges + ((v, 0, new_v, 0),)))
            for g1 in range(h + 1):
                if max(0, 2 - 2 * g1 - stay) + max(0, 2 - 2 * (h - g1) - moved) <= room:
                    yield DecoratedGraph._of(genera[:v] + (g1,) + genera[v + 1:] + (h - g1,),
                                             (), moved_edges, kappa + ((),))


def _placements(shape: DecoratedGraph, autos, n: int) -> list[tuple[int, ...]]:
    """The orbit-least stable placements of markings ``1..n`` on the vertices
    of ``shape``, as tuples whose entry m - 1 is the vertex of marking m.

    Markings are placed in order.  A partial placement is kept only if the
    markings left can cover the deficits, and if it is lexicographically <=
    its image under each automorphism in ``autos`` (``live``: those it equals
    so far).  Two placements give isomorphic graphs exactly when an
    automorphism maps one onto the other, so each class comes once."""
    need = _deficits(shape)
    out = []

    def extend(place, short, live):
        if len(place) == n:
            out.append(place)
            return
        for v, d in enumerate(need):
            covers = place.count(v) < d
            if short - covers < n - len(place) and (not live or all(s[v] >= v for s in live)):
                extend(place + (v,), short - covers, live and [s for s in live if s[v] == v])

    if sum(need) <= n:
        extend((), sum(need), autos)
    return out


def _placed(shape: DecoratedGraph, placement) -> DecoratedGraph:
    """``shape`` with marking m on vertex ``placement[m - 1]``."""
    return DecoratedGraph._of(shape.genera, tuple([(v, m, 0) for m, v in enumerate(placement, 1)]),
                              shape.edges, shape.kappa)


def _placed_shapes(g: int, n: int, max_edges: int, min_edges: int | None = None) -> list:
    """``(edges, form, shape, placements)`` for each shape at the levels
    ``enumerate_stable_graphs`` returns: its search form and representative
    and its orbit-least placements of markings ``1..n`` (``_placements``).

    The shapes, the graphs without legs whose vertex deficits
    (``_deficits``) sum to at most n, grow level by level from the
    one-vertex shape by one-edge degenerations, each searched once for its
    representative and automorphisms.  That reaches every shape: contracting
    an edge keeps a shape connected and never raises its total deficit
    (deficits a and b merge to max(0, a + b - 1); a contracted loop keeps
    its vertex's).  ``STRATA_MAX_GRAPHS`` caps the placements at the levels
    returned, before any marked graph is built.
    """
    if g < 0 or n < 0 or max_edges < 0:
        raise ValueError("g, n and max_edges must be non-negative")
    if min_edges is None:
        min_edges = min(1, max_edges)
    if not 0 <= min_edges <= max_edges:
        raise ValueError("need 0 <= min_edges <= max_edges")
    cap = _graph_cap()
    if 2 * g - 2 + n <= 0:      # the smooth graph is unstable: its deficit exceeds n
        return []

    level = [_canonical_search(single_vertex(g))]    # (form, shape, automorphisms)
    counted = []
    total = 0
    for e in range(max_edges + 1):
        if e:
            level = {found[0]: found for _, parent, _ in level
                     for found in map(_canonical_search, _shape_degenerations(parent, n))}.values()
        if e >= min_edges:
            for form, shape, autos in level:
                placements = _placements(shape, autos, n)
                total += len(placements)
                if total > cap:
                    raise SizeGuardError(f"enumeration of (g={g}, n={n}, max_edges={max_edges}) "
                                         f"exceeded STRATA_MAX_GRAPHS={cap}")
                counted.append((e, form, shape, placements))
    return counted


def _partitions(d: int, max_part: int | None = None):
    """Multisets of integers >= 1 summing to d, as nonincreasing tuples."""
    if max_part is None:
        max_part = d
    if d == 0:
        yield ()
        return
    for first in range(min(d, max_part), 0, -1):
        for rest in _partitions(d - first, first):
            yield (first,) + rest


def _decorations(base: DecoratedGraph, d: int):
    """Yield every placement of kappa/psi decorations of total degree ``d`` on
    the undecorated graph ``base``, in normal form."""
    V, L, E = base.n_vertices, len(base.legs), base.n_edges
    # kappa multisets of each degree, as sorted tuples
    kappas = [[part[::-1] for part in _partitions(a)] for a in range(d + 1)]
    for alloc in compositions(d, V + L + 2 * E):
        v_amt = alloc[:V]
        leg_amt = alloc[V:V + L]
        end_amt = alloc[V + L:]
        legs = tuple((v, m, leg_amt[i]) for i, (v, m, _) in enumerate(base.legs))
        edges = _sorted_edges((v1, end_amt[2 * i], v2, end_amt[2 * i + 1])
                              for i, (v1, _, v2, _) in enumerate(base.edges))
        for kappa in itertools.product(*[kappas[a] for a in v_amt]):
            yield DecoratedGraph._of(base.genera, legs, edges, kappa)


def _listing(g: int, n: int, max_edges: int, min_edges: int | None = None,
             degree: int | None = None) -> dict[bytes, DecoratedGraph]:
    """Canonical form -> representative, in form order, of each placed graph
    of ``_placed_shapes`` (its checks and cap), or with ``degree``, of each
    of its decorations of total degree ``degree``, each searched once.

    A placed graph of full degree is its own only decoration, and at n = 0 a
    shape of deficit 0 is its own graph, whose search is done already.
    Decorating commutes with relabelling, and a representative is a function
    of its form, so decorating the placed graphs equals decorating the
    representatives.
    """
    found = {}
    for e, shape_form, shape, placements in _placed_shapes(g, n, max_edges, min_edges):
        d = 0 if degree is None else degree - e
        if not (n or d):
            if placements:
                found[shape_form] = shape
            continue
        for p in placements:
            placed = _placed(shape, p)
            for cand in _decorations(placed, d) if d else (placed,):
                form, canon, _ = _canonical_search(cand)
                found[form] = canon
    return {f: found[f] for f in sorted(found)}


def enumerate_stable_graphs(g: int, n: int, max_edges: int,
                            min_edges: int | None = None) -> list[DecoratedGraph]:
    """All connected stable dual graphs of arithmetic genus ``g`` with markings
    ``1..n``, one canonical representative per isomorphism class, sorted by
    encoding.  The representatives carry no decoration (psi = 0, no kappa).

    By default the edge count ranges over ``1..max_edges`` (the proper
    degenerations); ``max_edges == 0`` yields the smooth graph alone.  Pass
    ``min_edges=0`` explicitly to include the smooth graph alongside the
    degenerate ones.

    The graphs are the values of ``_listing``: one per placement of
    ``_placed_shapes``, which checks the arguments and applies the
    ``STRATA_MAX_GRAPHS`` cap (lower levels do not count).
    """
    return list(_listing(g, n, max_edges, min_edges).values())
