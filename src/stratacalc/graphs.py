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
sophistication.  The same search yields the automorphism group order: the
orderings that tie for the least encoding are the vertex automorphisms.
Refinement almost always ends discrete, leaving one ordering: measured
searches try 1.000 to 1.12 orderings each (593 searches and 599 orderings for
verify (6,2,2), 32,976 and 33,436 for the boundary generators of (9,3,3),
741 and 832 for enumeration and boundary generators at (9,0,3)).  A search
therefore costs its fixed per-graph work, which is what the code here keeps
small, and not its branching.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from operator import itemgetter

from .errors import InvalidGraphError, SizeGuardError

#: Hard cap on vertex orderings explored by the canonical-form search, which
#: also serves automorphism_count.
_ORDERING_GUARD = 1_000_000

_DEFAULT_MAX_GRAPHS = 100_000

#: Encoder of canonical forms: compact JSON of the least key.
_COMPACT = json.JSONEncoder(separators=(",", ":")).encode

#: Sort key of ``(vertex, marking, psi)`` legs: by marking.
_BY_MARKING = itemgetter(1, 0, 2)


def compositions(total: int, parts: int):
    """Yield every tuple of ``parts`` non-negative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


#: A canonical form is plain bytes: see ``canonicalize``.
CanonicalForm = bytes


@dataclass(frozen=True)
class DecoratedGraph:
    """Dual graph with a kappa monomial per vertex and a psi power per half-edge."""

    genera: tuple[int, ...]
    legs: tuple[tuple[int, int, int], ...] = ()        # (vertex, marking, psi)
    edges: tuple[tuple[int, int, int, int], ...] = ()  # (v1, psi1, v2, psi2)
    kappa: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        genera = tuple(map(int, self.genera))
        legs = sorted([(int(v), int(m), int(p)) for v, m, p in self.legs],
                      key=_BY_MARKING)
        edges = []
        for v1, p1, v2, p2 in self.edges:
            a, b = (int(v1), int(p1)), (int(v2), int(p2))
            edges.append(a + b if a <= b else b + a)
        edges.sort()
        kappa = tuple(tuple(sorted(map(int, ks)))
                      for ks in self.kappa or ((),) * len(genera))
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "legs", tuple(legs))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "kappa", kappa)

    @classmethod
    def _of(cls, genera, legs, edges, kappa) -> "DecoratedGraph":
        """Graph of fields already in the normal form ``__post_init__`` makes:
        ints, legs by marking, each edge's ends in order and edges sorted,
        each kappa sorted and one per vertex."""
        out = object.__new__(cls)
        object.__setattr__(out, "genera", genera)
        object.__setattr__(out, "legs", legs)
        object.__setattr__(out, "edges", edges)
        object.__setattr__(out, "kappa", kappa)
        return out

    # ------------------------------------------------------------------ shape

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def markings(self) -> tuple[int, ...]:
        return tuple(sorted(m for _, m, _ in self.legs))

    def psi_of_marking(self, marking: int) -> int:
        """Psi exponent on the leg labelled ``marking``; 0 if there is no such leg."""
        for _, m, p in self.legs:
            if m == marking:
                return p
        return 0

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

    def require_valid(self) -> None:
        diags = self.validate()
        if diags:
            raise InvalidGraphError(diags)


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
    if prod(factorial(len(cell)) for cell in cells) > _ORDERING_GUARD:
        raise SizeGuardError(
            f"canonicalization search space too large for {g.n_vertices} vertices")
    return (tuple(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*(itertools.permutations(cell)
                                             for cell in cells)))


def _encode_under(g: DecoratedGraph, order):
    pos = {old: new for new, old in enumerate(order)}
    verts = tuple((g.genera[o], g.kappa[o]) for o in order)
    # the legs are in marking order, and markings are distinct
    legs = tuple((m, pos[v], p) for v, m, p in g.legs)
    edges = []
    for v1, p1, v2, p2 in g.edges:
        a, b = (pos[v1], p1), (pos[v2], p2)
        edges.append(a + b if a <= b else b + a)
    edges.sort()
    return (verts, legs, tuple(edges))


@lru_cache(maxsize=1 << 18)
def _canonical_search(g: DecoratedGraph):
    """Canonical form, canonical representative, and the number of candidate
    orders that tie for the least encoding.  Two tied orders differ by a
    vertex permutation preserving genus, kappa, legs and the edge multiset,
    and every such permutation keeps the refinement colors, so the tie count
    is the number of these permutations."""
    g.require_valid()
    best_key = None
    ties = 0
    for order in _candidate_orders(g):
        key = _encode_under(g, order)
        if key == best_key:
            ties += 1
        elif best_key is None or key < best_key:
            best_key, ties = key, 1
    verts, legs, edges = best_key
    genera, kappa = zip(*verts)
    canon = DecoratedGraph._of(genera, tuple((v, m, p) for m, v, p in legs), edges, kappa)
    return _COMPACT(best_key).encode("ascii"), canon, ties


def canonicalize(g: DecoratedGraph) -> tuple[CanonicalForm, DecoratedGraph]:
    """Canonical form and canonical representative of ``g`` up to isomorphism.

    The form is the ASCII compact JSON of the least encoding over the orderings
    the refinement classes allow, and the representative is the relabelling
    that gives it.  Two graphs have equal forms exactly when some relabelling
    identifies them, decorations included; forms are ordered by their bytes.
    """
    return _canonical_search(g)[:2]


def canonical_form(g: DecoratedGraph) -> CanonicalForm:
    return canonicalize(g)[0]


def automorphism_count(g: DecoratedGraph) -> int:
    """Order of the decoration- and marking-preserving automorphism group.

    The vertex permutations are the tied orders of the canonical-form search;
    each one lifts to the half-edges in prod(mult!) * 2^loops ways: parallel
    edges with equal psi data permute freely, and a self-loop with equal psi
    on both ends may flip.
    """
    _, canon, ties = _canonical_search(g)
    edges = Counter(canon.edges)
    loops = sum(mult for (v1, p1, v2, p2), mult in edges.items() if (v1, p1) == (v2, p2))
    return ties * prod(factorial(mult) for mult in edges.values()) * 2 ** loops


# ----------------------------------------------------------------- enumeration

def _graph_cap() -> int:
    raw = os.environ.get("STRATA_MAX_GRAPHS", "")
    if not raw:
        return _DEFAULT_MAX_GRAPHS
    if not raw.isdecimal():
        raise ValueError(f"STRATA_MAX_GRAPHS must be a non-negative integer, got {raw!r}")
    return int(raw)


def _one_edge_degenerations(graph: DecoratedGraph):
    """Yield the stable graphs with one edge more than the stable ``graph``: a
    self-loop at a vertex of genus >= 1, lowering its genus, or a split of a
    vertex into two parts joined by a new edge, with every genus split and
    every assignment of the vertex's half-edges.  Only the two parts of a split
    can be unstable.  Swapping the parts gives an isomorphic graph, so the
    vertex's last half-edge stays on the old vertex."""
    genera, legs, edges, kappa = graph.genera, graph.legs, graph.edges, graph.kappa
    new_v = len(genera)
    for v, h in enumerate(genera):
        if h:
            yield DecoratedGraph(genera[:v] + (h - 1,) + genera[v + 1:], legs,
                                 edges + ((v, 0, v, 0),), kappa)
        ends = [(0, i, 0) for i, leg in enumerate(legs) if leg[0] == v]
        ends += [(1, i, side) for i, edge in enumerate(edges)
                 for side in (0, 2) if edge[side] == v]
        for mask in range(1 << max(len(ends) - 1, 0)):
            moved = mask.bit_count()
            rows = (list(map(list, legs)), list(map(list, edges)) + [(v, 0, new_v, 0)])
            for bit, (kind, i, side) in enumerate(ends):
                if mask >> bit & 1:
                    rows[kind][i][side] = new_v
            for g1 in range(h + 1):
                if 2 * g1 - 1 + len(ends) - moved > 0 and 2 * (h - g1) - 1 + moved > 0:
                    yield DecoratedGraph(genera[:v] + (g1,) + genera[v + 1:] + (h - g1,),
                                         *rows, kappa + ((),))


def enumerate_stable_graphs(g: int, n: int, max_edges: int,
                            min_edges: int | None = None) -> list[DecoratedGraph]:
    """All connected stable dual graphs of arithmetic genus ``g`` with markings
    ``1..n``, one canonical representative per isomorphism class, sorted by
    encoding.  The representatives carry no decoration (psi = 0, no kappa).

    By default the edge count ranges over ``1..max_edges`` (the proper
    degenerations); ``max_edges == 0`` yields the smooth graph alone.  Pass
    ``min_edges=0`` explicitly to include the smooth graph alongside the
    degenerate ones.

    Level e is grown from level e - 1 by one-edge degenerations (a self-node,
    or a vertex split), the inverse of contracting an edge.
    ``STRATA_MAX_GRAPHS`` caps the returned list; lower levels do not count.
    """
    if g < 0 or n < 0 or max_edges < 0:
        raise ValueError("g, n and max_edges must be non-negative")
    if min_edges is None:
        min_edges = min(1, max_edges)
    if not 0 <= min_edges <= max_edges:
        raise ValueError("need 0 <= min_edges <= max_edges")
    cap = _graph_cap()

    smooth = single_vertex(g, range(1, n + 1))
    if smooth.validate():
        return []
    found: dict[CanonicalForm, DecoratedGraph] = {}
    below = ()
    for e in range(max_edges + 1):
        candidates = ([smooth] if e == 0 else
                      (cand for graph in below for cand in _one_edge_degenerations(graph)))
        level: dict[CanonicalForm, DecoratedGraph] = {}
        for cand in candidates:
            form, canon = canonicalize(cand)
            level[form] = canon
            if e >= min_edges and len(found) + len(level) > cap:
                raise SizeGuardError(f"enumeration of (g={g}, n={n}, max_edges={max_edges}) "
                                     f"exceeded STRATA_MAX_GRAPHS={cap}")
        if not level:
            break
        if e >= min_edges:
            found.update(level)
        below = level.values()
    return [found[f] for f in sorted(found)]
