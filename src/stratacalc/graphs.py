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
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

from .errors import InvalidGraphError, SizeGuardError

#: Hard cap on vertex orderings explored by the canonical-form search, which
#: also serves automorphism_count.
_ORDERING_GUARD = 1_000_000

_DEFAULT_MAX_GRAPHS = 100_000


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


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Total-order-comparable byte encoding of a decorated graph up to isomorphism.

    Two decorated graphs have equal encodings exactly when some relabelling of
    vertices, edges and half-edge slots identifies them, preserving genus,
    markings, kappa multisets, psi exponents and incidence.
    """

    encoding: bytes

    def hex(self) -> str:
        return self.encoding.hex()

    def __repr__(self):
        return f"CanonicalForm({self.encoding.hex()[:20]})"


@dataclass(frozen=True)
class DualGraph:
    """Undecorated dual graph of a (possibly disconnected) nodal curve."""

    genera: tuple[int, ...]
    legs: tuple[tuple[int, int], ...] = ()   # (vertex, marking)
    edges: tuple[tuple[int, int], ...] = ()  # (v1, v2) with v1 <= v2

    def __post_init__(self):
        genera = tuple(int(x) for x in self.genera)
        legs = tuple(sorted(((int(v), int(m)) for v, m in self.legs),
                            key=lambda t: (t[1], t[0])))
        edges = tuple(sorted(tuple(sorted((int(a), int(b)))) for a, b in self.edges))
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "edges", edges)

    def decorate(self) -> "DecoratedGraph":
        """The trivially decorated graph (empty kappa, psi = 0 everywhere)."""
        return DecoratedGraph(
            genera=self.genera,
            legs=tuple((v, m, 0) for v, m in self.legs),
            edges=tuple((a, 0, b, 0) for a, b in self.edges),
            kappa=((),) * len(self.genera),
        )


@dataclass(frozen=True)
class DecoratedGraph:
    """Dual graph with a kappa monomial per vertex and a psi power per half-edge."""

    genera: tuple[int, ...]
    legs: tuple[tuple[int, int, int], ...] = ()        # (vertex, marking, psi)
    edges: tuple[tuple[int, int, int, int], ...] = ()  # (v1, psi1, v2, psi2)
    kappa: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        genera = tuple(int(x) for x in self.genera)
        legs = tuple(sorted(((int(v), int(m), int(p)) for v, m, p in self.legs),
                            key=lambda t: (t[1], t[0], t[2])))
        edges = []
        for v1, p1, v2, p2 in self.edges:
            a, b = (int(v1), int(p1)), (int(v2), int(p2))
            if b < a:
                a, b = b, a
            edges.append((a[0], a[1], b[0], b[1]))
        kappa = self.kappa
        if not kappa and genera:
            kappa = ((),) * len(genera)
        kappa = tuple(tuple(sorted(int(k) for k in ks)) for ks in kappa)
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        object.__setattr__(self, "kappa", kappa)

    # ------------------------------------------------------------------ shape

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def valence(self, v: int) -> int:
        """Legs plus edge ends at ``v``; a self-loop counts twice."""
        val = sum(1 for lv, _, _ in self.legs if lv == v)
        for v1, _, v2, _ in self.edges:
            val += (v1 == v) + (v2 == v)
        return val

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

    def underlying(self) -> DualGraph:
        return DualGraph(self.genera,
                         tuple((v, m) for v, m, _ in self.legs),
                         tuple((v1, v2) for v1, _, v2, _ in self.edges))

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
        diags = []
        V = self.n_vertices
        if V == 0:
            return ["empty graph: no vertices"]
        if len(self.kappa) != V:
            return [f"decoration arity mismatch: {len(self.kappa)} kappa entries "
                    f"for {V} vertices"]
        for v, g in enumerate(self.genera):
            if g < 0:
                diags.append(f"negative genus at vertex {v}")
        dangling = False
        for idx, (v, m, p) in enumerate(self.legs):
            if not 0 <= v < V:
                diags.append(f"dangling half-edge: leg {idx} references vertex {v}")
                dangling = True
            if m < 1:
                diags.append(f"invalid marking label {m} on leg {idx}")
            if p < 0:
                diags.append(f"negative psi exponent on leg {idx}")
        for m, count in sorted(Counter(m for _, m, _ in self.legs).items()):
            if count > 1:
                diags.append(f"duplicate marking: {m}")
        for idx, (v1, p1, v2, p2) in enumerate(self.edges):
            for v in (v1, v2):
                if not 0 <= v < V:
                    diags.append(f"dangling half-edge: edge {idx} references vertex {v}")
                    dangling = True
            if p1 < 0 or p2 < 0:
                diags.append(f"negative psi exponent on edge {idx}")
        for v, ks in enumerate(self.kappa):
            if any(k < 1 for k in ks):
                diags.append(f"invalid kappa index at vertex {v} (indices must be >= 1)")
        if dangling:
            return diags
        for v in range(V):
            if 2 * self.genera[v] - 2 + self.valence(v) <= 0:
                diags.append(f"unstable vertex: {v} (genus {self.genera[v]}, "
                             f"valence {self.valence(v)})")
        if not diags:
            pa = arithmetic_genus(self)
            if pa < 0:
                diags.append(f"negative arithmetic genus: {pa}")
        return diags

    def require_valid(self) -> None:
        diags = self.validate()
        if diags:
            raise InvalidGraphError(diags)


def _as_decorated(g) -> DecoratedGraph:
    return g.decorate() if isinstance(g, DualGraph) else g


def validate(g) -> list[str]:
    """List of violated invariants of ``g`` (a DualGraph or DecoratedGraph)."""
    return _as_decorated(g).validate()


def arithmetic_genus(g) -> int:
    """sum of vertex genera + #edges - #vertices + 1 (any number of components)."""
    g = _as_decorated(g)
    return sum(g.genera) + g.n_edges - g.n_vertices + 1


def component_count(g) -> int:
    return _as_decorated(g)._union_find()[1]


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


def _refinement_colors(g: DecoratedGraph) -> list[int]:
    """Isomorphism-invariant vertex colors: static data refined along incidence."""
    legs_at = defaultdict(list)
    for v, m, p in g.legs:
        legs_at[v].append((m, p))
    base = [(g.genera[v], g.kappa[v], tuple(sorted(legs_at[v])), g.valence(v))
            for v in range(g.n_vertices)]
    colors = _dense_ranks(base)
    incident = defaultdict(list)   # v -> [(own psi, other vertex, other psi)]
    for v1, p1, v2, p2 in g.edges:
        incident[v1].append((p1, v2, p2))
        incident[v2].append((p2, v1, p1))
    while True:
        keys = [(colors[v], tuple(sorted((p, colors[u], q) for p, u, q in incident[v])))
                for v in range(g.n_vertices)]
        new = _dense_ranks(keys)
        if new == colors:
            return colors
        colors = new


def _candidate_orders(g: DecoratedGraph):
    colors = _refinement_colors(g)
    groups = defaultdict(list)
    for v, c in enumerate(colors):
        groups[c].append(v)
    cells = [groups[c] for c in sorted(groups)]
    if prod(factorial(len(cell)) for cell in cells) > _ORDERING_GUARD:
        raise SizeGuardError(
            f"canonicalization search space too large for {g.n_vertices} vertices")
    for combo in itertools.product(*(itertools.permutations(cell) for cell in cells)):
        yield tuple(itertools.chain.from_iterable(combo))


def _encode_under(g: DecoratedGraph, order):
    pos = {old: new for new, old in enumerate(order)}
    verts = tuple((g.genera[o], g.kappa[o]) for o in order)
    legs = tuple(sorted((m, pos[v], p) for v, m, p in g.legs))
    edges = []
    for v1, p1, v2, p2 in g.edges:
        a, b = (pos[v1], p1), (pos[v2], p2)
        if b < a:
            a, b = b, a
        edges.append((a[0], a[1], b[0], b[1]))
    return (verts, legs, tuple(sorted(edges)))


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
    canon = DecoratedGraph(genera, tuple((v, m, p) for m, v, p in legs), edges, kappa)
    encoding = json.dumps(best_key, separators=(",", ":")).encode("ascii")
    return CanonicalForm(encoding), canon, ties


def canonicalize(g) -> tuple[CanonicalForm, DecoratedGraph]:
    """Canonical form and canonical representative of ``g`` up to isomorphism.

    Deterministic across runs: the representative is the relabelling with the
    lexicographically least encoding among all orderings compatible with the
    refinement classes.
    """
    return _canonical_search(_as_decorated(g))[:2]


def canonical_form(g) -> CanonicalForm:
    return canonicalize(g)[0]


def automorphism_count(g) -> int:
    """Order of the decoration- and marking-preserving automorphism group.

    The vertex permutations are the tied orders of the canonical-form search;
    each one lifts to the half-edges in prod(mult!) * 2^loops ways: parallel
    edges with equal psi data permute freely, and a self-loop with equal psi
    on both ends may flip.
    """
    _, canon, ties = _canonical_search(_as_decorated(g))
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
                            min_edges: int | None = None) -> list[DualGraph]:
    """All connected stable dual graphs of arithmetic genus ``g`` with markings
    ``1..n``, one canonical representative per isomorphism class, sorted by
    encoding.

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
                raise SizeGuardError(f"enumeration exceeded STRATA_MAX_GRAPHS={cap}")
        if not level:
            break
        if e >= min_edges:
            found.update(level)
        below = level.values()
    return [found[f].underlying() for f in sorted(found)]
