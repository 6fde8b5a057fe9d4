"""Independent brute-force oracles used to cross-check the package.

These deliberately avoid the library's canonicalization and enumeration code
paths: isomorphism is decided by raw permutation search, automorphisms are
counted by literal half-edge bijections, and strata are regenerated through
one-edge degeneration moves.  ``enumerate_bruteforce`` keeps the library's
former stable-graph enumeration, which builds every genus composition, leg
placement and edge multiset.  ``full_image_extraction`` keeps the verifier's
former witness extraction, which reads every coefficient from the full
operator image of every boundary graph, and ``targeted_image_reference``
its former targeted extraction, which builds and signature-checks every
candidate of a boundary graph and keeps those of a wanted shape.
``witness_graph_reference`` and ``witness_assumptions_reference`` keep the
verifier's former witness table, which wrote the case split twice: once to
build each witness and once to name its induction inputs from the monomial.
``relabeled`` permutes the vertices of a graph.  The ``*_candidates_reference``
streams keep the operator's former candidate generators, which build every
candidate and keep those that ``validate()`` accepts.  The ``*_reference``
interior maps keep the former forgetful pushforward and pullback, which expand
every index subset of the kappa factors through the public constructors.
``operator_reference`` keeps the operator's former class build, which
multiplies and sums every raw term's coefficient as a ``Fraction``, the
stream's sign ``c`` read as ``Fraction(c, 2)``.
``validate_reference`` and ``canonical_search_reference`` keep the former
graph validation, which recounts each vertex's valence, and the former
canonical-form search, which refines colors to a fixed point, sorts legs and
edges under every candidate order, and rebuilds the representative through
the public constructor.  ``graph_from_obj_reference`` keeps the former graph
JSON reader, which reads the fields through generators and builds the graph
through the public constructor, which normalizes them again.
``generator_monomials_reference`` keeps the verifier's former generator list,
a loop over kappa multisets and psi compositions beside the decoration walk.  ``wk_number`` computes
Witten-Kontsevich intersection numbers by the string equation and the DVV
recursion, and ``kappa_psi_integral`` the integral of a top-degree kappa/psi
monomial from them, independently of the interior pushforward.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from stratacalc.classes import AmbientSignature, TautClass, monomial_class
from stratacalc.errors import InvalidGraphError, SignatureError, SizeGuardError
from stratacalc.graphs import (
    DecoratedGraph,
    arithmetic_genus,
    canonicalize,
    component_count,
    compositions,
    disjoint_union,
    single_vertex,
)
from stratacalc.invariance import (
    _PARTS,
    _output_signature,
    _shape,
    invariance_operator,
)
from stratacalc.pushforward import InteriorClass, InteriorMonomial
from stratacalc.verifier import (
    boundary_generators,
    generator_monomials,
    witness_graph_for,
)


def assert_normal_form(graph: DecoratedGraph, context=None) -> None:
    """``graph``'s fields are what the public constructor makes of them."""
    fields = graph.genera, graph.legs, graph.edges, graph.kappa
    rebuilt = DecoratedGraph(*fields)
    assert fields == (rebuilt.genera, rebuilt.legs, rebuilt.edges, rebuilt.kappa), context


def relabeled(graph: DecoratedGraph, new_index) -> DecoratedGraph:
    """``graph`` under the vertex relabelling ``old -> new_index[old]``."""
    order = sorted(range(graph.n_vertices), key=lambda old: new_index[old])
    return DecoratedGraph(
        tuple(graph.genera[old] for old in order),
        tuple((new_index[v], m, p) for v, m, p in graph.legs),
        tuple((new_index[v1], p1, new_index[v2], p2)
              for v1, p1, v2, p2 in graph.edges),
        tuple(graph.kappa[old] for old in order),
    )


def _vertex_data(g: DecoratedGraph, v: int):
    legs = tuple(sorted((m, p) for lv, m, p in g.legs if lv == v))
    return (g.genera[v], g.kappa[v], legs)


def _descriptor(v1, p1, v2, p2):
    a, b = (v1, p1), (v2, p2)
    return (a, b) if a <= b else (b, a)


def iso_bruteforce(a: DecoratedGraph, b: DecoratedGraph) -> bool:
    """Decide isomorphism by trying every vertex bijection."""
    if a.n_vertices != b.n_vertices or a.n_edges != b.n_edges:
        return False
    if sorted(a.genera) != sorted(b.genera):
        return False
    V = a.n_vertices
    b_edges = Counter(_descriptor(*e) for e in b.edges)
    for perm in itertools.permutations(range(V)):
        if any(_vertex_data(a, v) != _vertex_data(b, perm[v]) for v in range(V)):
            continue
        mapped = Counter(_descriptor(perm[v1], p1, perm[v2], p2)
                         for v1, p1, v2, p2 in a.edges)
        if mapped == b_edges:
            return True
    return False


def automorphisms_bruteforce(g: DecoratedGraph) -> int:
    """Count automorphisms by enumerating half-edge bijections edge by edge."""
    V = g.n_vertices
    edges = [((v1, p1), (v2, p2)) for v1, p1, v2, p2 in g.edges]
    total = 0
    for perm in itertools.permutations(range(V)):
        if any(_vertex_data(g, v) != _vertex_data(g, perm[v]) for v in range(V)):
            continue

        def count(i, used):
            if i == len(edges):
                return 1
            (a1, a2) = edges[i]
            want = ((perm[a1[0]], a1[1]), (perm[a2[0]], a2[1]))
            ways = 0
            for j, (b1, b2) in enumerate(edges):
                if used[j]:
                    continue
                used[j] = True
                if want == (b1, b2):
                    ways += count(i + 1, used)
                if want == (b2, b1):
                    ways += count(i + 1, used)
                used[j] = False
            return ways

        total += count(0, [False] * len(edges))
    return total


# ----------------------------------------------------------- strata by moves

def _degeneration_moves(g: DecoratedGraph):
    """One-edge degenerations: loop a vertex down a genus, or split it along a
    new connecting edge."""
    for v in range(g.n_vertices):
        if g.genera[v] >= 1:
            genera = g.genera[:v] + (g.genera[v] - 1,) + g.genera[v + 1:]
            yield DecoratedGraph(genera, g.legs, g.edges + ((v, 0, v, 0),), g.kappa)
    new_v = g.n_vertices
    for v in range(g.n_vertices):
        h = g.genera[v]
        leg_slots = [i for i, (lv, _, _) in enumerate(g.legs) if lv == v]
        end_slots = [(i, side) for i, (e1, _, e2, _) in enumerate(g.edges)
                     for side, vv in ((0, e1), (1, e2)) if vv == v]
        items = len(leg_slots) + len(end_slots)
        for g1 in range(h + 1):
            genera = g.genera[:v] + (g1,) + g.genera[v + 1:] + (h - g1,)
            for mask in range(1 << items):
                legs = [list(t) for t in g.legs]
                edges = [list(t) for t in g.edges]
                for bit, idx in enumerate(leg_slots):
                    if mask >> bit & 1:
                        legs[idx][0] = new_v
                for bit, (idx, side) in enumerate(end_slots):
                    if mask >> (len(leg_slots) + bit) & 1:
                        edges[idx][0 if side == 0 else 2] = new_v
                edges.append([v, 0, new_v, 0])
                yield DecoratedGraph(genera,
                                     tuple(tuple(t) for t in legs),
                                     tuple(tuple(t) for t in edges),
                                     g.kappa + ((),))


def degeneration_strata(g: int, n: int, max_edges: int):
    """Canonical forms of all stable graphs reachable by repeated one-edge
    moves from the smooth graph, grouped by edge count."""
    smooth = single_vertex(g, [(m, 0) for m in range(1, n + 1)])
    if smooth.validate():
        return {}
    levels = {0: {canonicalize(smooth)[0]: smooth}}
    for e in range(1, max_edges + 1):
        frontier = {}
        for graph in levels[e - 1].values():
            for cand in _degeneration_moves(graph):
                if cand.validate():
                    continue
                form, canon = canonicalize(cand)
                frontier.setdefault(form, canon)
        levels[e] = frontier
    return levels


def _kappa_monomials(d: int):
    """Every multiset of integers >= 1 of sum at most ``d``, as sorted tuples."""
    return [part for size in range(d + 1)
            for part in itertools.combinations_with_replacement(range(1, d + 1), size)
            if sum(part) <= d]


def boundary_generators_reference(g: int, n: int, k: int):
    """Forms and representatives, sorted by form, of every decoration of
    total degree k of the graphs of ``degeneration_strata`` with 1..k edges:
    each graph takes every choice of a kappa monomial per vertex and a psi
    exponent per half-edge whose degrees sum to k less its edges, and each
    choice is built through the public constructor and searched by
    ``canonical_search_reference``."""
    found = {}
    for e, level in degeneration_strata(g, n, k).items():
        if not e:
            continue
        d = k - e
        for graph in level.values():
            V, L, E = graph.n_vertices, len(graph.legs), graph.n_edges
            for choice in itertools.product(*[_kappa_monomials(d)] * V,
                                            *[range(d + 1)] * (L + 2 * E)):
                kappa, psi = choice[:V], choice[V:]
                if sum(map(sum, kappa)) + sum(psi) != d:
                    continue
                decorated = DecoratedGraph(
                    graph.genera,
                    [(v, m, psi[i]) for i, (v, m, _) in enumerate(graph.legs)],
                    [(v1, psi[L + 2 * i], v2, psi[L + 2 * i + 1])
                     for i, (v1, _, v2, _) in enumerate(graph.edges)],
                    kappa)
                form, canon, _ = canonical_search_reference(decorated)
                found[form] = canon
    return sorted(found.items())


def generator_monomials_reference(g: int, n: int, k: int) -> list[InteriorMonomial]:
    """Every kappa^I psi^J of total degree k on (g, n), sorted: each kappa
    multiset of degree at most k times each composition of the rest over the
    markings 1..n, through the public constructor."""
    out = set()
    for part in _kappa_monomials(k):
        for comp in compositions(k - sum(part), n):
            out.add(InteriorMonomial(part, {m + 1: e for m, e in enumerate(comp)}))
    return sorted(out)


# ------------------------------------------------------ brute-force enumeration

def enumerate_bruteforce(g: int, n: int, max_edges: int,
                         min_edges: int | None = None) -> list[DecoratedGraph]:
    """Connected stable dual graphs of genus ``g`` with markings ``1..n`` and
    ``min_edges..max_edges`` edges, sorted by canonical form: every genus
    composition x leg placement x edge multiset, each canonicalized, with no
    decoration (psi = 0, no kappa)."""
    if g < 0 or n < 0 or max_edges < 0:
        raise ValueError("g, n and max_edges must be non-negative")
    if min_edges is None:
        min_edges = min(1, max_edges)
    if not 0 <= min_edges <= max_edges:
        raise ValueError("need 0 <= min_edges <= max_edges")

    found: dict[bytes, DecoratedGraph] = {}
    vertex_budget = 2 * g - 2 + n   # every stable vertex contributes >= 1
    for e in range(min_edges, max_edges + 1):
        for V in range(1, min(vertex_budget, e + 1) + 1):
            total_genus = g - e + V - 1
            if total_genus < 0:
                continue
            pairs = [(u, v) for u in range(V) for v in range(u, V)]
            for genera in compositions(total_genus, V):
                for leg_to in itertools.product(range(V), repeat=n):
                    legs = tuple((leg_to[m - 1], m, 0) for m in range(1, n + 1))
                    for chosen in itertools.combinations_with_replacement(pairs, e):
                        val = [0] * V
                        for v, _, _ in legs:
                            val[v] += 1
                        for u, v in chosen:
                            val[u] += 1
                            val[v] += 1
                        if any(2 * genera[v] - 2 + val[v] <= 0 for v in range(V)):
                            continue
                        graph = DecoratedGraph(genera, legs,
                                               tuple((u, 0, v, 0) for u, v in chosen))
                        if component_count(graph) != 1:
                            continue
                        form, canon = canonicalize(graph)
                        found.setdefault(form, canon)
    return [found[f] for f in sorted(found)]


# ------------------------------------------------- full-image witness extraction

def _leg_psi(graph: DecoratedGraph, marking: int) -> int:
    for _, m, p in graph.legs:
        if m == marking:
            return p
    return 0


def full_image_extraction(g: int, n: int, k: int, witness_overrides=None,
                          boundary_image=None, generator_image=None):
    """Witness coefficients and structural check read off full operator images.

    ``boundary_image(G)`` gives the image class of boundary graph ``G``, and
    ``generator_image(mono)`` that of generator monomial ``mono``; the defaults
    are ``invariance_operator`` of ``G`` and of the monomial's class.  Returns
    ``(rows, structural_violations)``: ``rows`` maps each witness-split
    monomial string to its (self coefficient, generator coefficients,
    boundary coefficients, violations), all as the report renders them.
    """
    witness_overrides = witness_overrides or {}
    i_lab, j_lab = n + 1, n + 2
    if boundary_image is None:
        amb = AmbientSignature(g, frozenset(range(1, n + 1)), 1)

        def boundary_image(G):
            return invariance_operator(TautClass(amb, [(G, 1)]))

    if generator_image is None:
        def generator_image(mono):
            return invariance_operator(monomial_class(g, n, mono.kappa, mono.psi_dict()))

    gens = generator_monomials(g, n, k)
    bgraphs = boundary_generators(g, n, k)
    op_of_gen = {mono: generator_image(mono) for mono in gens}
    op_of_boundary = [boundary_image(G) for G in bgraphs]

    rows = {}
    witnesses = []
    for mono in gens:
        witness = (witness_overrides[mono] if mono in witness_overrides
                   else witness_graph_for(mono, g, n))
        if witness is None:
            continue
        violations = []
        canon = canonicalize(witness)[1]
        witnesses.append(canon)
        self_coeff = op_of_gen[mono].coefficient_of(canon)
        if self_coeff == 0:
            violations.append("witness has zero coefficient in its own image")
        gen_coeffs = []
        for other in gens:
            if other == mono:
                continue
            coeff = op_of_gen[other].coefficient_of(canon)
            gen_coeffs.append((str(other), str(coeff)))
            if coeff != 0:
                violations.append(
                    f"witness also appears in the image of {other} "
                    f"with coefficient {coeff}")
        bnd_coeffs = []
        for G, op in zip(bgraphs, op_of_boundary):
            coeff = op.coefficient_of(canon)
            bnd_coeffs.append(str(coeff))
            if coeff != 0:
                violations.append(
                    f"witness appears in the image of boundary graph "
                    f"{canonicalize(G)[0].hex()[:16]} with coefficient {coeff}")
        rows[str(mono)] = (str(self_coeff), tuple(gen_coeffs), tuple(bnd_coeffs),
                           tuple(violations))

    structural = []
    for G, op in zip(bgraphs, op_of_boundary):
        for _, graph, _ in op.items():
            if graph.n_edges >= 1:
                continue
            if _leg_psi(graph, i_lab) >= 1 or _leg_psi(graph, j_lab) >= 1:
                continue
            structural.append(
                f"image term of boundary graph {canonicalize(G)[0].hex()[:16]} has "
                f"no edge and psi^0 on both new legs")
    for w in witnesses:
        if w.n_edges != 0 or _leg_psi(w, i_lab) != 0 or _leg_psi(w, j_lab) != 0:
            structural.append(
                f"witness {canonicalize(w)[0].hex()[:16]} is not edge-free with "
                f"psi^0 on the new legs")
    return rows, tuple(structural)


def targeted_image_reference(graph: DecoratedGraph, ambient: AmbientSignature,
                             shapes, i_lab: int, j_lab: int) -> TautClass:
    """The terms of the operator image of ``graph`` whose shape (edge count,
    psi on i, psi on j) lies in ``shapes``, with their full-image coefficients.

    Builds every candidate, signature-checks it against ``ambient`` and keeps
    those of a wanted shape.
    """
    def kept():
        for stream in _PARTS.values():
            for cand, sign in stream(graph, (i_lab, j_lab)):
                ambient.check(cand)
                if _shape(cand, i_lab, j_lab) in shapes:
                    yield cand, Fraction(sign, 2)

    return TautClass(ambient, kept())


# ----------------------------------------------------------- witness table

def witness_graph_reference(mono: InteriorMonomial, g: int, n: int) -> DecoratedGraph | None:
    """The 2-component witness term for ``mono``, or ``None`` when the monomial
    is handled by the kappa-nonvanishing or linear-system branch instead;
    written out case by case.

    Labels i and j are the markings n+1 and n+2.
    """
    k = mono.degree
    top = g // 3
    if not 1 <= k <= top:
        raise ValueError(f"witness degree must lie in 1..floor(g/3), got {k}")
    i_lab, j_lab = n + 1, n + 2
    psi = mono.psi_dict()

    if k < top:
        # generic split: everything on the genus g-1 part, bare genus-1 partner
        part1 = single_vertex(g - 1,
                              [(m, psi.get(m, 0)) for m in range(1, n + 1)]
                              + [(i_lab, 0)],
                              mono.kappa)
        part2 = single_vertex(1, [(j_lab, 0)])
        return disjoint_union(part1, part2)

    if not psi:   # top degree, pure kappa
        if n >= 2:
            # genus splits off nothing: (g, 0) with the last two markings moved
            part1 = single_vertex(g,
                                  [(m, 0) for m in range(1, n - 1)] + [(i_lab, 0)],
                                  mono.kappa)
            part2 = single_vertex(0, [(n - 1, 0), (n, 0), (j_lab, 0)])
            return disjoint_union(part1, part2)
        if mono.kappa == (k,):
            return None   # single top kappa generator: no witness at n <= 1
        d1 = mono.kappa[0]
        legs1 = [(i_lab, 0)] + ([(1, 0)] if n == 1 else [])
        part1 = single_vertex(3 * d1, legs1, (d1,))
        part2 = single_vertex(g - 3 * d1, [(j_lab, 0)], mono.kappa[1:])
        return disjoint_union(part1, part2)

    if mono.kappa:   # top degree, mixed kappa * psi
        d_i = sum(mono.kappa)
        part1 = single_vertex(3 * d_i, [(i_lab, 0)], mono.kappa)
        part2 = single_vertex(g - 3 * d_i,
                              [(m, psi.get(m, 0)) for m in range(1, n + 1)]
                              + [(j_lab, 0)])
        return disjoint_union(part1, part2)

    # top degree, pure psi
    support = sorted(psi)
    if len(support) == 1:
        return None   # psi_l^k: handled by the linear system
    m0 = support[0]
    d1 = psi[m0]
    legs1 = ([(m0, d1)]
             + [(m, 0) for m in range(1, n + 1) if m != m0 and psi.get(m, 0) == 0]
             + [(i_lab, 0)])
    legs2 = [(m, psi[m]) for m in support[1:]] + [(j_lab, 0)]
    part1 = single_vertex(3 * d1, legs1)
    part2 = single_vertex(g - 3 * d1, legs2)
    return disjoint_union(part1, part2)


def witness_assumptions_reference(mono: InteriorMonomial, g: int, n: int):
    """Named induction inputs used by the default witness argument for
    ``mono``, read off the monomial case by case.

    Returns (instance list, note list, extrapolated flag); instances are
    (genus, markings, degree) triples whose independence is assumed.
    """
    k = mono.degree
    top = g // 3
    psi = mono.psi_dict()
    if k < top:
        return ([(g - 1, n + 1, k)], [], n >= 2)
    if not psi:
        if n >= 2:
            return ([(g, n - 1, k)], [], False)
        d1 = mono.kappa[0]
        return ([(3 * d1, 2 if n == 1 else 1, d1), (g - 3 * d1, 1, k - d1)], [], False)
    if mono.kappa:
        d_i = sum(mono.kappa)
        d_j = k - d_i
        note = (f"psi_1^{d_j} and psi_2^{d_j} stay distinct on the 2-marked "
                f"genus-{g - 3 * d_i} part (ring-level input, assumed)")
        return ([(3 * d_i, 1, d_i), (g - 3 * d_i, n + 1, d_j)], [note], False)
    support = sorted(psi)
    m0 = support[0]
    d1 = psi[m0]
    d2 = k - d1
    n1 = 1 + sum(1 for m in range(1, n + 1) if m != m0 and psi.get(m, 0) == 0) + 1
    n2 = len(support[1:]) + 1
    return ([(3 * d1, n1, d1), (g - 3 * d1, n2, d2)], [], False)


# ------------------------------------------------- operator candidate streams

def cut_candidates_reference(graph: DecoratedGraph, labels):
    i_lab, j_lab = labels
    for idx, (v1, p1, v2, p2) in enumerate(graph.edges):
        rest = graph.edges[:idx] + graph.edges[idx + 1:]
        for (iv, ip), (jv, jp) in (((v1, p1), (v2, p2)), ((v2, p2), (v1, p1))):
            for di, dj, coeff in ((1, 0, Fraction(1, 2)), (0, 1, Fraction(-1, 2))):
                legs = graph.legs + ((iv, i_lab, ip + di), (jv, j_lab, jp + dj))
                cand = DecoratedGraph(graph.genera, legs, rest, graph.kappa)
                if not cand.validate():
                    yield cand, coeff


def reduce_candidates_reference(graph: DecoratedGraph, labels):
    i_lab, j_lab = labels
    for v in range(graph.n_vertices):
        if graph.genera[v] < 1:
            continue
        genera = graph.genera[:v] + (graph.genera[v] - 1,) + graph.genera[v + 1:]
        legs = graph.legs + ((v, i_lab, 0), (v, j_lab, 0))
        cand = DecoratedGraph(genera, legs, graph.edges, graph.kappa)
        if not cand.validate():
            yield cand, Fraction(-1, 2)


def split_candidates_reference(graph: DecoratedGraph, labels):
    i_lab, j_lab = labels
    new_v = graph.n_vertices
    for v in range(graph.n_vertices):
        h = graph.genera[v]
        leg_slots = [idx for idx, (lv, _, _) in enumerate(graph.legs) if lv == v]
        end_slots = [(idx, side)
                     for idx, (e1, _, e2, _) in enumerate(graph.edges)
                     for side, vv in ((0, e1), (1, e2)) if vv == v]
        kappas = graph.kappa[v]
        n_items = len(leg_slots) + len(end_slots) + len(kappas)
        for g1 in range(h + 1):
            genera = (graph.genera[:v] + (g1,) + graph.genera[v + 1:]
                      + (h - g1,))
            for mask in range(1 << n_items):
                legs = [list(t) for t in graph.legs]
                edges = [list(t) for t in graph.edges]
                for bit, idx in enumerate(leg_slots):
                    if mask >> bit & 1:
                        legs[idx][0] = new_v
                off = len(leg_slots)
                for bit, (idx, side) in enumerate(end_slots):
                    if mask >> (off + bit) & 1:
                        edges[idx][0 if side == 0 else 2] = new_v
                off += len(end_slots)
                keep, move = [], []
                for bit, k in enumerate(kappas):
                    (move if mask >> (off + bit) & 1 else keep).append(k)
                kappa = (graph.kappa[:v] + (tuple(keep),) + graph.kappa[v + 1:]
                         + (tuple(move),))
                legs.append([v, i_lab, 0])
                legs.append([new_v, j_lab, 0])
                cand = DecoratedGraph(genera,
                                      tuple(tuple(t) for t in legs),
                                      tuple(tuple(t) for t in edges),
                                      kappa)
                if not cand.validate():
                    yield cand, Fraction(-1, 2)


def operator_reference(x: TautClass, parts=tuple(_PARTS)) -> TautClass:
    """The named parts of the operator image of ``x``: one ``TautClass`` of
    every candidate of every term, its coefficient ``coeff * c / 2``."""
    if x.ambient.max_components != 1:
        raise SignatureError("the genus-lowering operator expects a connected ambient")
    labels, out = _output_signature(x.ambient.genus, x.ambient.markings)
    return TautClass(out, ((cand, coeff * Fraction(c, 2))
                           for _, graph, coeff in x.items()
                           for name in parts
                           for cand, c in _PARTS[name](graph, labels)))


# ------------------------------------------------------- interior expansions

def forget_pushforward_reference(x: InteriorClass, p: int) -> InteriorClass:
    g, n = x.g, x.n
    kappa0 = 2 * g - 2 + (n - 1)
    out = []
    for mono, coeff in x.items():
        psi = mono.psi_dict()
        base = psi.pop(p, 0)
        passthrough = {(m - 1 if m > p else m): e for m, e in psi.items()}
        ks = mono.kappa
        for mask in range(1 << len(ks)):
            kept = tuple(ks[i] for i in range(len(ks)) if not mask >> i & 1)
            b = base + sum(ks[i] for i in range(len(ks)) if mask >> i & 1)
            if b == 0:
                continue
            if b == 1:
                out.append((InteriorMonomial(kept, passthrough), coeff * kappa0))
            else:
                out.append((InteriorMonomial(kept + (b - 1,), passthrough), coeff))
    return InteriorClass(g, n - 1, out)


def pullback_lift_reference(y: InteriorClass, p: int) -> InteriorClass:
    g, n = y.g, y.n + 1
    out = []
    for mono, coeff in y.items():
        shifted = {(m + 1 if m >= p else m): e for m, e in mono.psi}
        ks = mono.kappa
        for mask in range(1 << len(ks)):
            kept = tuple(ks[i] for i in range(len(ks)) if not mask >> i & 1)
            moved = [ks[i] for i in range(len(ks)) if mask >> i & 1]
            psi = dict(shifted)
            if moved:
                psi[p] = psi.get(p, 0) + sum(moved)
            sign = -1 if len(moved) % 2 else 1
            out.append((InteriorMonomial(kept, psi), coeff * sign))
    return InteriorClass(g, n, out)


# ------------------------------------------------- validation and canonical form

def _valence(g: DecoratedGraph, v: int) -> int:
    val = sum(1 for lv, _, _ in g.legs if lv == v)
    for v1, _, v2, _ in g.edges:
        val += (v1 == v) + (v2 == v)
    return val


def validate_reference(g: DecoratedGraph) -> list[str]:
    """The former ``DecoratedGraph.validate``: the same diagnostics in the same
    order, with each vertex's valence counted over all legs and edges."""
    diags = []
    V = g.n_vertices
    if V == 0:
        return ["empty graph: no vertices"]
    if len(g.kappa) != V:
        return [f"decoration arity mismatch: {len(g.kappa)} kappa entries "
                f"for {V} vertices"]
    for v, genus in enumerate(g.genera):
        if genus < 0:
            diags.append(f"negative genus at vertex {v}")
    dangling = False
    for idx, (v, m, p) in enumerate(g.legs):
        if not 0 <= v < V:
            diags.append(f"dangling half-edge: leg {idx} references vertex {v}")
            dangling = True
        if m < 1:
            diags.append(f"invalid marking label {m} on leg {idx}")
        if p < 0:
            diags.append(f"negative psi exponent on leg {idx}")
    for m, count in sorted(Counter(m for _, m, _ in g.legs).items()):
        if count > 1:
            diags.append(f"duplicate marking: {m}")
    for idx, (v1, p1, v2, p2) in enumerate(g.edges):
        for v in (v1, v2):
            if not 0 <= v < V:
                diags.append(f"dangling half-edge: edge {idx} references vertex {v}")
                dangling = True
        if p1 < 0 or p2 < 0:
            diags.append(f"negative psi exponent on edge {idx}")
    for v, ks in enumerate(g.kappa):
        if any(k < 1 for k in ks):
            diags.append(f"invalid kappa index at vertex {v} (indices must be >= 1)")
    if dangling:
        return diags
    for v in range(V):
        if 2 * g.genera[v] - 2 + _valence(g, v) <= 0:
            diags.append(f"unstable vertex: {v} (genus {g.genera[v]}, "
                         f"valence {_valence(g, v)})")
    if not diags:
        pa = arithmetic_genus(g)
        if pa < 0:
            diags.append(f"negative arithmetic genus: {pa}")
    return diags


def _dense_ranks(keys):
    ranks = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [ranks[k] for k in keys]


def _refinement_colors(g: DecoratedGraph) -> list[int]:
    legs_at = defaultdict(list)
    for v, m, p in g.legs:
        legs_at[v].append((m, p))
    base = [(g.genera[v], g.kappa[v], tuple(sorted(legs_at[v])), _valence(g, v))
            for v in range(g.n_vertices)]
    colors = _dense_ranks(base)
    incident = defaultdict(list)
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


def candidate_orders_reference(g: DecoratedGraph):
    """Every vertex order of the former search: the refinement cells in color
    order, each cell permuted freely."""
    colors = _refinement_colors(g)
    groups = defaultdict(list)
    for v, c in enumerate(colors):
        groups[c].append(v)
    cells = [groups[c] for c in sorted(groups)]
    if prod(factorial(len(cell)) for cell in cells) > 1_000_000:
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


def canonical_search_reference(g: DecoratedGraph, stable: bool = True):
    """The former ``graphs._canonical_search``, uncached: canonical form,
    canonical representative and the number of tied candidate orders.  With
    ``stable=False`` it also searches a graph whose only fault is an unstable
    vertex, such as an unmarked shape."""
    diags = [d for d in validate_reference(g) if stable or not d.startswith("unstable vertex")]
    if diags:
        raise InvalidGraphError(diags)
    best_key = None
    ties = 0
    for order in candidate_orders_reference(g):
        key = _encode_under(g, order)
        if key == best_key:
            ties += 1
        elif best_key is None or key < best_key:
            best_key, ties = key, 1
    verts, legs, edges = best_key
    genera, kappa = zip(*verts)
    canon = DecoratedGraph(genera, tuple((v, m, p) for m, v, p in legs), edges, kappa)
    return json.dumps(best_key, separators=(",", ":")).encode("ascii"), canon, ties


# ------------------------------------------------------------------ graph JSON

def _int_reference(x) -> int:
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _markings_reference(raw_markings):
    ints = [_int_reference(m) for m in raw_markings if not isinstance(m, str)]
    base = max(ints, default=0)
    table = {"i": base + 1, "j": base + 2}
    out = []
    for m in raw_markings:
        if isinstance(m, str):
            if m not in table:
                raise InvalidGraphError(f"unknown marking token {m!r}")
            out.append(table[m])
        else:
            out.append(_int_reference(m))
    return out


def graph_from_obj_reference(obj) -> DecoratedGraph:
    """The former ``serialize.graph_from_obj``: the same checks in the same
    order, the graph built through the public constructor."""
    try:
        vertices = obj["vertices"]
        genera = tuple(_int_reference(v["genus"]) for v in vertices)
        kappa = tuple(tuple(_int_reference(k) for k in v.get("kappa", ())) for v in vertices)
        raw_legs = obj.get("legs", ())
        markings = _markings_reference([leg["marking"] for leg in raw_legs])
        legs = tuple((_int_reference(leg["vertex"]), m, _int_reference(leg.get("psi", 0)))
                     for leg, m in zip(raw_legs, markings))
        edges = []
        ends = []
        for e in obj.get("edges", ()):
            (v1, s1), (v2, s2) = e["ends"]
            ends += [(_int_reference(v1), _int_reference(s1)),
                     (_int_reference(v2), _int_reference(s2))]
            p1, p2 = e.get("psi", (0, 0))
            edges.append((v1, _int_reference(p1), v2, _int_reference(p2)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed graph object: {exc}") from None
    n_legs = {}
    for v, _, _ in legs:
        n_legs[v] = n_legs.get(v, 0) + 1
    valence = dict(n_legs)
    for v, _ in ends:
        valence[v] = valence.get(v, 0) + 1
    used_slots = set()
    for v, s in ends:
        if (v, s) in used_slots:
            raise InvalidGraphError(f"dangling half-edge: slot {s} at vertex {v} used twice")
        lo = n_legs.get(v, 0)
        if not lo <= s < valence[v]:
            raise InvalidGraphError(f"edge-end slot {s} at vertex {v} is outside its "
                                    f"edge slots {lo}..{valence[v] - 1}")
        used_slots.add((v, s))
    graph = DecoratedGraph(genera, legs, tuple(edges), kappa)
    graph.require_valid()
    return graph


# ------------------------------------------------------------- random graphs

def random_decorated_graph(rng, max_vertices=4, max_extra_edges=2, max_marks=3,
                           genus_range=(1, 6), decorated=True,
                           connected=True) -> DecoratedGraph:
    """A random valid decorated graph with arithmetic genus in ``genus_range``.

    Rejection sampling; graphs are connected by construction (random spanning
    tree plus extra edges) unless ``connected`` is False, in which case the
    tree edges are dropped at random.
    """
    lo, hi = genus_range
    while True:
        V = rng.randint(1, max_vertices)
        edges = []
        for v in range(1, V):
            if connected or rng.random() < 0.7:
                edges.append((rng.randrange(v), v))
        for _ in range(rng.randint(0, max_extra_edges)):
            u, v = rng.randrange(V), rng.randrange(V)
            edges.append((min(u, v), max(u, v)))
        n = rng.randint(0, max_marks)
        legs = tuple((rng.randrange(V), m,
                      rng.choice((0, 0, 0, 1, 2)) if decorated else 0)
                     for m in range(1, n + 1))
        edge_tuples = tuple(
            (u, rng.choice((0, 0, 1)) if decorated else 0,
             v, rng.choice((0, 0, 1)) if decorated else 0)
            for u, v in edges)
        genera = tuple(rng.randint(0, 3) for _ in range(V))
        kappa = tuple(
            tuple(sorted(rng.choice(((), (1,), (2,), (1, 1))))) if decorated else ()
            for _ in range(V))
        graph = DecoratedGraph(genera, legs, edge_tuples, kappa)
        if graph.validate():
            continue
        if not lo <= arithmetic_genus(graph) <= hi:
            continue
        if connected and component_count(graph) != 1:
            continue
        return graph


def double_factorial_recursive(n: int) -> int:
    if n <= 0:
        return 1
    return n * double_factorial_recursive(n - 2)


# ------------------------------------------------ Witten-Kontsevich numbers

def _odd_factorial(d: int) -> int:
    """(2d + 1)!!, with (-1)!! = 1 for d = -1."""
    return double_factorial_recursive(2 * d + 1)


@lru_cache(maxsize=None)
def _wk_sorted(ds: tuple[int, ...]) -> Fraction:
    n = len(ds)
    g, rest = divmod(sum(ds) - n + 3, 3)
    if rest or g < 0 or 2 * g - 2 + n <= 0:
        return Fraction(0)
    if ds == (0, 0, 0):
        return Fraction(1)
    if ds == (1,):
        return Fraction(1, 24)
    if ds[0] == 0:      # string: <tau_0 prod tau_d> = sum_j <.. tau_{d_j - 1} ..>
        others = ds[1:]
        return sum((wk_number(others[:j] + (d - 1,) + others[j + 1:])
                    for j, d in enumerate(others) if d), Fraction(0))
    # DVV on the largest exponent k + 1 >= 1; at k = 0 it is the dilaton equation
    k, others = ds[-1] - 1, ds[:-1]
    total = Fraction(0)
    for j, d in enumerate(others):
        total += Fraction(_odd_factorial(k + d), _odd_factorial(d - 1)) * wk_number(
            others[:j] + (d + k,) + others[j + 1:])
    for r in range(k):
        s = k - 1 - r
        weight = Fraction(_odd_factorial(r) * _odd_factorial(s), 2)
        total += weight * wk_number((r, s) + others)
        for mask in range(1 << len(others)):
            side = ([], [])
            for bit, d in enumerate(others):
                side[mask >> bit & 1].append(d)
            total += weight * wk_number((r, *side[0])) * wk_number((s, *side[1]))
    return total / _odd_factorial(k + 1)


def wk_number(ds) -> Fraction:
    """<tau_{d_1} ... tau_{d_n}>_g, the integral of psi_1^{d_1} ... psi_n^{d_n}
    over Mbar_{g,n}, where 3g - 3 + n = sum(d); 0 when no such stable (g, n)
    exists.  A tau_0 goes by the string equation, and otherwise the largest
    exponent goes by the Dijkgraaf-Verlinde-Verlinde recursion, which is the
    dilaton equation for tau_1, from <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24."""
    return _wk_sorted(tuple(sorted(ds)))


def kappa_psi_integral(g: int, n: int, kappa=(), psi=None) -> Fraction:
    """The integral of kappa_{b_1} ... kappa_{b_m} prod psi_i^{psi[i]} over
    Mbar_{g,n}; 0 unless its degree is 3g - 3 + n.  Each kappa_b is
    pi_*(psi_{n+1}^{b+1}) along the map forgetting a new marking n+1, and
    the projection formula moves the other factors up by pi^*kappa_a =
    kappa_a - psi_{n+1}^a and pi^*psi_i = psi_i (exact here: psi_{n+1}^{b+1}
    kills the divisors where pi^*psi_i and psi_i differ)."""
    psi = dict(psi or {})
    exps = [psi.get(m, 0) for m in range(1, n + 1)]
    if not kappa:
        return wk_number(exps)
    first, rest = kappa[0], tuple(kappa[1:])
    total = Fraction(0)
    for mask in range(1 << len(rest)):
        moved = [b for bit, b in enumerate(rest) if mask >> bit & 1]
        kept = [b for bit, b in enumerate(rest) if not mask >> bit & 1]
        psi[n + 1] = first + 1 + sum(moved)
        total += (-1) ** len(moved) * kappa_psi_integral(g, n + 1, kept, psi)
    return total
