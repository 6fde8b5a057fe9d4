"""``serialize.dumps`` against the json module it stands in for, and
``graph_from_obj`` against the former reader."""

import copy
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from oracles import graph_from_obj_reference
from stratacalc import (
    AmbientSignature,
    DecoratedGraph,
    InteriorClass,
    InteriorMonomial,
    TautClass,
    boundary_generators,
    enumerate_stable_graphs,
    forget_pushforward,
    invariance_operator,
    monomial_class,
    verify_witness_independence,
)
from stratacalc import verifier
from stratacalc.serialize import (
    class_to_obj,
    dumps,
    graph_from_obj,
    graph_to_obj,
    interior_to_obj,
)


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cli_shapes():
    """One object of every shape the CLI writes."""
    for g, n, emax, emin in ((2, 0, 3, 0), (0, 5, 2, 1)):
        graphs = enumerate_stable_graphs(g, n, emax, min_edges=emin)
        yield {"g": g, "n": n, "max_edges": emax, "min_edges": emin,
               "count": len(graphs), "graphs": [graph_to_obj(G) for G in graphs]}
    yield class_to_obj(invariance_operator(monomial_class(3, 2, kappa=(1,), psi={1: 1})))
    yield class_to_obj(TautClass(AmbientSignature(2, frozenset(), 1)))
    interior = InteriorClass(4, 3, [(InteriorMonomial((1, 2), {1: 1, 3: 2}), Fraction(3, 2)),
                                    (InteriorMonomial((), {2: 2}), Fraction(-1, 7))])
    yield interior_to_obj(interior)
    yield interior_to_obj(forget_pushforward(interior, 3))


@pytest.mark.parametrize("obj", list(_cli_shapes()))
def test_dumps_matches_json_on_cli_outputs(obj):
    assert dumps(obj) == reference(obj)


def test_verification_report_json_matches_json(monkeypatch):
    # an n guard of 2 leaves the sub-instance (5,3,1) of (6,2,1) unchecked
    monkeypatch.setattr(verifier, "_MAX_N", 2)
    for report in (verify_witness_independence(6, 0, 1),
                   verify_witness_independence(6, 2, 1, recursive=True)):
        assert dumps(report.to_obj()) == reference(report.to_obj())
    assert report.not_checked and report.sub_instances == ()


STRINGS = ("", "a", 'quote " and \\ backslash', "new\nline\ttab\r", "\x00\x1f\x7f",
           "café", "☃ snow", "\U0001f600", "/slash", "1/2", "-3")
SCALARS = (0, 1, -1, -17, 10 ** 30, -(10 ** 30), True, False, None, 0.5, -2.25e-8,
           1e100, float("inf"), float("-inf"), float("nan"))


def _random_value(rng, depth=0):
    kind = rng.randrange(6 if depth < 4 else 2)
    if kind == 0:
        return rng.choice(STRINGS)
    if kind == 1:
        return rng.choice(SCALARS)
    items = [_random_value(rng, depth + 1) for _ in range(rng.choice((0, 1, 2, 3)))]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    # dict keys of one sortable kind: strings, numbers (bools included) or None
    keys = rng.choice((STRINGS, (3, -1, 2.5, True, 10 ** 20, float("inf")), (None,)))
    return {rng.choice(keys): value for value in items}


def test_dumps_matches_json_on_random_values():
    rng = random.Random(2024)
    for _ in range(2000):
        obj = _random_value(rng)
        assert dumps(obj) == reference(obj)
    for obj in ([], (), {}, [[]], [{}], {"a": []}, {"a": {}}, [[[], {}]], ((),)):
        assert dumps(obj) == reference(obj)


class Opaque:
    pass


@pytest.mark.parametrize("obj", [
    {1, 2}, b"bytes", Fraction(1, 2), Opaque(), [1, {"a": {1, 2}}], ({"x": Opaque()},),
    {(1, 2): 3}, {"a": {frozenset(): 1}},            # keys json cannot write
    {"a": 1, 2: "b"}, [{None: 1, "n": 2}],           # keys json cannot sort
])
def test_dumps_raises_what_json_raises(obj):
    with pytest.raises(TypeError) as want:
        reference(obj)
    with pytest.raises(TypeError) as got:
        dumps(obj)
    assert str(got.value) == str(want.value)


# -------------------------------------------------------------------- graphs

@lru_cache(maxsize=None)
def _graphs() -> tuple:
    """Full enumerations and the boundary generators of (6,2,2): graphs with
    kappa lists, self-loops and parallel edges."""
    return tuple(enumerate_stable_graphs(2, 0, 3, min_edges=0) + enumerate_stable_graphs(0, 6, 3)
                 + enumerate_stable_graphs(2, 5, 2) + boundary_generators(6, 2, 2))


def _as_objs(obj):
    """``obj`` with every graph in it replaced by its ``graph_to_obj``."""
    if isinstance(obj, DecoratedGraph):
        return graph_to_obj(obj)
    if isinstance(obj, dict):
        return {k: _as_objs(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_as_objs(x) for x in obj]
    return obj


def test_dumps_writes_graphs_as_graph_to_obj():
    graphs = list(_graphs())
    assert any(any(G.kappa) for G in graphs)
    assert any(v1 == v2 for G in graphs for v1, _, v2, _ in G.edges)
    assert any(len({(v1, v2) for v1, _, v2, _ in G.edges}) < G.n_edges for G in graphs)
    # a graph in a list in a dict, as enumerate writes it, and one level
    # deeper, as a class's terms hold it
    for obj in ({"count": len(graphs), "graphs": graphs},
                {"terms": [{"coeff": "1", "graph": G} for G in graphs]}):
        assert dumps(obj) == reference(_as_objs(obj))


BAD_VALUES = (-1, 0, 1, 2, 5, 10 ** 20, 1.0, 0.5, True, False, None, "1", "i", "j", "k",
              "", [], [0], [0, 1], [0, 1, 2], [[0, 0], [0, 1], [0, 2]], {}, {"genus": 0})


def _nodes(obj):
    """Every ``(container, key)`` in a JSON tree, the tree itself excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in list(items):
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from _nodes(value)


def _list(obj: dict, key) -> list:
    value = obj.get(key)
    return value if isinstance(value, list) else []


def _mutate(rng, obj):
    """``obj`` with one fault: a value replaced, a key or item dropped, an
    item repeated, an edge end's slot reused or shifted, or a marking made a
    token."""
    nodes = list(_nodes(obj))
    ends = [end for e in _list(obj, "edges") if isinstance(e, dict)
            for end in _list(e, "ends") if isinstance(end, list) and len(end) == 2]
    legs = [leg for leg in _list(obj, "legs") if isinstance(leg, dict) and "marking" in leg]
    kind = rng.randrange(6)
    if kind == 0 and len(ends) > 1:
        a, b = rng.sample(ends, 2)
        a[:] = b[:]        # the same vertex and slot twice
    elif kind == 1 and ends:
        rng.choice(ends)[1] += rng.choice((-2, -1, 1, 2))
    elif kind == 2 and legs:
        rng.choice(legs)["marking"] = rng.choice(("i", "j", "i", "x"))
    elif kind == 3 and nodes:
        parent, key = rng.choice(nodes)
        if isinstance(parent, dict):
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    elif nodes:
        parent, key = rng.choice(nodes)
        parent[key] = copy.deepcopy(rng.choice(BAD_VALUES))
    return obj


def _outcome(read, obj):
    try:
        return "read", read(obj)
    except Exception as exc:   # whatever one reader raises, the other must too
        return type(exc), str(exc)


def test_graph_from_obj_matches_the_former_reader_on_faults():
    rng = random.Random(26)
    graphs = _graphs()
    outcomes = []
    for _ in range(2400):
        obj = graph_to_obj(rng.choice(graphs))
        for _ in range(rng.choice((1, 1, 2))):
            _mutate(rng, obj)
        got = _outcome(graph_from_obj, copy.deepcopy(obj))
        assert got == _outcome(graph_from_obj_reference, obj), obj
        outcomes.append("read" if got[0] == "read" else got[1])
    for graph in graphs:
        assert graph_from_obj(graph_to_obj(graph)) == graph
    # every kind of fault is reached, and some faults leave a graph
    for start in ("read", "malformed graph object: expected an integer",
                  "malformed graph object: '", "malformed graph object: not enough values",
                  "malformed graph object: too many values", "unknown marking token",
                  "dangling half-edge: slot", "edge-end slot", "unstable vertex",
                  "duplicate marking"):
        assert any(o.startswith(start) for o in outcomes), start
