"""``serialize.dumps`` against the json module it stands in for."""

import json
import random
from fractions import Fraction

import pytest

from stratacalc import (
    AmbientSignature,
    InteriorClass,
    InteriorMonomial,
    TautClass,
    enumerate_stable_graphs,
    forget_pushforward,
    invariance_operator,
    monomial_class,
    verify_witness_independence,
)
from stratacalc import verifier
from stratacalc.serialize import class_to_obj, dumps, graph_to_obj, interior_to_obj


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
        assert report.to_json() == reference(report.to_obj())
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
