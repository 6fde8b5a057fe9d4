"""JSON interchange for graphs, classes and interior classes.

Graph schema::

    {"vertices": [{"genus": INT, "kappa": [INT, ...]}],
     "legs":     [{"vertex": INT, "marking": INT or "i" or "j", "psi": INT}],
     "edges":    [{"ends": [[V, SLOT], [V, SLOT]], "psi": [INT, INT]}]}

Class schema::

    {"ambient": {"genus": INT, "markings": [...], "max_components": INT},
     "terms":   [{"coeff": "P/Q", "graph": {...}}]}

Interior class schema::

    {"g": INT, "n": INT,
     "terms": [{"coeff": "P/Q", "kappa": [INT, ...], "psi": {"MARK": INT}}]}

Coefficients are reduced fraction strings.  The special marking tokens "i" and
"j" are accepted on input and resolved to the two integers following the
largest integer marking present; output always uses integers.  Half-edge slots
number the half-edges of a vertex, legs first.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quoted

from .classes import AmbientSignature, TautClass, _merged, _numerators
from .errors import InvalidGraphError
from .graphs import _BY_MARKING, DecoratedGraph, _sorted_edges
from .pushforward import InteriorClass, InteriorMonomial


def parse_coeff(s) -> Fraction:
    """A coefficient as the schema writes it: a ``"P/Q"`` string, or a JSON
    integer; a float or a bool is refused, not converted."""
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise InvalidGraphError(f"malformed coefficient {s!r}: expected a \"P/Q\" string "
                                f"or an integer")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidGraphError(f"bad coefficient {s!r}: {exc}") from None


def _int(x) -> int:
    """``x`` if it is a JSON integer; a bool, float or string is refused."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _resolve_markings(raw_markings):
    """Map 'i'/'j' tokens to the two labels after the largest integer marking."""
    ints = [_int(m) for m in raw_markings if not isinstance(m, str)]
    if len(ints) == len(raw_markings):
        return ints
    base = max(ints, default=0)
    table = {"i": base + 1, "j": base + 2}
    out = []
    for m in raw_markings:
        if isinstance(m, str):
            if m not in table:
                raise InvalidGraphError(f"unknown marking token {m!r}")
            out.append(table[m])
        else:
            out.append(_int(m))
    return out


# -------------------------------------------------------------------- graphs

def graph_to_obj(g: DecoratedGraph) -> dict:
    return {
        "vertices": [{"genus": g.genera[v], "kappa": list(g.kappa[v])}
                     for v in range(g.n_vertices)],
        "legs": [{"vertex": v, "marking": m, "psi": p} for v, m, p in g.legs],
        "edges": [{"ends": [[v1, s1], [v2, s2]], "psi": [p1, p2]}
                  for v1, s1, p1, v2, s2, p2 in _edge_slots(g)],
    }


def _edge_slots(g: DecoratedGraph):
    """Each edge of ``g`` as ``(v1, s1, p1, v2, s2, p2)``, ``s`` the slot of
    an end: legs occupy the leading slots of each vertex, then each edge end
    takes the next free slot of its vertex."""
    slot = [0] * g.n_vertices
    for v, _, _ in g.legs:
        slot[v] += 1
    for v1, p1, v2, p2 in g.edges:
        s1 = slot[v1]
        slot[v1] += 1
        s2 = slot[v2]
        slot[v2] += 1
        yield v1, s1, p1, v2, s2, p2


def graph_from_obj(obj) -> DecoratedGraph:
    """The graph ``obj`` describes.  Each integer is checked where it is read
    (genera, kappa, markings, legs, then edge by edge), the edge-end slots
    are checked against the legs, and the fields go straight into the normal
    form of ``DecoratedGraph``, which is validated once."""
    try:
        vertices = obj["vertices"]
        genera = tuple([_int(v["genus"]) for v in vertices])
        kappa = tuple([tuple(sorted([_int(k) for k in v.get("kappa", ())])) for v in vertices])
        raw_legs = obj.get("legs", ())
        markings = _resolve_markings([leg["marking"] for leg in raw_legs])
        legs = sorted([(_int(leg["vertex"]), m, _int(leg.get("psi", 0)))
                       for leg, m in zip(raw_legs, markings)], key=_BY_MARKING)
        edges = []
        ends = []
        for e in obj.get("edges", ()):
            (v1, s1), (v2, s2) = e["ends"]
            ends += [(_int(v1), _int(s1)), (_int(v2), _int(s2))]
            p1, p2 = e.get("psi", (0, 0))
            edges.append((v1, _int(p1), v2, _int(p2)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed graph object: {exc}") from None
    # legs take the leading slots of a vertex; its edge ends fill the rest once each
    n_legs = {}
    for v, _, _ in legs:
        n_legs[v] = n_legs.get(v, 0) + 1
    valence = dict(n_legs)
    for v, _ in ends:
        valence[v] = valence.get(v, 0) + 1
    used_slots = set()
    for end in ends:
        v, s = end
        if end in used_slots:
            raise InvalidGraphError(f"dangling half-edge: slot {s} at vertex {v} used twice")
        lo = n_legs.get(v, 0)
        if not lo <= s < valence[v]:
            raise InvalidGraphError(f"edge-end slot {s} at vertex {v} is outside its "
                                    f"edge slots {lo}..{valence[v] - 1}")
        used_slots.add(end)
    return DecoratedGraph._of(genera, tuple(legs), _sorted_edges(edges), kappa).require_valid()


# ------------------------------------------------------------------- classes

def class_to_obj(x: TautClass) -> dict:
    return {
        "ambient": {
            "genus": x.ambient.genus,
            "markings": list(x.ambient.marking_tuple()),
            "max_components": x.ambient.max_components,
        },
        "terms": [{"coeff": str(c), "graph": graph_to_obj(g)}
                  for _, g, c in x.items()],
    }


def class_from_obj(obj) -> TautClass:
    try:
        amb = obj["ambient"]
        markings = _resolve_markings(amb.get("markings", ()))
        repeated = sorted(m for m, count in Counter(markings).items() if count > 1)
        if repeated:
            raise ValueError("; ".join(f"duplicate marking: {m}" for m in repeated))
        ambient = AmbientSignature(_int(amb["genus"]), frozenset(markings),
                                   _int(amb.get("max_components", 1)))
        terms = [(graph_from_obj(t["graph"]), parse_coeff(t["coeff"]))
                 for t in obj.get("terms", ())]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed class object: {exc}") from None
    # graph_from_obj validated every graph; the ambient check still runs
    return TautClass._of(*_merged(ambient, *_numerators(terms)))


# ----------------------------------------------------------- interior classes

def interior_to_obj(x: InteriorClass) -> dict:
    return {
        "g": x.g,
        "n": x.n,
        "terms": [{"coeff": str(c), "kappa": list(m.kappa),
                   "psi": {str(mark): e for mark, e in m.psi}}
                  for m, c in x.items()],
    }


def _marking_key(key) -> int:
    """A psi key as ``interior_to_obj`` writes it: ``str(m)`` for a marking m >= 1."""
    m = int(key) if isinstance(key, str) and key.isascii() and key.isdigit() else 0
    if m < 1 or str(m) != key:
        raise ValueError(f"psi key {key!r} is not a positive marking in plain decimal")
    return m


def monomial_from_obj(obj) -> InteriorMonomial:
    """``{"kappa": [INT, ...], "psi": {"MARK": INT}}`` as a monomial; each psi
    key is a marking as ``str(m)`` writes it, since JSON object keys are strings."""
    return InteriorMonomial(tuple(_int(k) for k in obj.get("kappa", ())),
                            {_marking_key(m): _int(e) for m, e in obj.get("psi", {}).items()})


def interior_from_obj(obj) -> InteriorClass:
    try:
        terms = [(monomial_from_obj(t), parse_coeff(t["coeff"]))
                 for t in obj.get("terms", ())]
        return InteriorClass(_int(obj["g"]), _int(obj["n"]), terms)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed interior class object: {exc}") from None


# ----------------------------------------------------------------- file layer

def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte and
    with the same ``TypeError``s, but from str joins: json encodes in pure
    Python whenever it indents.  In a list or dict an int is written by
    ``str`` and a str (a key too) by ``encode_basestring_ascii``, which
    ``json.dumps`` calls for it; any other scalar goes to json itself.  A
    ``DecoratedGraph`` is written from its fields as ``graph_to_obj`` of it
    would be, with no dict built for it."""
    return _indented(obj, "\n") + "\n"


def _graph(G: DecoratedGraph, nl: str) -> str:
    """``_indented(graph_to_obj(G), nl)``: one f-string per vertex, leg and
    edge, with the slots ``_edge_slots`` gives ``graph_to_obj``."""
    i1, i2, i3, i4, i5 = (nl + "  " * d for d in range(1, 6))
    vertices = [f'{{{i3}"genus": {h},{i3}"kappa": {_items(list(map(str, ks)), i3)}{i2}}}'
                for h, ks in zip(G.genera, G.kappa)]
    legs = [f'{{{i3}"marking": {m},{i3}"psi": {p},{i3}"vertex": {v}{i2}}}' for v, m, p in G.legs]
    edges = [f'{{{i3}"ends": [{i4}[{i5}{v1},{i5}{s1}{i4}],{i4}[{i5}{v2},{i5}{s2}{i4}]'
             f'{i3}],{i3}"psi": [{i4}{p1},{i4}{p2}{i3}]{i2}}}'
             for v1, s1, p1, v2, s2, p2 in _edge_slots(G)]
    return (f'{{{i1}"edges": {_items(edges, i1)},{i1}"legs": {_items(legs, i1)},'
            f'{i1}"vertices": {_items(vertices, i1)}{nl}}}')


def _items(items, nl: str) -> str:
    """JSON list of written ``items``, each on a line of ``nl`` and two spaces."""
    return f"[{nl}  " + f",{nl}  ".join(items) + f"{nl}]" if items else "[]"


def _key(k) -> str:
    if isinstance(k, str):
        return _quoted(k)
    if k is None or isinstance(k, (int, float)):
        return f'"{json.dumps(k)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _indented(obj, nl: str) -> str:
    """``obj`` as JSON, each nested line starting with ``nl`` and two spaces."""
    if type(obj) is DecoratedGraph:
        return _graph(obj, nl)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        body = f",{inner}".join([
            str(x) if type(x) is int else _quoted(x) if type(x) is str else _indented(x, inner)
            for x in obj])
        return f"[{inner}{body}{nl}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        body = f",{inner}".join([
            f"{_key(k)}: "
            f"{v if type(v) is int else _quoted(v) if type(v) is str else _indented(v, inner)}"
            for k, v in sorted(obj.items())])
        return f"{{{inner}{body}{nl}}}"
    return json.dumps(obj)


def dump_file(obj, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(obj))


def load_file(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
