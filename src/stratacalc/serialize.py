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
from fractions import Fraction

from .classes import AmbientSignature, TautClass
from .errors import InvalidGraphError
from .graphs import DecoratedGraph
from .pushforward import InteriorClass, InteriorMonomial


def coeff_str(c: Fraction) -> str:
    return str(Fraction(c))


def parse_coeff(s) -> Fraction:
    try:
        return Fraction(str(s))
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
    slot = [0] * g.n_vertices
    for v, _, _ in g.legs:
        slot[v] += 1     # legs occupy the leading slots of each vertex
    obj = {
        "vertices": [{"genus": g.genera[v], "kappa": list(g.kappa[v])}
                     for v in range(g.n_vertices)],
        "legs": [{"vertex": v, "marking": m, "psi": p} for v, m, p in g.legs],
        "edges": [],
    }
    for v1, p1, v2, p2 in g.edges:
        s1 = slot[v1]
        slot[v1] += 1
        s2 = slot[v2]
        slot[v2] += 1
        obj["edges"].append({"ends": [[v1, s1], [v2, s2]], "psi": [p1, p2]})
    return obj


def graph_from_obj(obj) -> DecoratedGraph:
    try:
        vertices = obj["vertices"]
        genera = tuple(_int(v["genus"]) for v in vertices)
        kappa = tuple(tuple(_int(k) for k in v.get("kappa", ())) for v in vertices)
        raw_legs = obj.get("legs", ())
        markings = _resolve_markings([leg["marking"] for leg in raw_legs])
        legs = tuple((_int(leg["vertex"]), m, _int(leg.get("psi", 0)))
                     for leg, m in zip(raw_legs, markings))
        edges = []
        used_slots = set()
        for e in obj.get("edges", ()):
            (v1, s1), (v2, s2) = e["ends"]
            for v, s in ((v1, s1), (v2, s2)):
                if (_int(v), _int(s)) in used_slots:
                    raise InvalidGraphError(
                        f"dangling half-edge: slot {s} at vertex {v} used twice")
                used_slots.add((v, s))
            p1, p2 = e.get("psi", (0, 0))
            edges.append((v1, _int(p1), v2, _int(p2)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed graph object: {exc}") from None
    graph = DecoratedGraph(genera, legs, tuple(edges), kappa)
    graph.require_valid()
    return graph


# ------------------------------------------------------------------- classes

def class_to_obj(x: TautClass) -> dict:
    return {
        "ambient": {
            "genus": x.ambient.genus,
            "markings": list(x.ambient.marking_tuple()),
            "max_components": x.ambient.max_components,
        },
        "terms": [{"coeff": coeff_str(c), "graph": graph_to_obj(g)}
                  for _, g, c in x.items()],
    }


def class_from_obj(obj) -> TautClass:
    try:
        amb = obj["ambient"]
        markings = _resolve_markings(amb.get("markings", ()))
        ambient = AmbientSignature(_int(amb["genus"]), frozenset(markings),
                                   _int(amb.get("max_components", 1)))
        terms = [(graph_from_obj(t["graph"]), parse_coeff(t["coeff"]))
                 for t in obj.get("terms", ())]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed class object: {exc}") from None
    return TautClass(ambient, terms)


# ----------------------------------------------------------- interior classes

def interior_to_obj(x: InteriorClass) -> dict:
    return {
        "g": x.g,
        "n": x.n,
        "terms": [{"coeff": coeff_str(c), "kappa": list(m.kappa),
                   "psi": {str(mark): e for mark, e in m.psi}}
                  for m, c in x.items()],
    }


def monomial_from_obj(obj) -> InteriorMonomial:
    """``{"kappa": [INT, ...], "psi": {"MARK": INT}}`` as a monomial; the psi
    keys are decimal strings, as JSON object keys always are."""
    return InteriorMonomial(tuple(_int(k) for k in obj.get("kappa", ())),
                            {int(m): _int(e) for m, e in obj.get("psi", {}).items()})


def interior_from_obj(obj) -> InteriorClass:
    try:
        terms = [(monomial_from_obj(t), parse_coeff(t["coeff"]))
                 for t in obj.get("terms", ())]
        return InteriorClass(_int(obj["g"]), _int(obj["n"]), terms)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed interior class object: {exc}") from None


# ----------------------------------------------------------------- file layer

def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_file(obj, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(obj))


def load_file(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
