"""Exact rational formal sums of canonical decorated graphs.

A ``TautClass`` is a finite Q-linear combination of decorated stable graphs,
keyed by canonical form, together with the ambient signature every term must
match: arithmetic genus, marking set, and the bound on connected components.

Coefficients are formal multipliers of the canonical representative; no
automorphism factors are folded in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import SignatureError
from .graphs import (
    CanonicalForm,
    DecoratedGraph,
    arithmetic_genus,
    canonicalize,
    component_count,
    single_vertex,
)

#: degree() sentinel for the zero class (no terms, degree undefined).
ZERO_DEGREE = "zero"
#: degree() sentinel when terms carry different total degrees.
INHOMOGENEOUS = "inhomogeneous"


@dataclass(frozen=True)
class AmbientSignature:
    """Ambient of a class: genus, marking labels, and component bound (1 or 2)."""

    genus: int
    markings: frozenset[int]
    max_components: int = 1

    def __post_init__(self):
        object.__setattr__(self, "markings", frozenset(int(m) for m in self.markings))
        if self.max_components not in (1, 2):
            raise ValueError("max_components must be 1 or 2")
        # not a field: stays out of __eq__, __hash__ and repr
        object.__setattr__(self, "_marking_tuple", tuple(sorted(self.markings)))

    def marking_tuple(self) -> tuple[int, ...]:
        return self._marking_tuple

    def check(self, graph: DecoratedGraph) -> None:
        """Raise ``SignatureError`` unless the valid ``graph`` lies on this ambient:
        its arithmetic genus, marking set and component count must fit."""
        pa = arithmetic_genus(graph)
        if pa != self.genus:
            raise SignatureError(
                f"graph has arithmetic genus {pa}, ambient requires {self.genus}")
        if graph.markings() != self._marking_tuple:
            raise SignatureError(
                f"graph markings {graph.markings()} differ from ambient "
                f"{self._marking_tuple}")
        if component_count(graph) > self.max_components:
            raise SignatureError(
                f"graph has {component_count(graph)} components, ambient allows "
                f"at most {self.max_components}")


def _summed(*pairs) -> dict:
    """``{key: coefficient}`` summed over iterables of ``(key, coefficient)``
    pairs, without the keys whose coefficients cancel."""
    out = {}
    for key, coeff in itertools.chain(*pairs):
        if key in out:
            out[key] += coeff
        else:
            out[key] = coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def _scaled(terms: dict, coeff) -> dict:
    coeff = Fraction(coeff)
    if not coeff:
        return {}
    return {key: coeff * c for key, c in terms.items()}


class _LinearCombination:
    """Algebra shared by exact rational combinations of terms.

    ``_terms`` maps each term's key to its non-zero ``Fraction`` coefficient.
    A subclass names its ambient (``_space``), the degrees of its terms
    (``_degrees``) and its own ``add`` and ``scale``, which build results from
    the merged dicts without re-checking a term.
    """

    __slots__ = ("_terms",)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def degree(self):
        """Common total degree of all terms, ``"inhomogeneous"`` otherwise;
        the zero class reports the distinct marker ``"zero"``."""
        if not self._terms:
            return ZERO_DEGREE
        degrees = set(self._degrees())
        return degrees.pop() if len(degrees) == 1 else INHOMOGENEOUS

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.add(other)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.add(other.scale(-1))

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, coeff):
        return self.scale(coeff)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._space() == other._space() and self._terms == other._terms

    def __hash__(self):
        return hash(self._space() + (frozenset(self._terms.items()),))


class TautClass(_LinearCombination):
    """Formal sum of canonical decorated graphs with exact rational coefficients."""

    # _graphs maps every form of _terms (and possibly forms that cancelled)
    # to its canonical graph; it is shared between classes, never mutated
    __slots__ = ("ambient", "_graphs")

    def __init__(self, ambient: AmbientSignature, terms=()):
        graphs: dict[CanonicalForm, DecoratedGraph] = {}

        def forms():
            for graph, coeff in terms:
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                form, canon = canonicalize(graph)   # rejects invalid graphs
                if form not in graphs:
                    # the signature is an isomorphism invariant
                    ambient.check(canon)
                    graphs[form] = canon
                yield form, coeff

        self.ambient = ambient
        self._terms = _summed(forms())
        self._graphs = graphs

    @classmethod
    def _of(cls, ambient: AmbientSignature, terms: dict, graphs: dict) -> "TautClass":
        """Class of already canonical, checked and merged terms."""
        out = object.__new__(cls)
        out.ambient, out._terms, out._graphs = ambient, terms, graphs
        return out

    def _space(self) -> tuple:
        return (self.ambient,)

    def _degrees(self):
        return (self._graphs[form].degree() for form in self._terms)

    # --------------------------------------------------------------- queries

    def items(self):
        """Yield ``(form, graph, coefficient)`` in canonical (deterministic) order."""
        for form in sorted(self._terms):
            yield form, self._graphs[form], self._terms[form]

    def coefficient_of(self, graph: DecoratedGraph) -> Fraction:
        """Stored coefficient of the canonical form of ``graph`` (0 if absent)."""
        form, _ = canonicalize(graph)
        return self._terms.get(form, Fraction(0))

    # --------------------------------------------------------------- algebra

    def add(self, other: "TautClass") -> "TautClass":
        if self.ambient != other.ambient:
            raise SignatureError("cannot add classes with different ambient signatures")
        terms = _summed(self._terms.items(), other._terms.items())
        return TautClass._of(self.ambient, terms, {**self._graphs, **other._graphs})

    def scale(self, coeff) -> "TautClass":
        return TautClass._of(self.ambient, _scaled(self._terms, coeff), self._graphs)

    def mul_psi(self, marking: int) -> "TautClass":
        """Multiply by the psi class at ``marking``.

        Interior-only: every term must be a smooth single-vertex graph; any
        term with an edge is rejected (boundary psi comparisons are out of
        scope for this calculus).
        """
        if marking not in self.ambient.markings:
            raise SignatureError(f"marking {marking} is not in the ambient")
        new_terms = []
        for _, graph, coeff in self.items():
            if graph.n_edges or graph.n_vertices != 1:
                raise SignatureError(
                    "mul_psi is restricted to interior (single-vertex, edge-free) classes")
            legs = tuple((v, m, p + 1 if m == marking else p)
                         for v, m, p in graph.legs)
            new_terms.append((DecoratedGraph(graph.genera, legs, (), graph.kappa), coeff))
        return TautClass(self.ambient, new_terms)

    def __repr__(self):
        return (f"TautClass(genus={self.ambient.genus}, "
                f"markings={self.ambient.marking_tuple()}, terms={len(self)})")


def zero_class(ambient: AmbientSignature) -> TautClass:
    return TautClass(ambient, ())


def monomial_class(genus: int, n: int, kappa=(), psi=None) -> TautClass:
    """One-term class kappa^I psi^J on the smooth single-vertex graph of (genus, n).

    ``psi`` maps markings in ``1..n`` to exponents.  Raises if the vertex is
    unstable (e.g. genus 0 with n <= 2).
    """
    psi = dict(psi or {})
    unknown = set(psi) - set(range(1, n + 1))
    if unknown:
        raise ValueError(f"psi exponents on unknown markings: {sorted(unknown)}")
    graph = single_vertex(genus, [(m, psi.get(m, 0)) for m in range(1, n + 1)], kappa)
    ambient = AmbientSignature(genus, frozenset(range(1, n + 1)), 1)
    return TautClass(ambient, [(graph, 1)])


def fundamental_class(genus: int, n: int) -> TautClass:
    return monomial_class(genus, n)
