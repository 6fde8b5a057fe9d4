"""Exact rational formal sums of canonical decorated graphs.

A ``TautClass`` is a finite Q-linear combination of decorated stable graphs,
keyed by canonical form, together with the ambient signature every term must
match: arithmetic genus, marking set, and the bound on connected components.

Coefficients are formal multipliers of the canonical representative; no
automorphism factors are folded in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SignatureError
from .graphs import (
    CanonicalForm,
    DecoratedGraph,
    DualGraph,
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


class TautClass:
    """Formal sum of canonical decorated graphs with exact rational coefficients."""

    __slots__ = ("ambient", "_terms")

    def __init__(self, ambient: AmbientSignature, terms=()):
        merged: dict[CanonicalForm, list] = {}
        for graph, coeff in terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if isinstance(graph, DualGraph):
                graph = graph.decorate()
            form, canon = canonicalize(graph)   # rejects invalid graphs
            ambient.check(canon)
            if form in merged:
                merged[form][1] += coeff
            else:
                merged[form] = [canon, coeff]
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_terms",
                           {f: (g, c) for f, (g, c) in merged.items() if c != 0})

    # --------------------------------------------------------------- queries

    def items(self):
        """Yield ``(form, graph, coefficient)`` in canonical (deterministic) order."""
        for form in sorted(self._terms):
            graph, coeff = self._terms[form]
            yield form, graph, coeff

    def graphs(self) -> list[DecoratedGraph]:
        return [graph for _, graph, _ in self.items()]

    def coefficient_of(self, graph) -> Fraction:
        """Stored coefficient of the canonical form of ``graph`` (0 if absent)."""
        if isinstance(graph, DualGraph):
            graph = graph.decorate()
        form, _ = canonicalize(graph)
        entry = self._terms.get(form)
        return entry[1] if entry else Fraction(0)

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
        degrees = {graph.degree() for graph, _ in self._terms.values()}
        return degrees.pop() if len(degrees) == 1 else INHOMOGENEOUS

    # --------------------------------------------------------------- algebra

    def add(self, other: "TautClass") -> "TautClass":
        if self.ambient != other.ambient:
            raise SignatureError("cannot add classes with different ambient signatures")
        terms = [(g, c) for _, g, c in self.items()]
        terms += [(g, c) for _, g, c in other.items()]
        return TautClass(self.ambient, terms)

    def scale(self, coeff) -> "TautClass":
        coeff = Fraction(coeff)
        return TautClass(self.ambient,
                         [(g, coeff * c) for _, g, c in self.items()])

    def __add__(self, other):
        if not isinstance(other, TautClass):
            return NotImplemented
        return self.add(other)

    def __sub__(self, other):
        if not isinstance(other, TautClass):
            return NotImplemented
        return self.add(other.scale(-1))

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, coeff):
        return self.scale(coeff)

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

    def __eq__(self, other):
        if not isinstance(other, TautClass):
            return NotImplemented
        return (self.ambient == other.ambient
                and {f: c for f, (_, c) in self._terms.items()}
                == {f: c for f, (_, c) in other._terms.items()})

    def __hash__(self):
        return hash((self.ambient, frozenset((f, c) for f, (_, c) in self._terms.items())))

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
    graph.require_valid()
    ambient = AmbientSignature(genus, frozenset(range(1, n + 1)), 1)
    return TautClass(ambient, [(graph, 1)])


def fundamental_class(genus: int, n: int) -> TautClass:
    return monomial_class(genus, n)
