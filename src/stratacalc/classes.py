"""Exact rational formal sums of canonical decorated graphs.

A ``TautClass`` is a finite Q-linear combination of decorated stable graphs,
keyed by canonical form, together with the ambient signature every term must
match: arithmetic genus, marking set, and the bound on connected components.

Coefficients are formal multipliers of the canonical representative; no
automorphism factors are folded in.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import index

from .errors import SignatureError
from .graphs import (
    DecoratedGraph,
    _canonical_search,
    arithmetic_genus,
    canonicalize,
    component_count,
    single_vertex,
)

#: degree() sentinel for the zero class (no terms, degree undefined).
ZERO_DEGREE = "zero"
#: degree() sentinel when terms carry different total degrees.
INHOMOGENEOUS = "inhomogeneous"


class AmbientSignature(namedtuple("AmbientSignature", "genus markings max_components")):
    """Ambient of a class: genus, marking labels, and component bound (1 or 2).

    The named tuple of its fields; it compares and hashes as that tuple."""

    __slots__ = ()

    def __new__(cls, genus, markings, max_components=1):
        genus, markings = index(genus), frozenset(map(index, markings))
        max_components = index(max_components)
        if max_components not in (1, 2):
            raise ValueError("max_components must be 1 or 2")
        below = sorted(m for m in markings if m < 1)
        if below:
            raise ValueError(f"markings must be >= 1, got {below}")
        return tuple.__new__(cls, (genus, markings, max_components))

    def marking_tuple(self) -> tuple[int, ...]:
        return tuple(sorted(self.markings))

    def check(self, graph: DecoratedGraph) -> None:
        """Raise ``SignatureError`` unless the valid ``graph`` lies on this ambient:
        its arithmetic genus, marking set and component count must fit, and
        its legs must carry each ambient marking exactly once."""
        pa, markings = arithmetic_genus(graph), graph.markings()
        if pa != self.genus:
            raise SignatureError(
                f"graph has arithmetic genus {pa}, ambient requires {self.genus}")
        if len(markings) != len(self.markings) or set(markings) != self.markings:
            raise SignatureError(
                f"graph markings {tuple(sorted(markings))} differ from ambient "
                f"{self.marking_tuple()}")
        if component_count(graph) > self.max_components:
            raise SignatureError(
                f"graph has {component_count(graph)} components, ambient allows "
                f"at most {self.max_components}")


def _summed(den: int, *pairs) -> tuple[dict, int]:
    """``(terms, den)`` in lowest terms for the sum over iterables of ``(key,
    numerator)`` pairs whose coefficients are numerators over the one ``den``:
    the keys that cancel are dropped, and a zero sum is ``({}, 1)``."""
    out = {}
    for key, num in itertools.chain(*pairs):
        if key in out:
            out[key] += num
        else:
            out[key] = num
    # a cancelled key adds 0 to the gcd, which is den itself when all cancel
    common = gcd(den, *out.values())
    return {key: num // common for key, num in out.items() if num}, den // common


def _rational(coeff) -> Fraction:
    """``coeff``, an int or a Fraction, as a ``Fraction``; a float is refused,
    not rounded."""
    if isinstance(coeff, (int, Fraction)):
        return Fraction(coeff)
    raise TypeError(f"coefficient {coeff!r} is not an int or a Fraction")


def _numerators(terms) -> tuple[list, int]:
    """The ``(key, coeff)`` pairs of ``terms`` as ``(key, numerator)`` pairs
    over the lcm of their denominators.  A zero coefficient is kept, so its
    key is checked like any other; the sum drops it."""
    # Fraction() of an int or a Fraction would only copy it, slowly
    ratios = [(key, (c if type(c) in (int, Fraction) else _rational(c)).as_integer_ratio())
              for key, c in terms]
    den = lcm(*(d for _, (_, d) in ratios))
    return [(key, num * (den // d)) for key, (num, d) in ratios], den


def _merged(ambient: AmbientSignature, pairs, den: int, check=True) -> tuple:
    """``TautClass._of``'s arguments for the class on ``ambient`` holding the
    valid graphs of the ``(graph, numerator)`` pairs over ``den``.  Every graph
    is canonicalized; each form, the first time it is met, is recorded with its
    representative and, if ``check``, checked against ``ambient`` (the
    signature is an isomorphism invariant)."""
    graphs: dict[bytes, DecoratedGraph] = {}

    def forms():
        for graph, num in pairs:
            form, canon, _ = _canonical_search(graph)
            if form not in graphs:
                if check:
                    ambient.check(canon)
                graphs[form] = canon
            yield form, num

    return (ambient, *_summed(den, forms()), graphs)


class _LinearCombination:
    """Algebra shared by exact rational combinations of terms.

    ``_terms`` maps each term's key to its non-zero integer numerator over the
    one denominator ``_den > 0``, in lowest terms: ``gcd(_den, *numerators)``
    is 1, and the zero class is ``({}, 1)``.  The pair is unique for the
    coefficients it stands for, so ``==`` and ``hash`` compare it directly.
    A subclass names its ambient (``_space``), the degrees of its terms
    (``_degrees``) and its own ``add`` and ``scale``, which build results from
    ``_plus`` and ``_times`` without re-checking a term.
    """

    __slots__ = ("_terms", "_den")

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

    def _plus(self, other) -> tuple[dict, int]:
        """``(terms, den)`` of the sum of ``self`` and ``other``."""
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        return _summed(den, ((key, a * num) for key, num in self._terms.items()),
                       ((key, b * num) for key, num in other._terms.items()))

    def _times(self, coeff) -> tuple[dict, int]:
        """``(terms, den)`` of ``coeff`` times ``self``."""
        coeff = _rational(coeff)
        if not coeff:
            return {}, 1
        # coeff and self are each in lowest terms: these are the only common factors
        over = gcd(coeff.numerator, self._den)
        under = gcd(coeff.denominator, *self._terms.values())
        num = coeff.numerator // over
        return ({key: num * (n // under) for key, n in self._terms.items()},
                self._den // over * (coeff.denominator // under))

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
        return (self._space() == other._space() and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self):
        return hash(self._space() + (self._den, frozenset(self._terms.items())))


class TautClass(_LinearCombination):
    """Formal sum of canonical decorated graphs with exact rational coefficients."""

    # _graphs maps every form of _terms (and possibly forms that cancelled)
    # to its canonical graph; it is shared between classes, never mutated
    __slots__ = ("ambient", "_graphs")

    def __init__(self, ambient: AmbientSignature, terms=()):
        pairs, den = _numerators(terms)
        # each graph is validated just before its search: errors come in term order
        self.ambient, self._terms, self._den, self._graphs = _merged(
            ambient, ((graph.require_valid(), num) for graph, num in pairs), den)

    @classmethod
    def _of(cls, ambient: AmbientSignature, terms: dict, den: int,
            graphs: dict) -> "TautClass":
        """Class of already canonical, checked and merged terms in lowest terms."""
        out = object.__new__(cls)
        out.ambient, out._terms, out._den, out._graphs = ambient, terms, den, graphs
        return out

    def _space(self) -> tuple:
        return (self.ambient,)

    def _degrees(self):
        return (self._graphs[form].degree() for form in self._terms)

    # --------------------------------------------------------------- queries

    def items(self):
        """Yield ``(form, graph, coefficient)`` in canonical (deterministic) order."""
        for form in sorted(self._terms):
            yield form, self._graphs[form], Fraction(self._terms[form], self._den)

    def coefficient_of(self, graph: DecoratedGraph) -> Fraction:
        """Stored coefficient of the canonical form of ``graph`` (0 if absent)."""
        form, _ = canonicalize(graph)
        return Fraction(self._terms.get(form, 0), self._den)

    # --------------------------------------------------------------- algebra

    def add(self, other: "TautClass") -> "TautClass":
        if self.ambient != other.ambient:
            raise SignatureError("cannot add classes with different ambient signatures")
        return TautClass._of(self.ambient, *self._plus(other),
                             {**self._graphs, **other._graphs})

    def scale(self, coeff) -> "TautClass":
        return TautClass._of(self.ambient, *self._times(coeff), self._graphs)

    def __repr__(self):
        return (f"TautClass(genus={self.ambient.genus}, "
                f"markings={self.ambient.marking_tuple()}, terms={len(self)})")


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
