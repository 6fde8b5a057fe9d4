"""Forgetful-pushforward calculus on interior kappa/psi monomials.

An interior class lives in the quotient of the full ring by boundary classes,
so only smooth single-vertex data matters: a kappa multiset and per-marking
psi exponents.  Pushing forward along the map that forgets marking ``p`` from
an (g, n) ambient to (g, n-1) follows three exact rules:

* every kappa_a factor first expands as (kappa_a downstairs) + psi_p^a;
* psi factors at markings other than p pass through unchanged (the comparison
  divisor is a boundary class, hence zero in the interior quotient);
* the collected psi_p power b then maps by: b = 0 drops the term, b = 1
  multiplies by the scalar kappa_0 = 2g - 2 + (n - 1) of the target, and
  b >= 2 appends kappa_{b-1} to the kappa multiset.

An index-0 kappa is never stored; whenever the rules would produce one it is
immediately converted to the scalar 2g - 2 + n of the target space.

So the image of kappa^I psi_p^b depends only on (I, b, kappa_0 of the
target): it is one row of ``(kappa', factor)`` pairs, equal kappa' summed,
and the other psi factors pass through.  Each row, and the splits of each
kappa part, is tabulated once per process in a bounded cache.  No factor in a
row cancels to zero: each adds up counts of index subsets (> 0), times kappa_0
(> 0 on a stable target) where b = 1, so a row needs no zero check.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from operator import index

from .classes import (
    AmbientSignature,
    TautClass,
    _LinearCombination,
    _merged,
    _numerators,
    _summed,
)
from .errors import SignatureError
from .graphs import single_vertex


class InteriorMonomial(namedtuple("InteriorMonomial", "kappa psi")):
    """A generator kappa^I psi^J: kappa multiset plus per-marking psi exponents.

    The named tuple ``(kappa, psi)`` of the sorted kappa indices and the
    sorted ``(marking, exponent)`` pairs with a non-zero exponent; monomials
    compare, sort and hash as that tuple."""

    __slots__ = ()

    def __new__(cls, kappa=(), psi=()):
        kappa = tuple(sorted(map(index, kappa)))
        if any(k < 1 for k in kappa):
            raise ValueError("kappa indices must be >= 1")
        raw = psi.items() if isinstance(psi, dict) else psi
        pairs = []
        for m, e in raw:
            m, e = index(m), index(e)
            if e < 0:
                raise ValueError("psi exponents must be non-negative")
            if m < 1:
                raise ValueError("markings must be positive")
            if e:
                pairs.append((m, e))
        psi = tuple(sorted(pairs))
        if len({m for m, _ in psi}) != len(psi):
            raise ValueError("repeated marking in psi exponents")
        return tuple.__new__(cls, (kappa, psi))

    @classmethod
    def _of(cls, kappa: tuple[int, ...], psi: tuple[tuple[int, int], ...]):
        """Monomial from data already in the form ``__new__`` gives."""
        return tuple.__new__(cls, (kappa, psi))

    @property
    def degree(self) -> int:
        return sum(self.kappa) + sum(e for _, e in self.psi)

    def psi_dict(self) -> dict[int, int]:
        return dict(self.psi)

    def __str__(self):
        factors = []
        for k in sorted(set(self.kappa)):
            mult = self.kappa.count(k)
            factors.append(f"kappa_{k}" + (f"^{mult}" if mult > 1 else ""))
        for m, e in self.psi:
            factors.append(f"psi_{m}" + (f"^{e}" if e > 1 else ""))
        return "*".join(factors) if factors else "1"


class InteriorClass(_LinearCombination):
    """Exact rational combination of interior monomials on a (g, n) ambient."""

    __slots__ = ("g", "n")

    def __init__(self, g: int, n: int, terms=()):
        g, n = index(g), index(n)
        if g < 0 or n < 0:
            raise SignatureError(f"malformed interior ambient ({g},{n}): g and n must be >= 0")
        if 2 * g - 2 + n <= 0:
            raise SignatureError(f"unstable interior ambient ({g},{n})")
        pairs, den = _numerators(terms)
        for mono, _ in pairs:
            if any(m > n for m, _ in mono.psi):
                raise SignatureError(f"monomial {mono} uses markings beyond 1..{n}")
        self.g, self.n = g, n
        self._terms, self._den = _summed(den, pairs)

    @classmethod
    def _of(cls, g: int, n: int, terms: dict, den: int) -> "InteriorClass":
        """Class of already valid terms, in lowest terms, on a stable ambient."""
        out = object.__new__(cls)
        out.g, out.n, out._terms, out._den = g, n, terms, den
        return out

    def _space(self) -> tuple:
        return (self.g, self.n)

    def _degrees(self):
        return (mono.degree for mono in self._terms)

    def items(self):
        for mono in sorted(self._terms):
            yield mono, Fraction(self._terms[mono], self._den)

    def coefficient_of(self, mono: InteriorMonomial) -> Fraction:
        return Fraction(self._terms.get(mono, 0), self._den)

    def add(self, other: "InteriorClass") -> "InteriorClass":
        if (self.g, self.n) != (other.g, other.n):
            raise SignatureError("cannot add interior classes on different ambients")
        return InteriorClass._of(self.g, self.n, *self._plus(other))

    def scale(self, coeff) -> "InteriorClass":
        return InteriorClass._of(self.g, self.n, *self._times(coeff))

    def mul_psi(self, marking: int) -> "InteriorClass":
        if not 1 <= marking <= self.n:
            raise SignatureError(f"marking {marking} is not in 1..{self.n}")
        # distinct monomials stay distinct, so nothing merges
        terms = {}
        for mono, num in self._terms.items():
            psi = mono.psi_dict()
            psi[marking] = psi.get(marking, 0) + 1
            terms[InteriorMonomial._of(mono.kappa, tuple(sorted(psi.items())))] = num
        return InteriorClass._of(self.g, self.n, terms, self._den)

    def __repr__(self):
        body = " + ".join(f"({c})*{m}" for m, c in self.items()) or "0"
        return f"InteriorClass(g={self.g}, n={self.n}: {body})"


@lru_cache(maxsize=1 << 12)
def _splits(kappa: tuple[int, ...]) -> tuple:
    """The splits ``(kept, moved, count, ways)`` of one kappa part: for each
    sub-multiset taken out, the kept factors (sorted), the index sum and
    number of the factors taken, and the number of index subsets taking them."""
    distinct = sorted(Counter(kappa).items())
    return tuple(
        (tuple(k for (k, mult), t in zip(distinct, picks) for _ in range(mult - t)),
         sum(k * t for (k, _), t in zip(distinct, picks)),
         sum(picks),
         prod(comb(mult, t) for (_, mult), t in zip(distinct, picks)))
        for picks in itertools.product(*(range(mult + 1) for _, mult in distinct)))


@lru_cache(maxsize=1 << 14)
def _forget_row(kappa: tuple[int, ...], base: int, kappa0: int) -> tuple:
    """The row of kappa^I psi_p^b, I = ``kappa`` and b = ``base``, forgetting
    p onto a target whose scalar kappa_0 is ``kappa0``: its image as
    ``(kappa', factor)`` pairs with distinct kappa'."""
    row = {}
    for kept, moved, _, ways in _splits(kappa):
        b = base + moved
        if b == 1:
            row[kept] = row.get(kept, 0) + ways * kappa0
        elif b:
            out = tuple(sorted(kept + (b - 1,)))
            row[out] = row.get(out, 0) + ways
    return tuple(row.items())


def forget_pushforward(x: InteriorClass, p: int) -> InteriorClass:
    """Push ``x`` forward along the map forgetting marking ``p``.

    Markings above ``p`` shift down by one, so the target carries markings
    ``1..n-1``.
    """
    if not 1 <= p <= x.n:
        raise SignatureError(f"marking {p} is not in 1..{x.n}")
    g, n = x.g, x.n
    if 2 * g - 2 + (n - 1) <= 0:
        raise SignatureError(f"target ambient ({g},{n - 1}) is unstable")
    kappa0 = 2 * g - 2 + (n - 1)

    def terms():
        for mono, num in x._terms.items():
            base, passthrough = 0, []
            for m, e in mono.psi:
                if m < p:
                    passthrough.append((m, e))
                elif m > p:
                    passthrough.append((m - 1, e))
                else:
                    base = e
            passthrough = tuple(passthrough)
            for kappa, factor in _forget_row(mono.kappa, base, kappa0):
                yield InteriorMonomial._of(kappa, passthrough), num * factor

    return InteriorClass._of(g, n - 1, *_summed(x._den, terms()))


def pullback_lift(y: InteriorClass, p: int) -> InteriorClass:
    """Exact pullback of ``y`` along the map forgetting marking ``p``.

    Inserts the new marking ``p`` (markings >= p shift up) and substitutes
    every kappa_a by kappa_a - psi_p^a, expanded exactly.  Composing with
    ``forget_pushforward`` at ``p`` gives zero, and multiplying by psi_p first
    gives the scalar kappa_0 of the source of ``y`` (projection formula).
    """
    g, n = y.g, y.n + 1
    if not 1 <= p <= n:
        raise SignatureError(f"marking {p} is not in 1..{n}")

    def terms():
        for mono, num in y._terms.items():
            below = tuple((m, e) for m, e in mono.psi if m < p)
            above = tuple((m + 1, e) for m, e in mono.psi if m >= p)
            for kept, moved, count, ways in _splits(mono.kappa):
                psi = below + ((p, moved),) + above if moved else below + above
                yield InteriorMonomial._of(kept, psi), -num * ways if count % 2 else num * ways

    return InteriorClass._of(g, n, *_summed(y._den, terms()))


# ------------------------------------------------------------------ constants

def double_factorial(n: int) -> int:
    """n!! for odd n >= -1 (with (-1)!! = 1)."""
    if n < -1 or n % 2 == 0:
        raise ValueError("double_factorial is defined here for odd n >= -1")
    return prod(range(n, 1, -2))


def faber_constant(g: int, l: int) -> Fraction:
    """(2g-1)!! / ((2l+1)!! (2g-2l-3)!!), the intersection-number constant."""
    if g < 2 or not 0 <= l <= g - 2:
        raise ValueError("need g >= 2 and 0 <= l <= g - 2")
    return Fraction(double_factorial(2 * g - 1),
                    double_factorial(2 * l + 1) * double_factorial(2 * g - 2 * l - 3))


# --------------------------------------------------------------- verifications

class KappaIdentityReport(namedtuple("KappaIdentityReport",
                                     "g l ok lhs rhs extreme_constant")):
    """Outcome of re-deriving the two-point pushforward identity.

    ``extreme_constant`` is set when l is 0 or g-2 and lhs == c*kappa_{g-2}."""

    __slots__ = ()


def verify_kappa_identity(g: int, l: int) -> KappaIdentityReport:
    """Check, by exact double pushforward, that

        push(psi_1^(l+1) psi_2^(g-l-1)) = kappa_l kappa_{g-l-2} + kappa_{g-2},

    where an index-0 kappa factor means the scalar 2g-2 of the unmarked target.
    """
    if g < 3 or not 0 <= l <= g - 2:
        raise ValueError("need g >= 3 and 0 <= l <= g - 2")
    top = InteriorClass(g, 2, [(InteriorMonomial((), {1: l + 1, 2: g - l - 1}), 1)])
    lhs = forget_pushforward(forget_pushforward(top, 2), 1)
    if l == 0 or l == g - 2:
        rhs = InteriorClass(g, 0, [(InteriorMonomial((g - 2,)), 2 * g - 2 + 1)])
    else:
        rhs = InteriorClass(g, 0, [(InteriorMonomial((l, g - l - 2)), 1),
                                   (InteriorMonomial((g - 2,)), 1)])
    extreme = None
    if l in (0, g - 2):
        c = faber_constant(g, l)
        if lhs == InteriorClass(g, 0, [(InteriorMonomial((g - 2,)), c)]):
            extreme = c
    return KappaIdentityReport(g, l, lhs == rhs, lhs, rhs, extreme)


class KappaFactorEntry(namedtuple("KappaFactorEntry", "l constant nondegenerate relation")):
    """One l: the constant, whether it differs from 1, and the relation."""

    __slots__ = ()


class KappaNonvanishingReport(namedtuple(
        "KappaNonvanishingReport", "g entries all_nondegenerate axiom",
        defaults=("kappa_{g-2} != 0 in the interior ring (assumed, not verified)",))):
    """Nonvanishing of every kappa_l below the socle, conditional on the axiom
    kappa_{g-2} != 0 (cited, not verified here)."""

    __slots__ = ()


def kappa_nonvanishing_report(g: int) -> KappaNonvanishingReport:
    """For each 0 <= l <= g-2, record c = faber_constant(g, l), check c != 1,
    and derive (c-1) kappa_{g-2} = kappa_l kappa_{g-l-2}; the conclusion
    kappa_l != 0 is conditional on the socle axiom."""
    if g < 3:
        raise ValueError("need g >= 3")
    entries = []
    for l in range(g - 1):
        c = faber_constant(g, l)
        entries.append(KappaFactorEntry(
            l, c, c != 1,
            f"({c} - 1)*kappa_{g - 2} = kappa_{l}*kappa_{g - l - 2}"))
    return KappaNonvanishingReport(g, tuple(entries),
                                   all(e.nondegenerate for e in entries))


# ------------------------------------------------------------------- adapters

def taut_to_interior(x: TautClass) -> InteriorClass:
    """View a class of smooth single-vertex graphs as an interior class.

    Requires the ambient markings to be 1..n and every term to be a
    single-vertex, edge-free graph.
    """
    marks = x.ambient.marking_tuple()
    n = len(marks)
    if marks != tuple(range(1, n + 1)):
        raise SignatureError("interior classes need contiguous markings 1..n")
    terms = {}
    for form, num in x._terms.items():
        graph = x._graphs[form]
        if graph.n_edges or graph.n_vertices != 1:
            raise SignatureError("interior conversion needs single-vertex, edge-free terms")
        terms[InteriorMonomial._of(graph.kappa[0],
                                   tuple([(m, p) for _, m, p in graph.legs if p]))] = num
    # a term's graph makes the ambient stable, so only the zero class checks it
    return (InteriorClass._of(x.ambient.genus, n, terms, x._den) if terms
            else InteriorClass(x.ambient.genus, n))


def interior_to_taut(x: InteriorClass) -> TautClass:
    """Present an interior class by smooth single-vertex decorated graphs."""
    unmarked = dict.fromkeys(range(1, x.n + 1), 0)
    pairs = ((single_vertex(x.g, {**unmarked, **dict(mono.psi)}.items(), mono.kappa), num)
             for mono, num in x._terms.items())
    return TautClass._of(*_merged(AmbientSignature(x.g, unmarked), pairs, x._den, check=False))
