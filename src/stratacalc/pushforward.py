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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classes import INHOMOGENEOUS, ZERO_DEGREE, TautClass, monomial_class
from .errors import SignatureError

__all__ = [
    "InteriorMonomial",
    "InteriorClass",
    "forget_pushforward",
    "pullback_lift",
    "double_factorial",
    "faber_constant",
    "verify_kappa_identity",
    "KappaIdentityReport",
    "kappa_nonvanishing_report",
    "KappaNonvanishingReport",
    "taut_to_interior",
    "interior_to_taut",
]


@dataclass(frozen=True, order=True)
class InteriorMonomial:
    """A generator kappa^I psi^J: kappa multiset plus per-marking psi exponents."""

    kappa: tuple[int, ...] = ()
    psi: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        kappa = tuple(sorted(int(k) for k in self.kappa))
        if any(k < 1 for k in kappa):
            raise ValueError("kappa indices must be >= 1")
        raw = self.psi.items() if isinstance(self.psi, dict) else self.psi
        pairs = []
        for m, e in raw:
            m, e = int(m), int(e)
            if e < 0:
                raise ValueError("psi exponents must be non-negative")
            if m < 1:
                raise ValueError("markings must be positive")
            if e:
                pairs.append((m, e))
        psi = tuple(sorted(pairs))
        if len({m for m, _ in psi}) != len(psi):
            raise ValueError("repeated marking in psi exponents")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "psi", psi)

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


class InteriorClass:
    """Exact rational combination of interior monomials on a (g, n) ambient."""

    __slots__ = ("g", "n", "_terms")

    def __init__(self, g: int, n: int, terms=()):
        if 2 * g - 2 + n <= 0:
            raise SignatureError(f"unstable interior ambient ({g},{n})")
        merged: dict[InteriorMonomial, Fraction] = {}
        for mono, coeff in terms:
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if any(m > n for m, _ in mono.psi):
                raise SignatureError(
                    f"monomial {mono} uses markings beyond 1..{n}")
            merged[mono] = merged.get(mono, Fraction(0)) + coeff
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms",
                           {m: c for m, c in merged.items() if c != 0})

    def items(self):
        for mono in sorted(self._terms):
            yield mono, self._terms[mono]

    def coefficient_of(self, mono: InteriorMonomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def degree(self):
        if not self._terms:
            return ZERO_DEGREE
        degrees = {m.degree for m in self._terms}
        return degrees.pop() if len(degrees) == 1 else INHOMOGENEOUS

    def add(self, other: "InteriorClass") -> "InteriorClass":
        if (self.g, self.n) != (other.g, other.n):
            raise SignatureError("cannot add interior classes on different ambients")
        return InteriorClass(self.g, self.n,
                             list(self.items()) + list(other.items()))

    def scale(self, coeff) -> "InteriorClass":
        coeff = Fraction(coeff)
        return InteriorClass(self.g, self.n,
                             [(m, coeff * c) for m, c in self.items()])

    def __add__(self, other):
        if not isinstance(other, InteriorClass):
            return NotImplemented
        return self.add(other)

    def __sub__(self, other):
        if not isinstance(other, InteriorClass):
            return NotImplemented
        return self.add(other.scale(-1))

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, coeff):
        return self.scale(coeff)

    def mul_psi(self, marking: int) -> "InteriorClass":
        if not 1 <= marking <= self.n:
            raise SignatureError(f"marking {marking} is not in 1..{self.n}")
        out = []
        for mono, coeff in self.items():
            psi = mono.psi_dict()
            psi[marking] = psi.get(marking, 0) + 1
            out.append((InteriorMonomial(mono.kappa, psi), coeff))
        return InteriorClass(self.g, self.n, out)

    def __eq__(self, other):
        if not isinstance(other, InteriorClass):
            return NotImplemented
        return (self.g, self.n) == (other.g, other.n) and self._terms == other._terms

    def __hash__(self):
        return hash((self.g, self.n, frozenset(self._terms.items())))

    def __repr__(self):
        body = " + ".join(f"({c})*{m}" for m, c in self.items()) or "0"
        return f"InteriorClass(g={self.g}, n={self.n}: {body})"


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


# ------------------------------------------------------------------ constants

def double_factorial(n: int) -> int:
    """n!! for odd n >= -1 (with (-1)!! = 1)."""
    if n < -1 or n % 2 == 0:
        raise ValueError("double_factorial is defined here for odd n >= -1")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def faber_constant(g: int, l: int) -> Fraction:
    """(2g-1)!! / ((2l+1)!! (2g-2l-3)!!), the intersection-number constant."""
    if g < 2 or not 0 <= l <= g - 2:
        raise ValueError("need g >= 2 and 0 <= l <= g - 2")
    return Fraction(double_factorial(2 * g - 1),
                    double_factorial(2 * l + 1) * double_factorial(2 * g - 2 * l - 3))


# --------------------------------------------------------------- verifications

@dataclass(frozen=True)
class KappaIdentityReport:
    """Outcome of re-deriving the two-point pushforward identity."""

    g: int
    l: int
    ok: bool
    lhs: InteriorClass
    rhs: InteriorClass
    extreme_constant: Fraction | None   # set when l in {0, g-2} and lhs == c*kappa_{g-2}


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


@dataclass(frozen=True)
class KappaFactorEntry:
    l: int
    constant: Fraction
    nondegenerate: bool          # constant != 1
    relation: str


@dataclass(frozen=True)
class KappaNonvanishingReport:
    """Nonvanishing of every kappa_l below the socle, conditional on the axiom
    kappa_{g-2} != 0 (cited, not verified here)."""

    g: int
    entries: tuple[KappaFactorEntry, ...]
    all_nondegenerate: bool
    axiom: str = "kappa_{g-2} != 0 in the interior ring (assumed, not verified)"

    def to_obj(self) -> dict:
        return {
            "g": self.g,
            "axiom": self.axiom,
            "all_nondegenerate": self.all_nondegenerate,
            "entries": [
                {"l": e.l, "constant": str(e.constant),
                 "nondegenerate": e.nondegenerate, "relation": e.relation}
                for e in self.entries
            ],
        }


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
    terms = []
    for _, graph, coeff in x.items():
        if graph.n_edges or graph.n_vertices != 1:
            raise SignatureError("interior conversion needs single-vertex, edge-free terms")
        psi = {m: p for _, m, p in graph.legs}
        terms.append((InteriorMonomial(graph.kappa[0], psi), coeff))
    return InteriorClass(x.ambient.genus, n, terms)


def interior_to_taut(x: InteriorClass) -> TautClass:
    """Present an interior class by smooth single-vertex decorated graphs."""
    out = None
    for mono, coeff in x.items():
        term = coeff * monomial_class(x.g, x.n, mono.kappa, mono.psi_dict())
        out = term if out is None else out + term
    if out is None:
        return monomial_class(x.g, x.n).scale(0)
    return out
