"""Forgetful pushforward rules, the two-point identity, and the constants."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import factorial, lcm

import pytest

from stratacalc import pushforward
from stratacalc import (
    InteriorClass,
    InteriorMonomial,
    SignatureError,
    double_factorial,
    faber_constant,
    forget_pushforward,
    generator_monomials,
    interior_to_taut,
    kappa_nonvanishing_report,
    monomial_class,
    pullback_lift,
    taut_to_interior,
    verify_kappa_identity,
)

from oracles import (
    double_factorial_recursive,
    forget_pushforward_reference,
    generator_monomials_reference,
    kappa_psi_integral,
    pullback_lift_reference,
    wk_number,
)


def ic(g, n, *terms):
    return InteriorClass(g, n, terms)


def kappa(*idx):
    return InteriorMonomial(tuple(idx))


def psi(**kw):
    return InteriorMonomial((), {int(k[1:]): v for k, v in kw.items()})


def random_interior(rng, g, n, max_deg=3):
    terms = []
    for _ in range(rng.randint(1, 4)):
        dk = rng.randint(0, max_deg)
        ks = []
        while dk > 0:
            part = rng.randint(1, dk)
            ks.append(part)
            dk -= part
        ps = {m: rng.randint(0, 2) for m in range(1, n + 1)}
        terms.append((InteriorMonomial(tuple(ks), ps),
                      Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
    return InteriorClass(g, n, terms)


# ------------------------------------------------------------ representation

def test_monomial_is_the_named_tuple_of_its_fields():
    """A monomial is the tuple ``(kappa, psi)`` of its normal-form fields: it
    prints, compares, hashes, sorts, copies and pickles as one, and ``_of`` of
    normal-form fields equals the public constructor."""
    assert repr(InteriorMonomial((1,), {2: 1})) == "InteriorMonomial(kappa=(1,), psi=((2, 1),))"
    m = InteriorMonomial([2, 1], {3: 1, 1: 2, 2: 0})
    fields = ((1, 2), ((1, 2), (3, 1)))
    assert tuple(m) == (m.kappa, m.psi) == fields
    assert m == InteriorMonomial._of(*fields) == InteriorMonomial(*fields)
    assert m == InteriorMonomial(psi=fields[1], kappa=fields[0])
    assert type(InteriorMonomial._of(*fields)) is InteriorMonomial
    assert hash(m) == hash(fields) == hash(InteriorMonomial._of(*fields))
    for copied in [copy.copy(m), copy.deepcopy(m)] + [
            pickle.loads(pickle.dumps(m, proto))
            for proto in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert copied == m and type(copied) is InteriorMonomial
    # kappa first: kappa_1 sorts after psi_1, whose kappa part is empty
    assert sorted([kappa(1), psi(p1=1)]) == [psi(p1=1), kappa(1)]
    monos = [mono for k in range(4) for mono in generator_monomials(9, 3, k)]
    random.Random(20261019).shuffle(monos)
    assert sorted(monos) == sorted(monos, key=lambda x: (x.kappa, x.psi))


# -------------------------------------------------------------------- rules

@pytest.mark.parametrize("g,k", [(3, 1), (5, 2), (7, 2), (9, 3)])
def test_pure_psi_power_pushes_to_kappa(g, k):
    x = ic(g, 1, (psi(m1=k + 1), 1))
    assert forget_pushforward(x, 1) == ic(g, 0, (kappa(k), 1))


@pytest.mark.parametrize("g,k", [(3, 1), (6, 2), (8, 2)])
def test_kappa_psi_pushes_with_scalar(g, k):
    x = ic(g, 1, (InteriorMonomial((k,), {1: 1}), 1))
    assert forget_pushforward(x, 1) == ic(g, 0, (kappa(k), 2 * g - 1))


@pytest.mark.parametrize("g,k", [(6, 2), (9, 3), (12, 3)])
def test_mixed_combination_drops_degree(g, k):
    a, b = Fraction(3, 2), Fraction(-5, 7)
    x = ic(g, 1, (kappa(k), a), (psi(m1=k), b))
    assert forget_pushforward(x, 1) == ic(g, 0, (kappa(k - 1), a + b))


def test_passthrough_markings_shift():
    x = ic(4, 2, (InteriorMonomial((), {1: 2, 2: 1}), 1))
    out = forget_pushforward(x, 1)   # forget marking 1; marking 2 becomes 1
    assert out == ic(4, 1, (InteriorMonomial((1,), {1: 1}), 1))


def test_multi_kappa_expansion_with_multiplicity():
    # kappa_1^2 * psi_1 over (g,1): subsets give (k0 + 2)' kappa_1^2 ... exactly
    g = 5
    x = ic(g, 1, (InteriorMonomial((1, 1), {1: 1}), 1))
    out = forget_pushforward(x, 1)
    k0 = 2 * g - 2
    # S empty: b=1 -> k0 * kappa_1^2 ; S one factor (x2): b=2 -> kappa_1 * kappa_1
    # S both: b=3 -> kappa_2
    assert out == ic(g, 0, (kappa(1, 1), k0 + 2), (kappa(2), 1))


def test_pushforward_linearity_and_degree():
    rng = random.Random(8080)
    for _ in range(20):
        g, n = rng.randint(3, 7), rng.randint(1, 3)
        x = random_interior(rng, g, n)
        y = random_interior(rng, g, n)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = rng.randint(1, n)
        lhs = forget_pushforward(x + c * y, p)
        assert lhs == forget_pushforward(x, p) + c * forget_pushforward(y, p)
        deg = x.degree()
        out = forget_pushforward(x, p)
        if isinstance(deg, int) and not out.is_zero:
            assert out.degree() == deg - 1


def test_pullback_pushes_to_zero():
    rng = random.Random(11)
    for _ in range(15):
        g, n = rng.randint(3, 7), rng.randint(1, 3)
        y = random_interior(rng, g, n - 1) if n > 1 else \
            InteriorClass(g, 0, [(kappa(rng.randint(1, 3)), 1)])
        p = rng.randint(1, n)
        lifted = pullback_lift(y, p)
        assert forget_pushforward(lifted, p).is_zero


def test_projection_formula():
    rng = random.Random(22)
    for _ in range(15):
        g, n = rng.randint(3, 7), rng.randint(1, 3)
        y = random_interior(rng, g, n - 1) if n > 1 else \
            InteriorClass(g, 0, [(kappa(rng.randint(1, 3)), Fraction(2, 3))])
        p = rng.randint(1, n)
        lifted = pullback_lift(y, p).mul_psi(p)
        assert forget_pushforward(lifted, p) == (2 * g - 2 + n - 1) * y


def test_pushforward_order_commutes_on_positive_exponents():
    """Forgetting two markings in either order gives the same class whenever
    both markings carry positive psi exponents (the regime where the psi
    pass-through has no point-collision correction, so the formal rules agree
    with the geometric pushforward).  Exercises the kappa expansion created by
    the first step feeding into the second."""
    rng = random.Random(4242)
    for _ in range(60):
        g = rng.randint(3, 8)
        ks = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
        mono = InteriorMonomial(ks, {1: rng.randint(1, 3), 2: rng.randint(1, 3)})
        x = ic(g, 2, (mono, Fraction(rng.randint(1, 5), rng.randint(1, 4))))
        via_21 = forget_pushforward(forget_pushforward(x, 2), 1)
        via_11 = forget_pushforward(forget_pushforward(x, 1), 1)
        assert via_21 == via_11


def test_pushforward_passthrough_is_formal_outside_positive_regime():
    """With no psi power at the forgotten marking, the pass-through rule is a
    formal convention (pushing kappa_1*psi_2 in the two orders differs by an
    interior class coming from the collision divisor); the library's own
    computations never leave the positive regime."""
    x = ic(4, 2, (InteriorMonomial((1,), {2: 1}), 1))
    via_21 = forget_pushforward(forget_pushforward(x, 2), 1)
    via_11 = forget_pushforward(forget_pushforward(x, 1), 1)
    assert via_21 != via_11


def test_pushforward_bad_marking():
    with pytest.raises(SignatureError):
        forget_pushforward(ic(3, 1, (kappa(1), 1)), 2)


def test_pushforward_unstable_target():
    with pytest.raises(SignatureError):
        forget_pushforward(ic(1, 1, (psi(m1=1), 1)), 1)


@pytest.mark.parametrize("g, n", [(-1, 6), (5, -1), (0, 2)])
def test_interior_ambient_must_be_stable(g, n):
    """A negative genus or marking count is refused even where 2g - 2 + n > 0."""
    with pytest.raises(SignatureError):
        InteriorClass(g, n)


# ---------------------------------------------------------------- constants

#: (g, n, k) of the generator grids the expansions are checked on; (9,3,3)
#: has repeated kappa factors (kappa_1^3) and psi on every marking.
_GRIDS = ((3, 2, 1), (6, 3, 2), (9, 3, 3), (9, 2, 3), (7, 4, 2))


def _grid_sample(rng, g, n, k):
    return InteriorClass(g, n, [(mono, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                                for mono in generator_monomials(g, n, k)])


def _times_psi(mono, p):
    psi = mono.psi_dict()
    psi[p] = psi.get(p, 0) + 1
    return InteriorMonomial(mono.kappa, psi)


def _assert_normal(x):
    for mono, coeff in x.items():
        assert InteriorMonomial(mono.kappa, mono.psi) == mono
        assert type(coeff) is Fraction and coeff != 0


#: Primes whose products are the denominators of ``_mixed_sample``.
_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)


def _mixed_sample(rng, g, n, k):
    """Every generator with a coefficient over the product of two primes,
    consecutive ones sharing a prime: the denominators' lcm is large."""
    monos = generator_monomials(g, n, k)
    return InteriorClass(g, n, [
        (mono, Fraction(rng.randint(-999, 999) or 1,
                        _PRIMES[i % 10] * _PRIMES[(i + 1) % 10]))
        for i, mono in enumerate(monos)])


@pytest.mark.parametrize("g,n,k", _GRIDS)
def test_expansions_match_reference(g, n, k):
    """forget_pushforward and pullback_lift build monomials from normal data,
    merge equal kappa subsets by multiplicity and sum integer numerators over
    one denominator; the references expand every index subset through the
    public constructors and sum Fractions.  The mixed sample's denominators
    have an lcm of at least 10^6."""
    rng = random.Random(f"expand/{g}/{n}/{k}")
    x = _grid_sample(rng, g, n, k)
    mixed = _mixed_sample(rng, g, n, k)
    assert lcm(*(c.denominator for _, c in mixed.items())) >= 10 ** 6
    singles = [InteriorClass(g, n, [(mono, 1)]) for mono in generator_monomials(g, n, k)]
    for y in [x, mixed, *singles]:
        for p in range(1, n + 2):
            lifted = pullback_lift(y, p)
            assert lifted == pullback_lift_reference(y, p)
            _assert_normal(lifted)
            if p <= n and 2 * g - 3 + n > 0:
                pushed = forget_pushforward(y, p)
                assert pushed == forget_pushforward_reference(y, p)
                _assert_normal(pushed)
            psi_p = lifted.mul_psi(p)
            raised = [(_times_psi(m, p), c) for m, c in lifted.items()]
            assert psi_p == InteriorClass(g, n + 1, raised)
            _assert_normal(psi_p)


def _per_kappa_sample(rng, g, n, k, per_kappa=6):
    """Up to ``per_kappa`` generators of each kappa part, seeded, as the
    benchmark's push/pull items draw them."""
    by_kappa = {}
    for mono in generator_monomials(g, n, k):
        by_kappa.setdefault(mono.kappa, []).append(mono)
    return InteriorClass(g, n, [
        (mono, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
        for kappa in sorted(by_kappa)
        for mono in rng.sample(by_kappa[kappa], min(per_kappa, len(by_kappa[kappa])))])


@pytest.mark.parametrize("g,n,k", [(30, 6, 6), (24, 8, 5)])
def test_tabulated_rows_match_reference(g, n, k):
    """The rows tabulated per kappa part give the reference's classes at every
    marking, on the benchmark's push/pull ambients; pushing ``psi_p`` times a
    lift also reads the rows where the psi_p power and a moved kappa merge."""
    y = _per_kappa_sample(random.Random(f"rows/{g}/{n}/{k}"), g, n, k)
    for p in range(1, n + 1):
        assert forget_pushforward(y, p) == forget_pushforward_reference(y, p)
    for p in range(1, n + 2):
        lifted = pullback_lift(y, p)
        assert lifted == pullback_lift_reference(y, p)
        raised = lifted.mul_psi(p)
        assert forget_pushforward(raised, p) == forget_pushforward_reference(raised, p)


@pytest.mark.parametrize("g,n,k", [(30, 6, 6), (24, 8, 5)])
def test_mul_psi_matches_public_monomials(g, n, k):
    """``mul_psi`` raises one exponent inside the sorted psi pairs: on the
    benchmark's push/pull lifts, at every marking, it gives the monomials the
    public constructor builds, at markings with psi and without, the top
    marking included."""
    y = _per_kappa_sample(random.Random(f"mul_psi/{g}/{n}/{k}"), g, n, k)
    cases = Counter()
    for p in range(1, n + 2):
        lifted = pullback_lift(y, p)
        for q in range(1, n + 2):
            raised = lifted.mul_psi(q)
            assert raised == InteriorClass(g, n + 1, [(_times_psi(m, q), c)
                                                      for m, c in lifted.items()])
            _assert_normal(raised)
            cases.update((q in m.psi_dict(), q == n + 1) for m in lifted._terms)
    assert len(cases) == 4, cases


@pytest.mark.parametrize("first,second", [((3, 2), (5, 2)), ((5, 2), (3, 2))])
def test_rows_are_keyed_by_the_target_kappa0(first, second):
    """One monomial pushed from two ambients whose targets have different
    kappa_0, from a cold cache in either order: a row read back for the
    second ambient must not carry the first one's kappa_0."""
    pushforward._forget_row.cache_clear()
    mono = InteriorMonomial((1, 1), {1: 1, 2: 2})
    for g, n in (first, second):
        x = ic(g, n, (mono, 1))
        assert forget_pushforward(x, 1) == forget_pushforward_reference(x, 1)


def test_merged_rows_sum_their_splits():
    """Splits reaching the same kappa' add up: kappa_1^2 pushes to
    2 kappa_0 kappa_1 (one factor moved, two ways) plus kappa_1 (both moved)."""
    for (g, n), mono, want in [
            ((3, 1), kappa(1, 1), "9*kappa_1"),
            ((4, 2), InteriorMonomial((1, 1), {2: 1}), "15*kappa_1*psi_1")]:
        pushed = forget_pushforward(ic(g, n, (mono, 1)), 1)
        assert [f"{c}*{m}" for m, c in pushed.items()] == [want]


def _rebuilt(g, n, *signed):
    return InteriorClass(g, n, [(mono, k * c) for k, x in signed
                                for mono, c in x.items()])


def test_interior_algebra_matches_public_rebuild():
    rng = random.Random(1618)
    g, n = 6, 3
    for _ in range(5):
        x = _grid_sample(rng, g, n, 2)
        y = forget_pushforward(pullback_lift(x, 2).mul_psi(2), 1).mul_psi(3)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for got, want in ((x + y, _rebuilt(g, n, (1, x), (1, y))),
                          (x - y, _rebuilt(g, n, (1, x), (-1, y))),
                          (-x, _rebuilt(g, n, (-1, x))),
                          (4 * x, _rebuilt(g, n, (4, x))),
                          (c * y, _rebuilt(g, n, (c, y))),
                          (0 * x, InteriorClass(g, n)),
                          (x - x, InteriorClass(g, n))):
            assert got == want and hash(got) == hash(want)
            assert list(got.items()) == list(want.items())
            assert (got.degree(), repr(got)) == (want.degree(), repr(want))
            _assert_normal(got)
    with pytest.raises(SignatureError):
        x + InteriorClass(g, n + 1)
    with pytest.raises(SignatureError):
        x - InteriorClass(g + 1, n)


def test_double_factorial_matches_recursive_oracle():
    for n in range(-1, 30, 2):
        assert double_factorial(n) == double_factorial_recursive(n)


def test_faber_spot_values():
    assert faber_constant(3, 1) == 5
    assert faber_constant(4, 1) == Fraction(35, 3)
    assert faber_constant(5, 1) == 21
    for g in range(2, 20):
        assert faber_constant(g, 0) == 2 * g - 1


def test_faber_symmetry():
    for g in range(3, 15):
        for l in range(g - 1):
            assert faber_constant(g, l) == faber_constant(g, g - 2 - l)


def test_faber_range_errors():
    with pytest.raises(ValueError):
        faber_constant(3, 2)
    with pytest.raises(ValueError):
        faber_constant(1, 0)


# --------------------------------------------- Witten-Kontsevich integrals

def _integral(x: InteriorClass) -> Fraction:
    """The integral of ``x`` over Mbar_{g,n}, term by term by the oracle."""
    return sum((c * kappa_psi_integral(x.g, x.n, m.kappa, m.psi_dict()) for m, c in x.items()),
               Fraction(0))


def _stable_sweep():
    """(g, n) with g <= 3, 1 <= n <= 4 and Mbar_{g,n-1} stable."""
    return [(g, n) for g in range(4) for n in range(1, 5) if 2 * g - 3 + n > 0]


def test_wk_closed_forms_and_kappa_cube_by_pushforward():
    assert wk_number((1,)) == Fraction(1, 24)
    for g in range(1, 6):
        assert wk_number((3 * g - 2,)) == Fraction(1, 24 ** g * factorial(g))
    assert wk_number((2, 3)) == Fraction(29, 5760)
    assert kappa_psi_integral(1, 1, (1,)) == Fraction(1, 24)
    assert kappa_psi_integral(2, 0, (1, 1, 1)) == Fraction(43, 2880)
    # kappa_1^3 on Mbar_2 pushed forward from psi_1^2 pi^*(kappa_1^2) on Mbar_{2,1},
    # where pi^*kappa_1 = kappa_1 - psi_1
    lift = ic(2, 1, (InteriorMonomial((1, 1), {1: 2}), 1), (InteriorMonomial((1,), {1: 3}), -2),
              (psi(p1=4), 1))
    assert forget_pushforward(lift, 1) == ic(2, 0, (kappa(1, 1, 1), 1))
    assert _integral(lift) == Fraction(43, 2880)


def test_wk_string_and_dilaton_on_a_sweep():
    """String and dilaton for every top-degree psi^J on Mbar_{g,n-1} of the
    sweep, and the dilaton through the pushforward from Mbar_{g,n}:
    forgetting a marking with psi^1 multiplies by kappa_0 = 2g - 3 + n."""
    checked, total = 0, Fraction(0)
    for g, n in _stable_sweep():
        for mono in generator_monomials_reference(g, n - 1, 3 * g - 4 + n):
            if mono.kappa:
                continue
            exps = [mono.psi_dict().get(m, 0) for m in range(1, n)]
            value = wk_number(exps)
            assert wk_number(exps + [0]) == sum(
                (wk_number(exps[:j] + [d - 1] + exps[j + 1:]) for j, d in enumerate(exps) if d),
                Fraction(0))
            assert wk_number(exps + [1]) == (2 * g - 3 + n) * value
            up = ic(g, n, (InteriorMonomial((), mono.psi + ((n, 1),)), 1))
            down = forget_pushforward(up, n)
            assert down == ic(g, n - 1, (mono, 2 * g - 3 + n))
            assert _integral(up) == _integral(down)
            checked += 1
            total += value
    # regression values, no published table: the count and the sum of <tau^J>
    assert (checked, total) == (115, Fraction(3273803, 1451520))


def test_wk_integrals_survive_pushforward_in_the_exact_regime():
    """With psi^b, b >= 1, on the forgotten marking in every term, the
    interior pushforward is the geometric one, so it keeps every integral;
    at most 30 seeded top-degree monomials per (g, n) of the sweep."""
    rng = random.Random(2558)
    checked, total = 0, Fraction(0)
    for g, n in _stable_sweep():
        monos = [m for m in generator_monomials_reference(g, n, 3 * g - 3 + n)
                 if m.psi_dict().get(n, 0) >= 1]
        for mono in rng.sample(monos, min(30, len(monos))):
            up = ic(g, n, (mono, 1))
            value = _integral(up)
            assert _integral(forget_pushforward(up, n)) == value, (g, n, mono)
            checked += 1
            total += value
    # regression values, no published table: the count and the sum of the integrals
    assert (checked, total) == (258, Fraction(2280636157, 25920))


# ------------------------------------------------------------ the identity

def test_kappa_identity_small_range():
    for g in range(3, 9):
        for l in range(g - 1):
            rep = verify_kappa_identity(g, l)
            assert rep.ok, (g, l)


def test_kappa_identity_extremes_match_constant():
    for g in range(3, 9):
        for l in (0, g - 2):
            rep = verify_kappa_identity(g, l)
            assert rep.extreme_constant == faber_constant(g, l) == 2 * g - 1


def test_kappa_identity_symmetric_rhs():
    for g in (5, 6, 7):
        for l in range(1, g - 2):
            assert verify_kappa_identity(g, l).rhs == \
                verify_kappa_identity(g, g - 2 - l).rhs


def test_kappa_nonvanishing_report():
    rep = kappa_nonvanishing_report(3)
    assert [e.constant for e in rep.entries] == [5, 5]
    assert rep.all_nondegenerate
    rep5 = kappa_nonvanishing_report(5)
    assert rep5.entries[1].constant == 21
    for g in range(3, 26):
        assert kappa_nonvanishing_report(g).all_nondegenerate


# ----------------------------------------------------------------- adapters

def test_adapters_roundtrip():
    rng = random.Random(33)
    for _ in range(10):
        g, n = rng.randint(3, 6), rng.randint(0, 3)
        x = random_interior(rng, g, n)
        assert taut_to_interior(interior_to_taut(x)) == x


def test_interior_to_taut_builds_one_class():
    rng = random.Random(34)
    for _ in range(5):
        g, n = rng.randint(3, 6), rng.randint(0, 3)
        x = random_interior(rng, g, n)
        summed = monomial_class(g, n).scale(0)
        for mono, coeff in x.items():
            summed = summed + coeff * monomial_class(g, n, mono.kappa, mono.psi_dict())
        assert interior_to_taut(x) == summed
        assert taut_to_interior(summed) == x
        zero = interior_to_taut(InteriorClass(g, n))
        assert zero.is_zero and zero.ambient == monomial_class(g, n).ambient


def test_adapter_rejects_boundary():
    from stratacalc import AmbientSignature, DecoratedGraph, TautClass
    bridge = DecoratedGraph((1, 1), (), ((0, 0, 1, 0),))
    x = TautClass(AmbientSignature(2, frozenset()), [(bridge, 1)])
    with pytest.raises(SignatureError):
        taut_to_interior(x)
