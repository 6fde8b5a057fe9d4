"""Formal class arithmetic, degree bookkeeping, psi multiplication, JSON."""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from stratacalc import (
    INHOMOGENEOUS,
    ZERO_DEGREE,
    AmbientSignature,
    DecoratedGraph,
    InteriorClass,
    InteriorMonomial,
    InvalidGraphError,
    SignatureError,
    TautClass,
    forget_pushforward,
    generator_monomials,
    invariance_operator,
    monomial_class,
    pullback_lift,
    single_vertex,
)
from stratacalc.classes import _summed
from stratacalc.serialize import (
    class_from_obj,
    class_to_obj,
    graph_from_obj,
    graph_to_obj,
)

from oracles import random_decorated_graph


def random_class(rng, graph_pool, ambient):
    terms = []
    for g in graph_pool:
        if rng.random() < 0.7:
            terms.append((g, Fraction(rng.randint(-6, 6), rng.randint(1, 5))))
    return TautClass(ambient, terms)


def ambient_pool(rng):
    """A shared ambient plus several random graphs living on it."""
    base = random_decorated_graph(rng, max_vertices=3, max_marks=2)
    from stratacalc import arithmetic_genus
    amb = AmbientSignature(arithmetic_genus(base), frozenset(base.markings()), 2)
    pool = [base]
    # harvest more graphs on the same ambient by redecorating the base
    for _ in range(6):
        g = random_decorated_graph(rng, max_vertices=3, max_marks=2)
        if (arithmetic_genus(g) == amb.genus
                and g.markings() == amb.marking_tuple()):
            pool.append(g)
    return amb, pool


# ------------------------------------------------------------- construction

def test_monomial_class_kappa1():
    x = monomial_class(3, 0, kappa=(1,))
    assert len(x) == 1 and x.degree() == 1


def test_monomial_class_kappa_psi():
    x = monomial_class(6, 1, kappa=(1,), psi={1: 1})
    assert x.degree() == 2


def test_monomial_class_unstable():
    with pytest.raises(InvalidGraphError):
        monomial_class(0, 2)


def test_signature_mismatch_rejected():
    """A term off its ambient is refused whatever its coefficient, 0 included."""
    amb = AmbientSignature(2, frozenset())
    for coeff in (1, 0):
        with pytest.raises(SignatureError, match="ambient requires 2"):
            TautClass(amb, [(single_vertex(3), coeff)])
        with pytest.raises(SignatureError, match="differ from ambient"):
            TautClass(amb, [(single_vertex(2, [(1, 0)]), coeff)])
        with pytest.raises(SignatureError, match=r"beyond 1\.\.1"):
            InteriorClass(2, 1, [(InteriorMonomial((), {5: 1}), coeff)])


def test_first_faulty_term_raises_first():
    """Each term is validated, searched and checked before the next one: the
    first faulty term in the given order decides which error is raised."""
    amb = AmbientSignature(2, frozenset({1, 2}))
    off_ambient = single_vertex(3, [1, 2])
    invalid = single_vertex(0, [1, 2])
    with pytest.raises(SignatureError):
        TautClass(amb, [(off_ambient, 1), (invalid, 1)])
    with pytest.raises(InvalidGraphError):
        TautClass(amb, [(invalid, 1), (off_ambient, 1)])


@pytest.mark.parametrize("build", [
    lambda: DecoratedGraph((2.7,), ((0, 1.9, 0),)),
    lambda: DecoratedGraph((1, 1), (), ((0, 0, 1, 0.5),)),
    lambda: DecoratedGraph((2,), (), (), ((1.0,),)),
    lambda: single_vertex(2.5, [1]),
    lambda: InteriorMonomial((1.5,), {1: 2.9}),
    lambda: InteriorMonomial((), {1.0: 2}),
    lambda: AmbientSignature(2, frozenset({1.5})),
    lambda: AmbientSignature(2.7, frozenset({1, 2})),
    lambda: AmbientSignature(2, frozenset({1}), 1.0),
    lambda: InteriorClass(2.5, 1),
    lambda: InteriorClass(2, 1.0),
    lambda: TautClass(AmbientSignature(2, ()), [(single_vertex(2), 0.1)]),
    lambda: monomial_class(2, 0).scale(0.1),
    lambda: 0.1 * monomial_class(2, 0),
    lambda: InteriorClass(2, 1, [(InteriorMonomial((1,)), 0.1)]),
], ids=["graph-genus-marking", "graph-edge-psi", "graph-kappa", "single-vertex-genus",
        "monomial-kappa-psi", "monomial-marking", "ambient-marking", "ambient-genus",
        "ambient-max-components", "interior-genus", "interior-n", "class-coefficient",
        "class-scale", "class-rmul", "interior-coefficient"])
def test_constructors_refuse_non_integers(build):
    """A float is refused, not truncated to an integer or rounded to the
    nearest fraction."""
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build", [
    lambda: AmbientSignature(2, {0}),
    lambda: AmbientSignature(2, {-5, 3, 4, 5}),
    lambda: AmbientSignature(2, {1}, 3),
    lambda: InteriorMonomial((0,)),
    lambda: InteriorMonomial((), {0: 1}),
    lambda: InteriorMonomial((), {1: -1}),
    lambda: InteriorMonomial((), [(1, 1), (1, 2)]),
], ids=["ambient-marking-0", "ambient-marking-negative", "ambient-max-components",
        "monomial-kappa-0", "monomial-marking-0", "monomial-psi-negative",
        "monomial-repeated-marking"])
def test_constructors_refuse_out_of_range_values(build):
    """A value outside its range is refused with ``ValueError``; ambient genus
    is not bounded below, since the genus-0 operator output lives on genus -1."""
    with pytest.raises(ValueError):
        build()
    AmbientSignature(-1, {1, 2})


def test_ambient_is_the_named_tuple_of_its_fields():
    """An ambient is the tuple ``(genus, markings, max_components)`` of its
    fields: it prints, compares, hashes, copies and pickles as one, and its
    constructor converts and refuses as before."""
    amb = AmbientSignature(3, [2, 1], 2)
    assert repr(amb) == \
        "AmbientSignature(genus=3, markings=frozenset({1, 2}), max_components=2)"
    fields = (3, frozenset({1, 2}), 2)
    assert tuple(amb) == (amb.genus, amb.markings, amb.max_components) == fields
    assert amb == fields and hash(amb) == hash(fields)
    assert amb == AmbientSignature(genus=3, markings={1, 2}, max_components=2)
    assert amb.marking_tuple() == (1, 2) and AmbientSignature(3, ()).max_components == 1
    for copied in [copy.copy(amb), copy.deepcopy(amb)] + [
            pickle.loads(pickle.dumps(amb, proto))
            for proto in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert copied == amb and type(copied) is AmbientSignature
    with pytest.raises(ValueError, match=r"^max_components must be 1 or 2$"):
        AmbientSignature(2, {1}, 3)
    with pytest.raises(ValueError, match=r"^markings must be >= 1, got \[-5, 0\]$"):
        AmbientSignature(2, {0, -5, 3})
    with pytest.raises(TypeError):
        AmbientSignature(2.0, {1})


def test_integer_numerators_are_exact():
    """Sums over one denominator are brought to lowest terms, and cancelled
    keys are dropped."""
    terms, den = _summed(6, [("a", 1), ("b", 3), ("a", -1), ("b", 1)])
    assert Fraction(terms["b"], den) == Fraction(2, 3) and terms == {"b": 2} and den == 3
    assert all(type(num) is int for num in terms.values())
    assert _summed(6, [("a", 1)], [("a", -1)]) == ({}, 1)


# ------------------------------------------------------------------ algebra

def test_additive_inverse_and_zero_scale():
    x = monomial_class(3, 0, kappa=(1,))
    assert (x + (-1) * x).is_zero
    assert (0 * x).is_zero


def test_exact_coefficient_merge():
    g = single_vertex(3, kappa=(1,))
    amb = AmbientSignature(3, frozenset())
    x = TautClass(amb, [(g, Fraction(1, 2))])
    y = TautClass(amb, [(g, Fraction(1, 3))])
    z = x + y
    assert z.coefficient_of(g) == Fraction(5, 6)


def test_add_requires_matching_ambient():
    with pytest.raises(SignatureError):
        monomial_class(3, 0) + monomial_class(4, 0)


def test_algebra_properties_random():
    rng = random.Random(31415)
    for _ in range(15):
        amb, pool = ambient_pool(rng)
        x = random_class(rng, pool, amb)
        y = random_class(rng, pool, amb)
        z = random_class(rng, pool, amb)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert c * (x + y) == c * x + c * y
        for g in pool:
            assert (c * x).coefficient_of(g) == c * x.coefficient_of(g)
            assert (x + y).coefficient_of(g) == \
                x.coefficient_of(g) + y.coefficient_of(g)


def _rebuilt(ambient, *signed):
    """``sum k * x`` over ``(k, x)`` in ``signed``, rebuilt term by term through
    the public constructor."""
    return TautClass(ambient, [(graph, k * c) for k, x in signed
                               for _, graph, c in x.items()])


def _assert_same_class(got, want):
    assert got == want and hash(got) == hash(want)
    assert list(got.items()) == list(want.items())
    assert all(type(c) is Fraction for _, _, c in got.items())
    assert (len(got), got.degree(), repr(got)) == (len(want), want.degree(), repr(want))


def test_term_algebra_matches_public_rebuild():
    """add, scale, sub, neg and rmul merge stored terms; the result must equal
    a rebuild that canonicalizes and checks every term again."""
    rng = random.Random(2718)
    gens = [monomial_class(6, 2, kappa, psi)
            for kappa, psi in (((1,), {}), ((), {1: 1}), ((), {2: 1}), ((2,), {}))]
    images = [invariance_operator(m) for m in gens]
    amb = images[0].ambient

    def draw():
        x = TautClass(amb)
        for image in rng.sample(images, rng.randint(1, len(images))):
            x = x + Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * image
        return x

    for _ in range(6):
        x, y = draw(), draw()
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        _assert_same_class(x + y, _rebuilt(amb, (1, x), (1, y)))
        _assert_same_class(x - y, _rebuilt(amb, (1, x), (-1, y)))
        _assert_same_class(-x, _rebuilt(amb, (-1, x)))
        _assert_same_class(3 * x, _rebuilt(amb, (3, x)))
        _assert_same_class(c * x, _rebuilt(amb, (c, x)))
        _assert_same_class(0 * x, TautClass(amb))
        _assert_same_class(x - x, TautClass(amb))
        _assert_same_class((x + y) - y, x)
    other = invariance_operator(monomial_class(6, 1, kappa=(1,)))
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(SignatureError):
            op(x, other)


def _assert_lowest_terms(x):
    """The stored pair is the unique one: non-zero integer numerators over
    one positive denominator sharing no factor with all of them, and
    ``({}, 1)`` for the zero class."""
    assert type(x._den) is int and x._den > 0
    assert all(type(num) is int and num for num in x._terms.values())
    assert gcd(x._den, *x._terms.values()) == 1
    if x.is_zero:
        assert (x._terms, x._den) == ({}, 1)


def _scalars(rng):
    """0, +-1, integers and p/q that share factors with the denominators."""
    return (0, 1, -1, 2, -3, Fraction(1, 3), Fraction(-4, 9),
            Fraction(rng.randint(-12, 12), rng.randint(1, 12)))


def _assert_same_pair(got, want):
    assert got == want and hash(got) == hash(want)
    assert (got._terms, got._den) == (want._terms, want._den)


def test_taut_classes_are_stored_in_lowest_terms():
    """Every route to a class stores it in lowest terms, so equal classes
    built by different routes have equal pairs and equal hashes."""
    rng = random.Random(1618)
    gens = [monomial_class(6, 2, kappa, psi)
            for kappa, psi in (((1,), {}), ((), {1: 1}), ((), {2: 1}), ((2,), {}))]
    amb = gens[0].ambient

    def draw():
        return TautClass(amb, [(graph, Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
                               for m in rng.sample(gens, rng.randint(1, len(gens)))
                               for _, graph, _ in m.items()])

    for _ in range(12):
        x, y = draw(), draw()
        results = [x, y, x + y, x - y, -x, x - x, TautClass(amb),
                   invariance_operator(x), invariance_operator(x - x)]
        results += [c * r for c in _scalars(rng) for r in (x, x + y)]
        for r in results:
            _assert_lowest_terms(r)
        _assert_same_pair((x + y) - y, x)
        _assert_same_pair(x.scale(3).scale(Fraction(1, 3)), x)
        _assert_same_pair(TautClass(amb, [(graph, c) for _, graph, c in x.items()]), x)
        for k in _scalars(rng):
            _assert_same_pair(k * x, TautClass(amb, [(graph, k * c)
                                                     for _, graph, c in x.items()]))
        image = invariance_operator(x)
        rebuilt = TautClass(image.ambient, [(graph, c) for _, graph, c in image.items()])
        _assert_same_pair(rebuilt, image)
        _assert_same_pair(x - x, TautClass(amb))


def test_interior_classes_are_stored_in_lowest_terms():
    """The same for interior classes, through mul_psi, the pushforward and
    the pullback, whose integer factors create common factors to take out."""
    rng = random.Random(2718)
    g, n = 6, 3
    monos = generator_monomials(g, n, 2)

    def draw():
        return InteriorClass(g, n, [(mono, Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
                                    for mono in rng.sample(monos, 5)])

    for _ in range(12):
        x, y = draw(), draw()
        p = rng.randint(1, n)
        results = [x, y, x + y, x - y, -x, x - x, x.mul_psi(p),
                   forget_pushforward(x, p), pullback_lift(x, p),
                   forget_pushforward(pullback_lift(x, p), p)]
        results += [c * r for c in _scalars(rng) for r in (x, x + y)]
        for r in results:
            _assert_lowest_terms(r)
        assert forget_pushforward(pullback_lift(x, p), p).is_zero
        _assert_same_pair((x + y) - y, x)
        _assert_same_pair(x.scale(3).scale(Fraction(1, 3)), x)
        _assert_same_pair(InteriorClass(g, n, x.items()), x)
        for k in _scalars(rng):
            _assert_same_pair(k * x, InteriorClass(g, n, [(m, k * c) for m, c in x.items()]))
        _assert_same_pair(x - x, InteriorClass(g, n))


def test_coefficient_of_absent_graph():
    x = monomial_class(3, 0, kappa=(1,))
    assert x.coefficient_of(single_vertex(3, kappa=(1, 1))) == 0


# ------------------------------------------------------------------- degree

def test_degree_examples():
    assert monomial_class(7, 0, kappa=(2,)).degree() == 2
    one_edge = DecoratedGraph((1, 1), ((0, 1, 1),), ((0, 0, 1, 0),))
    amb = AmbientSignature(2, frozenset({1}))
    assert TautClass(amb, [(one_edge, 1)]).degree() == 2
    mixed = monomial_class(6, 1, kappa=(1,)) + monomial_class(6, 1, psi={1: 2})
    assert mixed.degree() == INHOMOGENEOUS
    assert TautClass(amb).degree() == ZERO_DEGREE


# --------------------------------------------------------------------- JSON

def test_graph_json_roundtrip():
    rng = random.Random(2718)
    for _ in range(25):
        g = random_decorated_graph(rng)
        assert graph_from_obj(graph_to_obj(g)) == g


def test_class_json_roundtrip():
    rng = random.Random(161803)
    for _ in range(10):
        amb, pool = ambient_pool(rng)
        x = random_class(rng, pool, amb)
        assert class_from_obj(class_to_obj(x)) == x


def test_class_json_roundtrip_zero():
    amb = AmbientSignature(2, frozenset({1, 2}), 2)
    assert class_from_obj(class_to_obj(TautClass(amb))) == TautClass(amb)


def test_graph_json_accepts_ij_tokens():
    obj = {
        "vertices": [{"genus": 5, "kappa": [1]}, {"genus": 1, "kappa": []}],
        "legs": [{"vertex": 0, "marking": "i", "psi": 0},
                 {"vertex": 1, "marking": "j", "psi": 0}],
        "edges": [],
    }
    g = graph_from_obj(obj)
    assert g.markings() == (1, 2)


def test_graph_json_rejects_garbage():
    with pytest.raises(InvalidGraphError):
        graph_from_obj({"vertices": [{"genus": 0}], "legs": [], "edges": []})
    with pytest.raises(InvalidGraphError):
        graph_from_obj({"legs": []})


def test_graph_json_rejects_reused_slot():
    obj = {
        "vertices": [{"genus": 1, "kappa": []}, {"genus": 1, "kappa": []}],
        "legs": [],
        "edges": [{"ends": [[0, 0], [1, 0]], "psi": [0, 0]},
                  {"ends": [[0, 0], [1, 1]], "psi": [0, 0]}],
    }
    with pytest.raises(InvalidGraphError):
        graph_from_obj(obj)
