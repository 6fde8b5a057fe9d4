"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance (everything
is exact rational arithmetic; the only tolerances are wall-clock budgets) and
prints a single PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from stratacalc import (
    AmbientSignature,
    TautClass,
    arithmetic_genus,
    canonical_form,
    component_count,
    disjoint_union,
    faber_constant,
    fundamental_class,
    invariance_operator,
    monomial_class,
    single_vertex,
    solve_coefficient_system,
    verify_kappa_identity,
)
from stratacalc.cli import main
from stratacalc.serialize import (
    class_from_obj,
    class_to_obj,
    interior_from_obj,
    interior_to_obj,
    load_file,
)

from oracles import iso_bruteforce, random_decorated_graph, relabeled

FIXTURES = Path(__file__).parent / "fixtures"


def report(name, ok, elapsed=None):
    suffix = f"  ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, name


def test_criterion_1_kappa_identity():
    """Exact two-point pushforward identity for 3 <= g <= 12, all l."""
    t0 = time.monotonic()
    ok = True
    for g in range(3, 13):
        for l in range(g - 1):
            rep = verify_kappa_identity(g, l)
            ok = ok and rep.ok
            if l in (0, g - 2):
                ok = ok and rep.extreme_constant == faber_constant(g, l)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report("criterion 1: kappa identity, g=3..12, all l, extremes match the "
           "double-factorial constant", ok, elapsed)


def test_criterion_2_constant_scan():
    """faber_constant != 1 for 3 <= g <= 60 plus the spot values."""
    t0 = time.monotonic()
    ok = faber_constant(3, 1) == 5
    ok = ok and faber_constant(4, 1) == Fraction(35, 3)
    for g in range(3, 61):
        ok = ok and faber_constant(g, 0) == 2 * g - 1
        for l in range(g - 1):
            ok = ok and faber_constant(g, l) != 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report("criterion 2: nonvanishing constant scan, g=3..60, spot values", ok, elapsed)


def test_criterion_3_linear_system():
    """The 2x2 system is derived from the pushforward pipeline, not hard-coded."""
    t0 = time.monotonic()
    ok = True
    for g in range(3, 13):
        rep = solve_coefficient_system(g, 1)
        ok = ok and rep.matrix == ((2 * g - 1, 1), (1, 1))
        ok = ok and rep.determinant == 2 * g - 2 and rep.passed
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report("criterion 3: derived coefficient matrix [[2g-1,1],[1,1]], "
           "det=2g-2, g=3..12", ok, elapsed)


def test_criterion_4_multi_marking_factor():
    """Pushing sum a_l psi_l^k * psi_n reproduces the factor 2g-2+n-1."""
    t0 = time.monotonic()
    ok = True
    for g, n in ((6, 2), (6, 3), (9, 2)):
        rep = solve_coefficient_system(g, n)
        ok = ok and rep.passed and rep.factor == 2 * g - 2 + n - 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report("criterion 4: multi-marking pushforward factor (2g-2+n-1) at "
           "(6,2), (6,3), (9,2)", ok, elapsed)


def test_criterion_5_witness_instances(tmp_path):
    """Witness verification passes (exit 0) on all listed instances, with a
    nonzero self-coefficient and all-zero cross coefficients in each report."""
    t0 = time.monotonic()
    ok = True
    for g, n, k in ((6, 0, 1), (7, 0, 1), (6, 1, 1), (6, 2, 1),
                    (6, 0, 2), (6, 1, 2)):
        path = tmp_path / f"r{g}{n}{k}.json"
        code = main(["verify", "--g", str(g), "--n", str(n), "--k", str(k),
                     "--report", str(path)])
        ok = ok and code == 0
        obj = json.loads(path.read_text())
        for entry in obj["entries"]:
            if entry["branch"] != "witness-split":
                continue
            ok = ok and Fraction(entry["self_coefficient"]) != 0
            ok = ok and all(Fraction(c) == 0
                            for c in entry["generator_coefficients"].values())
            ok = ok and all(Fraction(c) == 0
                            for c in entry["boundary_coefficients"])
            ok = ok and len(entry["boundary_coefficients"]) == \
                len(obj["boundary_generators"])
    t_stretch = time.monotonic()
    code = main(["verify", "--g", "9", "--n", "0", "--k", "2",
                 "--report", str(tmp_path / "r902.json")])
    stretch = time.monotonic() - t_stretch
    ok = ok and code == 0 and stretch < 600.0
    report(f"criterion 5: witness verification exit 0 on six instances, "
           f"stretch (9,0,2) in {stretch:.2f}s", ok, time.monotonic() - t0)


def test_criterion_6_operator_invariant_suite():
    """>=200 random graphs: genus drop, <=2 components, marking extension,
    stability, degree preservation; exact linearity on 3-term combos."""
    t0 = time.monotonic()
    rng = random.Random(60006)
    ok = True
    for _ in range(200):
        graph = random_decorated_graph(rng, genus_range=(1, 6))
        g0 = arithmetic_genus(graph)
        marks = graph.markings()
        amb = AmbientSignature(g0, frozenset(marks), 1)
        x = TautClass(amb, [(graph, 1)])
        out = invariance_operator(x)
        expected_marks = tuple(range(1, len(marks) + 3))
        for _, term, _ in out.items():
            ok = ok and term.validate() == []
            ok = ok and arithmetic_genus(term) == g0 - 1
            ok = ok and component_count(term) <= 2
            ok = ok and term.markings() == expected_marks
        if not out.is_zero:
            ok = ok and out.degree() == x.degree()
        if not ok:
            break
    for _ in range(10):
        g = rng.randint(3, 6)
        parts = [monomial_class(g, 0, kappa=(1,)),
                 monomial_class(g, 0, kappa=(1, 1)),
                 monomial_class(g, 0, kappa=(2,))]
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        combo = coeffs[0] * parts[0] + coeffs[1] * parts[1] + coeffs[2] * parts[2]
        lhs = invariance_operator(combo)
        rhs = (coeffs[0] * invariance_operator(parts[0])
               + coeffs[1] * invariance_operator(parts[1])
               + coeffs[2] * invariance_operator(parts[2]))
        ok = ok and lhs == rhs
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report("criterion 6: operator invariant suite on 200 random graphs "
           "plus exact linearity", ok, elapsed)


def test_criterion_7_canonicalization_fuzz():
    """1000 random relabelings stay in one class; oracle agreement on 200 pairs."""
    t0 = time.monotonic()
    rng = random.Random(70007)
    ok = True
    relabelings = 0
    while relabelings < 1000:
        graph = random_decorated_graph(rng, max_vertices=5)
        base = canonical_form(graph)
        for _ in range(20):
            perm = list(range(graph.n_vertices))
            rng.shuffle(perm)
            ok = ok and canonical_form(relabeled(graph, perm)) == base
            relabelings += 1
        if not ok:
            break
    pairs = 0
    while pairs < 200:
        a = random_decorated_graph(rng, max_vertices=3, max_marks=2)
        if rng.random() < 0.5:
            perm = list(range(a.n_vertices))
            rng.shuffle(perm)
            b = relabeled(a, perm)
        else:
            b = random_decorated_graph(rng, max_vertices=3, max_marks=2)
        ok = ok and (canonical_form(a) == canonical_form(b)) == iso_bruteforce(a, b)
        pairs += 1
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report(f"criterion 7: canonical form constant over {relabelings} relabelings, "
           f"oracle agreement on {pairs} pairs", ok, elapsed)


def test_criterion_8_worked_operator_value():
    """Operator on the genus-2 fundamental class equals the two-term value."""
    out = invariance_operator(fundamental_class(2, 0))
    amb = AmbientSignature(1, frozenset({1, 2}), 2)
    joined = single_vertex(1, [(1, 0), (2, 0)])
    split_pair = disjoint_union(single_vertex(1, [(1, 0)]),
                                single_vertex(1, [(2, 0)]))
    expected = TautClass(amb, [(joined, Fraction(-1, 2)),
                               (split_pair, Fraction(-1, 2))])
    report("criterion 8: worked operator value on the genus-2 fundamental class",
           out == expected)


def test_criterion_9_cli_roundtrip_and_exit_codes(tmp_path):
    """serialize -> parse identity on fixtures; corrupted witness table -> exit 1."""
    ok = True
    for path in sorted(FIXTURES.glob("*.json")):
        obj = load_file(path)
        if path.name in ("mismatched_ambient.json", "corrupt_witness_table.json"):
            continue
        if "ambient" in obj:
            x = class_from_obj(obj)
            ok = ok and class_from_obj(class_to_obj(x)) == x
        elif "g" in obj and "terms" in obj:
            x = interior_from_obj(obj)
            ok = ok and interior_from_obj(interior_to_obj(x)) == x
    code = main(["verify", "--g", "6", "--n", "0", "--k", "1",
                 "--witness-table", str(FIXTURES / "corrupt_witness_table.json"),
                 "--report", str(tmp_path / "bad.json")])
    ok = ok and code == 1
    obj = json.loads((tmp_path / "bad.json").read_text())
    ok = ok and obj["passed"] is False
    report("criterion 9: JSON round trips on all fixtures; corrupted witness "
           "table exits 1 without crashing", ok)
