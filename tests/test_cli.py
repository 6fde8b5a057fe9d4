"""Command-line contract: files, round trips, exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from stratacalc import DecoratedGraph, cli, single_vertex, verifier
from stratacalc.cli import main
from stratacalc.serialize import (
    class_from_obj,
    class_to_obj,
    graph_from_obj,
    graph_to_obj,
    interior_from_obj,
    interior_to_obj,
    load_file,
)

FIXTURES = Path(__file__).parent / "fixtures"


def run(*argv):
    return main([str(a) for a in argv])


# ------------------------------------------------------------------ enumerate

def test_enumerate_writes_two_graphs(tmp_path):
    out = tmp_path / "g2.json"
    assert run("enumerate", "--g", 2, "--n", 0, "--max-edges", 1, "--out", out) == 0
    obj = load_file(out)
    assert obj["count"] == 2 and len(obj["graphs"]) == 2
    for g in obj["graphs"]:
        graph_from_obj(g)   # every emitted graph re-parses


def test_enumerate_smooth_only(tmp_path):
    out = tmp_path / "p03.json"
    assert run("enumerate", "--g", 0, "--n", 3, "--max-edges", 0, "--out", out) == 0
    assert load_file(out)["count"] == 1


def test_enumerate_min_edges_flag(tmp_path):
    out = tmp_path / "all.json"
    assert run("enumerate", "--g", 2, "--n", 0, "--max-edges", 1,
               "--min-edges", 0, "--out", out) == 0
    assert load_file(out)["count"] == 3


def test_enumerate_bad_args():
    assert run("enumerate", "--g", -1, "--n", 0, "--max-edges", 1) == 2
    assert run("enumerate", "--g", 2) == 2          # missing required flags


def test_enumerate_size_guard(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STRATA_MAX_GRAPHS", "1")
    assert run("enumerate", "--g", 3, "--n", 0, "--max-edges", 2,
               "--out", tmp_path / "x.json") == 3
    assert capsys.readouterr().err == (
        "size guard exceeded: enumeration of (g=3, n=0, max_edges=2) "
        "exceeded STRATA_MAX_GRAPHS=1\n")


@pytest.mark.parametrize("raw", ["abc", "-5"])
@pytest.mark.parametrize("argv", [("enumerate", "--g", 2, "--n", 0, "--max-edges", 1),
                                  ("verify", "--g", 6, "--n", 0, "--k", 1)])
def test_malformed_graph_cap_exits_2(monkeypatch, capsys, raw, argv):
    monkeypatch.setenv("STRATA_MAX_GRAPHS", raw)
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"STRATA_MAX_GRAPHS must be a non-negative integer, got {raw!r}" in captured.err


# ------------------------------------------------------------------------ r1

def test_r1_worked_value(tmp_path):
    out = tmp_path / "lowered.json"
    assert run("r1", "--in", FIXTURES / "fundamental_class_genus2.json",
               "--out", out) == 0
    got = class_from_obj(load_file(out))
    expected = class_from_obj(load_file(FIXTURES / "lowered_class_genus1.json"))
    assert got == expected


def test_r1_zero_class(tmp_path):
    src = tmp_path / "zero.json"
    src.write_text(json.dumps({
        "ambient": {"genus": 2, "markings": [], "max_components": 1},
        "terms": []}))
    out = tmp_path / "out.json"
    assert run("r1", "--in", src, "--out", out) == 0
    assert load_file(out)["terms"] == []


def test_r1_mismatched_ambient_exits_2(tmp_path, capsys):
    """A term off the ambient exits 2, also with coefficient 0."""
    zero = load_file(FIXTURES / "mismatched_ambient.json")
    zero["terms"][0]["coeff"] = "0"
    (tmp_path / "zero.json").write_text(json.dumps(zero))
    for path in (FIXTURES / "mismatched_ambient.json", tmp_path / "zero.json"):
        assert run("r1", "--in", path) == 2
        assert capsys.readouterr() == (
            "", "invalid input: graph has arithmetic genus 2, ambient requires 3\n")


# the Petersen graph: ten genus-0 trivalent vertices, fifteen edges, genus 6
PETERSEN = DecoratedGraph((0,) * 10, (), tuple(
    (a, 0, b, 0) for a, b in [(v, (v + 1) % 5) for v in range(5)]
    + [(v, v + 5) for v in range(5)] + [(5 + v, 5 + (v + 2) % 5) for v in range(5)]))


@pytest.mark.parametrize("first,code,message", [
    (single_vertex(5), 2, "invalid input: graph has arithmetic genus 5, ambient requires 6\n"),
    (PETERSEN, 3, "size guard exceeded: "),
], ids=["off-ambient-first", "petersen-first"])
def test_r1_reports_the_first_faulty_term(tmp_path, capsys, first, code, message):
    """Each term of a class file is checked against the ambient when it is
    merged, before the next term's canonical-form search: a genus-5 term
    ahead of the Petersen graph exits 2, and the Petersen graph ahead of it
    exits 3.  The two orders tell the checks apart only while the search
    refuses the Petersen graph, whose one refinement cell of 10 vertices
    exceeds ``graphs._ORDERING_GUARD``."""
    second = PETERSEN if first is not PETERSEN else single_vertex(5)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "ambient": {"genus": 6, "markings": [], "max_components": 1},
        "terms": [{"coeff": "1", "graph": graph_to_obj(g)} for g in (first, second)]}))
    assert run("r1", "--in", path, "--out", tmp_path / "x.json") == code
    assert capsys.readouterr().err.startswith(message)


def test_r1_guard_refusal_names_the_graph(tmp_path, capsys):
    """A class whose term has too many vertex orders for the canonical-form
    search exits 3, and the refusal prints the graph and both counts."""
    star = DecoratedGraph((0,) + (1,) * 10, (), tuple((0, 0, v, 0) for v in range(1, 11)))
    path = tmp_path / "star.json"
    path.write_text(json.dumps({
        "ambient": {"genus": 10, "markings": [], "max_components": 1},
        "terms": [{"coeff": "1", "graph": graph_to_obj(star)}]}))
    assert run("r1", "--in", path) == 3
    assert capsys.readouterr() == ("", (
        "size guard exceeded: canonicalization search space too large: 3628800 "
        f"vertex orders, over the 1000000 allowed, for {star!r}\n"))


@pytest.mark.parametrize("flags", [("--level", "1"), ("--level", "2"), ("--experimental",)])
def test_r1_refuses_the_retired_level_flags(tmp_path, capsys, flags):
    """``r1`` applies the one operator, at level 1; the flags that chose a
    level are gone, and argparse refuses them as usage errors before any
    file is read or written."""
    out = tmp_path / "x.json"
    assert run("r1", "--in", FIXTURES / "fundamental_class_genus2.json",
               *flags, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: stratacalc r1 ")
    assert f"error: unrecognized arguments: {' '.join(flags)}\n" in err
    assert not out.exists()


def test_an_unknown_flag_gets_its_subcommands_usage(tmp_path, capsys):
    """Leftover arguments are reported with the usage of the subcommand they
    were given to, not the top-level one, and nothing is written."""
    out = tmp_path / "x.json"
    assert run("enumerate", "--g", 2, "--n", 0, "--max-edges", 1, "--bogus",
               "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: stratacalc enumerate ")
    assert err.endswith("stratacalc enumerate: error: unrecognized arguments: --bogus\n")
    assert not out.exists()


# ---------------------------------------------------------------------- push

def test_push_kappa_psi(tmp_path):
    out = tmp_path / "pushed.json"
    assert run("push", "--in", FIXTURES / "kappa1_psi1_interior_3_1.json",
               "--forget", 1, "--out", out) == 0
    obj = load_file(out)
    assert obj["g"] == 3 and obj["n"] == 0
    assert obj["terms"] == [{"coeff": "5", "kappa": [1], "psi": {}}]


def test_push_bad_marking_exits_2():
    assert run("push", "--in", FIXTURES / "kappa1_psi1_interior_3_1.json",
               "--forget", 2) == 2


# --------------------------------------------------------------------- faber

def test_faber_prints_exact_value(capsys):
    assert run("faber", "--g", 3, "--l", 1) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert run("faber", "--g", 4, "--l", 1) == 0
    assert capsys.readouterr().out.strip() == "35/3"
    assert run("faber", "--g", 3, "--l", 5) == 2


# -------------------------------------------------------------------- verify

def test_verify_passes_and_writes_report(tmp_path):
    report = tmp_path / "report.json"
    assert run("verify", "--g", 6, "--n", 0, "--k", 1,
               "--report", report) == 0
    obj = load_file(report)
    assert obj["passed"] is True
    assert obj["instance"] == {"g": 6, "n": 0, "k": 1}


def test_verify_text_output(capsys, tmp_path):
    assert run("verify", "--g", 6, "--n", 0, "--k", 1, "--text",
               "--report", tmp_path / "r.json") == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out


def test_verify_corrupt_witness_table_exits_1(tmp_path):
    report = tmp_path / "report.json"
    code = run("verify", "--g", 6, "--n", 0, "--k", 1,
               "--witness-table", FIXTURES / "corrupt_witness_table.json",
               "--report", report)
    assert code == 1
    assert load_file(report)["passed"] is False


def test_verify_refuses_a_witness_table_entry_for_no_generator(tmp_path, capsys):
    table = load_file(FIXTURES / "corrupt_witness_table.json")
    table["overrides"][0]["monomial"] = {"kappa": [2], "psi": {}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    assert run("verify", "--g", 6, "--n", 0, "--k", 1, "--witness-table", path) == 2
    assert capsys.readouterr().err == (
        "error: witness table names no generator of (g=6, n=0, k=1): kappa_2\n")


@pytest.mark.parametrize("argv, content", [
    (("verify", "--g", 6, "--n", 0, "--k", 1, "--witness-table"), []),
    (("verify", "--g", 6, "--n", 0, "--k", 1, "--witness-table"), {"overrides": 5}),
    (("verify", "--g", 6, "--n", 0, "--k", 1, "--witness-table"),
     {"overrides": [{"monomial": [1], "graph": {}}]}),
    (("push", "--forget", 1, "--in"), []),
    (("push", "--forget", 1, "--in"),
     {"g": 2, "n": 1, "terms": [{"coeff": "1", "kappa": [1], "psi": [1]}]}),
    (("r1", "--in"), {"ambient": [], "terms": []}),
    # non-integer numbers are refused, not truncated
    (("push", "--forget", 1, "--in"),
     {"g": 2, "n": 1, "terms": [{"coeff": "1", "kappa": [1.9], "psi": {}}]}),
    (("r1", "--in"),
     {"ambient": {"genus": 2.9, "markings": [], "max_components": 1},
      "terms": [{"coeff": "1", "graph": {"vertices": [{"genus": 2.9, "kappa": []}]}}]}),
    (("r1", "--in"),
     {"ambient": {"genus": 2, "markings": [], "max_components": 1},
      "terms": [{"coeff": "1", "graph": {"vertices": [{"genus": 2.0, "kappa": []}]}}]}),
    (("r1", "--in"),
     {"ambient": {"genus": 2, "markings": [], "max_components": True},
      "terms": [{"coeff": "1", "graph": {"vertices": [{"genus": 2, "kappa": []}]}}]}),
    (("verify", "--g", 6, "--n", 0, "--k", 1, "--witness-table"),
     {"overrides": [{"monomial": {"kappa": "12"},
                     "graph": {"vertices": [{"genus": 6, "kappa": [1]}]}}]}),
    # one monomial listed twice
    (("verify", "--g", 6, "--n", 0, "--k", 1, "--witness-table"),
     {"overrides": 2 * load_file(FIXTURES / "corrupt_witness_table.json")["overrides"]}),
    # a coefficient is a "P/Q" string or a JSON integer, not a float or a bool
    (("r1", "--in"),
     {"ambient": {"genus": 2, "markings": [], "max_components": 1},
      "terms": [{"coeff": 1.5, "graph": {"vertices": [{"genus": 2, "kappa": []}]}}]}),
    (("push", "--forget", 1, "--in"),
     {"g": 2, "n": 1, "terms": [{"coeff": 1.5, "kappa": [1], "psi": {}}]}),
    (("push", "--forget", 1, "--in"),
     {"g": 2, "n": 1, "terms": [{"coeff": True, "kappa": [1], "psi": {}}]}),
    # a negative genus, although 2g - 2 + n > 0
    (("push", "--forget", 1, "--in"),
     {"g": -1, "n": 6, "terms": [{"coeff": "1", "kappa": [1], "psi": {}}]}),
    # an ambient marking below 1, which no graph may carry
    (("r1", "--in"),
     {"ambient": {"genus": 2, "markings": [0], "max_components": 1}, "terms": []}),
    (("r1", "--in"),
     {"ambient": {"genus": 2, "markings": [-5, 3], "max_components": 1}, "terms": []}),
    # a repeated ambient marking is refused, not merged
    (("r1", "--in"),
     {"ambient": {"genus": 2, "markings": [1, 1], "max_components": 1}, "terms": []}),
    (("r1", "--in"),
     {"ambient": {"genus": 2, "markings": [1, "i", "i"], "max_components": 1}, "terms": []}),
])
def test_malformed_input_file_exits_2(tmp_path, capsys, argv, content):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    assert run(*argv, path) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: malformed ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("r1", "--in"), ("push", "--forget", 1, "--in"),
                                  ("verify", "--g", 6, "--n", 0, "--k", 1, "--witness-table")])
def test_input_file_that_is_not_json_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "in.json"
    path.write_text("not json\n")
    assert run(*argv, path) == 2
    assert capsys.readouterr().err == "error: Expecting value: line 1 column 1 (char 0)\n"


BAD_PSI_KEYS = ["1_0", " 2", "+1", "01", "\u0661", "0", "-1", "1.0", ""]


@pytest.mark.parametrize("key", BAD_PSI_KEYS)
def test_push_refuses_a_psi_key_not_written_as_str_of_a_marking(tmp_path, capsys, key):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(
        {"g": 3, "n": 2, "terms": [{"coeff": "1", "kappa": [], "psi": {key: 1}}]}))
    assert run("push", "--forget", 1, "--in", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: malformed interior class object: ")
    assert repr(key) in err


@pytest.mark.parametrize("key", BAD_PSI_KEYS)
def test_witness_table_refuses_a_psi_key_not_written_as_str_of_a_marking(
        tmp_path, capsys, key):
    table = load_file(FIXTURES / "corrupt_witness_table.json")
    table["overrides"][0]["monomial"] = {"kappa": [], "psi": {key: 1}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    assert run("verify", "--g", 6, "--n", 1, "--k", 1, "--witness-table", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: malformed witness table: ")
    assert repr(key) in err


def test_push_refuses_two_keys_for_one_marking(tmp_path, capsys):
    # "01" would otherwise collapse onto "1" and drop psi_1
    path = tmp_path / "in.json"
    path.write_text(json.dumps(
        {"g": 3, "n": 2, "terms": [{"coeff": "1", "kappa": [], "psi": {"1": 1, "01": 2}}]}))
    assert run("push", "--forget", 1, "--in", path) == 2
    assert capsys.readouterr().out == ""


def _one_edge_class(ends):
    # genus-1 vertex 0 with leg 1 (slot 0), joined to a genus-1 vertex 1
    return {"ambient": {"genus": 2, "markings": [1], "max_components": 1},
            "terms": [{"coeff": "1", "graph": {
                "vertices": [{"genus": 1, "kappa": []}, {"genus": 1, "kappa": []}],
                "legs": [{"vertex": 0, "marking": 1, "psi": 0}],
                "edges": [{"ends": ends, "psi": [0, 0]}]}}]}


@pytest.mark.parametrize("ends, message", [
    ([[0, 1], [1, 0]], None),                               # the slots graph_to_obj writes
    ([[0, 0], [1, 0]], "edge-end slot 0 at vertex 0"),      # leg 1's slot
    ([[0, -7], [1, 0]], "edge-end slot -7 at vertex 0"),
    ([[0, 2], [1, 0]], "edge-end slot 2 at vertex 0"),      # past the valence
    ([[0, 1], [1, 1]], "edge-end slot 1 at vertex 1"),
])
def test_r1_checks_edge_end_slots(tmp_path, capsys, ends, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_one_edge_class(ends)))
    code = run("r1", "--in", path, "--out", tmp_path / "out.json")
    if message is None:
        assert code == 0
    else:
        assert code == 2
        assert message in capsys.readouterr().err


def test_r1_refuses_a_self_loop_on_a_leg_slot(tmp_path, capsys):
    obj = _one_edge_class([[0, 0], [0, -7]])
    graph = obj["terms"][0]["graph"]
    graph["vertices"] = [{"genus": 1, "kappa": []}]
    obj["ambient"]["genus"] = 2
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    assert run("r1", "--in", path) == 2
    assert "edge-end slot 0 at vertex 0" in capsys.readouterr().err
    graph["edges"][0]["ends"] = [[0, 1], [0, 1]]
    path.write_text(json.dumps(obj))
    assert run("r1", "--in", path) == 2
    assert "slot 1 at vertex 0 used twice" in capsys.readouterr().err


# sha256 of the ``verify --report`` bytes of the instances where the operator
# streams skip the most candidates
REPORT_DIGESTS = {
    (6, 4, 2): "48eb8c7aa348d3bc5fba468cbe7da6352b79cd61fb6b9480df81261dcfff2d80",
    (6, 8, 1): "73976fd3c9aea2b83972168c4755dbdcd2318b71d10e16cd55d3995d5e3bf6e2",
    (9, 2, 3): "42324e41829aa6eba1cafa15977fa371fe8fca5ca29b13e10458c0bafd8f2237",
}


@pytest.mark.parametrize("g,n,k", sorted(REPORT_DIGESTS))
def test_verify_report_bytes_are_pinned(tmp_path, g, n, k):
    report = tmp_path / "report.json"
    assert run("verify", "--g", g, "--n", n, "--k", k, "--report", report) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_DIGESTS[g, n, k]


# sha256 of CLI outputs: the largest enumerate output (5.2 MB), the smooth
# graph with every degeneration, one r1 image and one pushforward
PUSH_INPUT = {"g": 5, "n": 3, "terms": [
    {"coeff": "3/2", "kappa": [1, 2], "psi": {"1": 1, "3": 2}},
    {"coeff": "-1/7", "kappa": [], "psi": {"2": 3, "3": 1}},
    {"coeff": "5", "kappa": [3], "psi": {}}]}
OUTPUT_DIGESTS = {
    ("enumerate", "--g", "12", "--n", "2", "--max-edges", "3"):
        "6667aed95ffded95129342c49206a18869c2435d7ef419bd4da9f38facd773c6",
    ("enumerate", "--g", "2", "--n", "0", "--max-edges", "3", "--min-edges", "0"):
        "0c17e90f207260c34f12a5d77b5dc5e8a5746da002a0838f841aa923b267b094",
    ("r1", "--in", str(FIXTURES / "mixed_class_genus6.json")):
        "4c2ad19998ca4919ec99caecd3adeeaa338d99e0736d4bf530c8f5311b44a5a7",
    ("push", "--in", "push.json", "--forget", "3"):
        "cef48e82f0618a59a5085bf8c141240caf12f6a9661a96519aa2832c419a31a3",
}


@pytest.mark.parametrize("argv", sorted(OUTPUT_DIGESTS))
def test_cli_output_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "push.json").write_text(json.dumps(PUSH_INPUT))
    assert run(*argv, "--out", "out.json") == 0
    data = (tmp_path / "out.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == OUTPUT_DIGESTS[argv]
    if len(data) < 10 ** 5:   # the same bytes on stdout
        capsys.readouterr()
        assert run(*argv) == 0
        assert capsys.readouterr().out.encode("ascii") == data


def test_verify_out_of_range_exits_2(tmp_path, capsys):
    assert run("verify", "--g", 6, "--n", 0, "--k", 3) == 2
    assert run("verify", "--g", 6, "--n", -1, "--k", 1) == 2
    assert capsys.readouterr().err.endswith("error: n must be non-negative, got -1\n")


def test_verify_guard_exits_3(monkeypatch, capsys):
    assert run("verify", "--g", 31, "--n", 0, "--k", 1) == 3
    monkeypatch.setenv("STRATA_MAX_GRAPHS", "1")
    assert run("verify", "--g", 6, "--n", 0, "--k", 1) == 3
    assert capsys.readouterr().err.endswith(
        "size guard exceeded: enumeration of (g=6, n=0, max_edges=1) "
        "exceeded STRATA_MAX_GRAPHS=1\n")


@pytest.mark.parametrize("work,argv", [
    ("enumerate_stable_graphs", ("enumerate", "--g", 2, "--n", 5, "--max-edges", 2, "--out")),
    ("invariance_operator", ("r1", "--in", FIXTURES / "fundamental_class_genus2.json", "--out")),
    ("forget_pushforward", ("push", "--in", FIXTURES / "kappa1_psi1_interior_3_1.json",
                            "--forget", 1, "--out")),
    ("verify_witness_independence", ("verify", "--g", 9, "--n", 3, "--k", 3, "--report")),
], ids=["enumerate", "r1", "push", "verify"])
def test_refuses_an_unwritable_output_before_working(monkeypatch, capsys, tmp_path,
                                                     work, argv):
    """The output path of each writing command is checked after its input is
    read and before its work runs."""
    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was checked")

    monkeypatch.setattr(cli, work, never)
    path = tmp_path / "missing" / "r.json"
    assert run(*argv, path) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{path}'\n")


def test_verify_guard_exit_leaves_the_report_path_as_it_was(tmp_path):
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    fresh = tmp_path / "fresh.json"
    for path in (kept, fresh):
        assert run("verify", "--g", 31, "--n", 0, "--k", 1, "--report", path) == 3
    assert kept.read_text() == "earlier report\n"
    assert not fresh.exists()


def test_verify_recursive_flag(tmp_path):
    report = tmp_path / "rec.json"
    assert run("verify", "--g", 6, "--n", 0, "--k", 1, "--recursive",
               "--report", report) == 0
    obj = load_file(report)
    assert {"g": 5, "n": 1, "k": 1, "passed": True} in obj["sub_instances"]
    assert "not_checked" not in obj   # written only when something was skipped


@pytest.mark.parametrize("limit,value,reason", [("_RECURSION_BUDGET", 1, "budget"),
                                                ("_MAX_N", 2, "guard")])
def test_verify_recursive_lists_what_it_did_not_check(monkeypatch, tmp_path, capsys,
                                                      limit, value, reason):
    monkeypatch.setattr(verifier, limit, value)
    report = tmp_path / "rec.json"
    assert run("verify", "--g", 6, "--n", 2, "--k", 1, "--recursive",
               "--report", report, "--text") == 1
    obj = load_file(report)
    assert obj["not_checked"] == [{"g": 5, "n": 3, "k": 1, "reason": reason}]
    assert obj["sub_instances"] == [] and obj["passed"] is False
    text = capsys.readouterr().out
    assert f"sub-instance (g=5, n=3, k=1): not checked ({reason})\n" in text
    assert text.endswith("overall: FAIL\n")


# --------------------------------------------------------------- round trips

def test_all_class_fixtures_roundtrip():
    for path in sorted(FIXTURES.glob("*.json")):
        obj = load_file(path)
        if "ambient" in obj and path.name != "mismatched_ambient.json":
            x = class_from_obj(obj)
            assert class_from_obj(class_to_obj(x)) == x
        elif "terms" in obj and "g" in obj:
            x = interior_from_obj(obj)
            assert interior_from_obj(interior_to_obj(x)) == x


def test_emitted_files_reparse_to_equal_values(tmp_path):
    out = tmp_path / "lowered.json"
    run("r1", "--in", FIXTURES / "fundamental_class_genus2.json", "--out", out)
    x = class_from_obj(load_file(out))
    assert class_from_obj(class_to_obj(x)) == x


def test_outputs_identical_across_processes(tmp_path):
    """The emitted bytes do not depend on hash randomization."""
    import os
    import subprocess
    import sys

    blobs = []
    for seed in ("0", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        path = tmp_path / f"out{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "stratacalc.cli", "verify",
             "--g", "6", "--n", "1", "--k", "1", "--report", str(path)],
            env=env, capture_output=True)
        assert proc.returncode == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
