"""The public surface: README's contract, and the names the benchmark binds."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import stratacalc
from stratacalc import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_readme_cites_existing_tests():
    """Every ``tests/<file>.py::<test>`` that README names is a test function
    defined at the top level of that file."""
    cited = re.findall(r"tests/(\w+\.py)::(\w+)", README)
    assert len(cited) >= 30
    for filename, name in cited:
        path = ROOT / "tests" / filename
        assert path.is_file(), filename
        defined = {node.name for node in _parsed(path).body
                   if isinstance(node, ast.FunctionDef)}
        assert name.startswith("test_") and name in defined, f"{filename}::{name}"


def test_readme_names_the_public_api():
    """README's list of public names is ``stratacalc.__all__``, in order, and
    each name resolves."""
    section = README.split("## Public names", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`(\w+)`", section)
    assert listed == stratacalc.__all__
    for name in stratacalc.__all__:
        assert hasattr(stratacalc, name), name


def test_readme_synopsis_matches_the_parser():
    """For each subcommand, the ``--flags`` of README's ``## Commands``
    synopsis are the options of ``cli.build_parser()``, ``-h`` aside; a
    synopsis line indented under another continues it."""
    block = README.split("## Commands", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.splitlines():
        if line.startswith("stratacalc "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(
            re.findall(r"--[\w-]+", line.split("#", 1)[0]))
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    parsed = {name: {opt for action in parser._actions for opt in action.option_strings
                     if opt not in ("-h", "--help")}
              for name, parser in sub.choices.items()}
    assert documented == parsed


def _resolves(module: str, name: str) -> bool:
    return (hasattr(importlib.import_module(module), name)
            or importlib.util.find_spec(f"{module}.{name}") is not None)


def test_benchmark_bindings_resolve():
    """What ``perfbench`` binds exists: every name its worker imports from
    the package or the oracles (read, not imported), and every traced span's
    function, or method defined on its own class."""
    checked = set()
    for node in ast.walk(_parsed(ROOT / "perfbench" / "worker.py")):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] in ("stratacalc", "oracles")):
            for alias in node.names:
                assert _resolves(node.module, alias.name), f"{node.module}.{alias.name}"
                checked.add(f"{node.module}.{alias.name}")
    assert {"stratacalc.taut_to_interior", "stratacalc.cli",
            "oracles.degeneration_strata"} <= checked

    spans = next(ast.literal_eval(node.value)
                 for node in _parsed(ROOT / "perfbench" / "tracer.py").body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SPANS" for t in node.targets))
    assert spans
    for module, path in spans.values():
        home = importlib.import_module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(home, cls_name)), f"{module}.{path}"
        else:
            assert callable(getattr(home, path)), f"{module}.{path}"
    # the tracer calls the class constructor it wraps as init(obj, ambient, terms)
    init = stratacalc.TautClass.__dict__["__init__"]
    assert list(inspect.signature(init).parameters) == ["self", "ambient", "terms"]


def test_import_generates_no_code():
    """Importing the package and its CLI, in a fresh interpreter without
    ``site``, loads no code generator: neither ``dataclasses`` nor the
    ``inspect`` it imports."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import stratacalc, stratacalc.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe, str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_src_modules_use_every_import():
    """Every name that a module of the package imports is used in it, as a
    name or the root of an attribute; ``__init__`` re-exports its imports,
    and ``from __future__`` imports are directives."""
    modules = sorted((ROOT / "src" / "stratacalc").glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        if path.name == "__init__.py":
            continue
        tree = _parsed(path)
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))
