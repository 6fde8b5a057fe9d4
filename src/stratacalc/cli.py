"""Command-line front end.

Exit codes: 0 success / verification pass, 1 verification failure,
2 usage or parse/validation error, 3 desk-scale resource guard exceeded.
All numeric output is exact fraction strings; nothing here is randomized.
"""

from __future__ import annotations

import os
import sys

import argparse

from .errors import InvalidGraphError, SignatureError, SizeGuardError
from .graphs import enumerate_stable_graphs
from .invariance import invariance_operator
from .pushforward import faber_constant, forget_pushforward
from .serialize import (
    class_from_obj,
    class_to_obj,
    dump_file,
    dumps,
    graph_from_obj,
    interior_from_obj,
    interior_to_obj,
    load_file,
    monomial_from_obj,
)
from .verifier import verify_witness_independence


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stratacalc",
        description="Exact calculus on decorated stable dual graphs.")
    sub = p.add_subparsers(dest="command", required=True)

    e = sub.add_parser("enumerate", help="enumerate stable dual graphs")
    e.add_argument("--g", type=int, required=True)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--max-edges", type=int, required=True)
    e.add_argument("--min-edges", type=int, default=None)
    e.add_argument("--out", default=None, help="output path (default: stdout)")
    e.set_defaults(run=_cmd_enumerate)

    r = sub.add_parser("r1", help="apply the genus-lowering operator to a class file")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--out", default=None)
    r.set_defaults(run=_cmd_r1)

    pu = sub.add_parser("push", help="forgetful pushforward of an interior class file")
    pu.add_argument("--in", dest="infile", required=True)
    pu.add_argument("--forget", type=int, required=True, help="marking to forget")
    pu.add_argument("--out", default=None)
    pu.set_defaults(run=_cmd_push)

    f = sub.add_parser("faber", help="print the double-factorial intersection constant")
    f.add_argument("--g", type=int, required=True)
    f.add_argument("--l", type=int, required=True)
    f.set_defaults(run=_cmd_faber)

    v = sub.add_parser("verify", help="replay the independence case analysis for (g,n,k)")
    v.add_argument("--g", type=int, required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--report", default=None, help="write the JSON report here")
    v.add_argument("--text", action="store_true", help="print the text table")
    v.add_argument("--recursive", action="store_true",
                   help="re-verify named induction sub-instances")
    v.add_argument("--witness-table", default=None,
                   help="JSON file overriding witness graphs per monomial "
                        "(diagnostic / fault-injection hook)")
    v.set_defaults(run=_cmd_verify)
    for parser in sub.choices.values():
        parser.set_defaults(parser=parser)   # leftover arguments get its usage
    return p


def _emit(obj, path) -> None:
    if path:
        dump_file(obj, path)
    else:
        sys.stdout.write(dumps(obj))


def _cmd_enumerate(args) -> int:
    _check_writable(args.out)
    graphs = enumerate_stable_graphs(args.g, args.n, args.max_edges,
                                     min_edges=args.min_edges)
    _emit({
        "g": args.g, "n": args.n,
        "max_edges": args.max_edges,
        "min_edges": args.min_edges if args.min_edges is not None
        else min(1, args.max_edges),
        "count": len(graphs),
        "graphs": graphs,   # dumps writes each graph from its fields
    }, args.out)
    return 0


def _cmd_r1(args) -> int:
    cls = class_from_obj(load_file(args.infile))
    _check_writable(args.out)
    _emit(class_to_obj(invariance_operator(cls)), args.out)
    return 0


def _cmd_push(args) -> int:
    cls = interior_from_obj(load_file(args.infile))
    _check_writable(args.out)
    _emit(interior_to_obj(forget_pushforward(cls, args.forget)), args.out)
    return 0


def _cmd_faber(args) -> int:
    print(faber_constant(args.g, args.l))
    return 0


def _load_witness_table(path):
    table = {}
    obj = load_file(path)
    try:
        for entry in obj.get("overrides", ()):
            mono = monomial_from_obj(entry["monomial"])
            if mono in table:
                raise ValueError(f"monomial {mono} is listed twice")
            table[mono] = graph_from_obj(entry["graph"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidGraphError(f"malformed witness table: {exc}") from None
    return table


def _check_writable(path) -> None:
    """Raise now the ``OSError`` that writing ``path`` later would: open it to
    append, which keeps an existing file's bytes, and remove it again if the
    open made it.  No path (stdout) needs no check."""
    if not path:
        return
    existed = os.path.lexists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def _cmd_verify(args) -> int:
    overrides = None
    if args.witness_table:
        overrides = _load_witness_table(args.witness_table)
    _check_writable(args.report)
    report = verify_witness_independence(args.g, args.n, args.k,
                                         recursive=args.recursive,
                                         witness_overrides=overrides)
    if args.report or not args.text:
        _emit(report.to_obj(), args.report)
    if args.text:
        sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:   # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except SizeGuardError as exc:
        print(f"size guard exceeded: {exc}", file=sys.stderr)
        return 3
    except (InvalidGraphError, SignatureError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:   # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
