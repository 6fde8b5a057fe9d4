"""One item of a benchmark workload, in a fresh interpreter.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py --workload NAME --item ITEM --seed N [--trace]

The worker imports stratacalc from ``src/``, generates the item's inputs from
the seed and the item's name, and prints ``ready``, so the parent can time
set-up up to the item.  It then runs the item once, timed, the way one CLI
command runs in its own process: nothing is cached from earlier items, so the
result and its time do not depend on the order of the items.  After the timed
region it checks the item's outputs and prints one JSON line with the result.

Output digests are compared against ``digests.json``.  A mismatch reports the
full sha256 of the new output; when an output change is intended, put that
digest into ``digests.json`` by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import sys
import time
import traceback
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
#: Rounding allowed when span times are compared with the item time, in seconds.
TRACE_TOLERANCE_S = 1e-6
#: The host-speed probe: every PROBE_INTERVAL_S seconds of the item, a signal
#: handler times PROBE_LOOPS turns of a fixed loop.  PROBE_REF_S is the
#: reference time of one turn of the probe: a time multiplied by ``scale``
#: reads as on a host where the probe takes that long.  It is about the probe's
#: mean time on the 2-vCPU VM, Python 3.11, that the benchmark was written on.
PROBE_INTERVAL_S = 0.025
PROBE_LOOPS = 4000
PROBE_REF_S = 0.00045
_PROBE_KEYS = tuple((i, i * 7 % 13, (i, i + 1)) for i in range(64))
_PROBE_TABLE = {key: i for i, key in enumerate(_PROBE_KEYS)}
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from stratacalc import (  # noqa: E402
    InteriorClass,
    InteriorMonomial,
    automorphism_count,
    boundary_generators,
    canonical_form,
    forget_pushforward,
    generator_monomials,
    interior_to_taut,
    invariance_operator,
    monomial_class,
    pullback_lift,
    taut_to_interior,
)
from stratacalc import cli  # noqa: E402
from stratacalc.serialize import graph_from_obj, graph_to_obj, load_file  # noqa: E402


class Item(NamedTuple):
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``check(result)`` returns ``(failures, outputs)``: a list of broken
    expectations and a dict of output bytes compared against ``digests.json``.
    """

    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], dict[str, bytes]]]


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


# ------------------------------------------------------------- verify-ladder

#: (g, n, k, recursive).  (6,2,2) is the largest item.  The ROADMAP rows
#: (9,2,3), (12,2,3) and (6,8,1) are left out: one run of each takes minutes.
VERIFY_LADDER = ((6, 2, 2, False), (6, 3, 1, False), (9, 0, 2, False), (6, 2, 1, True))


def _verify_name(g, n, k, recursive) -> str:
    return f"verify-{g}-{n}-{k}" + ("-recursive" if recursive else "")


def _verify_item(g, n, k, recursive, rng: random.Random, work: Path) -> Item:
    path = work / "report.json"
    argv = ["verify", "--g", str(g), "--n", str(n), "--k", str(k), "--report", str(path)]
    if recursive:
        argv.append("--recursive")

    def check(rc):
        data = path.read_bytes()
        failures = [] if rc == 0 else [f"exit code {rc}"]
        if json.loads(data).get("passed") is not True:
            failures.append("report does not say passed: true")
        return failures, {"report": data}

    return Item(lambda: cli.main(argv), check)


# ---------------------------------------------------------- enumerate-ladder

#: (g, n, max_edges = boundary degree): two marking-heavy, two genus-heavy.
#: (2,5,2) is the largest item.
ENUMERATE_LADDER = ((2, 5, 2), (4, 4, 2), (9, 0, 3), (12, 1, 2))


def _enumerate_name(g, n, e) -> str:
    return f"enumerate-{g}-{n}-{e}"


def _enumerate_item(g, n, e, rng: random.Random, work: Path) -> Item:
    path = work / "graphs.json"
    argv = ["enumerate", "--g", str(g), "--n", str(n), "--max-edges", str(e),
            "--out", str(path)]

    def run():
        rc = cli.main(argv)
        graphs = [graph_from_obj(obj) for obj in load_file(path)["graphs"]]
        bgens = boundary_generators(g, n, e)
        auts = [automorphism_count(G) for G in graphs]
        return rc, graphs, bgens, auts

    def check(result):
        from oracles import degeneration_strata

        rc, graphs, bgens, auts = result
        data = path.read_bytes()
        failures = [] if rc == 0 else [f"exit code {rc}"]
        if json.loads(data)["count"] != len(graphs):
            failures.append("count field differs from the number of graphs")
        levels = degeneration_strata(g, n, e)
        oracle = {f for edges in range(1, e + 1) for f in levels.get(edges, ())}
        forms = [canonical_form(G) for G in graphs]
        if len(set(forms)) != len(forms):
            failures.append("enumeration lists isomorphic graphs twice")
        if set(forms) != oracle:
            failures.append(f"enumerated forms differ from degeneration_strata: "
                            f"{len(set(forms) - oracle)} extra, "
                            f"{len(oracle - set(forms))} missing")
        outputs = {
            "enumerate": data,
            "boundary": json.dumps([graph_to_obj(G) for G in bgens]).encode(),
            "automorphisms": json.dumps(auts).encode(),
        }
        return failures, outputs

    return Item(run, check)


# ---------------------------------------------------------- operator-algebra

#: Generator templates ``(kappa, psi)`` per ambient.  The seed relabels the
#: markings and draws the coefficients, so every seed does the same amount of
#: work on different classes.  (6,7,1) is the largest item.
LINEARITY = {
    (6, 7, 1): (((1,), {}), ((), {1: 1}), ((), {2: 1})),
    (9, 3, 3): (((3,), {}), ((1, 1, 1), {}), ((1,), {1: 2}), ((2,), {2: 1}),
                ((), {1: 1, 2: 1, 3: 1}), ((), {1: 3}), ((1,), {1: 1, 2: 1})),
}
#: (g, n, k, monomials drawn per kappa part) for the interior items.
ROUNDTRIP = (12, 8, 4, 12)
PUSH_PULL = ((30, 6, 6, 6), (24, 8, 5, 6))


def _linearity_item(g, n, k, rng: random.Random, work: Path) -> Item:
    relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    monos = [(kappa, {relabel[m]: e for m, e in psi.items()})
             for kappa, psi in LINEARITY[(g, n, k)]]
    coeffs = [_coeff(rng) for _ in monos]

    def run():
        gens = [monomial_class(g, n, kappa, psi) for kappa, psi in monos]
        x = gens[0].scale(coeffs[0])
        for c, m in zip(coeffs[1:], gens[1:]):
            x = x + c * m
        op_x = invariance_operator(x)
        termwise = coeffs[0] * invariance_operator(gens[0])
        for c, m in zip(coeffs[1:], gens[1:]):
            termwise = termwise + c * invariance_operator(m)
        return op_x, termwise, op_x - termwise, x - x

    def check(result):
        op_x, termwise, diff, x_minus_x = result
        failures = []
        if op_x.is_zero:
            failures.append("op(x) is zero")
        if op_x != termwise or not diff.is_zero:
            failures.append("op(sum c m) differs from sum c op(m)")
        if not x_minus_x.is_zero:
            failures.append("x - x is not zero")
        return failures, {}

    return Item(run, check)


def _interior_sample(g, n, k, per_kappa, rng: random.Random) -> InteriorClass:
    """Seeded combination with the same number of monomials per kappa part."""
    by_kappa: dict[tuple, list[InteriorMonomial]] = {}
    for mono in generator_monomials(g, n, k):
        by_kappa.setdefault(mono.kappa, []).append(mono)
    terms = []
    for kappa in sorted(by_kappa):
        monos = by_kappa[kappa]
        for mono in rng.sample(monos, min(per_kappa, len(monos))):
            terms.append((mono, _coeff(rng)))
    return InteriorClass(g, n, terms)


def _roundtrip_item(rng: random.Random, work: Path) -> Item:
    y = _interior_sample(*ROUNDTRIP, rng)

    def run():
        t = interior_to_taut(y)
        y2 = taut_to_interior(t)
        t2 = interior_to_taut(y2)
        return t, y2, t2, t - t2

    def check(result):
        t, y2, t2, diff = result
        failures = []
        if len(t) != len(y):
            failures.append("interior_to_taut changed the number of terms")
        if y2 != y:
            failures.append("taut_to_interior(interior_to_taut(y)) != y")
        if t2 != t or not diff.is_zero:
            failures.append("interior_to_taut round trip changed the class")
        return failures, {}

    return Item(run, check)


def _push_pull_item(g, n, k, per_kappa, rng: random.Random, work: Path) -> Item:
    y = _interior_sample(g, n, k, per_kappa, rng)
    kappa0 = 2 * g - 2 + n   # the scalar kappa_0 on the ambient of y

    def run():
        out = []
        for p in range(1, n + 2):
            lifted = pullback_lift(y, p)
            push_pull = forget_pushforward(lifted, p)
            projected = forget_pushforward(lifted.mul_psi(p), p)
            out.append((p, push_pull, projected, projected - kappa0 * y))
        return out

    def check(result):
        failures = []
        for p, push_pull, projected, diff in result:
            if not push_pull.is_zero:
                failures.append(f"push(pull(y)) != 0 at marking {p}")
            if projected != kappa0 * y or not diff.is_zero:
                failures.append(f"projection formula fails at marking {p}")
        return failures, {}

    return Item(run, check)


#: workload -> {item name: function of (rng, work directory) making the item}.
#: The first item of each workload is its largest.
WORKLOADS: dict[str, dict[str, Callable[[random.Random, Path], Item]]] = {
    "verify-ladder": {_verify_name(*spec): partial(_verify_item, *spec)
                      for spec in VERIFY_LADDER},
    "enumerate-ladder": {_enumerate_name(*spec): partial(_enumerate_item, *spec)
                         for spec in ENUMERATE_LADDER},
    "operator-algebra": {
        **{f"op-linearity-{g}-{n}-{k}": partial(_linearity_item, g, n, k)
           for g, n, k in LINEARITY},
        "interior-roundtrip-{}-{}-{}".format(*ROUNDTRIP[:3]): _roundtrip_item,
        **{f"push-pull-{g}-{n}-{k}": partial(_push_pull_item, g, n, k, per)
           for g, n, k, per in PUSH_PULL},
    },
}


# --------------------------------------------------------------------- item

class Probe:
    """Times a fixed pure-Python loop at a fixed interval while an item runs.

    On a shared host the speed at which Python runs drifts by tens of
    percent within minutes, and it moves the item and the probe alike: the
    item's time over the probe's mean time does not.  The loop hashes
    nested tuples and looks them up in a dict, the kind of work stratacalc
    does, and creates no container, so it never starts the garbage collector.
    """

    def __init__(self):
        self.count = 0
        self.total_s = 0.0

    @property
    def scale(self) -> float:
        """``PROBE_REF_S`` over the probe's mean time."""
        return PROBE_REF_S * self.count / self.total_s

    def _sample(self, signum, frame):
        table, keys = _PROBE_TABLE, _PROBE_KEYS
        start = time.perf_counter()
        for i in range(PROBE_LOOPS):
            table[keys[i & 63]]
        self.total_s += time.perf_counter() - start
        self.count += 1

    def __enter__(self):
        # one sample now, so that an item shorter than the interval has one
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        # the handler stays: a signal already pending must not meet SIG_DFL,
        # which ends the process
        signal.setitimer(signal.ITIMER_REAL, 0)


def _trace_problems(seconds: float, tracer) -> list[str]:
    """Accounting checks of a traced item.

    The outermost spans must fit inside the item's own time, which is
    measured outside the tracer; no span may have a negative self time; and
    the self times must add up to the outermost span time.
    """
    tol = TRACE_TOLERANCE_S
    problems = []
    if not -tol <= tracer.outer_s <= seconds + tol:
        problems.append(f"traced spans took {tracer.outer_s:.6f} s of an item "
                        f"that took {seconds:.6f} s")
    for name, self_s in tracer.self_s.items():
        if self_s < -tol:
            problems.append(f"{name}: negative self time {self_s:.3g} s")
    if abs(tracer.self_total() - tracer.outer_s) > tol:
        problems.append(f"self times add up to {tracer.self_total():.6f} s, the "
                        f"outermost spans to {tracer.outer_s:.6f} s")
    return problems


def _check(name: str, item: Item, result) -> list[str]:
    """Failures of the item's own checks and of its output digests."""
    try:
        failures, outputs = item.check(result)
    except Exception:   # a check that raises counts as a failure
        return [traceback.format_exc(limit=3)]
    expected = json.loads(DIGESTS.read_text())
    for key, data in outputs.items():
        digest = hashlib.sha256(data).hexdigest()
        label = f"{name}:{key}"
        if expected.get(label) != digest:
            failures.append(f"{label} sha256 {digest} differs from "
                            f"digests.json: {expected.get(label)}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--item", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    make = WORKLOADS[args.workload].get(args.item)
    if make is None:
        ap.error(f"unknown item {args.item!r} of workload {args.workload}")
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        item = make(random.Random(f"{args.seed}/{args.item}"), work)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        print("ready", flush=True)

        with Probe() as probe:
            start = time.perf_counter()
            sampled = probe.total_s
            try:
                result, error = item.run(), None
            except Exception:   # an item that raises counts as failed
                result, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            # the probe's own time is not the item's
            seconds = elapsed - (probe.total_s - sampled)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        trace = None
        if tracer is not None:
            tracer.uninstall()
            trace = {
                "totals": tracer.totals(),
                # spans include the probe's samples taken inside them
                "unattributed_s": elapsed - tracer.outer_s,
                "problems": _trace_problems(elapsed, tracer),
            }
        failures = [error] if error else _check(args.item, item, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:   # another worker is still using it
            pass

    print(json.dumps({"s": seconds, "scale": probe.scale, "peak_rss_mb": peak_rss_mb,
                      "failures": failures, "trace": trace}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
