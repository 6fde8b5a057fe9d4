"""Outside-in benchmark for stratacalc (standard library only).

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``worker.py`` for the items and ``BENCHMARK.json`` for why
each was chosen): ``verify-ladder``, ``enumerate-ladder``, ``operator-algebra``.

A run is a series of rounds.  A round runs every item of the workload once,
in an order drawn from the seed, each item in a fresh interpreter
(``worker.py``), as one CLI command runs.  Items run one after another, never
in parallel: a closed loop with one client.  Rounds repeat while the next one
is expected to end within ``--seconds``; there is always at least one.

Every time the benchmark reports is in reference seconds.  The speed at
which a shared host runs Python drifts by tens of percent within minutes, so
while an item runs, its worker times a fixed loop at a fixed interval
(``worker.Probe``).  A measured time is multiplied by the probe's reference
time over its mean time during the item: it then reads as on a host where the
probe takes the reference time, and a run on a slow minute reads like a run
on a fast one.  The measured times and the factors are in the environment
line.

``--trace 0`` reports the end-to-end metrics, each the median over the rounds
of the run: ``wall_s`` (the items' times added up; a round's time less its
set-up), ``largest_item_s`` (the workload's largest item), ``peak_rss_mb``
(the largest peak resident memory of an item's process) and ``setup_s``
(interpreter start, ``import stratacalc`` and input generation, up to the
item; the median over every item run).  ``--trace 1`` alternates traced and
untraced rounds, starting with a traced one, with at least two traced rounds
and one untraced.  It reports the per-layer metrics of ``tracer.py``, summed
over the items of a round, with the tracing overhead and the traced time
outside every span.  It fails if traced counts differ between its traced
rounds or if an item fails the accounting checks of ``worker.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment of the run (git SHA, source digest, Python version,
processor count, seed) and every item run.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import select
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PACKAGE = ROOT / "src" / "stratacalc"

#: Every item must end by this many seconds after the run starts.
HARD_LIMIT_S = 165.0


class PassFailed(Exception):
    """A worker that died or stalled before it finished set-up."""


def _readline(proc, deadline: float) -> bytes:
    """One line from the worker's unbuffered stdout, or b"" at EOF/deadline."""
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(deadline - time.perf_counter(), 0.0))
    return proc.stdout.readline() if ready else b""


def run_item(workload: str, item: str, seed: int, deadline: float, trace: bool) -> dict:
    """Run one item in a fresh worker and wait for it.

    Returns ``{"item", "setup_s", "result"}``; ``result`` is ``None`` when
    the worker failed after set-up.  Raises ``PassFailed`` when it failed
    before.
    """
    env = dict(os.environ)
    env.pop("STRATA_MAX_GRAPHS", None)   # measure the default guard
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--item", item,
           "--seed", str(seed)] + (["--trace"] if trace else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0)
    try:
        line = _readline(proc, deadline)
        setup_s = time.perf_counter() - start
        if line.strip() != b"ready":
            raise PassFailed(f"{workload} worker for {item} ended or stalled "
                             f"before set-up finished")
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        out = b""
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    result = None
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"item": item, "setup_s": setup_s, "result": result}


def _environment(seed: int) -> dict:
    sha = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            sha = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "STRATA_MAX_GRAPHS": "unset",
    }


def _tally(runs: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted items, failed items and failure messages over all item runs."""
    failed = 0
    messages = []
    for r in runs:
        if r["result"] is None:
            failed += 1
            messages.append(f"{r['item']}: worker failed after set-up")
        elif r["result"]["failures"]:
            failed += 1
            messages += [f"{r['item']}: {f}" for f in r["result"]["failures"]]
    return len(runs), failed, messages


def _summary(r: dict) -> dict:
    """What the environment line records of one item run."""
    out = {"item": r["item"], "setup_s": r["setup_s"]}
    if r["result"] is not None:
        out.update({key: r["result"][key] for key in ("s", "scale", "peak_rss_mb")})
        out["traced"] = r["result"]["trace"] is not None
    return out


def _repeat(step, seconds: int, hard: float, least: int = 1) -> None:
    """Call ``step`` until it fails, or until it has been called ``least``
    times and the next call would end after the budget."""
    budget = min(time.perf_counter() + seconds, hard)
    for calls in itertools.count(1):
        start = time.perf_counter()
        if not step():
            return
        now = time.perf_counter()
        if calls >= least and now + (now - start) > budget:
            return


class Round(NamedTuple):
    """One round: every item once.  Times are in reference seconds: each is
    the measured time multiplied by its item's ``scale``, the probe's
    reference time over its mean time during the item (``worker.Probe``)."""

    item_s: dict[str, float]    # item name -> item time
    setup_s: list[float]        # set-up time of each item
    results: dict[str, dict]    # item name -> worker result

    def wall_s(self) -> float:
        """The items' times added up."""
        return sum(self.item_s.values())


class Rounds:
    """Rounds of one run; each round runs every item once in a seeded order."""

    def __init__(self, workload: str, seed: int, hard: float):
        from worker import WORKLOADS

        self.workload, self.seed, self.hard = workload, seed, hard
        self.names = list(WORKLOADS[workload])
        self.largest = self.names[0]
        self.rng = random.Random(seed)
        self.runs: list[dict] = []

    def run(self, trace: bool = False) -> Round | None:
        """One round, or ``None`` if a worker failed after set-up."""
        round_ = Round({}, [], {})
        for name in self.rng.sample(self.names, len(self.names)):
            self.runs.append(run_item(self.workload, name, self.seed, self.hard, trace))
            result = self.runs[-1]["result"]
            if result is None:
                return None
            round_.item_s[name] = result["s"] * result["scale"]
            round_.setup_s.append(self.runs[-1]["setup_s"] * result["scale"])
            round_.results[name] = result
        return round_


def _rounds(rounds: Rounds, seconds: int, hard: float, traces, least: int) -> list[Round]:
    """Rounds until one fails or the budget is spent; ``traces`` cycles
    through the tracing setting of each round."""
    done = []

    def step():
        done.append(rounds.run(next(traces)))
        return done[-1] is not None

    _repeat(step, seconds, hard, least)
    return [r for r in done if r is not None]


def end_to_end(workload: str, seed: int, seconds: int, hard: float) -> tuple[dict, list]:
    rounds = Rounds(workload, seed, hard)
    done = _rounds(rounds, seconds, hard, itertools.repeat(False), 1)
    if not done:
        return {}, rounds.runs
    metrics = {
        "setup_s": (median(s for r in done for s in r.setup_s), "s"),
        "wall_s": (median(r.wall_s() for r in done), "s"),
        "largest_item_s": (median(r.item_s[rounds.largest] for r in done), "s"),
        "peak_rss_mb": (median(max(x["peak_rss_mb"] for x in r.results.values())
                               for r in done), "MB"),
    }
    return metrics, rounds.runs


def per_layer(workload: str, seed: int, seconds: int, hard: float) -> tuple[dict, list, list]:
    import tracer

    rounds = Rounds(workload, seed, hard)
    # traced, untraced, traced, ...: at least two traced rounds to compare
    # counts, and an untraced one between them for the overhead
    done = _rounds(rounds, seconds, hard, itertools.cycle([True, False]), 3)
    traced = done[0::2]
    plain = done[1::2]
    if not plain or len(traced) < 2:
        return {}, rounds.runs, ["fewer than two traced and one untraced round"]

    problems = []
    per_round = []
    for r in traced:
        totals: Counter = Counter()
        for result in r.results.values():
            totals.update({name: value * result["scale"] if name.endswith(".self_s")
                           else value for name, value in result["trace"]["totals"].items()})
            problems += result["trace"]["problems"]
        per_round.append(tracer.metrics(totals))
    # counts are deterministic for a seed; time-valued metrics take the median
    metrics = {}
    for name, (value, unit) in per_round[0].items():
        if unit == "s":
            value = median(m[name][0] for m in per_round)
        elif any(m[name][0] != value for m in per_round[1:]):
            problems.append(f"traced count {name} differs between rounds")
        metrics[name] = (value, unit)
    traced_wall = median(r.wall_s() for r in traced)
    unattributed = (sum(x["trace"]["unattributed_s"] * x["scale"] for x in r.results.values())
                    for r in traced)
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.unattributed_s": (median(unattributed), "s"),
        "trace.overhead_s": (traced_wall - median(r.wall_s() for r in plain), "s"),
    })
    return metrics, rounds.runs, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Outside-in benchmark for stratacalc.")
    ap.add_argument("--workload", required=True,
                    choices=("verify-ladder", "enumerate-ladder", "operator-algebra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"stratacalc sources not found under {PACKAGE.parent}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    start = time.perf_counter()
    hard = start + HARD_LIMIT_S
    try:
        if args.trace:
            metrics, runs, problems = per_layer(args.workload, args.seed,
                                                args.seconds, hard)
        else:
            metrics, runs = end_to_end(args.workload, args.seed, args.seconds, hard)
            problems = []
    except PassFailed as exc:
        print(f"benchmark could not start stratacalc: {exc}", file=sys.stderr)
        return 1
    attempted, failed, messages = _tally(runs)
    problems += messages
    for message in problems:
        print(f"FAIL {message}", file=sys.stderr)

    print(json.dumps({"environment": _environment(args.seed),
                      "workload": args.workload,
                      "run_s": time.perf_counter() - start,
                      "items": [_summary(r) for r in runs]}))
    print(json.dumps({
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
