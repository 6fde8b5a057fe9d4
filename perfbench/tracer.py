"""Per-layer tracing for one benchmark item.

The tracer wraps public stratacalc functions from outside: a module-level
function is rebound in every loaded module that holds it (so calls through
``from .graphs import canonicalize`` are seen too), and a method is replaced
on its class.  Each wrapper records one span per call on an in-memory
stack; nothing is written until the item ends.

A span's self time is its duration minus the durations of the spans it
directly encloses, so the self times of all spans add up to the time spent
inside outermost spans.  The rest of the traced item is reported as
``unattributed_s``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: Span name -> (defining module, attribute path).  A dotted attribute path
#: names a method on a class.  ``construct`` is the class's ``__init__``.
SPANS = {
    "cli.main": ("stratacalc.cli", "main"),
    "graphs.canonicalize": ("stratacalc.graphs", "canonicalize"),
    "graphs.validate": ("stratacalc.graphs", "DecoratedGraph.validate"),
    "graphs.enumerate_stable_graphs": ("stratacalc.graphs", "enumerate_stable_graphs"),
    "graphs.automorphism_count": ("stratacalc.graphs", "automorphism_count"),
    "classes.TautClass.construct": ("stratacalc.classes", "TautClass.__init__"),
    "classes.TautClass.add": ("stratacalc.classes", "TautClass.add"),
    "classes.TautClass.scale": ("stratacalc.classes", "TautClass.scale"),
    "classes.TautClass.coefficient_of": ("stratacalc.classes", "TautClass.coefficient_of"),
    "invariance.cut_edges": ("stratacalc.invariance", "cut_edges"),
    "invariance.reduce_genus": ("stratacalc.invariance", "reduce_genus"),
    "invariance.split_vertices": ("stratacalc.invariance", "split_vertices"),
    "invariance.invariance_operator": ("stratacalc.invariance", "invariance_operator"),
    "pushforward.forget_pushforward": ("stratacalc.pushforward", "forget_pushforward"),
    "pushforward.pullback_lift": ("stratacalc.pushforward", "pullback_lift"),
    "pushforward.InteriorClass.construct": ("stratacalc.pushforward", "InteriorClass.__init__"),
    "pushforward.interior_to_taut": ("stratacalc.pushforward", "interior_to_taut"),
    "verifier.verify_witness_independence": ("stratacalc.verifier",
                                             "verify_witness_independence"),
    "verifier.boundary_generators": ("stratacalc.verifier", "boundary_generators"),
    "verifier.generator_monomials": ("stratacalc.verifier", "generator_monomials"),
    "serialize.dumps": ("stratacalc.serialize", "dumps"),
    "serialize.class_from_obj": ("stratacalc.serialize", "class_from_obj"),
    "serialize.class_to_obj": ("stratacalc.serialize", "class_to_obj"),
}

#: Operator parts whose ``validate`` calls are candidate stability tests.
_OPERATOR_PARTS = frozenset(
    {"invariance.cut_edges", "invariance.reduce_genus", "invariance.split_vertices"})

#: Extra counters, with the direction in which each is better.
COUNTERS = {
    "graphs.canonicalize.distinct_forms": ("count", "higher"),
    "graphs.canonicalize.unique_ratio": ("ratio", "higher"),
    "graphs.validate.rejected": ("count", "lower"),
    "graphs.enumerate_stable_graphs.graphs_out": ("count", "higher"),
    "classes.TautClass.construct.terms_in": ("count", "lower"),
    "classes.TautClass.construct.terms_out": ("count", "higher"),
    "classes.TautClass.construct.merge_ratio": ("ratio", "higher"),
    "invariance.invariance_operator.terms_out": ("count", "higher"),
    "invariance.candidates": ("count", "lower"),
    "invariance.kept_ratio": ("ratio", "higher"),
    "verifier.boundary_generators.graphs_out": ("count", "higher"),
}

#: Ratio counters: name -> (numerator, denominator).
_RATIOS = {
    "graphs.canonicalize.unique_ratio":
        ("graphs.canonicalize.distinct_forms", "graphs.canonicalize.calls"),
    "classes.TautClass.construct.merge_ratio":
        ("classes.TautClass.construct.terms_out", "classes.TautClass.construct.terms_in"),
    "invariance.kept_ratio": ("invariance.kept", "invariance.candidates"),
}


class Tracer:
    """Span stack plus per-name aggregates for one traced item."""

    def __init__(self):
        self._stack: list[list] = []      # [name, time covered by child spans]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.outer_s = 0.0                # total duration of outermost spans
        self.counts: Counter = Counter()
        self.forms: set = set()
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn, after=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.outer_s += dur
            if after is not None:
                after(args, result)
            return result

        return span

    def _after_hooks(self):
        counts, forms = self.counts, self.forms

        def canonicalize(args, result):
            forms.add(result[0])

        def enumerate_graphs(args, result):
            counts["graphs.enumerate_stable_graphs.graphs_out"] += len(result)

        def operator(args, result):
            counts["invariance.invariance_operator.terms_out"] += len(result)

        def boundary(args, result):
            counts["verifier.boundary_generators.graphs_out"] += len(result)

        return {
            "graphs.canonicalize": canonicalize,
            "graphs.enumerate_stable_graphs": enumerate_graphs,
            "invariance.invariance_operator": operator,
            "verifier.boundary_generators": boundary,
        }

    def _validate_probe(self, validate):
        """Count rejections, and candidates tested inside an operator part."""
        counts, stack = self.counts, self._stack

        def probe(graph):
            # stack[-1] is the validate span itself
            parent = stack[-2][0] if len(stack) > 1 else None
            diags = validate(graph)
            if diags:
                counts["graphs.validate.rejected"] += 1
            if parent in _OPERATOR_PARTS:
                counts["invariance.candidates"] += 1
                if not diags:
                    counts["invariance.kept"] += 1
            return diags

        return probe

    def _construct_probe(self, init):
        """Count terms in and out; the term iterable is materialized once so
        its length can be taken."""
        counts = self.counts

        def probe(obj, ambient, terms=()):
            if not isinstance(terms, (list, tuple)):
                terms = list(terms)
            counts["classes.TautClass.construct.terms_in"] += len(terms)
            init(obj, ambient, terms)
            counts["classes.TautClass.construct.terms_out"] += len(obj)

        return probe

    def install(self) -> None:
        """Replace every traced function and method by its span wrapper.

        A function is rebound in every loaded module that holds it, the
        caller's own namespace included.
        """
        hooks = self._after_hooks()
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for name, (modname, path) in SPANS.items():
            home = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[attr]
                inner = orig
                if name == "graphs.validate":
                    inner = self._validate_probe(orig)
                elif name == "classes.TautClass.construct":
                    inner = self._construct_probe(orig)
                setattr(cls, attr, self._wrap(name, inner, hooks.get(name)))
                self._restore.append((cls, attr, orig))
                continue
            orig = getattr(home, path)
            wrapper = self._wrap(name, orig, hooks.get(name))
            for mod in modules:
                if vars(mod).get(path) is orig:
                    setattr(mod, path, wrapper)
                    self._restore.append((mod, path, orig))

    def uninstall(self) -> None:
        """Put every original back, so later checks run untraced."""
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # ------------------------------------------------------------- results

    def totals(self) -> dict[str, float]:
        """Additive per-layer totals: ``calls``/``self_s`` for every span and
        the counts behind every counter.  Totals of several traced items add
        up; ``metrics`` turns the sum into the reported metrics.  Each item
        runs in its own process with its own canonical-form cache, so summed
        ``distinct_forms`` counts the forms each cache had to hold."""
        counts = Counter(self.counts)
        counts["graphs.canonicalize.distinct_forms"] = len(self.forms)
        for name in SPANS:
            counts[f"{name}.calls"] = self.calls[name]
            counts[f"{name}.self_s"] = self.self_s[name]
        return dict(counts)

    def self_total(self) -> float:
        return sum(self.self_s.values())


def metrics(totals: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, from summed ``totals``."""
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = (totals.get(f"{name}.calls", 0), "count")
        out[f"{name}.self_s"] = (totals.get(f"{name}.self_s", 0.0), "s")
    for name, (unit, _) in COUNTERS.items():
        if unit == "ratio":
            num, den = (totals.get(key, 0) for key in _RATIOS[name])
            out[name] = (num / den if den else 0.0, unit)
        else:
            out[name] = (totals.get(name, 0), unit)
    return out
