"""Per-layer tracing from outside the program.

:func:`installed` replaces the public functions of each layer with timing
wrappers, at the attribute the caller looks up (``treeroute.edp``'s
imported ``shortest_path_avoiding``, not ``treeroute.graph``'s), and puts
the originals back on exit.  Spans are aggregated per name as they close
instead of being kept one by one: a traced solve makes millions of
``simulate_path`` calls.  A span's self time is its duration minus the
time of the wrapped spans it called.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

import treeroute.edp as edp
import treeroute.search as search
from treeroute.objectives import Differentiable
from treeroute.treevar import RootedSpanningTree


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    useful: int = 0
    tries: int = 0

    @property
    def us_per_call(self) -> float:
        return 1e6 * self.total_s / self.calls if self.calls else 0.0

    @property
    def useful_ratio(self) -> float:
        return self.useful / self.tries if self.tries else 0.0


class Tracer:
    """Span statistics by name, with a stack of child-time accumulators
    for self time.  Single-threaded, like the solvers."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._child_s = [0.0]

    def span(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def wrap(self, name, fn, outcome=None):
        """``fn`` timed as span ``name``.  ``outcome(args, result)`` gives
        (useful, tries) for the span's useful/attempt ratio."""
        stats = self.span(name)
        child_s = self._child_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.self_s += elapsed - child_s.pop()
                child_s[-1] += elapsed
                stats.total_s += elapsed
                stats.calls += 1
            if outcome is not None:
                useful, tries = outcome(args, result)
                stats.useful += useful
                stats.tries += tries
            return result

        return traced


def _found(args, result):
    return result is not None, 1


def _improving(args, result):
    return result < 0, 1


def _passed(args, result):
    return bool(result), 1


def _rerouted(args, result):
    _, kept, pending = args
    return len(result) - len(kept), len(pending)


# (owner, attribute, span name, outcome, whether the span is the closure
# the attribute returns rather than the attribute itself)
_PATCHES = [
    (search, "explore_one_move", "search.explore_one_move", _found, False),
    (search, "explore_two_move", "search.explore_two_move", _found, False),
    (search, "explore_pair_move", "search.explore_pair_move", _found, False),
    (Differentiable, "move_delta_fn", "objectives.delta", _improving, True),
    (Differentiable, "multi_delta_fn", "objectives.multi_delta", None, True),
    (Differentiable, "commit", "objectives.commit", None, False),
    (Differentiable, "value", "objectives.value", None, False),
    (RootedSpanningTree, "simulate_path", "treevar.simulate_path", None, False),
    (RootedSpanningTree, "preferred_moves", "treevar.preferred_moves", None, False),
    (RootedSpanningTree, "apply_complex", "treevar.apply_complex", None, False),
    (RootedSpanningTree, "undo", "treevar.undo", None, False),
    (RootedSpanningTree, "independent", "treevar.independent", _passed, False),
    (RootedSpanningTree, "reinit_random", "treevar.reinit_random", None, False),
    (edp, "build_model", "edp.build_model", None, False),
    (edp, "evaluate_assignment", "edp.evaluate_assignment", None, False),
    (edp, "extract_disjoint", "edp.extract_disjoint", None, False),
    (edp, "greedy_complete", "edp.greedy_complete", _rerouted, False),
    (edp, "shortest_path_avoiding", "graph.shortest_path_avoiding", _found, False),
]


def _closure_wrapper(tracer: Tracer, name: str, outcome, factory):
    """Wrap a ``*_delta_fn`` method so that every closure it returns is
    timed as span ``name``; the method's own refresh stays in its caller."""

    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        return tracer.wrap(name, factory(*args, **kwargs), outcome)

    return traced_factory


@contextmanager
def installed(tracer: Tracer):
    """Route every traced layer call through ``tracer`` inside the block."""
    saved = []
    try:
        for owner, attr, name, outcome, closure in _PATCHES:
            original = vars(owner)[attr]
            if closure:
                replacement = _closure_wrapper(tracer, name, outcome, original)
            else:
                replacement = tracer.wrap(name, original, outcome)
            setattr(owner, attr, replacement)
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metrics: span name -> the fields reported for it.  ``ratio``
# is the span's useful/attempt ratio, reported under its own name.
SPAN_FIELDS = {
    "search.explore_one_move": ("calls", "self_s", "share", "found_ratio"),
    "search.explore_two_move": ("calls", "self_s", "share", "found_ratio"),
    "search.explore_pair_move": ("calls", "self_s", "share", "found_ratio"),
    "objectives.delta": ("calls", "us_per_call", "improving_ratio"),
    "objectives.multi_delta": ("calls", "us_per_call"),
    "objectives.commit": ("calls", "us_per_call"),
    "objectives.value": ("calls", "us_per_call"),
    "treevar.simulate_path": ("calls", "us_per_call"),
    "treevar.preferred_moves": ("calls", "us_per_call"),
    "treevar.apply_complex": ("calls", "us_per_call"),
    "treevar.undo": ("calls", "us_per_call"),
    "treevar.independent": ("calls", "us_per_call", "pass_ratio"),
    "treevar.reinit_random": ("calls",),
    "edp.build_model": ("s", "share"),
    "edp.evaluate_assignment": ("calls", "share", "self_share"),
    "edp.extract_disjoint": ("calls", "us_per_call", "self_share"),
    "edp.greedy_complete": ("calls", "us_per_call", "share", "rerouted_ratio"),
    "graph.shortest_path_avoiding": ("calls", "us_per_call", "share", "routed_ratio"),
}

FIELD_UNITS = {
    "calls": "count",
    "self_s": "s",
    "s": "s",
    "us_per_call": "us",
    "share": "ratio",
    "self_share": "ratio",
}


def field_unit(field: str) -> str:
    return "ratio" if field.endswith("_ratio") else FIELD_UNITS[field]


def span_metrics(tracer: Tracer, solve_s: float) -> dict[str, float]:
    """Metric values of every span in :data:`SPAN_FIELDS`.  Shares are of
    ``solve_s``, the wall time of the traced solver calls; ``s`` is the
    mean duration per call."""
    out = {}
    for name, fields in SPAN_FIELDS.items():
        st = tracer.span(name)
        values = {
            "calls": st.calls,
            "self_s": st.self_s,
            "s": st.total_s / st.calls if st.calls else 0.0,
            "us_per_call": st.us_per_call,
            "share": st.total_s / solve_s,
            "self_share": st.self_s / solve_s,
        }
        for field in fields:
            out[f"{name}.{field}"] = (
                st.useful_ratio if field.endswith("_ratio") else values[field])
    return out
