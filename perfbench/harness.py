"""Benchmark runs: end-to-end metrics untraced, per-layer metrics traced.

An untraced run (``--trace 0``) measures set-up time in fresh child
processes, solves every instance once at the workload's time limit
(``q_budget``), then cycles capped solves over the instances until the
``--seconds`` window is used up, with at least one pass and one repeat
(``ms_per_iter``, ``q_capped``).  A traced run (``--trace 1``) solves
every instance at the time limit untraced (``search.budget_overrun_s``),
then once capped untraced and once capped traced; the traced pass gives
the per-layer metrics, and the pair gives the tracing overhead.

Every capped solve of an instance must reproduce the fingerprint of its
first one, traced or not; a difference makes the run incorrect.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .reference import with_speed
from .tracer import SPAN_FIELDS, Tracer, field_unit, installed, span_metrics
from .workloads import (
    WORKLOADS,
    Outcome,
    Workload,
    build_instances,
    instances_digest,
    solve_checked,
)

PROBE = Path(__file__).resolve().parent / "probe.py"
# Timed set-up probes per run; one untimed probe runs first.
SETUP_PROBES = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "ms_per_iter": "ms",
    "q_capped": "commodities",
    "q_budget": "commodities",
    "peak_rss_mb": "MB",
}

RUN_UNITS = {
    "search.accepts.one-move": "count",
    "search.accepts.two-move": "count",
    "search.accepts.pair-move": "count",
    "search.perturbations": "count",
    "search.restarts": "count",
    "search.iters_to_best": "iterations",
    "search.guide_best": "count",
    "search.budget_overrun_s": "s",
    "edp.best_from_search": "ratio",
    "trace.overhead_ratio": "ratio",
}

PER_LAYER_UNITS = {
    **{f"{name}.{f}": field_unit(f)
       for name, fields in SPAN_FIELDS.items() for f in fields},
    **RUN_UNITS,
}


@dataclass
class RunResult:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def count(self, outcome: Outcome) -> Outcome:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.correct = False
        return outcome

    def same(self, what: str, first: str, again: str) -> None:
        if first != again:
            self.correct = False
            self.notes.append(f"MISMATCH {what}: {first} != {again}")


def measure_setup(workload: Workload, seed: int, digest: str,
                  result: RunResult) -> float:
    """Median seconds a fresh interpreter takes to import the program and
    generate the instances, up to where it would call the solver."""
    cmd = [sys.executable, str(PROBE), workload.graph, workload.ratio,
           str(workload.instances), str(seed)]

    def probe() -> float:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60, check=True)
        seconds, child_digest = proc.stdout.split()
        result.same("instances of the set-up probe", digest, child_digest)
        return float(seconds)

    probe()
    return statistics.median(probe() for _ in range(SETUP_PROBES))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run_untraced(workload: Workload, seed: int, seconds: float) -> RunResult:
    result = RunResult()
    instances = build_instances(workload, seed)
    setup_s = measure_setup(workload, seed, instances_digest(instances), result)

    start = time.perf_counter()
    budget = [result.count(solve_checked(workload, inst, s, capped=False))
              for s, inst in instances]

    n = len(instances)
    walls: list[list[float]] = [[] for _ in range(n)]
    raw_walls: list[list[float]] = [[] for _ in range(n)]
    firsts: list[Outcome] = []
    j = 0
    while j <= n or time.perf_counter() - start < seconds:
        i = j % n
        s, inst = instances[i]
        out, speed = with_speed(
            lambda: solve_checked(workload, inst, s, capped=True))
        result.count(out)
        walls[i].append(out.wall_s * speed)
        raw_walls[i].append(out.wall_s)
        if j < n:
            firsts.append(out)
        else:
            result.same(f"capped fingerprint of instance {s}",
                        firsts[i].fingerprint, out.fingerprint)
        j += 1

    iterations = max(sum(o.iterations for o in firsts), 1)

    def ms_per_iter(per_instance):
        return 1e3 * sum(statistics.median(w) for w in per_instance) / iterations

    result.metrics = {
        "setup_s": setup_s,
        "ms_per_iter": ms_per_iter(walls),
        "q_capped": _mean(o.q for o in firsts),
        "q_budget": _mean(o.q for o in budget),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result.notes += [
        f"fail_ratio {result.failed / result.attempted} ratio",
        f"capped solves {j} over {n} instances",
        f"ms_per_iter raw {ms_per_iter(raw_walls)} ms",
        "ms_per_iter per instance " + " ".join(
            str(1e3 * statistics.median(w) / max(o.iterations, 1))
            for w, o in zip(walls, firsts)),
        "q_capped per instance " + " ".join(str(o.q) for o in firsts),
        "q_budget per instance " + " ".join(str(o.q) for o in budget),
        "fingerprints " + " ".join(o.fingerprint for o in firsts),
    ]
    return result


def _search_metrics(traced: list[Outcome]) -> dict[str, float]:
    """Per-solve means of what the search traces and solutions record."""
    events = [[e for _, e, _ in o.trace.events] for o in traced]
    out = {
        f"search.accepts.{kind}": _mean(ev.count(f"accept:{kind}") for ev in events)
        for kind in ("one-move", "two-move", "pair-move")
    }
    out["search.perturbations"] = _mean(ev.count("perturbation") for ev in events)
    out["search.restarts"] = _mean(ev.count("restart") for ev in events)
    out["search.iters_to_best"] = _mean(o.trace.best_time for o in traced)
    out["search.guide_best"] = _mean(o.trace.best_value for o in traced)
    out["edp.best_from_search"] = _mean(
        o.solution.best_time > 0 for o in traced)
    return out


def run_traced(workload: Workload, seed: int) -> RunResult:
    result = RunResult()
    instances = build_instances(workload, seed)
    budget = [result.count(solve_checked(workload, inst, s, capped=False))
              for s, inst in instances]

    plain, traced = [], []
    plain_s = traced_s = 0.0
    tracer = Tracer()
    for s, inst in instances:
        out, speed = with_speed(
            lambda: solve_checked(workload, inst, s, capped=True))
        plain.append(result.count(out))
        plain_s += out.wall_s * speed
        with installed(tracer):
            out, speed = with_speed(
                lambda: solve_checked(workload, inst, s, capped=True))
        traced.append(result.count(out))
        traced_s += out.wall_s * speed
        result.same(f"traced fingerprint of instance {s}",
                    plain[-1].fingerprint, traced[-1].fingerprint)

    result.metrics = {
        **span_metrics(tracer, sum(o.wall_s for o in traced)),
        **_search_metrics([o for o in traced if o.ok]),
        "search.budget_overrun_s": statistics.median(
            o.wall_s - workload.time_limit_s for o in budget),
        "trace.overhead_ratio": traced_s / plain_s,
    }
    result.notes += [
        f"fail_ratio {result.failed / result.attempted} ratio",
        f"q_capped untraced {_mean(o.q for o in plain)} traced "
        f"{_mean(o.q for o in traced)} commodities",
        "fingerprints " + " ".join(o.fingerprint for o in traced),
    ]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload; the last output line is JSON.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="derives every instance and search seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring window of an untraced run; a traced "
                        "run solves each instance once instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    workload = WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(workload, args.seed)
        units = PER_LAYER_UNITS
    else:
        result = run_untraced(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS

    for note in result.notes:
        print(note)
    metrics = {}
    for name, unit in units.items():
        value = result.metrics[name]
        print(f"{name} {value} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0
