"""Workload definitions, instance generation and checked solves.

Instances are built with the same ``resolve_graph`` / ``commodity_count``
/ ``generate_commodities`` calls that ``treeroute bench`` uses, and, as
there, one derived seed per instance drives both the commodity sample
and the solver.  Every solve is verified: its dump must pass
``verify_dump`` and its objective must equal the number of routed
commodities.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from dataclasses import dataclass

from treeroute.bench import commodity_count, resolve_graph
from treeroute.edp import (
    EdpInstance,
    solution_to_dump,
    solve_ls,
    solve_msga,
    verify_dump,
)
from treeroute.generators import generate_commodities
from treeroute.search import SearchConfig, SearchTrace

# Instance i of a run with seed n uses seed n * SEED_STRIDE + i, so the
# instance sets of different run seeds never overlap.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark cell and how a run exercises it.

    ``instances`` instances are solved in ``iter_cap`` mode (throughput
    and deterministic quality) and once each at ``time_limit_s`` seconds
    (quality at a fixed wall-clock budget).
    """

    name: str
    solver: str
    graph: str
    ratio: str
    instances: int
    iter_cap: int
    time_limit_s: float


# ls-mesh25-dense and msga-mesh25-dense share cell, instance count and
# time limit, so for one seed they solve identical instances: that is the
# LS-vs-MSGA comparison.  Why each workload exists is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ls-mesh25-dense", "ls", "mesh:25x25", "0.40", 3, 20, 3.0),
        Workload("ls-mesh15-sparse", "ls", "mesh:15x15", "0.10", 16, 120, 0.5),
        Workload("msga-mesh25-dense", "msga", "mesh:25x25", "0.40", 3, 100, 3.0),
    )
}


def build_instances(workload: Workload, seed: int) -> list[tuple[int, EdpInstance]]:
    """(seed, instance) pairs of one run; the same seed gives the same list."""
    _, g = resolve_graph(workload.graph)
    k = commodity_count(workload.ratio, g.node_count)
    seeds = [seed * SEED_STRIDE + i for i in range(workload.instances)]
    return [(s, EdpInstance(g, tuple(generate_commodities(g, k, s)))) for s in seeds]


def instances_digest(instances: list[tuple[int, EdpInstance]]) -> str:
    """Short digest of the generated inputs, to compare across processes."""
    h = hashlib.sha256()
    for s, inst in instances:
        h.update(repr((s, inst.graph.node_count, inst.graph.edges,
                       inst.commodities)).encode())
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    """One checked solve.  ``fingerprint`` covers the solution dump and
    the guiding-objective improvements, so two capped solves of one
    instance must agree on it."""

    ok: bool
    q: int
    wall_s: float
    iterations: int
    fingerprint: str
    solution: object = None
    trace: SearchTrace | None = None


def solve_checked(workload: Workload, inst: EdpInstance, seed: int,
                  capped: bool) -> Outcome:
    cfg = SearchConfig(
        time_limit_s=workload.time_limit_s,
        seed=seed,
        iter_cap=workload.iter_cap if capped else None,
    )
    solve = solve_ls if workload.solver == "ls" else solve_msga
    start = time.perf_counter()
    try:
        solution, trace = solve(inst, cfg)
    except Exception:  # a failed solve is counted, and the run goes on
        traceback.print_exc()
        return Outcome(False, 0, time.perf_counter() - start, 0, "")
    wall = time.perf_counter() - start
    dump = solution_to_dump(solution, inst)
    problems = verify_dump(dump, inst)
    if solution.objective != len(solution.routed):
        problems.append(
            f"objective {solution.objective} != {len(solution.routed)} routed")
    for problem in problems:
        print(f"{workload.name} seed {seed}: {problem}", file=sys.stderr)
    digest = hashlib.sha256(
        (dump + repr(trace.improvements)).encode()).hexdigest()[:16]
    return Outcome(not problems, solution.objective, wall, trace.iterations,
                   digest, solution, trace)
