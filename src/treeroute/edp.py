"""Maximum edge-disjoint paths: model, extraction, and two solvers.

Each commodity gets its own tree variable (rooted at the commodity's
target, source marked), and a single :class:`PathEdgeDisjoint`
constraint over all of them measures how far the induced paths are from
mutual disjointness.  The local-search solver minimizes that violation
count; whenever it improves (and periodically), the current paths are
turned into a feasible solution by *extraction* (repeatedly dropping
the path sharing most edges with the others) followed by *greedy
completion* (re-routing dropped commodities on the leftover edges, in
index order, shortest hop first).  The best feasible solution seen
anywhere along the run is what the solver returns.

The baseline is a multi-start greedy: one greedy completion per pass,
from nothing, in a random commodity order; the best pass wins.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from .graph import Commodity, Graph, path_nodes, shortest_path_avoiding
from .objectives import PathEdgeDisjoint
from .search import SearchConfig, SearchTrace, run
from .treevar import RootedSpanningTree


@dataclass(frozen=True)
class EdpInstance:
    graph: Graph
    commodities: tuple[Commodity, ...]

    def __post_init__(self) -> None:
        if not self.commodities:
            raise ValueError("an instance needs at least one commodity")
        n = self.graph.node_count
        for i, c in enumerate(self.commodities):
            for node in (c.source, c.target):
                if not (0 <= node < n):
                    raise ValueError(f"commodity {i}: node id {node} out of range")

    @property
    def k(self) -> int:
        return len(self.commodities)


@dataclass
class EdpSolution:
    """A feasible solution: a set of mutually edge-disjoint paths.

    ``retained`` are the commodity indices that got a path; ``routed``
    maps each of them to its edge sequence.  For the local-search solver
    ``trees`` holds the tree variables restored to the state that produced
    the solution and ``paths`` the induced path of every commodity at
    that moment; the greedy baseline has no trees (``trees is None``) and
    ``paths`` holds its routed paths (None where unrouted).
    """

    objective: int
    retained: tuple[int, ...]
    routed: dict[int, tuple[int, ...]]
    paths: tuple[tuple[int, ...] | None, ...]
    violation: int
    best_time: float
    trees: tuple[RootedSpanningTree, ...] | None = None


def build_model(inst: EdpInstance, seed: int) -> PathEdgeDisjoint:
    """The disjointness constraint over one random tree variable per
    commodity, in commodity order; it is the guiding objective."""
    rng = random.Random(seed)
    return PathEdgeDisjoint([
        RootedSpanningTree.random_tree(inst.graph, c.source, c.target, rng)
        for c in inst.commodities
    ])


def extract_disjoint(paths: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a mutually edge-disjoint subset of ``paths``.

    Repeatedly drops the path with the most edges shared with other
    still-retained paths; on ties the higher index is dropped, so lower
    indices win.  Disjoint input is returned in full, and re-running on
    the retained subset is the identity.
    """
    path_sets = [set(p) for p in paths]
    retained = set(range(len(paths)))
    loads: dict[int, int] = {}
    for i in retained:
        for e in path_sets[i]:
            loads[e] = loads.get(e, 0) + 1
    while True:
        worst_key = None
        for i in retained:
            overlap = sum(1 for e in path_sets[i] if loads[e] >= 2)
            key = (overlap, i)
            if worst_key is None or key > worst_key:
                worst_key = key
        if worst_key is None or worst_key[0] == 0:
            break
        drop = worst_key[1]
        retained.remove(drop)
        for e in path_sets[drop]:
            loads[e] -= 1
    return sorted(retained)


def greedy_complete(
    g: Graph,
    kept: Mapping[int, Sequence[int]],
    pending: Sequence[tuple[int, Commodity]],
) -> dict[int, tuple[int, ...]]:
    """Try to route the pending commodities on the edges nothing uses yet.

    Commodities are attempted in the order ``pending`` lists them, with
    shortest-hop routing; successes claim their edges immediately.
    Never drops an input path.
    """
    routed = {i: tuple(p) for i, p in kept.items()}
    used: set[int] = set()
    for p in routed.values():
        used.update(p)
    for i, c in pending:
        path = shortest_path_avoiding(g, c.source, c.target, used)
        if path is not None:
            routed[i] = tuple(path)
            used.update(path)
    return routed


def evaluate_assignment(
    g: Graph,
    commodities: Sequence[Commodity],
    paths: Sequence[Sequence[int]],
) -> tuple[int, dict[int, tuple[int, ...]]]:
    """Feasible objective reachable from the given (possibly conflicting)
    paths: extraction followed by greedy completion."""
    retained = extract_disjoint(paths)
    retained_set = set(retained)
    kept = {i: tuple(paths[i]) for i in retained}
    pending = [
        (i, commodities[i]) for i in range(len(paths)) if i not in retained_set
    ]
    routed = greedy_complete(g, kept, pending)
    return len(routed), routed


@dataclass
class _Best:
    objective: int = -1
    routed: dict[int, tuple[int, ...]] | None = None
    paths: list[tuple[int, ...]] | None = None
    snapshots: list | None = None
    violation: int = 0
    time: float = 0.0


def solve_ls(inst: EdpInstance, cfg: SearchConfig) -> tuple[EdpSolution, SearchTrace]:
    """Violation-guided local search with extraction on the side.

    The search itself only ever sees the violation count; feasible
    solutions are extracted at every new violation best and every
    ``search.EVAL_INTERVAL`` iterations, and the best one is kept.
    """
    constraint = build_model(inst, cfg.seed)
    trees = constraint.trees
    best = _Best()

    def evaluate(clock: float) -> None:
        paths = [tree.induced_path() for tree in trees]
        objective, routed = evaluate_assignment(inst.graph, inst.commodities, paths)
        if objective > best.objective:
            best.objective = objective
            best.routed = routed
            best.paths = paths
            best.snapshots = [tree.snapshot() for tree in trees]
            best.violation = constraint.value()
            best.time = clock

    def callback(kind: str, iteration: int, value: int, clock: float) -> None:
        if kind in ("initial", "improvement", "interval"):
            evaluate(clock)

    trace = run(constraint, cfg, callback)

    assert best.snapshots is not None  # the initial callback always ran
    for tree, state in zip(trees, best.snapshots):
        tree.restore(state)
    constraint.commit()
    solution = EdpSolution(
        objective=best.objective,
        retained=tuple(sorted(best.routed)),
        routed=best.routed,
        paths=tuple(best.paths),
        violation=best.violation,
        best_time=best.time,
        trees=trees,
    )
    return solution, trace


def solve_msga(inst: EdpInstance, cfg: SearchConfig) -> tuple[EdpSolution, SearchTrace]:
    """Multi-start greedy baseline.

    Each pass is a greedy completion from nothing in a fresh random
    commodity order: every commodity gets the shortest path on edges no
    earlier one claimed, or none if it cannot be routed.  The best pass
    wins.  With ``iter_cap`` set, exactly that many passes run and the
    trace clock counts passes; otherwise passes repeat until the time
    limit (at least one always runs).
    """
    rng = random.Random(cfg.seed)
    capped = cfg.iter_cap is not None
    start = time.monotonic()
    passes = 0

    def out_of_budget() -> bool:
        if capped:
            return passes >= cfg.iter_cap
        return passes > 0 and time.monotonic() - start >= cfg.time_limit_s

    trace = SearchTrace(clock="iterations" if capped else "seconds")
    best_routed: dict[int, tuple[int, ...]] = {}
    while not out_of_budget():
        passes += 1
        order = list(range(inst.k))
        rng.shuffle(order)
        routed = greedy_complete(
            inst.graph, {}, [(i, inst.commodities[i]) for i in order])
        if passes == 1 or len(routed) > len(best_routed):
            best_routed = routed
            clock = float(passes) if capped else time.monotonic() - start
            trace.improvements.append((clock, len(routed)))

    trace.iterations = passes
    solution = EdpSolution(
        objective=len(best_routed),
        retained=tuple(sorted(best_routed)),
        routed=best_routed,
        paths=tuple(best_routed.get(i) for i in range(inst.k)),
        violation=0,
        best_time=trace.best_time,
        trees=None,
    )
    return solution, trace


# -- solution dumps ----------------------------------------------------------


def solution_to_dump(solution: EdpSolution, inst: EdpInstance) -> str:
    """Text dump: one line per routed commodity
    ``i s t hop_count : v0 v1 ... vL`` plus a summary line."""
    lines = []
    for i in solution.retained:
        c = inst.commodities[i]
        path = solution.routed[i]
        nodes = path_nodes(inst.graph, c.source, path)
        node_str = " ".join(str(v) for v in nodes)
        lines.append(f"{i} {c.source} {c.target} {len(path)} : {node_str}")
    lines.append(
        f"objective={solution.objective}, C={solution.violation}, "
        f"time_to_best={solution.best_time:.3f}"
    )
    return "\n".join(lines) + "\n"


def verify_dump(text: str, inst: EdpInstance) -> list[str]:
    """Check a solution dump against an instance.

    Returns a list of problems (empty when the dump is a valid mutually
    edge-disjoint solution whose stated objective matches).
    """
    problems: list[str] = []
    g = inst.graph
    seen_indices: set[int] = set()
    used_edges: set[int] = set()
    path_lines = 0
    stated_objective: int | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("objective="):
            try:
                fields = dict(part.split("=", 1) for part in line.split(", "))
                stated_objective = int(fields["objective"])
            except (ValueError, KeyError):
                problems.append(f"line {lineno}: bad summary line")
            continue
        if ":" not in line:
            problems.append(f"line {lineno}: expected 'i s t hops : nodes'")
            continue
        head, _, tail = line.partition(":")
        head_tokens = head.split()
        try:
            i, s, t, hops = (int(tok) for tok in head_tokens)
            nodes = [int(tok) for tok in tail.split()]
        except ValueError:
            problems.append(f"line {lineno}: non-integer field")
            continue
        path_lines += 1
        if not (0 <= i < inst.k):
            problems.append(f"line {lineno}: no commodity {i}")
            continue
        if i in seen_indices:
            problems.append(f"line {lineno}: commodity {i} listed twice")
            continue
        seen_indices.add(i)
        c = inst.commodities[i]
        if (s, t) != (c.source, c.target):
            problems.append(
                f"line {lineno}: commodity {i} is {c.source}->{c.target}, "
                f"dump says {s}->{t}"
            )
            continue
        if len(nodes) < 2 or nodes[0] != s or nodes[-1] != t:
            problems.append(f"line {lineno}: node list does not run {s}->{t}")
            continue
        if hops != len(nodes) - 1:
            problems.append(f"line {lineno}: hop count {hops} != {len(nodes) - 1}")
            continue
        if len(set(nodes)) != len(nodes):
            problems.append(f"line {lineno}: path revisits a node")
            continue
        ok = True
        for a, b in zip(nodes, nodes[1:]):
            eid = g.find_edge(a, b)
            if eid is None:
                problems.append(f"line {lineno}: no edge ({a},{b}) in the graph")
                ok = False
                break
            if eid in used_edges:
                problems.append(
                    f"line {lineno}: edge ({a},{b}) already used by another path"
                )
                ok = False
                break
            used_edges.add(eid)
        if not ok:
            continue

    if stated_objective is None:
        problems.append("missing summary line")
    elif stated_objective != path_lines:
        problems.append(
            f"summary says objective={stated_objective} but dump has "
            f"{path_lines} path(s)"
        )
    return problems
