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

import heapq
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

    ``routed`` maps each commodity index that got a path to its edge
    sequence; the objective is how many there are.  ``violation`` is the
    guiding constraint's value when the solution was found (0 for the
    greedy baseline) and ``best_time`` the trace clock at that moment.
    """

    routed: dict[int, tuple[int, ...]]
    violation: int
    best_time: float

    @property
    def objective(self) -> int:
        return len(self.routed)


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
    still-retained paths (a repeated edge counts once); on ties the
    higher index is dropped, so lower indices win.  Disjoint input is
    returned in full, and re-running on the retained subset is the
    identity.

    Incremental: one pass over the paths records each edge's users, and
    with them each path's overlap.  A max-heap on ``(overlap, index)``
    yields the path to drop; overlaps only fall, so an entry whose count
    no longer matches is stale and skipped.  A drop lowers its edges'
    loads, and an edge left with one user costs that user one overlap.
    The cost is O((total path length + drops) log k), not a rescan of
    every retained path per drop.
    """
    users: dict[int, list[int]] = {}
    for i, p in enumerate(paths):
        for e in set(p):
            users.setdefault(e, []).append(i)
    loads = {e: len(u) for e, u in users.items()}
    overlap = [0] * len(paths)
    for u in users.values():
        if len(u) >= 2:
            for i in u:
                overlap[i] += 1
    heap = [(-o, -i) for i, o in enumerate(overlap) if o]
    heapq.heapify(heap)
    retained = [True] * len(paths)
    while heap:
        neg_o, neg_d = heapq.heappop(heap)
        d = -neg_d
        if -neg_o != overlap[d]:
            continue
        retained[d] = False
        for e in set(paths[d]):
            loads[e] -= 1
            if loads[e] == 1:
                last = next(i for i in users[e] if retained[i])
                overlap[last] -= 1
                if overlap[last]:
                    heapq.heappush(heap, (-overlap[last], -last))
    return [i for i, kept in enumerate(retained) if kept]


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
) -> dict[int, tuple[int, ...]]:
    """Feasible routing reachable from the given (possibly conflicting)
    paths: extraction followed by greedy completion."""
    retained = extract_disjoint(paths)
    retained_set = set(retained)
    kept = {i: tuple(paths[i]) for i in retained}
    pending = [
        (i, commodities[i]) for i in range(len(paths)) if i not in retained_set
    ]
    return greedy_complete(g, kept, pending)


def solve_ls(inst: EdpInstance, cfg: SearchConfig) -> tuple[EdpSolution, SearchTrace]:
    """Violation-guided local search with extraction on the side.

    The search itself only ever sees the violation count; feasible
    solutions are extracted at every new violation best and every
    ``search.EVAL_INTERVAL`` iterations, and the first one with the most
    routed commodities is returned.  The trees are left in their final
    search state, not the one that gave the best routing.

    In budget mode the clock starts on entry, so building the model
    counts against ``time_limit_s``, and trace times and ``best_time``
    count from entry, as in :func:`solve_msga`.
    """
    started = time.monotonic()
    constraint = build_model(inst, cfg.seed)
    best: EdpSolution | None = None

    def callback(kind: str, iteration: int, value: int, clock: float) -> None:
        nonlocal best
        if kind not in ("initial", "improvement", "interval"):
            return
        paths = [tree.induced_path() for tree in constraint.trees]
        routed = evaluate_assignment(inst.graph, inst.commodities, paths)
        if best is None or len(routed) > best.objective:
            best = EdpSolution(routed, constraint.value(), clock)

    trace = run(constraint, cfg, callback, started)
    assert best is not None  # the initial callback always runs
    return best, trace


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

    trace = SearchTrace()
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
    return EdpSolution(best_routed, 0, trace.best_time), trace


# -- solution dumps ----------------------------------------------------------


def solution_to_dump(solution: EdpSolution, inst: EdpInstance) -> str:
    """Text dump: one line per routed commodity
    ``i s t hop_count : v0 v1 ... vL`` plus a summary line."""
    lines = []
    for i in sorted(solution.routed):
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
    summary_seen = False
    stated_objective: int | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("objective="):
            if summary_seen:
                problems.append(f"line {lineno}: repeated summary line")
                continue
            summary_seen = True
            try:
                fields = dict(part.split("=", 1) for part in line.split(", "))
                stated_objective = int(fields["objective"])
            except (ValueError, KeyError):
                problems.append(f"line {lineno}: bad summary line")
            continue
        head, colon, tail = line.partition(":")
        head_tokens = head.split()
        if not colon or len(head_tokens) != 4:
            problems.append(f"line {lineno}: expected 'i s t hops : nodes'")
            continue
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
