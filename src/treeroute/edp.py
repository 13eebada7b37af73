"""Maximum edge-disjoint paths: model, completion, and two solvers.

Each commodity gets its own tree variable (rooted at the commodity's
target, source marked), and a single :class:`PathEdgeDisjoint`
constraint over all of them measures how far the induced paths are from
mutual disjointness.  The local-search solver minimizes that violation
count; at the start, whenever it improves and at every one-move local
minimum, the current paths are turned into a feasible solution by
*extraction* (repeatedly dropping the path sharing most edges with the
others; :func:`extract_disjoint`, defined in ``objectives`` beside the
constraint that keeps its state) followed by *greedy completion*
(re-routing dropped commodities on the leftover edges, in index order,
shortest hop first).  The best feasible solution seen anywhere along
the run is what the solver returns.  A later routing is kept only if it
routes strictly more, so two kinds of evaluation are skipped: every one
once the best routes all commodities, and one whose extraction keeps
the paths the last completion kept, since completion is deterministic
in them.  Paths repeated from the last extraction keep what it kept, so
they take the second skip (see :func:`solve_ls`).

The baseline is a multi-start greedy: one greedy completion per pass,
from nothing, in a random commodity order; the best pass wins.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from .graph import (Commodity, FreeEdges, Graph, WholeGraphPaths,
                    _content_lines, path_nodes, shortest_path_avoiding)
from .objectives import PathEdgeDisjoint, extract_disjoint
from .search import SearchConfig, SearchTrace, run
from .treevar import RootedSpanningTree, _shuffle


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


def greedy_complete(
    g: Graph,
    kept: Mapping[int, Sequence[int]],
    pending: Sequence[tuple[int, Commodity]],
    *,
    memo: WholeGraphPaths | None = None,
) -> dict[int, tuple[int, ...]]:
    """Try to route the pending commodities on the edges nothing uses yet.

    The kept paths must be edge ids of ``g``, mutually edge-disjoint,
    with no edge twice in one path either; otherwise ValueError.
    Commodities are attempted in the order ``pending`` lists them, with
    shortest-hop routing; successes claim their edges immediately.  All
    searches run on one :class:`FreeEdges` view of ``g``, whose flags
    clear each kept path and each new one.  Since the view only loses
    edges, the component labels its failed searches leave stay exact
    for the whole call, and a commodity whose ends they separate fails
    without a traversal.
    ``memo``, a :class:`WholeGraphPaths` of ``g``, lets a commodity whose
    whole-graph path is still free take it without a traversal; the
    routing is the same with or without it (see :class:`FreeEdges`).
    :func:`solve_msga` passes one.  The local search does not: after
    extraction the kept paths already block most whole-graph paths, so
    the fills cost more than the hits save.  On the capped seed-0 solves
    of ``ls-mesh25-dense`` a memo would answer 8 of the 420 searches
    that route and raise the nodes all searches dequeue by 82 %
    (85,330 to 155,374); on ``ls-mesh15-sparse`` it would answer 145 of
    1,594 and still raise them by 7.9 % (196,895 to 212,466).
    Never drops an input path.
    """
    routed = {i: tuple(p) for i, p in kept.items()}
    free = FreeEdges(g, memo)
    for p in routed.values():
        free.remove(p)
    for i, c in pending:
        path = shortest_path_avoiding(free, c.source, c.target)
        if path is not None:
            routed[i] = tuple(path)
            free.remove(path)
    return routed


def evaluate_assignment(
    g: Graph,
    commodities: Sequence[Commodity],
    paths: Sequence[Sequence[int]],
) -> dict[int, tuple[int, ...]]:
    """Feasible routing reachable from the given (possibly conflicting)
    paths: extraction, then greedy completion around the kept paths
    with the other commodities pending in index order.  ``paths[i]`` is
    commodity ``i``'s, so the two must be equally long; otherwise
    ValueError.  :func:`solve_ls` gets the same routing from its
    constraint's kept state, with the same completion step."""
    if len(paths) != len(commodities):
        raise ValueError(
            f"{len(paths)} paths for {len(commodities)} commodities")
    kept = {i: paths[i] for i in extract_disjoint(paths)}
    pending = [(i, c) for i, c in enumerate(commodities) if i not in kept]
    return greedy_complete(g, kept, pending)


def solve_ls(inst: EdpInstance, cfg: SearchConfig) -> tuple[EdpSolution, SearchTrace]:
    """Violation-guided local search with extraction on the side.

    The search itself only ever sees the violation count; feasible
    solutions are extracted from the search's ``evaluate`` hook (the
    initial trees, every new violation best and every one-move local
    minimum; see ``search.run``), and the first one with the most
    routed commodities is returned.  An evaluation is
    :func:`evaluate_assignment` of the induced paths, with the same
    routing, but its extraction only runs the drops
    (:meth:`PathEdgeDisjoint.extract_disjoint`): the constraint already
    keeps the loads, holders and overlaps they start from.  The trees
    are left in their final search state, not the one that gave the
    best routing.

    An evaluation is kept only if it routes strictly more than the
    best, and the best only grows, so two kinds are skipped, with the
    same result and decisions as running them:

    * once the best routes all ``k`` commodities, every evaluation, as
      nothing routes more;
    * after extraction, one whose kept paths equal those of the last
      evaluation that completed.  Completion is deterministic in the
      graph, the kept paths and the pending order, and that order is
      the other commodities by index, so the routing would be that
      completion's, which was already compared with the best.

    An evaluation whose induced paths equal those of the last one that
    extracted takes the second skip: extraction reads only the paths,
    so it keeps what that one kept, and after every extraction the
    memo ``last_kept`` holds what it kept (it was either just stored
    or already equal).  Induced paths are cached per revision, so the
    comparison is mostly identity checks.  On the capped seed-0 solves
    of ``ls-mesh25-dense``, 39 of the 63 evaluations skip their
    completion on the second count; on ``ls-mesh15-sparse``, 74 of 596
    take the first and 215 of the other 522 the second.

    In budget mode the clock starts on entry, so building the model
    counts against ``time_limit_s``, and trace times and ``best_time``
    count from entry, as in :func:`solve_msga`.  No extraction after
    the initial one starts once the limit has passed.
    """
    started = time.monotonic()
    constraint = build_model(inst, cfg.seed)
    best: EdpSolution | None = None
    last_kept: dict[int, tuple[int, ...]] | None = None

    def evaluate(clock: float) -> None:
        nonlocal best, last_kept
        if best is not None and best.objective == inst.k:
            return
        trees = constraint.trees
        kept = {i: trees[i].induced_path() for i in constraint.extract_disjoint()}
        if kept == last_kept:
            return
        last_kept = kept
        pending = [(i, c) for i, c in enumerate(inst.commodities)
                   if i not in kept]
        routed = greedy_complete(inst.graph, kept, pending)
        if best is None or len(routed) > best.objective:
            best = EdpSolution(routed, constraint.value(), clock)

    trace = run(constraint, cfg, evaluate, started)
    assert best is not None  # the initial evaluation always runs
    return best, trace


def solve_msga(inst: EdpInstance, cfg: SearchConfig) -> tuple[EdpSolution, SearchTrace]:
    """Multi-start greedy baseline.

    Each pass is a greedy completion from nothing in a fresh random
    commodity order: every commodity gets the shortest path on edges no
    earlier one claimed, or none if it cannot be routed.  The best pass
    wins.  The order is drawn by ``treevar._shuffle``, with the draws
    of ``random.shuffle``, as every shuffle in the engine is.  With
    ``iter_cap`` set, exactly that many passes run and the trace clock
    counts passes; otherwise passes repeat until the time limit (at
    least one always runs).

    Every pass starts from the whole graph, so a commodity routed
    before the edges of its whole-graph shortest path are claimed takes
    that very path.  The passes share one :class:`WholeGraphPaths` memo,
    made per solve so that no solve starts warm, and such a commodity is
    routed without a traversal; on the capped seed-0 passes of
    ``msga-mesh25-dense``, 5,252 of the 14,513 searches that route are
    answered so.
    """
    rng = random.Random(cfg.seed)
    memo = WholeGraphPaths(inst.graph)
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
        _shuffle(order, rng.getrandbits)
        routed = greedy_complete(
            inst.graph, {}, [(i, inst.commodities[i]) for i in order],
            memo=memo)
        if passes == 1 or len(routed) > len(best_routed):
            best_routed = routed
            clock = float(passes) if capped else time.monotonic() - start
            trace.improvements.append((clock, len(routed)))

    trace.iterations = passes
    return EdpSolution(best_routed, 0, trace.best_time), trace


# Solvers by the name ``treeroute solve --solver`` and bench specs use.
SOLVERS = {"ls": solve_ls, "msga": solve_msga}


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

    for lineno, line in _content_lines(text):
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
        for a, b in zip(nodes, nodes[1:]):
            eid = g.find_edge(a, b)
            if eid is None:
                problems.append(f"line {lineno}: no edge ({a},{b}) in the graph")
                break
            if eid in used_edges:
                problems.append(
                    f"line {lineno}: edge ({a},{b}) already used by another path"
                )
                break
            used_edges.add(eid)

    if not summary_seen:
        problems.append("missing summary line")
    elif stated_objective is not None and stated_objective != path_lines:
        problems.append(
            f"summary says objective={stated_objective} but dump has "
            f"{path_lines} path(s)"
        )
    return problems
