"""Independent reference implementations used to check the package.

Everything here deliberately avoids the package's own fast paths:
cycles come from networkx or from the two endpoints' father chains,
paths from breadth-first search over explicit edge sets, violations
from plain counting over explicit path lists.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import networkx as nx

from treeroute import BasicMove, EdpSolution, Graph, RootedSpanningTree
from treeroute import search


def to_networkx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.node_count))
    for eid, (u, v) in enumerate(g.edges):
        nxg.add_edge(u, v, eid=eid)
    return nxg


def bfs_distance(g: Graph, s: int, t: int, forbidden=frozenset()) -> int | None:
    """Hop distance ignoring forbidden edges; None if unreachable."""
    dist = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == t:
            return dist[u]
        for eid, w in g.neighbors[u]:
            if eid in forbidden:
                continue
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return None


def shortest_path_avoiding_reference(g: Graph, s: int, t: int,
                                     forbidden=frozenset()):
    """Minimum-hop s-t edge sequence with no forbidden edge, or None:
    breadth-first search over the whole graph that tests the forbidden
    set at every incidence, visiting incidences in the graph's order,
    so ties resolve as the package's search must resolve them."""
    parent_edge = [-1] * g.node_count
    seen = [False] * g.node_count
    seen[s] = True
    queue = deque([s])
    while queue and not seen[t]:
        u = queue.popleft()
        for eid, w in g.neighbors[u]:
            if eid in forbidden or seen[w]:
                continue
            seen[w] = True
            parent_edge[w] = eid
            if w == t:
                break
            queue.append(w)
    if not seen[t]:
        return None
    path = []
    cur = t
    while cur != s:
        eid = parent_edge[cur]
        path.append(eid)
        cur = g.other_end(eid, cur)
    return path[::-1]


def greedy_complete_reference(g: Graph, kept, pending):
    """Greedy completion over an explicit set of used edges: each pending
    commodity, in order, takes the reference shortest path avoiding
    every edge the kept and earlier routed paths use."""
    routed = {i: tuple(p) for i, p in kept.items()}
    used: set[int] = set()
    for p in routed.values():
        used.update(p)
    for i, c in pending:
        path = shortest_path_avoiding_reference(g, c.source, c.target, used)
        if path is not None:
            routed[i] = tuple(path)
            used.update(path)
    return routed


def solve_msga_reference(inst, cfg):
    """Capped multi-start greedy written plainly: ``cfg.iter_cap``
    passes, each one shuffle of the commodity indices with
    ``random.Random(cfg.seed)`` and a reference greedy completion in
    that order; a pass is kept when it is the first or routes strictly
    more than the best so far.  Returns the best routing and the
    ``(pass number, routed count)`` of every kept pass."""
    rng = random.Random(cfg.seed)
    best: dict[int, tuple[int, ...]] = {}
    improvements: list[tuple[float, int]] = []
    for passes in range(1, cfg.iter_cap + 1):
        order = list(range(len(inst.commodities)))
        rng.shuffle(order)
        routed = greedy_complete_reference(
            inst.graph, {}, [(i, inst.commodities[i]) for i in order])
        if passes == 1 or len(routed) > len(best):
            best = routed
            improvements.append((float(passes), len(routed)))
    return best, improvements


def cycle_of(g: Graph, tree_edges, e_in: int) -> set[int]:
    """Tree edges on the cycle that inserting e_in closes (networkx)."""
    nxg = nx.Graph()
    for eid in tree_edges:
        u, v = g.edges[eid]
        nxg.add_edge(u, v, eid=eid)
    u, v = g.edges[e_in]
    nodes = nx.shortest_path(nxg, u, v)
    return {nxg.edges[a, b]["eid"] for a, b in zip(nodes, nodes[1:])}


def path_from_tree(g: Graph, tree_edges, s: int, t: int) -> tuple[int, ...]:
    """Unique s-t path inside an explicit spanning-tree edge set (BFS)."""
    parent: dict[int, int] = {s: -1}
    queue = deque([s])
    edge_set = set(tree_edges)
    while queue:
        u = queue.popleft()
        for eid, w in g.neighbors[u]:
            if eid not in edge_set:
                continue
            if w not in parent:
                parent[w] = eid
                queue.append(w)
    path = []
    cur = t
    while cur != s:
        eid = parent[cur]
        path.append(eid)
        cur = g.other_end(eid, cur)
    return tuple(reversed(path))


def violation_count(paths) -> int:
    """Brute-force disjointness violation of explicit edge paths."""
    loads: dict[int, int] = {}
    for p in paths:
        for e in p:
            loads[e] = loads.get(e, 0) + 1
    return sum(c - 1 for c in loads.values() if c > 1)


def all_spanning_trees(g: Graph):
    """Every spanning-tree edge set of a small graph, by enumeration."""
    n = g.node_count
    for combo in itertools.combinations(range(g.edge_count), n - 1):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        for eid in combo:
            u, v = g.edges[eid]
            nxg.add_edge(u, v)
        if nxg.number_of_edges() == n - 1 and nx.is_connected(nxg):
            yield frozenset(combo)


def random_connected_graph(rng: random.Random, n: int, extra: int,
                           weight_range=(1, 9), columns=1) -> Graph:
    """Random connected graph with `extra` chords and random int weights."""
    edges = []
    used = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v))
        used.add((u, v))
    max_extra = n * (n - 1) // 2 - (n - 1)
    for _ in range(min(extra, max_extra) * 4):
        if len(edges) >= n - 1 + extra:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in used:
            continue
        used.add(key)
        edges.append(key)
    lo, hi = weight_range
    weights = [
        tuple(rng.randint(lo, hi) for _ in range(columns)) for _ in edges
    ]
    return Graph(n, edges, weights, (0,) * columns)


def random_tree_variable(rng: random.Random, g: Graph,
                         s: int | None = None, t: int | None = None):
    if s is None or t is None:
        s = rng.randrange(g.node_count)
        t = rng.randrange(g.node_count)
        while t == s:
            t = rng.randrange(g.node_count)
    return RootedSpanningTree.random_tree(g, s, t, random.Random(rng.randrange(2 ** 32)))


def random_valid_move(rng: random.Random, tree) -> "tuple[int, int] | None":
    """A uniformly random (e_in, e_out) valid basic move, or None."""
    candidates = tree.replacing_edges()
    if not candidates:
        return None
    e_in = rng.choice(candidates)
    cycle = tree.fundamental_cycle(e_in)
    return e_in, rng.choice(cycle)


def enumerate_optimum(g: Graph, commodities) -> int:
    """True EDP optimum by enumerating all simple-path combinations."""
    nxg = to_networkx(g)
    path_lists = []
    for c in commodities:
        paths = []
        for nodes in nx.all_simple_paths(nxg, c.source, c.target):
            paths.append(frozenset(
                nxg.edges[a, b]["eid"] for a, b in zip(nodes, nodes[1:])
            ))
        path_lists.append(paths)
    best = 0
    options = [[None, *paths] for paths in path_lists]
    for combo in itertools.product(*options):
        chosen = [p for p in combo if p is not None]
        if len(chosen) <= best:
            continue
        total = sum(len(p) for p in chosen)
        if len(frozenset().union(*chosen)) == total:
            best = len(chosen)
    return best


def extract_disjoint_reference(paths) -> list[int]:
    """Quadratic extraction: every drop rescans every retained path's
    overlap and drops the worst, the higher index on ties."""
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


def random_fathers_reference(g: Graph, root: int, rng: random.Random):
    """Breadth-first random spanning tree as father lists, shuffling each
    node's incidences with ``random.shuffle``: the draws the package's
    tree construction must reproduce."""
    father_node = [-1] * g.node_count
    father_edge = [-1] * g.node_count
    seen = [False] * g.node_count
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        incident = list(g.neighbors[u])
        rng.shuffle(incident)
        for eid, w in incident:
            if not seen[w]:
                seen[w] = True
                father_node[w] = u
                father_edge[w] = eid
                queue.append(w)
    return father_node, father_edge


def explore_one_move_reference(tree, objective, rng: random.Random):
    """One-move scan that evaluates the exact delta of every preferred
    inserted edge: the move and the rng draws a filtered scan must
    reproduce.  The preferred moves come from the tree's father lists
    (:func:`_preferred_moves`), not from the index under test."""
    fathers = (tree._father_node, tree._father_edge)
    path = _root_chain(fathers, tree.source)
    moves = _preferred_moves(tree.graph, fathers, tree.source)
    rng.shuffle(moves)
    delta = objective.move_delta_fn(tree)
    for e_in, a, b in moves:
        move = BasicMove(e_in, rng.choice(path[a:b]))
        if delta(move) < 0:
            return move
    return None


# -- the local-search solver, written plainly ---------------------------------
#
# A tree is its root and its father lists; every query below derives what
# it needs from them afresh: the induced path by walking the fathers, a
# fundamental cycle from the two endpoints' chains to the root, a move by
# rebuilding the fathers from the swapped edge set, a delta by recounting
# the violation of every path.


def _fathers_from_edges(g: Graph, root: int, tree_edges):
    """Father lists of the spanning tree ``tree_edges`` hung from ``root``."""
    father_node = [-1] * g.node_count
    father_edge = [-1] * g.node_count
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for eid, w in g.neighbors[u]:
            if eid in tree_edges and w not in seen:
                seen.add(w)
                father_node[w] = u
                father_edge[w] = eid
                queue.append(w)
    return father_node, father_edge


def _root_chain(fathers, x: int) -> list[int]:
    """Father edges from ``x`` up to the root."""
    father_node, father_edge = fathers
    chain = []
    while father_edge[x] >= 0:
        chain.append(father_edge[x])
        x = father_node[x]
    return chain


def _preferred_moves(g: Graph, fathers, source: int):
    """``(e_in, a, b)`` for every non-tree edge, ascending, whose cycle
    meets the induced path ``path``; ``a`` and ``b`` are the positions of
    the first of those path edges and one past the last, so the cycle's
    on-path edges are ``path[a:b]`` when they are contiguous."""
    path = _root_chain(fathers, source)
    tree_edges = set(fathers[1])
    moves = []
    for e_in, (u, v) in enumerate(g.edges):
        if e_in in tree_edges:
            continue
        cycle = set(_root_chain(fathers, u)) ^ set(_root_chain(fathers, v))
        on_path = [a for a, e in enumerate(path) if e in cycle]
        if on_path:
            moves.append((e_in, on_path[0], on_path[-1] + 1))
    return moves


def _moved(g: Graph, fathers, root: int, e_in: int, e_out: int):
    tree_edges = set(fathers[1]) - {-1, e_out} | {e_in}
    return _fathers_from_edges(g, root, tree_edges)


def solve_ls_reference(inst, cfg):
    """Capped ``edp.solve_ls`` written plainly: one random breadth-first
    tree per commodity from ``random.Random(cfg.seed)``
    (:func:`random_fathers_reference`), then ``cfg.iter_cap`` iterations
    of the one-move descent with a second ``random.Random(cfg.seed)``,
    making the draws ``search.run`` makes.  Each iteration shuffles the
    tree order and scans each tree's shuffled preferred moves, drawing a
    removal for each and accepting the first whose full violation
    recount is lower; a failed scan evaluates and then kicks,
    perturbation first, restart next.  An evaluation is the reference
    extraction and the reference completion in index order, kept when it
    is the first or routes strictly more.  Returns the best solution,
    ``trace.improvements`` and ``trace.events``."""
    g = inst.graph
    commodities = inst.commodities
    k = len(commodities)
    build_rng = random.Random(cfg.seed)
    fathers = [random_fathers_reference(g, c.target, build_rng)
               for c in commodities]
    rng = random.Random(cfg.seed)

    def paths():
        return [tuple(_root_chain(f, c.source))
                for f, c in zip(fathers, commodities)]

    def violation_with(i, moved):
        current = paths()
        current[i] = tuple(_root_chain(moved, commodities[i].source))
        return violation_count(current)

    def conflicted():
        current = paths()
        loads: dict[int, int] = {}
        for p in current:
            for e in p:
                loads[e] = loads.get(e, 0) + 1
        return [i for i, p in enumerate(current) if any(loads[e] >= 2 for e in p)]

    best = None

    def evaluate(clock):
        nonlocal best
        current = paths()
        kept = {i: current[i] for i in extract_disjoint_reference(current)}
        pending = [(i, c) for i, c in enumerate(commodities) if i not in kept]
        routed = greedy_complete_reference(g, kept, pending)
        if best is None or len(routed) > len(best[0]):
            best = (routed, violation_count(current), clock)

    def scan(i):
        path = _root_chain(fathers[i], commodities[i].source)
        moves = _preferred_moves(g, fathers[i], commodities[i].source)
        rng.shuffle(moves)
        before = violation_count(paths())
        for e_in, a, b in moves:
            e_out = rng.choice(path[a:b])
            moved = _moved(g, fathers[i], commodities[i].target, e_in, e_out)
            if violation_with(i, moved) < before:
                return moved
        return None

    def perturb():
        targets = conflicted() or rng.sample(range(k), min(2, k))
        for i in targets:
            for _ in range(search.PERTURBATION_MOVES):
                path = _root_chain(fathers[i], commodities[i].source)
                choices = _preferred_moves(g, fathers[i], commodities[i].source)
                if not choices:
                    break
                before = violation_count(paths())
                picked = None
                for _ in range(12):
                    e_in, a, b = rng.choice(choices)
                    moved = _moved(g, fathers[i], commodities[i].target,
                                   e_in, rng.choice(path[a:b]))
                    if violation_with(i, moved) <= before:
                        picked = moved
                        break
                    if picked is None:
                        picked = moved
                fathers[i] = picked

    def restart():
        for i in conflicted() or [rng.choice(range(k))]:
            fathers[i] = random_fathers_reference(g, commodities[i].target, rng)

    improvements = [(0.0, violation_count(paths()))]
    events = []
    evaluate(0.0)
    kicks = 0
    for iteration in range(1, cfg.iter_cap + 1):
        clock = float(iteration)
        order = list(range(k))
        rng.shuffle(order)
        for i in order:
            moved = scan(i)
            if moved is not None:
                fathers[i] = moved
                value = violation_count(paths())
                events.append((clock, "accept:one-move", value))
                if value < improvements[-1][1]:
                    improvements.append((clock, value))
                    evaluate(clock)
                break
        else:
            evaluate(clock)
            kicks += 1
            if kicks % 2 == 1:
                perturb()
                event = "perturbation"
            else:
                restart()
                event = "restart"
            events.append((clock, event, violation_count(paths())))
    routed, violation, best_time = best
    return EdpSolution(routed, violation, best_time), improvements, events
