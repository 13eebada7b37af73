"""Independent reference implementations used to check the package.

Everything here deliberately avoids the package's own fast paths:
cycles come from networkx, paths from breadth-first search over explicit
edge sets, violations from plain counting over explicit path lists.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import networkx as nx

from treeroute import Graph, RootedSpanningTree


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
    return RootedSpanningTree.random_tree(g, s, t, rng.randrange(2 ** 32))


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
