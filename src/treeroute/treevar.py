"""Rooted spanning tree variables and edge-replacement moves.

A :class:`RootedSpanningTree` represents one elementary path implicitly:
the tree spans the whole graph, is rooted at the path's target node, and
the unique source-to-root chain of father pointers is the modeled path
(the *induced path*).  The father pointers are the variable's whole
state: an edge's tree membership is read off them.  Changing the tree by
swapping one non-tree edge in and one tree edge out yields a new spanning
tree and therefore possibly a new induced path; that swap is the
elementary move of the neighborhood.

Terminology used throughout:

* a *replacing* edge is a non-tree edge; inserting it closes exactly one
  cycle (its fundamental cycle),
* a *replacable* edge (for a given replacing edge) is any tree edge on
  that cycle; removing it restores a spanning tree,
* a move is *preferred* when it actually changes the induced path, which
  happens exactly when the removed edge lies on the induced path: removing
  a tree edge detaches the subtree below it, and the path changes iff the
  source sits inside that detached subtree.

Complex moves bundle pairwise independent basic moves; independence is
prechecked by requiring pairwise edge-disjoint fundamental cycles (each
removed edge inside its own cycle), which makes the application order
irrelevant.  The search engine accepts only basic moves; complex moves
serve the library neighbourhood ``search.explore_two_move``.  Basic
moves and bundles return one kind of undo token.  Every move query
checks its inserted edge with
:meth:`~RootedSpanningTree._replacing_ends`.  The removed edge is
checked by :meth:`~RootedSpanningTree._orient` in ``apply``, and in
``simulate_path`` unless it lies in the stretch of the induced path
between the join positions of the inserted edge's ends, which holds
exactly the cycle's on-path edges; ``independent`` checks it against
the fundamental cycle.  Random trees draw from a ``random.Random`` the
caller owns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Graph

class InvalidMoveError(ValueError):
    """The move is not applicable to the tree in its current state."""


@dataclass(frozen=True)
class BasicMove:
    """Swap a non-tree edge in (``e_in``) and a cycle edge out (``e_out``)."""

    e_in: int
    e_out: int


@dataclass(frozen=True)
class ComplexMove:
    """An unordered bundle of pairwise independent basic moves."""

    moves: tuple[BasicMove, ...]

    def __post_init__(self) -> None:
        if not self.moves:
            raise InvalidMoveError("complex move needs at least one basic move")


@dataclass
class _Undo:
    tree: RootedSpanningTree
    reoriented: list[tuple[int, int, int]]  # (node, old father node, old father edge)
    version_after: int


class RootedSpanningTree:
    """Mutable spanning tree of a graph, rooted at the path target.

    Father pointers orient every edge towards the root, and they are the
    whole state: an edge is a tree edge iff it is the father edge of one
    of its endpoints, so no separate edge set is kept.  The variable is
    single-writer: mutate it from one thread only.
    """

    __slots__ = ("graph", "source", "root", "version",
                 "_father_node", "_father_edge", "_path",
                 "_index")

    def __init__(self, graph: Graph, source: int, root: int,
                 father_node: list[int], father_edge: list[int]) -> None:
        """Wrap father arrays as they are.

        Only ``source`` and ``root`` are checked; the arrays are trusted,
        and arrays that do not form a spanning tree make later queries
        wrong or endless.  :meth:`random_tree` and :meth:`from_edges` are the
        checked entry points, and :meth:`validate` checks any tree."""
        self._check_ends(graph, source, root)
        self.graph = graph
        self.source = source
        self.root = root
        self._father_node = father_node
        self._father_edge = father_edge
        self.version = 0
        # Derived from the tree, filled lazily and cleared by _bump().
        self._path: tuple[int, ...] | None = None
        self._index: tuple | None = None

    # -- construction --------------------------------------------------------

    @staticmethod
    def _check_ends(graph: Graph, source: int, root: int) -> None:
        if source == root:
            raise ValueError("source must differ from root")
        for node in (source, root):
            if not (0 <= node < graph.node_count):
                raise ValueError(f"node id {node} out of range")

    @classmethod
    def random_tree(cls, graph: Graph, source: int, root: int,
                    rng: random.Random) -> "RootedSpanningTree":
        """Random spanning tree grown breadth-first from the root with
        adjacency shuffled by ``rng``.

        Breadth-first growth makes every father chain hop-minimal, so the
        variable starts on a (randomly chosen) shortest induced path;
        search moves then only lengthen it when that pays off.  The draws
        are those of ``random.shuffle`` (see :meth:`_random_fathers`)."""
        cls._check_ends(graph, source, root)
        father_node, father_edge = cls._random_fathers(graph, root, rng)
        return cls(graph, source, root, father_node, father_edge)

    @classmethod
    def from_edges(cls, graph: Graph, source: int, root: int,
                   tree_edges: Iterable[int]) -> "RootedSpanningTree":
        """Build the variable from an explicit spanning-tree edge set."""
        cls._check_ends(graph, source, root)
        edge_set = set(tree_edges)
        if len(edge_set) != graph.node_count - 1:
            raise ValueError(
                f"{len(edge_set)} edges cannot span {graph.node_count} nodes"
            )
        father_node = [-1] * graph.node_count
        father_edge = [-1] * graph.node_count
        seen = [False] * graph.node_count
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for eid, w in graph.neighbors[u]:
                if eid not in edge_set:
                    continue
                if not seen[w]:
                    seen[w] = True
                    father_node[w] = u
                    father_edge[w] = eid
                    stack.append(w)
        if not all(seen):
            raise ValueError("tree_edges do not form a spanning tree")
        return cls(graph, source, root, father_node, father_edge)

    @staticmethod
    def _random_fathers(graph: Graph, root: int,
                        rng: random.Random) -> tuple[list[int], list[int]]:
        """Father lists of a breadth-first tree from ``root`` that visits
        each node's incidences in a random order.

        The order comes from CPython's Fisher-Yates shuffle written out
        inline (``random.shuffle`` costs a Python call per swap): for
        ``i`` from the last index down to 1, swap with ``j`` drawn by
        ``getrandbits`` of ``(i + 1).bit_length()`` bits and redrawn
        while ``j > i``.  For ``random.Random`` these are exactly the
        draws ``random.shuffle`` makes, so the trees and the rng state
        afterwards are the ones a shuffle per node would give; a
        subclass that overrides ``random()`` but not ``getrandbits()``
        would draw differently, since its shuffle uses ``random()``.
        ``tests/test_treevar.py`` pins the equality against
        ``random.shuffle``.
        """
        neighbors = graph.neighbors
        getrandbits = rng.getrandbits
        father_node = [-1] * graph.node_count
        father_edge = [-1] * graph.node_count
        seen = [False] * graph.node_count
        seen[root] = True
        queue = [root]
        for u in queue:
            incident = list(neighbors[u])
            for i in range(len(incident) - 1, 0, -1):
                bits = (i + 1).bit_length()
                j = getrandbits(bits)
                while j > i:
                    j = getrandbits(bits)
                incident[i], incident[j] = incident[j], incident[i]
            for eid, w in incident:
                if not seen[w]:
                    seen[w] = True
                    father_node[w] = u
                    father_edge[w] = eid
                    queue.append(w)
        return father_node, father_edge

    def reinit_random(self, rng: random.Random) -> None:
        """Replace the whole tree with a fresh random one (used by restarts)."""
        self._father_node, self._father_edge = self._random_fathers(
            self.graph, self.root, rng)
        self._bump()

    # -- read-only queries ---------------------------------------------------

    @property
    def tree_edges(self) -> frozenset[int]:
        return frozenset(e for e in self._father_edge if e >= 0)

    def induced_path(self) -> tuple[int, ...]:
        """Edge sequence of the source-to-root path (never empty)."""
        if self._path is None:
            path = []
            node = self.source
            while node != self.root:
                path.append(self._father_edge[node])
                node = self._father_node[node]
            self._path = tuple(path)
        return self._path

    def replacing_edges(self) -> list[int]:
        """All non-tree edges, ascending."""
        tree = set(self._father_edge)
        return [e for e in range(self.graph.edge_count) if e not in tree]

    def fundamental_cycle(self, e_in: int) -> list[int]:
        """Tree edges on the cycle closed by inserting ``e_in``, ordered
        from e_in's first endpoint to its second."""
        self._replacing_ends(e_in)
        seg_u, seg_v = self._cycle_segments(e_in)
        return seg_u + seg_v[::-1]

    def preferred_moves(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """All path-changing moves as ``(e_in, (e_out, ...))`` pairs, in
        ascending ``e_in`` order and cached per revision; the workhorse of
        neighborhood scans.

        The ``e_out`` are the fundamental-cycle edges of ``e_in`` that lie
        on the induced path.  The cycle meets the path in a contiguous
        stretch: it follows father chains from e_in's endpoints, and each
        chain joins the path at one node and then stays on it.  The
        stretch runs between those two join positions, so it is read off
        the path index without walking the cycle.
        """
        return self._path_index()[2]

    def chain_counter(self, values: Sequence[int]):
        """``(join, count)`` for the current revision, read-only.

        ``join[x]`` is the position on the induced path (0 at the source)
        of the node where x's father chain first meets the path, x's own
        position if x is on it; a preferred ``e_in = (u, v)`` takes the
        path edges between ``join[u]`` and ``join[v]`` off the path.
        ``count(x)`` is the number of edges ``e`` on x's chain before
        that node with ``values[e] != 0``; those edges are all off the
        path.  Counts are memoized on every node a walk passes, so a
        scan's calls walk each off-path node at most once.  Both are
        valid while neither the tree nor ``values`` changes."""
        nodes, join, _ = self._path_index()
        father, father_edge = self._father_node, self._father_edge
        memo = dict.fromkeys(nodes, 0)

        def count(x: int) -> int:
            trail = []
            while x not in memo:
                trail.append(x)
                x = father[x]
            c = memo[x]
            for y in reversed(trail):
                if values[father_edge[y]]:
                    c += 1
                memo[y] = c
            return c

        return join, count

    def independent(self, moves: Sequence[BasicMove]) -> bool:
        """Sufficient precheck for move independence in the current tree:
        pairwise edge-disjoint fundamental cycles, each removed edge inside
        its own cycle.  Raises :class:`InvalidMoveError` for an inserted
        edge that is not a non-tree edge, as every move query does."""
        cycles: list[set[int]] = []
        for m in moves:
            cycle = set(self.fundamental_cycle(m.e_in))
            if m.e_out not in cycle:
                return False
            if any(not cycle.isdisjoint(other) for other in cycles):
                return False
            cycles.append(cycle)
        seen_in = {m.e_in for m in moves}
        return len(seen_in) == len(moves)

    # -- mutation ------------------------------------------------------------

    def apply(self, move: BasicMove) -> _Undo:
        """Perform the edge replacement; returns a token for :meth:`undo`.

        Only father pointers along the chain from the inserted edge's
        detached endpoint up to the removed edge are touched, so the cost
        is O(cycle length)."""
        reoriented: list[tuple[int, int, int]] = []
        self._swap(move, reoriented)
        self._bump()
        return _Undo(self, reoriented, self.version)

    def apply_complex(self, cm: ComplexMove) -> _Undo:
        """Apply all basic moves of an independent bundle atomically.

        Rejected (tree unchanged) when the independence precheck fails.
        Once it passes no move can fail: the cycles are edge-disjoint and
        the inserted edges distinct, so after any of the moves each other
        move's cycle is still in the tree and its removal still on it.
        Hence the order is irrelevant too.
        """
        if not self.independent(cm.moves):
            raise InvalidMoveError("basic moves are not independent")
        reoriented: list[tuple[int, int, int]] = []
        for m in cm.moves:
            self._swap(m, reoriented)
        self._bump()
        return _Undo(self, reoriented, self.version)

    def undo(self, token: _Undo) -> None:
        """Restore the exact tree state from before the matching apply.

        Tokens must be undone in LIFO order on the tree that issued them;
        the version counter keeps increasing (it tracks revisions, not
        states)."""
        if token.tree is not self or token.version_after != self.version:
            raise InvalidMoveError("undo token is stale or belongs to another"
                                   " tree; undo must mirror apply order")
        self._restore(token.reoriented)
        self._bump()

    def _swap(self, move: BasicMove,
              reoriented: list[tuple[int, int, int]]) -> None:
        """Swap ``move`` in, recording the old father pointers it changes
        in ``reoriented``; an invalid move changes nothing.  The caller
        bumps the revision."""
        e_in, e_out = move.e_in, move.e_out
        self._replacing_ends(e_in)
        inside, outside = self._orient(e_in, e_out)
        # Reverse father pointers from `inside` up to the lower endpoint of
        # e_out; everything else in the detached subtree keeps its father.
        cur = inside
        new_father, new_edge = outside, e_in
        while True:
            old_father = self._father_node[cur]
            old_edge = self._father_edge[cur]
            reoriented.append((cur, old_father, old_edge))
            self._father_node[cur] = new_father
            self._father_edge[cur] = new_edge
            if old_edge == e_out:
                break
            new_father, new_edge = cur, old_edge
            cur = old_father

    def _restore(self, reoriented: list[tuple[int, int, int]]) -> None:
        """Put back the father pointers ``_swap`` recorded, latest first."""
        for node, old_father, old_edge in reversed(reoriented):
            self._father_node[node] = old_father
            self._father_edge[node] = old_edge

    # -- simulation ----------------------------------------------------------

    def simulate_path(self, move: BasicMove) -> tuple[int, ...]:
        """Induced path the tree would have after ``move``, without mutating.

        Equals the current path when the removed edge is off it; otherwise
        it is the in-subtree walk from the source to the inserted edge's
        detached endpoint, the inserted edge, and the untouched father
        chain from the other endpoint to the root."""
        e_in, e_out = move.e_in, move.e_out
        inside, outside = self._replacing_ends(e_in)
        nodes, join, _ = self._path_index()
        path = self.induced_path()
        # Removing a path edge detaches the path's nodes up to it, so the
        # end that joins the path nearer the source hangs below it.
        if join[inside] > join[outside]:
            inside, outside = outside, inside
        a, b = join[inside], join[outside]
        if e_out not in path[a:b]:
            # Not one of the cycle's on-path edges: the path stays, but the
            # move must still be valid (slow check; cold in practice).
            self._orient(e_in, e_out)
            return path
        chain_in = []
        node, stop = inside, nodes[a]
        while node != stop:
            chain_in.append(self._father_edge[node])
            node = self._father_node[node]
        chain_out = []
        node, stop = outside, nodes[b]
        while node != stop:
            chain_out.append(self._father_edge[node])
            node = self._father_node[node]
        return (path[:a] + tuple(reversed(chain_in)) + (e_in,)
                + tuple(chain_out) + path[b:])

    # -- internals -----------------------------------------------------------

    def _bump(self) -> None:
        self.version += 1
        self._path = None
        self._index = None

    def _replacing_ends(self, e_in: int) -> tuple[int, int]:
        """Endpoints of ``e_in``; raises unless it is a non-tree edge (the
        range check comes first: ``graph.edges[-1]`` would wrap)."""
        if not (0 <= e_in < self.graph.edge_count):
            raise InvalidMoveError(f"no such edge {e_in}")
        u, v = self.graph.edges[e_in]
        if self._father_edge[u] == e_in or self._father_edge[v] == e_in:
            raise InvalidMoveError(f"edge {e_in} is already a tree edge")
        return u, v

    def _orient(self, e_in: int, e_out: int) -> tuple[int, int]:
        """``(inside, outside)`` ends of ``e_in``, ``inside`` the one whose
        father chain holds ``e_out``; raises unless ``e_out`` is on the cycle."""
        u, v = self.graph.edges[e_in]
        seg_u, seg_v = self._cycle_segments(e_in)
        if e_out in seg_u:
            return u, v
        if e_out in seg_v:
            return v, u
        raise InvalidMoveError(
            f"edge {e_out} is not on the cycle closed by edge {e_in}"
        )

    def _path_index(self):
        """Cached per revision: (nodes, join, preferred).

        ``nodes`` lists the induced path's nodes from the source (its
        edges are :meth:`induced_path`), ``join[x]`` is the index in
        ``nodes`` of the first on-path node on x's father chain (x's own
        index if x is on the path), and ``preferred`` is what
        :meth:`preferred_moves` returns.  Everything downstream of the
        neighborhood reduction reads from this index.
        """
        if self._index is not None:
            return self._index
        path_edges = self.induced_path()
        father = self._father_node
        join = [-1] * self.graph.node_count
        node = self.source
        nodes = [node]
        join[node] = 0
        while node != self.root:
            node = father[node]
            join[node] = len(nodes)
            nodes.append(node)
        for start in range(self.graph.node_count):
            if join[start] >= 0:
                continue
            trail = [start]
            node = father[start]
            while join[node] < 0:
                trail.append(node)
                node = father[node]
            hit = join[node]
            for x in trail:
                join[x] = hit
        preferred = []
        father_edge = self._father_edge
        for e_in, (u, v) in enumerate(self.graph.edges):
            if father_edge[u] == e_in or father_edge[v] == e_in:
                continue
            a, b = join[u], join[v]
            if a == b:
                continue
            if a > b:
                a, b = b, a
            preferred.append((e_in, path_edges[a:b]))
        self._index = (nodes, join, tuple(preferred))
        return self._index

    def _cycle_segments(self, e_in: int) -> tuple[list[int], list[int]]:
        """Father-chain segments (u-to-meet, v-to-meet) for e_in = (u, v)."""
        u, v = self.graph.edges[e_in]
        pos = {u: 0}
        edges_u = []
        x = u
        while x != self.root:
            edges_u.append(self._father_edge[x])
            x = self._father_node[x]
            pos[x] = len(edges_u)
        edges_v = []
        y = v
        while y not in pos:
            edges_v.append(self._father_edge[y])
            y = self._father_node[y]
        return edges_u[: pos[y]], edges_v

    # -- diagnostics ---------------------------------------------------------

    def validate(self) -> None:
        """Check all spanning-tree invariants; raises AssertionError."""
        g = self.graph
        n = g.node_count
        used = set()
        for node in range(n):
            fe = self._father_edge[node]
            fn = self._father_node[node]
            if node == self.root:
                if fe != -1 or fn != -1:
                    raise AssertionError("root must have no father")
                continue
            if not (0 <= fe < g.edge_count):
                raise AssertionError(f"node {node} has no father edge")
            if set(g.edges[fe]) != {node, fn}:
                raise AssertionError(f"father edge of {node} has wrong endpoints")
            if fe in used:
                raise AssertionError(f"edge {fe} is father edge of two nodes")
            used.add(fe)
        reached = {self.root}
        for node in range(n):
            trail = []
            x = node
            while x not in reached:
                trail.append(x)
                x = self._father_node[x]
                if len(trail) > n:
                    raise AssertionError(f"father chain from {node} cycles")
            reached.update(trail)
