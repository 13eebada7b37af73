"""Rooted spanning tree variables and edge-replacement moves.

A :class:`RootedSpanningTree` represents one elementary path implicitly:
the tree spans the whole graph, is rooted at the path's target node, and
the unique source-to-root chain of father pointers is the modeled path
(the *induced path*).  The father pointers are the variable's whole
state: an edge's tree membership is read off them, and the ascending
list of non-tree edges the path index walks is derived from them:
``apply`` patches it, every other mutation drops it, and the next index
rebuild counts it again.  Changing the tree by
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
  source sits inside that detached subtree,
* the *stretch* of a replacing edge ``e_in = (u, v)`` is the run of
  induced-path edges on its cycle.  The father chains of ``u`` and ``v``
  join the path at two positions ``a < b`` (counted in edges from the
  source), and the stretch is ``induced_path()[a:b]``; the index keeps
  the positions, never the slice.

Complex moves bundle pairwise independent basic moves; independence is
prechecked by requiring pairwise edge-disjoint fundamental cycles (each
removed edge inside its own cycle), which makes the application order
irrelevant.  The search engine accepts only basic moves; complex moves
serve the library neighbourhood ``search.explore_two_move``.  Basic
moves and bundles return one kind of undo token.  Every move query
checks its inserted edge with
:meth:`~RootedSpanningTree._replacing_ends`: ``simulate_path`` calls it
for the ends it joins to the path, and every other query reads the
fundamental cycle through :meth:`~RootedSpanningTree._cycle_segments`,
which calls it first.  The removed edge is checked by
:meth:`~RootedSpanningTree._orient` in ``apply``, and in
``simulate_path`` unless it lies in the stretch of the induced path
between the join positions of the inserted edge's ends, which holds
exactly the cycle's on-path edges; ``independent`` checks it against
the fundamental cycle.  A well-formed tree has the father lists that
:meth:`~RootedSpanningTree.from_edges` builds from its own edges, and
:meth:`~RootedSpanningTree.validate` checks exactly that.  Random trees
draw from a ``random.Random`` the caller owns.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graph import Graph


def _shuffle(order: list, getrandbits: Callable[[int], int]) -> None:
    """Shuffle ``order`` in place as ``random.shuffle`` does, given the
    ``getrandbits`` of a ``random.Random``: CPython's Fisher-Yates, for
    ``i`` from the last index down to 1, draws ``j`` with
    ``getrandbits((i + 1).bit_length())``, redraws while ``j > i`` and
    swaps ``order[i]`` and ``order[j]``.  The draws and the order are
    the ones ``random.shuffle`` makes, without its Python call per
    swap.  A subclass that overrides ``random()`` but not
    ``getrandbits()`` would shuffle differently, since its shuffle uses
    ``random()``."""
    for i in range(len(order) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        order[i], order[j] = order[j], order[i]


def _shuffle_trie(order: list[int], i: int) -> tuple:
    """The orders Fisher-Yates steps ``i, i - 1, ..., 1`` make of
    ``order``, as nested tuples indexed by each step's swap index ``j``
    (``0 <= j <= i``); a leaf is a finished order."""
    if i <= 0:
        return tuple(order)
    children = []
    for j in range(i + 1):
        swapped = order.copy()
        swapped[i], swapped[j] = swapped[j], swapped[i]
        children.append(_shuffle_trie(swapped, i - 1))
    return tuple(children)


# Degree 5 has 120 leaves and builds in about 0.1 ms (2-vCPU Xeon,
# Python 3.11); degree 7 would take about 5 ms at every import.
_MAX_TRIE_DEGREE = 5
_SHUFFLE_TRIES = tuple(_shuffle_trie(list(range(d)), d - 1)
                       for d in range(_MAX_TRIE_DEGREE + 1))
# (i, bits) of each Fisher-Yates step, in the order the draws are made
_SHUFFLE_STEPS = tuple(
    tuple((i, (i + 1).bit_length()) for i in range(d - 1, 0, -1))
    for d in range(_MAX_TRIE_DEGREE + 1))
# the tries _random_fathers walks in straight-line code
_T3, _T4 = _SHUFFLE_TRIES[3], _SHUFFLE_TRIES[4]


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
    of its endpoints, so no separate edge set is kept.  ``_nontree``,
    the ascending list of non-tree edges, is derived from them: ``apply``
    patches it with ``bisect`` (one edge out, one in), construction,
    ``reinit_random``, ``undo`` and ``apply_complex`` drop it, and the
    next :meth:`_path_index` counts it again.  The variable is
    single-writer: mutate it from one thread only.
    """

    __slots__ = ("graph", "source", "root", "version",
                 "_father_node", "_father_edge", "_path",
                 "_index", "_nontree")

    def __init__(self, graph: Graph, source: int, root: int,
                 father_node: list[int], father_edge: list[int]) -> None:
        """Wrap father arrays as they are.

        Only ``source`` and ``root`` are checked; the arrays are trusted,
        and arrays that do not form a spanning tree make later queries
        wrong or endless.  :meth:`random_tree` and :meth:`from_edges` are the
        checked entry points, and :meth:`validate` checks that a tree's
        arrays are the ones :meth:`from_edges` would build."""
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
        self._nontree: array | None = None

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
        """Build the variable from an explicit spanning-tree edge set;
        raises ValueError unless the edges span the graph."""
        cls._check_ends(graph, source, root)
        return cls(graph, source, root,
                   *cls._edge_fathers(graph, root, tree_edges))

    @staticmethod
    def _edge_fathers(graph: Graph, root: int, tree_edges: Iterable[int]
                      ) -> tuple[list[int], list[int]]:
        """Father lists of the spanning tree ``tree_edges`` rooted at
        ``root``: the only ones a well-formed tree of that edge set can
        have.  Raises ValueError unless the ``node_count - 1`` distinct
        edges reach every node, which also rules out a cycle and an id
        outside the graph."""
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
        return father_node, father_edge

    @staticmethod
    def _random_fathers(graph: Graph, root: int,
                        rng: random.Random) -> tuple[list[int], list[int]]:
        """Father lists of a breadth-first tree from ``root`` that visits
        each node's incidences in a random order.

        The order is the one :func:`_shuffle` gives on ``range(d)`` for
        a node of degree ``d``, with its draws.  Up to
        ``_MAX_TRIE_DEGREE`` the accepted draws walk the degree's trie
        in ``_SHUFFLE_TRIES`` down to the order their swaps give, with
        no list to swap; above it ``_shuffle`` permutes
        ``list(range(d))``.  Degrees 4 and 3, most of a mesh's nodes,
        walk their tries (``_T4``, ``_T3``) in straight-line code: one
        draw-and-redraw block per step, ``(i, bits)`` = (3, 3), (2, 2),
        (1, 2), which saves the loop over ``_SHUFFLE_STEPS`` and its
        unpacking (a 25x25 mesh's trees build in about 0.8x the time;
        2-vCPU Xeon, Python 3.11).  So the trees and the rng state
        afterwards are the ones a ``random.shuffle`` per node would
        give; ``tests/test_treevar.py`` pins the equality.
        """
        neighbors = graph.neighbors
        getrandbits = rng.getrandbits
        father_node = [-1] * graph.node_count
        father_edge = [-1] * graph.node_count
        seen = [False] * graph.node_count
        seen[root] = True
        queue = [root]
        for u in queue:
            incident = neighbors[u]
            d = len(incident)
            if d == 4:
                j = getrandbits(3)
                while j > 3:
                    j = getrandbits(3)
                order = _T4[j]
                j = getrandbits(2)
                while j > 2:
                    j = getrandbits(2)
                order = order[j]
                j = getrandbits(2)
                while j > 1:
                    j = getrandbits(2)
                order = order[j]
            elif d == 3:
                j = getrandbits(2)
                while j > 2:
                    j = getrandbits(2)
                order = _T3[j]
                j = getrandbits(2)
                while j > 1:
                    j = getrandbits(2)
                order = order[j]
            elif d <= _MAX_TRIE_DEGREE:
                order = _SHUFFLE_TRIES[d]
                for i, bits in _SHUFFLE_STEPS[d]:
                    j = getrandbits(bits)
                    while j > i:
                        j = getrandbits(bits)
                    order = order[j]
            else:
                order = list(range(d))
                _shuffle(order, getrandbits)
            for k in order:
                eid, w = incident[k]
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
        """Edge sequence of the source-to-root path (never empty): the
        source's father chain, read by :meth:`_chain`."""
        if self._path is None:
            self._path = tuple(self._chain(self.source, self.root))
        return self._path

    def replacing_edges(self) -> list[int]:
        """All non-tree edges, ascending: a copy of the kept list."""
        if self._nontree is None:
            self._nontree = self._complement()
        return self._nontree.tolist()

    def fundamental_cycle(self, e_in: int) -> list[int]:
        """Tree edges on the cycle closed by inserting ``e_in``, ordered
        from e_in's first endpoint to its second."""
        seg_u, seg_v = self._cycle_segments(e_in)
        return seg_u + seg_v[::-1]

    def preferred_moves(self) -> tuple[tuple[int, int, int], ...]:
        """All path-changing moves as ``(e_in, a, b)`` triples, in
        ascending ``e_in`` order and cached per revision; the workhorse of
        neighborhood scans.

        The preferred removals for ``e_in`` are the fundamental-cycle
        edges of ``e_in`` that lie on the induced path, and they are
        ``induced_path()[a:b]`` with ``a < b``.  The cycle meets the path
        in a contiguous stretch: it follows father chains from e_in's
        endpoints, and each chain joins the path at one node and then
        stays on it.  ``a`` and ``b`` are those two join positions, so
        they are read off the path index without walking the cycle, and
        a caller that needs the removed edges slices the path itself.
        """
        return self._path_index()[2]

    def chain_counter(self, values: Sequence[int]):
        """``count(x)`` for the current revision: the number of edges
        ``e`` on x's father chain, before the node where the chain first
        meets the induced path, with ``values[e] != 0``; those edges are
        all off the path, and ``count`` of an on-path node is 0.  Counts
        are memoized on every node a walk passes, so a scan's calls walk
        each off-path node at most once.  Valid while neither the tree
        nor ``values`` changes."""
        nodes = self._path_index()[0]
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

        return count

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
        is O(cycle length); a kept non-tree list trades ``e_in`` for
        ``e_out`` in place and stays ascending."""
        reoriented: list[tuple[int, int, int]] = []
        self._swap(move, reoriented)
        nontree = self._nontree
        if nontree is not None:
            del nontree[bisect_left(nontree, move.e_in)]
            insort(nontree, move.e_out)
        self._bump(nontree)
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
        for node, old_father, old_edge in reversed(token.reoriented):
            self._father_node[node] = old_father
            self._father_edge[node] = old_edge
        self._bump()

    def _swap(self, move: BasicMove,
              reoriented: list[tuple[int, int, int]]) -> None:
        """Swap ``move`` in, recording the old father pointers it changes
        in ``reoriented``; an invalid move changes nothing.  The caller
        bumps the revision."""
        e_in, e_out = move.e_in, move.e_out
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

    # -- simulation ----------------------------------------------------------

    def simulate_path(self, move: BasicMove) -> tuple[int, ...]:
        """Induced path the tree would have after ``move``, without mutating.

        Equals the current path when the removed edge is off it; otherwise
        it is the in-subtree walk from the source to the inserted edge's
        detached endpoint, the inserted edge, and the untouched father
        chain from the other endpoint to the root.  Both endpoints' chains
        up to their join nodes are read by :meth:`_chain`, the detached
        one reversed."""
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
        chain_in = self._chain(inside, nodes[a])
        chain_in.reverse()
        return (path[:a] + tuple(chain_in) + (e_in,)
                + tuple(self._chain(outside, nodes[b])) + path[b:])

    # -- internals -----------------------------------------------------------

    def _bump(self, nontree: array | None = None) -> None:
        """Start a revision; the non-tree list is dropped unless the
        caller hands over the one it patched."""
        self.version += 1
        self._path = None
        self._index = None
        self._nontree = nontree

    def _complement(self) -> array:
        """The non-tree edges, ascending, counted from the father edges.

        An ``array`` rather than a list, of two-byte ids while every id
        fits: on a 25x25 mesh model of 250 trees, lists of ints raised
        peak memory by about 3.9 MB and these arrays by about 0.45 MB
        (Python 3.11), and walking either costs the same."""
        tree = set(self._father_edge)
        m = self.graph.edge_count
        return array("H" if m <= 1 << 16 else "q",
                     [e for e in range(m) if e not in tree])

    def _chain(self, node: int, stop: int) -> list[int]:
        """Father edges from ``node`` up to ``stop``, an ancestor of it
        (``stop`` itself excluded, so ``[]`` when ``node == stop``)."""
        father, father_edge = self._father_node, self._father_edge
        chain = []
        while node != stop:
            chain.append(father_edge[node])
            node = father[node]
        return chain

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
        father chain holds ``e_out``; raises unless ``e_out`` is on the cycle.
        The segments check ``e_in`` before its ends are read."""
        seg_u, seg_v = self._cycle_segments(e_in)
        u, v = self.graph.edges[e_in]
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
        :meth:`preferred_moves` returns: one ``(e_in, a, b)`` per
        non-tree edge whose ends join the path at two positions, sorted
        so that ``a < b``.  The join pass takes a node's join from its
        father when the father's is known, and walks a trail up to the
        path only when it is not.  The edge pass walks the kept
        ascending non-tree list (counted again here if a mutation
        dropped it), so it meets no tree edge and needs no tree-edge
        check; no stretch is sliced.  Everything downstream of the
        neighborhood reduction reads from this index.
        """
        if self._index is not None:
            return self._index
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
            node = father[start]
            hit = join[node]
            if hit >= 0:
                join[start] = hit
                continue
            trail = [start]
            while hit < 0:
                trail.append(node)
                node = father[node]
                hit = join[node]
            for x in trail:
                join[x] = hit
        nontree = self._nontree
        if nontree is None:
            nontree = self._nontree = self._complement()
        preferred = []
        edges = self.graph.edges
        for e_in in nontree:
            u, v = edges[e_in]
            a, b = join[u], join[v]
            if a == b:
                continue
            if a > b:
                a, b = b, a
            preferred.append((e_in, a, b))
        self._index = (nodes, join, tuple(preferred))
        return self._index

    def _cycle_segments(self, e_in: int) -> tuple[list[int], list[int]]:
        """Father-chain segments (u-to-meet, v-to-meet) for e_in = (u, v),
        read by :meth:`_chain` up to the node where the two chains meet;
        raises unless ``e_in`` is a non-tree edge."""
        u, v = self._replacing_ends(e_in)
        father = self._father_node
        above_u = {u}
        x = u
        while x != self.root:
            x = father[x]
            above_u.add(x)
        meet = v
        while meet not in above_u:
            meet = father[meet]
        return self._chain(u, meet), self._chain(v, meet)

    # -- diagnostics ---------------------------------------------------------

    def validate(self) -> None:
        """Check that the father lists are the ones :meth:`from_edges`
        builds from :attr:`tree_edges`, the definition of a well-formed
        tree, and that a kept non-tree list is the ascending complement
        of the father edges; raises AssertionError.  Builds no tree, so
        a check hooked on ``__init__`` does not recurse."""
        try:
            fathers = self._edge_fathers(self.graph, self.root, self.tree_edges)
        except ValueError as exc:
            raise AssertionError(f"father edges do not span: {exc}") from exc
        if fathers != (self._father_node, self._father_edge):
            raise AssertionError("father lists differ from the tree's own edges")
        if self._nontree is not None and self._nontree != self._complement():
            raise AssertionError(
                "kept non-tree edges differ from the father edges' complement")
