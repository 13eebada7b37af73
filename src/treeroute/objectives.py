"""Incrementally evaluated objectives and constraints over tree paths.

Every class here is a *differentiable*: it maintains a value (for
constraints, a violation count that is zero exactly when the constraint
holds) over one or more registered tree variables, and it answers
"what would this edge-replacement move do to my value" queries.  All
arithmetic is exact integers, so a delta query must equal value-after
minus value-before to the last bit; the test suite holds every class
to that with apply/recompute/undo oracles.

Caches are keyed by the trees' revision counters and are refreshed
lazily on access, so callers may mutate a tree and simply query again:
the base class hands each revised tree's new induced path to the
subclass hook ``_update(i, path)`` (an expression refreshes its operands
instead).  :meth:`Differentiable.commit` forces the refresh eagerly, for
callers that want to pay it at a moment of their choosing (the search
engine does not call it).  There is one delta hook, ``_delta(tree,
move)`` for a single move, which :meth:`Differentiable.move_delta_fn`
returns as a closure per tree.  A joint query (one move on each of
several trees, :meth:`Differentiable.multi_delta_fn`) applies the
moves, reads the value, undoes them and re-syncs the caches.

:meth:`Differentiable.improves_fn` answers the one question a
one-move scan asks, exactly: does the move that inserts an edge and
takes the stretch ``path[a:b]`` of a tree's induced path off it lower
the value?  The predicate takes ``(e_in, a, b)`` as
:meth:`~treeroute.treevar.RootedSpanningTree.preferred_moves` lists
it, so no stretch is sliced.  Every removal in the stretch gives the
same new path, so the base class (and so :class:`PathCost` and every
expression) answers with the ``_delta`` of the first, ``path[a]``.
:class:`PathEdgeDisjoint` counts the change without building the new
path, as ``A(u) + A(v) + [load(e_in) >= 1] - S``, with ``S`` the
stretch's shared edges and ``A(x)`` the loaded edges on the father
chain from an endpoint ``x`` of the inserted edge to the path.  An
O(1) bound on ``S``, from ``a`` and ``b``, comes first and the chain
counts are memoized per predicate.

Each tree is registered once, and :class:`PathEdgeDisjoint` stores one
copy of each registered path: the edge set it last counted, beside one
load per edge.  Extraction, :func:`extract_disjoint`, is defined here
(``edp`` imports it), and the constraint's ``_update`` keeps the state
it starts its drops from: the XOR of each edge's holders and each
path's count of shared edges.  The two share one add step,
:func:`_add_path`, which counts a path in, and one remove step,
:func:`_remove_path`, its inverse, which counts a path out.  The
constraint's ``_update`` removes a tree's old path and adds its new
one; a removal lowers the violation by exactly the path's overlap, its
count of shared edges.  Extraction's drops, :func:`_drop_shared`,
remove each path they drop, picked from a heap that holds one entry per
path and re-pushes an entry only when it pops it stale.  The steps are
private to this module.  So :meth:`PathEdgeDisjoint.extract_disjoint`
extracts from the current trees without a first pass.

Differentiables compose: ``a + b`` and ``a - b`` (or :func:`combine`)
build arithmetic expressions, and :func:`compare` turns a pair of
expressions into a constraint whose violation is the missing amount
(absolute difference for equality).  Both build the same expression
node, whose move delta is its function after the move minus before.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .treevar import BasicMove, RootedSpanningTree


class Differentiable:
    """Base class: a value over registered trees plus move-delta queries."""

    kind = "objective"

    def __init__(self, trees: Iterable[RootedSpanningTree]) -> None:
        self.trees: tuple[RootedSpanningTree, ...] = tuple(trees)
        self._index = {id(t): i for i, t in enumerate(self.trees)}
        if len(self._index) != len(self.trees):
            raise ValueError("each tree may be registered once")
        self._versions = [-1] * len(self.trees)

    # subclasses implement _update(i, path), _current() and _delta(tree,
    # move): the change of value if move were applied to tree (0 if unwatched)

    def _refresh(self) -> None:
        versions = self._versions
        for i, tree in enumerate(self.trees):
            if versions[i] != tree.version:
                self._update(i, tree.induced_path())
                versions[i] = tree.version

    def _update(self, i: int, path: tuple[int, ...]) -> None:
        raise NotImplementedError

    def _delta(self, tree: RootedSpanningTree, move: BasicMove) -> int:
        raise NotImplementedError

    def _current(self) -> int:
        raise NotImplementedError

    def value(self) -> int:
        self._refresh()
        return self._current()

    def violations(self) -> int:
        if self.kind != "constraint":
            raise TypeError(f"{type(self).__name__} is not a constraint")
        return self.value()

    def commit(self) -> None:
        """Bring caches in sync with the trees' current state."""
        self._refresh()

    def _validated_refresh(self, tree: RootedSpanningTree) -> None:
        if id(tree) not in self._index:
            raise ValueError("tree is not registered with this differentiable")
        self._refresh()

    def move_delta_fn(self, tree: RootedSpanningTree):
        """``move -> exact change of value()`` if ``move`` were applied to
        ``tree``.  Validates and refreshes once, so a neighborhood scan
        pays that only once; valid while no registered tree is mutated."""
        self._validated_refresh(tree)

        def delta(move: BasicMove) -> int:
            return self._delta(tree, move)

        return delta

    def improves_fn(self, tree: RootedSpanningTree):
        """``(e_in, a, b) -> bool``: exactly whether the one-moves on
        ``tree`` that insert ``e_in`` and take the path edges
        ``induced_path()[a:b]`` off its induced path lower ``value()``.
        ``a < b`` are the join positions
        :meth:`RootedSpanningTree.preferred_moves` lists for ``e_in``.
        Every removal in the stretch gives the same new path, so the
        base class answers with the delta of the first, ``path[a]``.
        Same validity rule as :meth:`move_delta_fn`."""
        self._validated_refresh(tree)
        path = tree.induced_path()
        return lambda e_in, a, b: self._delta(
            tree, BasicMove(e_in, path[a])) < 0

    def multi_delta_fn(self, trees: Sequence[RootedSpanningTree]):
        """``(move, ...) -> exact joint change of value()`` for one move on
        each of the distinct registered ``trees``, in their order.  A
        query mutates the trees and restores them: apply, read
        :meth:`value`, undo latest first (also after an
        ``InvalidMoveError``, or the ``ValueError`` of a move count that
        differs from the tree count) and refresh, so
        :meth:`move_delta_fn` closures taken before it stay valid."""
        if len({id(t) for t in trees}) != len(trees):
            raise ValueError(
                "at most one move per tree; use a complex move for several")
        for tree in trees:
            self._validated_refresh(tree)

        def delta(moves: Sequence[BasicMove]) -> int:
            before = self.value()
            applied = []
            try:
                for tree, move in zip(trees, moves, strict=True):
                    applied.append((tree, tree.apply(move)))
                return self.value() - before
            finally:
                for tree, token in reversed(applied):
                    tree.undo(token)
                self._refresh()

        return delta

    def conflicted_trees(self) -> list[RootedSpanningTree]:
        """Trees whose paths currently cause violations, for the search to
        aim diversification at; [] when the differentiable cannot tell."""
        return []

    # -- composition sugar ----------------------------------------------------

    def __add__(self, other):
        return combine(self, "+", other)

    def __radd__(self, other):
        return combine(other, "+", self)

    def __sub__(self, other):
        return combine(self, "-", other)

    def __rsub__(self, other):
        return combine(other, "-", self)


class _Const(Differentiable):
    """Constant operand for combined expressions."""

    def __init__(self, value: int) -> None:
        super().__init__(())
        if not isinstance(value, int):
            raise TypeError(f"constants must be exact integers, got {value!r}")
        self._value = value

    def _current(self) -> int:
        return self._value

    def _delta(self, tree: RootedSpanningTree, move: BasicMove) -> int:
        return 0


class PathCost(Differentiable):
    """Total weight (column ``k``) accumulated along the induced path."""

    def __init__(self, tree: RootedSpanningTree, k: int = 0) -> None:
        super().__init__((tree,))
        g = tree.graph
        if not (0 <= k < g.weight_count):
            raise ValueError(
                f"weight index {k} out of range; graph has {g.weight_count} column(s)"
            )
        self.tree = tree
        self.k = k
        self._value = 0

    def _cost(self, path: tuple[int, ...]) -> int:
        weights = self.tree.graph.weights
        k = self.k
        return sum(weights[e][k] for e in path)

    def _update(self, i: int, path: tuple[int, ...]) -> None:
        self._value = self._cost(path)

    def _current(self) -> int:
        return self._value

    def _delta(self, tree: RootedSpanningTree, move: BasicMove) -> int:
        if tree is not self.tree:
            return 0
        return self._cost(tree.simulate_path(move)) - self._value


def _add_path(loads: list[int], holders: list[int], overlap: list[int],
              i: int, edges: Iterable[int]) -> int:
    """Count path ``i``, given as its edge set, in: each edge's load
    rises by one and ``i`` is XORed into its holders.  An edge the path
    finds already held is shared, and when its load reaches 2 its
    previous holder, ``holders[e]`` before the XOR, gains one overlap.
    Sets ``overlap[i]`` to the path's shared edges and returns that
    count, which is also what the path adds to the violation."""
    shared = 0
    for e in edges:
        load = loads[e]
        if load:
            shared += 1
            if load == 1:
                overlap[holders[e]] += 1
        loads[e] = load + 1
        holders[e] ^= i
    overlap[i] = shared
    return shared


def _remove_path(loads: list[int], holders: list[int], overlap: list[int],
                 i: int, edges: Iterable[int]) -> None:
    """Count path ``i``, given as its edge set, out: the inverse of
    :func:`_add_path`.  Each edge's load falls by one and ``i`` is XORed
    out of its holders, so an edge left with load 1 names its last
    holder in ``holders[e]``, and that holder loses one overlap.
    ``overlap[i]`` is left as it was: the violation falls by exactly
    that count, the path's edges that had load 2 or more."""
    for e in edges:
        load = loads[e] - 1
        loads[e] = load
        holders[e] ^= i
        if load == 1:
            overlap[holders[e]] -= 1


def _drop_shared(edge_sets: Sequence[Iterable[int]], loads: list[int],
                 holders: list[int], overlap: list[int]) -> list[int]:
    """Extraction's drops: indices of the paths kept after repeatedly
    dropping the path with the most shared edges, the higher index on
    ties.  Starts from the state :func:`_add_path` leaves for all of
    ``edge_sets`` and uses it up: the lists are changed in place.

    A max-heap on ``overlap * k + index`` yields the path to drop; the
    keys are unique, so neither the heap nor the order in which a set
    lists its edges decides a drop.  The heap holds one entry per path
    with shared edges, pushed once, and losing an overlap pushes
    nothing.  Overlaps only fall, so a stored key never underestimates
    a path's current one; a popped entry whose count is above the
    current one is stale, and is pushed again with the current count
    if that is nonzero.  So the first up-to-date entry popped is the
    true maximum.  A drop counts the path out with
    :func:`_remove_path`, the step the constraint's ``_update`` uses,
    so an edge left with load 1 names its last holder, and that holder
    loses one overlap.  The heap never
    holds more than ``k`` entries; the cost is O(k + drops' edges +
    (drops + re-pushes) log k), with at most one re-push per lost
    overlap and no search for a holder."""
    k = len(edge_sets)
    heap = [-(o * k + i) for i, o in enumerate(overlap) if o]
    heapq.heapify(heap)
    retained = [True] * k
    while heap:
        o, d = divmod(-heapq.heappop(heap), k)
        now = overlap[d]
        if o != now:
            if now:
                heapq.heappush(heap, -(now * k + d))
            continue
        retained[d] = False
        _remove_path(loads, holders, overlap, d, edge_sets[d])
    return [i for i, kept in enumerate(retained) if kept]


def extract_disjoint(paths: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a mutually edge-disjoint subset of ``paths``.

    Repeatedly drops the path with the most edges shared with other
    still-retained paths (a repeated edge counts once); on ties the
    higher index is dropped, so lower indices win.  Disjoint input is
    returned in full, and re-running on the retained subset is the
    identity.  Edge ids are non-negative integers, such as a graph's
    edge ids, since the lists below are as long as the largest id; a
    negative one raises ValueError.

    Defined here, beside the two steps by which
    :class:`PathEdgeDisjoint` keeps the same state, and imported by
    ``edp``, so ``edp.extract_disjoint`` and
    ``treeroute.extract_disjoint`` are this function.  Each path is
    counted in (:func:`_add_path`) to per-edge loads, the XOR of each
    edge's holders and each path's count of shared edges, and the drops
    (:func:`_drop_shared`) then find an edge's last holder in O(1).
    Their heap holds one entry per path, re-pushed with the current
    count when it pops stale.  The cost is O(total path length +
    (k + re-pushes) log k), with at most one re-push per lost overlap.
    The local search never counts paths in here: its constraint keeps
    this state, and :meth:`PathEdgeDisjoint.extract_disjoint` runs only
    the drops.
    """
    sets = [set(p) for p in paths]
    if any(s and min(s) < 0 for s in sets):
        raise ValueError("edge ids must be non-negative")
    size = max((max(s) for s in sets if s), default=-1) + 1
    loads = [0] * size
    holders = [0] * size
    overlap = [0] * len(sets)
    for i, s in enumerate(sets):
        _add_path(loads, holders, overlap, i, s)
    return _drop_shared(sets, loads, holders, overlap)


class PathEdgeDisjoint(Differentiable):
    """Constraint: the registered trees' induced paths are mutually
    edge-disjoint.

    The violation count is the total excess usage over all edges,
    sum over edges of max(0, load(e) - 1), where load(e) is how many paths use edge e.
    It is zero exactly when the paths are pairwise edge-disjoint.
    Induced paths are elementary, so a path's edge set counts each of
    its edges once, as the path does.

    Besides ``loads`` and one frozenset per tree (``edge_sets``), the
    constraint keeps, for the trees' paths as last refreshed:

    * ``holders[e]``, the XOR of the indices of the trees that use
      ``e``, so an edge with load 1 names its holder;
    * ``overlap[i]``, how many of tree ``i``'s edges have load 2 or
      more.

    ``_update(i, path)`` counts tree ``i``'s old edges out with
    :func:`_remove_path` and its new edges in with :func:`_add_path`,
    the two steps extraction uses too.  The violation falls by
    ``overlap[i]`` on the removal, since each of the old edges with load
    2 or more loses one excess use, and rises by what ``_add_path``
    returns, which recounts ``overlap[i]``.  Read these lists, do not
    write them.
    """

    kind = "constraint"

    def __init__(self, trees: Sequence[RootedSpanningTree]) -> None:
        super().__init__(trees)
        edge_count = 0
        if self.trees:
            g = self.trees[0].graph
            for tree in self.trees:
                if tree.graph is not g:
                    raise ValueError("all trees must share one graph")
            edge_count = g.edge_count
        self.loads = [0] * edge_count
        self.holders = [0] * edge_count
        self.overlap = [0] * len(self.trees)
        self.edge_sets: list[frozenset[int]] = [frozenset()] * len(self.trees)
        self._violation = 0
        self._refresh()

    def _update(self, i: int, path: tuple[int, ...]) -> None:
        loads, holders, overlap = self.loads, self.holders, self.overlap
        violation = self._violation - overlap[i]
        _remove_path(loads, holders, overlap, i, self.edge_sets[i])
        edges = frozenset(path)
        self.edge_sets[i] = edges
        self._violation = violation + _add_path(loads, holders, overlap, i, edges)

    def _current(self) -> int:
        return self._violation

    def _delta(self, tree: RootedSpanningTree, move: BasicMove) -> int:
        i = self._index.get(id(tree))
        if i is None:  # a tree this constraint does not watch
            return 0
        old_set = self.edge_sets[i]
        new_set = frozenset(tree.simulate_path(move))
        # the removed and added edge sets are disjoint: no load changes twice
        loads = self.loads
        delta = 0
        for e in old_set - new_set:
            if loads[e] >= 2:
                delta -= 1
        for e in new_set - old_set:
            if loads[e] >= 1:
                delta += 1
        return delta

    def improves_fn(self, tree: RootedSpanningTree):
        """``(e_in, a, b) -> bool``: exactly whether the preferred
        moves that insert ``e_in = (u, v)`` lower the violation count.

        They all give one new path: the path up to position ``a``, the
        father chain of one endpoint reversed, ``e_in``, the chain of
        the other endpoint and the path from position ``b`` on, where
        ``a < b`` are the chains' join positions, as
        :meth:`~treeroute.treevar.RootedSpanningTree.preferred_moves`
        lists them, and the removed stretch is ``path[a:b]``.  The
        added edges were all off the path (chain edges are father edges
        of off-path nodes, ``e_in`` is no tree edge), and the two chains
        share no edge, or they would join at one position.  So with
        ``A(x)`` the number of x's chain edges with load 1 or more and
        ``S(a, b)`` the number of stretch edges with load 2 or more, the
        delta is ``A(u) + A(v) + [load(e_in) >= 1] - S(a, b)``, each
        edge counted once.

        A path with no shared edge (``overlap`` 0) gets a predicate that
        always answers False, without a walk.  Otherwise one walk along
        the path builds a prefix count of its shared edges, so
        ``S(a, b) > [load(e_in) >= 1]``, which the delta needs to be
        negative, is tested in O(1) from the positions first; only the
        moves that pass it look up ``u`` and ``v`` and walk chains,
        through
        :meth:`~treeroute.treevar.RootedSpanningTree.chain_counter`,
        whose counts are memoized for the predicate's lifetime.
        Same validity rule as :meth:`move_delta_fn`: the memo holds only
        while no registered tree (and so no load) changes."""
        self._validated_refresh(tree)
        if not self.overlap[self._index[id(tree)]]:
            return lambda e_in, a, b: False
        loads = self.loads
        # shared[i]: shared edges among the first i path edges
        shared = [0]
        count = 0
        for e in tree.induced_path():
            if loads[e] >= 2:
                count += 1
            shared.append(count)
        chain_count = tree.chain_counter(loads)
        edges = tree.graph.edges

        def improves(e_in: int, a: int, b: int) -> bool:
            gain = shared[b] - shared[a] - (loads[e_in] >= 1)
            if gain <= 0:
                return False
            u, v = edges[e_in]
            return chain_count(u) + chain_count(v) < gain

        return improves

    def conflicted_trees(self) -> list[RootedSpanningTree]:
        """Trees whose paths currently share at least one edge."""
        self._refresh()
        overlap = self.overlap
        return [tree for i, tree in enumerate(self.trees) if overlap[i]]

    def extract_disjoint(self) -> list[int]:
        """:func:`extract_disjoint` of the trees' current induced paths,
        with the same result: the state it would count afresh is already
        kept, so only the drops run, on copies of it."""
        self._refresh()
        return _drop_shared(self.edge_sets, self.loads.copy(),
                            self.holders.copy(), self.overlap.copy())


_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
}

_RELS = {
    "<=": lambda a, b: max(0, a - b),
    ">=": lambda a, b: max(0, b - a),
    "==": lambda a, b: abs(a - b),
}


def _as_operand(x) -> Differentiable:
    if isinstance(x, Differentiable):
        return x
    return _Const(x)


class _Expression(Differentiable):
    """``f(a, b)`` over two differentiables (or constants).

    The delta is ``f`` of the operands' values after the move minus
    ``f`` of their values before, which is exact for every ``f``: the
    arithmetic operators and the relations alike."""

    def __init__(self, a, f, b, kind: str) -> None:
        self.a = _as_operand(a)
        self.b = _as_operand(b)
        self.f = f
        self.kind = kind
        super().__init__(dict.fromkeys(self.a.trees + self.b.trees))

    def _refresh(self) -> None:
        self.a._refresh()
        self.b._refresh()

    def _current(self) -> int:
        return self.f(self.a._current(), self.b._current())

    def _delta(self, tree: RootedSpanningTree, move: BasicMove) -> int:
        va, vb = self.a._current(), self.b._current()
        after = self.f(va + self.a._delta(tree, move),
                       vb + self.b._delta(tree, move))
        return after - self.f(va, vb)


def combine(a, op: str, b) -> Differentiable:
    """Arithmetic composition: op is '+' or '-'; operands may be
    differentiables or plain integers."""
    if op not in _OPS:
        raise ValueError(f"unknown operator {op!r}; use one of {sorted(_OPS)}")
    return _Expression(a, _OPS[op], b, "objective")


def compare(a, rel: str, b) -> Differentiable:
    """State a constraint between two expressions; rel is '<=', '>=' or
    '=='.  The violation is how far the relation is from holding."""
    if rel not in _RELS:
        raise ValueError(f"unknown relation {rel!r}; use one of {sorted(_RELS)}")
    return _Expression(a, _RELS[rel], b, "constraint")
