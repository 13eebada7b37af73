"""Incrementally evaluated objectives and constraints over tree paths.

Every class here is a *differentiable*: it maintains a value (for
constraints, a violation count that is zero exactly when the constraint
holds) over one or more registered tree variables, and it answers
"what would this edge-replacement move do to my value" queries without
mutating any tree.  All arithmetic is exact integers, so a delta query
must equal value-after minus value-before to the last bit; the test
suite holds every class to that with apply/recompute/undo oracles.

Caches are keyed by the trees' revision counters and are refreshed
lazily on access, so callers may mutate a tree and simply query again;
:meth:`Differentiable.commit` forces the refresh eagerly after a move
is accepted.  Move deltas come from the closures that
:meth:`Differentiable.move_delta_fn` (one tree) and
:meth:`Differentiable.multi_delta_fn` (one move on each of several
trees) return.

Each tree is registered once, and :class:`PathEdgeDisjoint` stores one
copy of each registered path: the edge set it last counted, beside one
load per edge.

Differentiables compose: ``a + b`` and ``a - b`` (or :func:`combine`)
build arithmetic expressions, and :func:`compare` turns a pair of
expressions into a constraint whose violation is the missing amount
(absolute difference for equality).  Both build the same expression
node, whose move delta is its function after the move minus before.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .treevar import BasicMove, RootedSpanningTree

MovePairs = Sequence[tuple[RootedSpanningTree, BasicMove]]


class Differentiable:
    """Base class: a value over registered trees plus move-delta queries."""

    kind = "objective"

    def __init__(self, trees: Iterable[RootedSpanningTree]) -> None:
        self.trees: tuple[RootedSpanningTree, ...] = tuple(trees)
        self._index = {id(t): i for i, t in enumerate(self.trees)}
        if len(self._index) != len(self.trees):
            raise ValueError("each tree may be registered once")

    # subclasses implement _refresh() and _delta(pairs)

    def _refresh(self) -> None:
        raise NotImplementedError

    def _delta(self, pairs: MovePairs) -> int:
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

    def is_registered(self, tree: RootedSpanningTree) -> bool:
        return id(tree) in self._index

    def _validated_refresh(self, trees: Sequence[RootedSpanningTree]) -> None:
        if len({id(t) for t in trees}) != len(trees):
            raise ValueError(
                "at most one move per tree; use a complex move for several")
        for tree in trees:
            if not self.is_registered(tree):
                raise ValueError("tree is not registered with this differentiable")
        self._refresh()

    def move_delta_fn(self, tree: RootedSpanningTree):
        """``move -> exact change of value()`` if ``move`` were applied to
        ``tree``.  Validates and refreshes once, so a neighborhood scan
        pays that only once; valid while no registered tree is mutated."""
        self._validated_refresh((tree,))

        def delta(move: BasicMove) -> int:
            return self._delta(((tree, move),))

        return delta

    def multi_delta_fn(self, trees: Sequence[RootedSpanningTree]):
        """``(move, ...) -> exact joint change of value()`` for one move on
        each of the distinct ``trees``; same validity rule as
        :meth:`move_delta_fn`."""
        self._validated_refresh(trees)

        def delta(moves: Sequence[BasicMove]) -> int:
            return self._delta(tuple(zip(trees, moves)))

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

    def _refresh(self) -> None:
        pass

    def _current(self) -> int:
        return self._value

    def _delta(self, pairs: MovePairs) -> int:
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
        self._cached_version = -1
        self._value = 0

    def _cost(self, path: tuple[int, ...]) -> int:
        weights = self.tree.graph.weights
        k = self.k
        return sum(weights[e][k] for e in path)

    def _refresh(self) -> None:
        if self._cached_version != self.tree.version:
            self._value = self._cost(self.tree.induced_path())
            self._cached_version = self.tree.version

    def _current(self) -> int:
        return self._value

    def _delta(self, pairs: MovePairs) -> int:
        for tree, move in pairs:
            if tree is self.tree:
                return self._cost(tree.simulate_path(move)) - self._value
        return 0


class PathEdgeDisjoint(Differentiable):
    """Constraint: the registered trees' induced paths are mutually
    edge-disjoint.

    The violation count is the total excess usage over all edges,
    sum over edges of max(0, load(e) - 1), where load(e) is how many paths use edge e.
    It is zero exactly when the paths are pairwise edge-disjoint.
    Induced paths are elementary, so a path's edge set counts each of
    its edges once, as the path does.
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
        self._violation = 0
        self._cached_versions = [-1] * len(self.trees)
        self._cached_sets: list[frozenset[int]] = [frozenset()] * len(self.trees)
        self._refresh()

    def _refresh(self) -> None:
        loads = self.loads
        for i, tree in enumerate(self.trees):
            if self._cached_versions[i] == tree.version:
                continue
            for e in self._cached_sets[i]:
                if loads[e] >= 2:
                    self._violation -= 1
                loads[e] -= 1
            new_set = frozenset(tree.induced_path())
            for e in new_set:
                if loads[e] >= 1:
                    self._violation += 1
                loads[e] += 1
            self._cached_sets[i] = new_set
            self._cached_versions[i] = tree.version

    def _current(self) -> int:
        return self._violation

    def _delta(self, pairs: MovePairs) -> int:
        overlay: dict[int, int] = {}
        loads = self.loads
        overlay_get = overlay.get
        delta = 0
        for tree, move in pairs:
            i = self._index.get(id(tree))
            if i is None:  # move on a tree this constraint does not watch
                continue
            old_set = self._cached_sets[i]
            if move.e_out not in old_set:
                continue
            new_set = frozenset(tree.simulate_path(move))
            for e in old_set - new_set:
                l = overlay_get(e, loads[e])
                if l >= 2:
                    delta -= 1
                overlay[e] = l - 1
            for e in new_set - old_set:
                l = overlay_get(e, loads[e])
                if l >= 1:
                    delta += 1
                overlay[e] = l + 1
        return delta

    def conflicted_trees(self) -> list[RootedSpanningTree]:
        """Trees whose paths currently share at least one edge."""
        self._refresh()
        loads = self.loads
        return [
            tree for i, tree in enumerate(self.trees)
            if any(loads[e] >= 2 for e in self._cached_sets[i])
        ]


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


def _merged_trees(a: Differentiable, b: Differentiable) -> list[RootedSpanningTree]:
    trees = list(a.trees)
    for t in b.trees:
        if not any(t is u for u in trees):
            trees.append(t)
    return trees


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
        super().__init__(_merged_trees(self.a, self.b))

    def _refresh(self) -> None:
        self.a._refresh()
        self.b._refresh()

    def _current(self) -> int:
        return self.f(self.a._current(), self.b._current())

    def _delta(self, pairs: MovePairs) -> int:
        va, vb = self.a._current(), self.b._current()
        after = self.f(va + self.a._delta(pairs), vb + self.b._delta(pairs))
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
