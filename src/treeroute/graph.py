"""Immutable undirected graphs with exact integer edge weights.

The graph is the static substrate everything else works on: simple
(no self-loops, no parallel edges), connected, with dense edge ids
``0..m-1``.  An edge id is the canonical handle for an edge; ``(u, v)``
and ``(v, u)`` resolve to the same id.  A :class:`FreeEdges` view is the
graph minus the edges taken out of it, one flag per edge, for path
searches that must avoid them; greedy completion builds one per call.
Its component labels let a search fail without a traversal, and a
shared :class:`WholeGraphPaths` memo lets one succeed without a
traversal.

Weight columns are parsed from fixed-decimal text and stored as exact
integers, one shared power-of-ten scale per column, so that every cost
and every cost delta computed downstream is exact integer arithmetic.
A weight that decimal's default context cannot hold exactly (more than
28 significant digits, or an exponent out of its range) is a bad weight,
and one whose normalised exponent lies beyond ``e±MAX_DECIMAL_EXPONENT``
is refused too.

Text formats
------------
Graph file: first line ``n m`` (connected, so ``m >= n - 1``), then
``m`` lines ``u v [w1 w2 ...]`` with 0-based node ids.  All edge lines
must carry the same number of weight columns.  Blank lines and lines
starting with ``#`` are ignored.

Commodity file: first line ``k``, then ``k`` lines ``s t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, Inexact, InvalidOperation
from typing import Iterable, Sequence

# The default context, except that any rounding raises (an overflow is
# a rounding too), so a weight it cannot hold exactly is reported.
_EXACT = Context(traps=[Inexact])
# A weight's column scale and integer value grow as ten to its exponent,
# so an exponent past this either way (after normalising) is refused.
MAX_DECIMAL_EXPONENT = 400


class GraphFormatError(ValueError):
    """Malformed graph or commodity text; the message names the line."""


class GraphValidationError(ValueError):
    """Structurally invalid graph: self-loop, duplicate edge, bad id, or
    disconnected input."""


@dataclass(frozen=True)
class Commodity:
    """A routing request: find an elementary path from source to target."""

    source: int
    target: int

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise GraphValidationError(
                f"commodity source equals target ({self.source})"
            )


class Graph:
    """Undirected simple connected graph with dense edge ids.

    ``neighbors[u]`` pairs the id of each edge at ``u``, in input order,
    with its other end.  Immutable after construction; safe to share
    across threads.
    """

    __slots__ = ("node_count", "edges", "weights", "weight_scales",
                 "neighbors", "_edge_ids")

    def __init__(
        self,
        node_count: int,
        edges: Sequence[tuple[int, int]],
        weights: Sequence[tuple[int, ...]] | None = None,
        weight_scales: tuple[int, ...] = (),
    ) -> None:
        if node_count < 1:
            raise GraphValidationError(f"node count must be >= 1, got {node_count}")
        self.node_count = node_count
        edge_list: list[tuple[int, int]] = []
        edge_ids: dict[tuple[int, int], int] = {}
        neighbors: list[list[tuple[int, int]]] = [[] for _ in range(node_count)]
        for eid, (u, v) in enumerate(edges):
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise GraphValidationError(
                    f"edge {eid} ({u},{v}): node id out of range 0..{node_count - 1}"
                )
            if u == v:
                raise GraphValidationError(f"edge {eid} ({u},{v}) is a self-loop")
            key = (u, v) if u < v else (v, u)
            if key in edge_ids:
                raise GraphValidationError(
                    f"edge {eid} ({u},{v}) duplicates edge {edge_ids[key]}"
                )
            edge_ids[key] = eid
            edge_list.append((u, v))
            neighbors[u].append((eid, v))
            neighbors[v].append((eid, u))
        self.edges: tuple[tuple[int, int], ...] = tuple(edge_list)
        self._edge_ids = edge_ids
        self.neighbors: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(a) for a in neighbors
        )

        if weights is None:
            weights = [()] * len(edge_list)
        if len(weights) != len(edge_list):
            raise GraphValidationError(
                f"got {len(weights)} weight rows for {len(edge_list)} edges"
            )
        ncols = len(weight_scales)
        for eid, row in enumerate(weights):
            if len(row) != ncols:
                raise GraphValidationError(
                    f"edge {eid}: {len(row)} weights, expected {ncols}"
                )
            for k, w in enumerate(row):
                if w < 0:
                    raise GraphValidationError(
                        f"edge {eid}: negative weight {w} in column {k}"
                    )
        self.weights: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in weights)
        self.weight_scales = weight_scales

        self._check_connected()

    def _check_connected(self) -> None:
        _, reached = _bfs(self.neighbors, self.edges, [True] * len(self.edges),
                          0, None)
        if len(reached) < self.node_count:
            missing = min(set(range(self.node_count)).difference(reached))
            raise GraphValidationError(
                f"graph is disconnected: node {missing} unreachable from node 0"
            )

    # -- elementary queries -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def weight_count(self) -> int:
        return len(self.weight_scales)

    def other_end(self, eid: int, node: int) -> int:
        u, v = self.edges[eid]
        if node == u:
            return v
        if node == v:
            return u
        raise ValueError(f"node {node} is not an endpoint of edge {eid} ({u},{v})")

    def find_edge(self, u: int, v: int) -> int | None:
        """Edge id for the unordered pair (u, v), or None."""
        key = (u, v) if u < v else (v, u)
        return self._edge_ids.get(key)


# -- path utilities ---------------------------------------------------------


def path_nodes(g: Graph, start: int, edges: Sequence[int]) -> list[int]:
    """Node sequence of a path given its start node and edge sequence."""
    nodes = [start]
    cur = start
    for eid in edges:
        cur = g.other_end(eid, cur)
        nodes.append(cur)
    return nodes


class WholeGraphPaths(dict):
    """Memo of minimum-hop paths on the whole of one graph: ``memo[s, t]``
    is the edge tuple a search of ``FreeEdges(graph)`` returns for
    ``(s, t)``, found by one breadth-first search on first lookup.  The
    key is ordered, since ``(t, s)``'s path is not always the reverse
    of ``(s, t)``'s.  Views share a memo only with views of the graph
    it was made for (see :class:`FreeEdges`).
    """

    __slots__ = ("graph",)

    def __init__(self, graph: Graph) -> None:
        super().__init__()
        self.graph = graph

    def __missing__(self, key: tuple[int, int]) -> tuple[int, ...]:
        g = self.graph
        path = self[key] = tuple(
            _bfs(g.neighbors, g.edges, [True] * len(g.edges), *key)[0])
        return path


class FreeEdges:
    """The edges of a graph minus the ones taken out, searchable like the
    graph itself.

    ``neighbors`` and ``edges`` are the graph's own; ``is_free[e]`` is
    True until edge ``e`` is taken out, and a search skips the edges
    whose flag is clear.  A new view holds every edge of ``g``.

    ``component[u]`` is a label, and ``labels`` the last one given.  A
    new view labels every node 0, which is right because ``g`` is
    connected.  The invariant: two nodes with different labels lie in
    different components of the free edges.  A search that fails gives
    every node it reached, which is the source's whole component, a
    fresh label; the nodes outside keep theirs.  Taking edges out only
    splits components, so a label, exact when given, stays a sound
    witness of disconnection; equal labels prove nothing.

    ``memo``, when given, is a :class:`WholeGraphPaths` of ``g`` (a memo
    of another graph is a ValueError) that this view's searches consult
    and fill; any number of views of ``g`` may share it.  It rests on
    this fact.  Call a view V' a sub-view of V when V' holds a subset of
    V's free edges.  If a search on V returns P, a search on any sub-view
    V' that still holds every edge of P returns P again:

    - every node on P keeps its hop distance from ``s``: P's prefixes
      are still there, and fewer edges lengthen no distance;
    - within a layer, the search dequeues nodes in the lexicographic
      order of their discovery chains, compared by the graph's edge
      order, since every view searches the graph's own lists;
    - taking edges out can only move a node later within its layer, or
      into a later layer, never earlier;
    - so each node of P keeps its predecessor on P as its first
      discoverer, and the search back from ``t`` reads P.

    Every view of ``g`` is a sub-view of ``FreeEdges(g)``, so the memo's
    path for ``(s, t)`` is the answer on any view in which all of its
    edges are free.
    """

    __slots__ = ("edges", "neighbors", "is_free", "component", "labels",
                 "memo")

    def __init__(self, g: Graph, memo: WholeGraphPaths | None = None) -> None:
        if memo is not None and memo.graph is not g:
            raise ValueError("the memo belongs to another graph")
        self.edges = g.edges
        self.neighbors = g.neighbors
        self.is_free = [True] * len(g.edges)
        self.component = [0] * g.node_count
        self.labels = 0
        self.memo = memo

    def remove(self, path: Iterable[int]) -> None:
        """Take the edges of ``path`` out of the view; ValueError if one
        of them is not a free edge id (out of ``0..m-1``, taken out
        before, or listed twice)."""
        is_free = self.is_free
        m = len(is_free)
        for eid in path:
            if not (0 <= eid < m and is_free[eid]):
                raise ValueError(f"edge {eid} is not a free edge of the view")
            is_free[eid] = False


def shortest_path_avoiding(free: FreeEdges, s: int, t: int) -> list[int] | None:
    """Minimum-hop elementary path from s to t on the free edges of a
    :class:`FreeEdges` view, so it avoids every edge taken out of it.

    Returns the edge sequence, or None if t is unreachable.  Deterministic:
    breadth-first expansion visits incident edges in the graph's order,
    skipping the taken ones, so ties always resolve the same way.
    Returns None without a traversal when s and t carry different
    component labels, or t has no free edge.  With a memo on the view,
    the graph's own s-t path (see :class:`WholeGraphPaths`) is returned,
    as a new list, when every one of its edges is free, which is exactly
    the answer by the sub-view fact in :class:`FreeEdges`; otherwise the
    view is searched.  A traversal that fails gives the source's
    component a fresh label.  Raises ValueError if s or t is not a node
    of the view, or if they are equal.
    """
    n = len(free.neighbors)
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"node id out of range 0..{n - 1}: s={s}, t={t}")
    if s == t:
        raise ValueError("source equals target")
    component = free.component
    if component[s] != component[t]:  # split apart by an earlier failure
        return None
    is_free = free.is_free
    for eid, _ in free.neighbors[t]:
        if is_free[eid]:
            break
    else:  # no free edge reaches t
        return None
    if free.memo is not None:
        whole = free.memo[s, t]
        for eid in whole:
            if not is_free[eid]:
                break
        else:
            return list(whole)
    path, reached = _bfs(free.neighbors, free.edges, is_free, s, t)
    if path is None:
        free.labels += 1
        label = free.labels
        for u in reached:  # s's whole component
            component[u] = label
    return path


def _bfs(neighbors: Sequence[Sequence[tuple[int, int]]],
         edges: Sequence[tuple[int, int]], is_free: Sequence[bool], s: int,
         t: int | None) -> tuple[list[int] | None, list[int]]:
    """Breadth-first search from s to t over the ``(edge id, other end)``
    incidence lists ``neighbors``, in their order, on the edges whose
    ``is_free`` flag is set: the minimum-hop edge sequence, or None when
    t is unreachable (always, for t None), and the nodes reached, which
    on failure are all of s's component."""
    parent_edge: list[int | None] = [None] * len(neighbors)
    parent_edge[s] = -1
    queue = [s]
    for u in queue:
        for eid, w in neighbors[u]:
            if parent_edge[w] is None and is_free[eid]:
                parent_edge[w] = eid
                if w == t:
                    return _path_back(edges, parent_edge, s, t), queue
                queue.append(w)
    return None, queue


def _path_back(edges: Sequence[tuple[int, int]],
               parent_edge: Sequence[int | None], s: int, t: int) -> list[int]:
    """The s-t edge sequence that ``parent_edge`` records back from t."""
    path: list[int] = []
    cur = t
    while cur != s:
        eid = parent_edge[cur]
        path.append(eid)
        u, v = edges[eid]
        cur = u if v == cur else v
    path.reverse()
    return path


# -- text formats -----------------------------------------------------------


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: expected integer {what}, got {token!r}"
        ) from None


def load_graph(text: str) -> Graph:
    """Parse graph text (see module docstring for the format)."""
    lines = _content_lines(text)
    if not lines:
        raise GraphFormatError("empty graph file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(f"line {lineno}: header must be 'n m', got {header!r}")
    n = _parse_int(parts[0], lineno, "node count")
    m = _parse_int(parts[1], lineno, "edge count")
    if m < n - 1:
        raise GraphFormatError(
            f"line {lineno}: {m} edge(s) cannot connect {n} nodes")
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(
            f"expected {m} edge lines after the header, found {len(body)}"
        )

    edges: list[tuple[int, int]] = []
    raw_weights: list[list[Decimal]] = []
    ncols: int | None = None
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) < 2:
            raise GraphFormatError(f"line {lineno}: edge line needs 'u v', got {line!r}")
        u = _parse_int(tokens[0], lineno, "node id")
        v = _parse_int(tokens[1], lineno, "node id")
        cols = tokens[2:]
        if ncols is None:
            ncols = len(cols)
        elif len(cols) != ncols:
            raise GraphFormatError(
                f"line {lineno}: {len(cols)} weight column(s), earlier lines have {ncols}"
            )
        row: list[Decimal] = []
        for tok in cols:
            try:
                d = Decimal(tok).normalize(_EXACT)
                if not d.is_finite():
                    raise InvalidOperation
            except (InvalidOperation, Inexact):
                raise GraphFormatError(
                    f"line {lineno}: bad weight {tok!r}"
                ) from None
            if d < 0:
                raise GraphFormatError(f"line {lineno}: negative weight {tok!r}")
            if abs(d.as_tuple().exponent) > MAX_DECIMAL_EXPONENT:
                raise GraphFormatError(
                    f"line {lineno}: weight {tok!r} has an exponent beyond "
                    f"e±{MAX_DECIMAL_EXPONENT}")
            row.append(d)
        edges.append((u, v))
        raw_weights.append(row)

    ncols = ncols or 0
    scales = []
    for k in range(ncols):
        scale = 0
        for row in raw_weights:
            scale = max(scale, -row[k].as_tuple().exponent)
        scales.append(scale)
    # in integers: a scaled weight may need more digits than the context has
    int_weights = []
    for row in raw_weights:
        ratios = [d.as_integer_ratio() for d in row]
        int_weights.append(tuple(
            num * 10 ** scale // den for (num, den), scale in zip(ratios, scales)))
    return Graph(n, edges, int_weights, tuple(scales))


def graph_to_text(g: Graph) -> str:
    """Serialize a graph to the text format; load_graph round-trips it."""
    lines = [f"{g.node_count} {g.edge_count}"]
    for eid, (u, v) in enumerate(g.edges):
        cols = []
        for k, w in enumerate(g.weights[eid]):
            s = g.weight_scales[k]
            if s == 0:
                cols.append(str(w))
            else:
                cols.append(f"{w // 10 ** s}.{w % 10 ** s:0{s}d}")
        lines.append(" ".join([str(u), str(v), *cols]))
    return "\n".join(lines) + "\n"


def load_commodities(text: str, graph: Graph) -> list[Commodity]:
    """Parse commodity text; node ids are range-checked against ``graph``."""
    lines = _content_lines(text)
    if not lines:
        raise GraphFormatError("empty commodity file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 1:
        raise GraphFormatError(f"line {lineno}: header must be 'k', got {header!r}")
    k = _parse_int(parts[0], lineno, "commodity count")
    body = lines[1:]
    if len(body) != k:
        raise GraphFormatError(
            f"expected {k} commodity lines after the header, found {len(body)}"
        )
    out: list[Commodity] = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: commodity line needs 's t'")
        s = _parse_int(tokens[0], lineno, "node id")
        t = _parse_int(tokens[1], lineno, "node id")
        if s == t:
            raise GraphFormatError(f"line {lineno}: source equals target ({s})")
        for node in (s, t):
            if not (0 <= node < graph.node_count):
                raise GraphFormatError(
                    f"line {lineno}: node id {node} out of range "
                    f"0..{graph.node_count - 1}"
                )
        out.append(Commodity(s, t))
    return out


def commodities_to_text(commodities: Sequence[Commodity]) -> str:
    lines = [str(len(commodities))]
    lines.extend(f"{c.source} {c.target}" for c in commodities)
    return "\n".join(lines) + "\n"
