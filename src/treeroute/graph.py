"""Immutable undirected graphs with exact integer edge weights.

The graph is the static substrate everything else works on: simple
(no self-loops, no parallel edges), connected, with dense edge ids
``0..m-1``.  An edge id is the canonical handle for an edge; ``(u, v)``
and ``(v, u)`` resolve to the same id.

Weight columns are parsed from fixed-decimal text and stored as exact
integers, one shared power-of-ten scale per column, so that every cost
and every cost delta computed downstream is exact integer arithmetic.

Text formats
------------
Graph file: first line ``n m`` (connected, so ``m >= n - 1``), then
``m`` lines ``u v [w1 w2 ...]`` with 0-based node ids.  All edge lines
must carry the same number of weight columns.  Blank lines and lines
starting with ``#`` are ignored.

Commodity file: first line ``k``, then ``k`` lines ``s t``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import AbstractSet, Sequence


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
        seen = [False] * self.node_count
        seen[0] = True
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for _, w in self.neighbors[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        if not all(seen):
            missing = seen.index(False)
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


def shortest_path_avoiding(
    g: Graph, s: int, t: int, forbidden: AbstractSet[int] = frozenset()
) -> list[int] | None:
    """Minimum-hop elementary path from s to t using no forbidden edge.

    ``forbidden`` is read in place, not copied.

    Returns the edge sequence, or None if t is unreachable.  Deterministic:
    breadth-first expansion visits incident edges in ascending edge-id
    order, so ties always resolve the same way.
    """
    if s == t:
        raise ValueError("source equals target")
    parent_edge = [-1] * g.node_count
    seen = [False] * g.node_count
    seen[s] = True
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for eid, w in g.neighbors[u]:
            if eid in forbidden:
                continue
            if not seen[w]:
                seen[w] = True
                parent_edge[w] = eid
                if w == t:
                    queue.clear()
                    break
                queue.append(w)
    if not seen[t]:
        return None
    path: list[int] = []
    cur = t
    while cur != s:
        eid = parent_edge[cur]
        path.append(eid)
        cur = g.other_end(eid, cur)
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
                d = Decimal(tok)
            except InvalidOperation:
                raise GraphFormatError(
                    f"line {lineno}: bad weight {tok!r}"
                ) from None
            if not d.is_finite():
                raise GraphFormatError(f"line {lineno}: bad weight {tok!r}")
            if d < 0:
                raise GraphFormatError(f"line {lineno}: negative weight {tok!r}")
            row.append(d)
        edges.append((u, v))
        raw_weights.append(row)

    ncols = ncols or 0
    scales = []
    for k in range(ncols):
        scale = 0
        for row in raw_weights:
            exp = row[k].normalize().as_tuple().exponent
            scale = max(scale, -int(exp))
        scales.append(scale)
    int_weights = [
        tuple(int(row[k].scaleb(scales[k])) for k in range(ncols))
        for row in raw_weights
    ]
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
