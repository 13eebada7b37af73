"""Benchmark harness: run solver suites over instance cells, emit CSV.

A *cell* is one (graph, commodity ratio) combination; it holds
``instances_per_cell`` instances.  Instance ``i`` uses seed
``base_seed + i`` for both its commodity sample and every solver run
on it, so results do not depend on scheduling.  Every configured solver
runs once per instance, and the harness reports both per-run raw rows
and per-cell aggregates (mean best objective, mean time to best).

Graphs are given either as file paths or as generator specs
(``mesh:WxH`` or ``random:N,M,SEED``).  Benchmark specs are plain
``key=value`` text files, e.g.::

    graph=mesh:10x10
    ratios=0.10,0.25,0.40
    instances=20
    time_limit=10
    seed=1
    solvers=ls,msga

Under ``iter_cap`` the ``t_s`` and ``t_mean_s`` columns, like a
dump's ``time_to_best``, count LS iterations or MSGA passes, not
seconds: they read the trace clock, which a cap makes a counter.
"""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .edp import SOLVERS, EdpInstance
from .generators import generate_commodities, generate_mesh, generate_random_connected
from .graph import MAX_DECIMAL_EXPONENT, Graph, _content_lines, load_graph
from .search import SearchConfig

RAW_HEADER = ("graph", "ratio", "k", "solver", "seed", "q", "t_s")
AGGREGATE_HEADER = ("graph", "ratio", "k", "solver", "q_mean", "t_mean_s", "instances")


@dataclass
class BenchmarkSpec:
    graphs: list[str]
    commodity_ratios: list[str] = field(
        default_factory=lambda: ["0.10", "0.25", "0.40"])
    instances_per_cell: int = 20
    time_limit_s: float = 10.0
    iter_cap: int | None = None
    base_seed: int = 0
    solvers: list[str] = field(default_factory=lambda: ["ls", "msga"])
    jobs: int = 1

    def __post_init__(self) -> None:
        if not self.graphs:
            raise ValueError("benchmark spec needs at least one graph")
        if self.instances_per_cell < 1:
            raise ValueError("instances_per_cell must be >= 1")
        if not self.commodity_ratios:
            raise ValueError("benchmark spec needs at least one commodity ratio")
        ratios = set()
        for r in self.commodity_ratios:
            f = _ratio(r)
            if not (0 < f <= 1):
                raise ValueError(f"commodity ratio {r} not in (0, 1]")
            if f in ratios:
                raise ValueError(f"commodity ratio {r} listed twice")
            ratios.add(f)
        for s in self.solvers:
            if s not in SOLVERS:
                raise ValueError(f"unknown solver {s!r}; use one of {tuple(SOLVERS)}")
        if not self.solvers:
            raise ValueError("benchmark spec needs at least one solver")
        if len(set(self.solvers)) != len(self.solvers):
            raise ValueError(f"a solver is listed twice in {self.solvers}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        # the solvers' rule for the budget, checked before any run
        SearchConfig(time_limit_s=self.time_limit_s, iter_cap=self.iter_cap)


# ``Fraction`` expands a decimal exponent into an exact power of ten, so
# ``1e-999999999`` would not return; an exponent past
# ``MAX_DECIMAL_EXPONENT`` is refused, as in graph weights.
_EXPONENT_RE = re.compile(r"e[-+]?(\d[\d_]*)\s*\Z", re.IGNORECASE)


def _ratio(ratio: str) -> Fraction:
    """The exact value of a commodity ratio as written in a spec; an
    exponent beyond ``MAX_DECIMAL_EXPONENT`` either way is a ValueError."""
    m = _EXPONENT_RE.search(ratio)
    if m:
        digits = m.group(1).replace("_", "").lstrip("0")
        if len(digits) > 3 or int(digits or "0") > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"commodity ratio {ratio} has an exponent beyond "
                             f"e±{MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(ratio)
    except ZeroDivisionError:
        raise ValueError(f"commodity ratio {ratio} divides by zero") from None


def parse_spec(text: str) -> BenchmarkSpec:
    """Parse a line-oriented key=value benchmark spec.

    A value that does not parse is reported with its line and key."""
    kwargs: dict = {"graphs": []}
    for lineno, line in _content_lines(text):
        if "=" not in line:
            raise ValueError(f"spec line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "graph":
                kwargs["graphs"].append(value)
            elif key == "ratios":
                ratios = [v.strip() for v in value.split(",") if v.strip()]
                for r in ratios:
                    _ratio(r)
                kwargs["commodity_ratios"] = ratios
            elif key == "instances":
                kwargs["instances_per_cell"] = int(value)
            elif key == "time_limit":
                kwargs["time_limit_s"] = float(value)
            elif key == "iter_cap":
                kwargs["iter_cap"] = int(value)
            elif key == "seed":
                kwargs["base_seed"] = int(value)
            elif key == "solvers":
                kwargs["solvers"] = [v.strip() for v in value.split(",") if v.strip()]
            elif key == "jobs":
                kwargs["jobs"] = int(value)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"spec line {lineno}: {key}={value}: {exc}") from None
    return BenchmarkSpec(**kwargs)


_MESH_RE = re.compile(r"^mesh:(\d+)x(\d+)$")
_RANDOM_RE = re.compile(r"^random:(\d+),(\d+),(\d+)$")


def resolve_graph(entry: str) -> tuple[str, Graph]:
    """Turn a graph entry (generator spec or file path) into (name, Graph)."""
    m = _MESH_RE.match(entry)
    if m:
        w, h = int(m.group(1)), int(m.group(2))
        return f"mesh{w}x{h}", generate_mesh(w, h)
    m = _RANDOM_RE.match(entry)
    if m:
        n, edges, seed = (int(g) for g in m.groups())
        return f"random{n}-{edges}-{seed}", generate_random_connected(n, edges, seed)
    with open(entry, "r", encoding="utf-8") as fh:
        g = load_graph(fh.read())
    name = os.path.splitext(os.path.basename(entry))[0]
    return name, g


@lru_cache(maxsize=None)
def _cached_graph(entry: str) -> tuple[str, Graph]:
    return resolve_graph(entry)


@dataclass
class BenchResult:
    """Rows are plain tuples in the column order of ``RAW_HEADER`` and
    ``AGGREGATE_HEADER``."""

    raw_rows: list[tuple]
    aggregate_rows: list[tuple]

    def raw_csv(self) -> str:
        return _csv(RAW_HEADER, self.raw_rows)

    def aggregate_csv(self) -> str:
        return _csv(AGGREGATE_HEADER, self.aggregate_rows)


def _csv(header: tuple[str, ...], rows: list[tuple]) -> str:
    """CSV text with every float written to three decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.3f}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def commodity_count(ratio: str, node_count: int) -> int:
    """Cell size for a ratio: floor(ratio * n), computed exactly from
    :func:`_ratio`'s value, so its exponent bound holds here too."""
    return int(_ratio(ratio) * node_count)


def _run_one(task: tuple) -> tuple[int, float]:
    entry, ratio, k, solver, seed, time_limit_s, iter_cap = task
    _, g = _cached_graph(entry)
    commodities = tuple(generate_commodities(g, k, seed))
    inst = EdpInstance(g, commodities)
    cfg = SearchConfig(time_limit_s=time_limit_s, seed=seed, iter_cap=iter_cap)
    solution, _ = SOLVERS[solver](inst, cfg)
    return solution.objective, solution.best_time


def run_benchmark(spec: BenchmarkSpec) -> BenchResult:
    """Run all cells of the spec; deterministic for fixed seeds even when
    jobs > 1 (seeds are pre-assigned per instance and rows are ordered).

    Raises ValueError when two graph entries resolve to the same name,
    since their rows could not be told apart.
    """
    tasks = []
    names: dict[str, str] = {}
    for entry in spec.graphs:
        name, g = _cached_graph(entry)
        if name in names.values():
            raise ValueError(f"two graph entries resolve to the name {name!r}")
        names[entry] = name
        for ratio in spec.commodity_ratios:
            k = commodity_count(ratio, g.node_count)
            if k < 1:
                raise ValueError(
                    f"ratio {ratio} yields no commodities on {name} "
                    f"({g.node_count} nodes)"
                )
            for i in range(spec.instances_per_cell):
                for solver in spec.solvers:
                    tasks.append(
                        (entry, ratio, k, solver, spec.base_seed + i,
                         spec.time_limit_s, spec.iter_cap))

    if spec.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at once, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(spec.jobs, len(tasks))) as pool:
            outcomes = list(pool.map(_run_one, tasks))
    else:
        outcomes = [_run_one(t) for t in tasks]

    raw_rows = []
    # cell (graph, ratio, k, solver) -> (qs, times), in first-run order
    cells: dict[tuple, tuple[list[int], list[float]]] = {}
    for (entry, ratio, k, solver, seed, _, _), (q, t_best) in zip(tasks, outcomes):
        cell = (names[entry], ratio, k, solver)
        raw_rows.append(cell + (seed, q, t_best))
        qs, times = cells.setdefault(cell, ([], []))
        qs.append(q)
        times.append(t_best)
    aggregate_rows = [
        cell + (sum(qs) / len(qs), sum(times) / len(times), len(qs))
        for cell, (qs, times) in cells.items()
    ]
    return BenchResult(raw_rows, aggregate_rows)
