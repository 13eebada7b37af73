"""treeroute: local search for constrained path problems.

Paths are modeled as rooted spanning tree variables whose unique
source-to-root chain is the path; edge-replacement moves explore the
neighborhood, and incrementally evaluated objectives and constraints
answer exact what-if queries for every move.  Ships an edge-disjoint
paths application (local search plus a multi-start greedy baseline),
instance generators, and a benchmark harness.
"""

from .graph import (
    Commodity,
    FreeEdges,
    Graph,
    GraphFormatError,
    GraphValidationError,
    WholeGraphPaths,
    commodities_to_text,
    graph_to_text,
    load_commodities,
    load_graph,
    path_nodes,
    shortest_path_avoiding,
)
from .treevar import (
    BasicMove,
    ComplexMove,
    InvalidMoveError,
    RootedSpanningTree,
)
from .objectives import (
    Differentiable,
    PathCost,
    PathEdgeDisjoint,
    combine,
    compare,
)
from .search import (
    SearchConfig,
    SearchTrace,
    explore_one_move,
    explore_pair_move,
    explore_two_move,
    run,
)
from .edp import (
    EdpInstance,
    EdpSolution,
    build_model,
    evaluate_assignment,
    extract_disjoint,
    greedy_complete,
    solution_to_dump,
    solve_ls,
    solve_msga,
    verify_dump,
)
from .generators import (
    generate_commodities,
    generate_mesh,
    generate_random_connected,
)
from .bench import (
    BenchmarkSpec,
    BenchResult,
    parse_spec,
    resolve_graph,
    run_benchmark,
)

__version__ = "0.1.0"

__all__ = [
    "BasicMove",
    "BenchResult",
    "BenchmarkSpec",
    "Commodity",
    "ComplexMove",
    "Differentiable",
    "EdpInstance",
    "EdpSolution",
    "FreeEdges",
    "Graph",
    "GraphFormatError",
    "GraphValidationError",
    "InvalidMoveError",
    "PathCost",
    "PathEdgeDisjoint",
    "RootedSpanningTree",
    "SearchConfig",
    "SearchTrace",
    "WholeGraphPaths",
    "build_model",
    "combine",
    "commodities_to_text",
    "compare",
    "evaluate_assignment",
    "explore_one_move",
    "explore_pair_move",
    "explore_two_move",
    "extract_disjoint",
    "generate_commodities",
    "generate_mesh",
    "generate_random_connected",
    "graph_to_text",
    "greedy_complete",
    "load_commodities",
    "load_graph",
    "parse_spec",
    "path_nodes",
    "resolve_graph",
    "run",
    "run_benchmark",
    "shortest_path_avoiding",
    "solution_to_dump",
    "solve_ls",
    "solve_msga",
    "verify_dump",
]
