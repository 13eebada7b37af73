"""Golden digests of capped runs: refactors must not change a decision.

Each digest covers everything a capped run decides (the solution dump
or final tree, every new best and every search event), so any change to
move order, rng use or a delta shows up here.  The LS and PathCost
digests were recorded when the search became a one-move descent that
kicks after one failed scan (a deliberate change of decisions and of
the rng stream), the MSGA digests before the search-layer collapse, the
bench digest before the application-layer collapse, the model digest
while trees were still drawn with ``random.shuffle``; refactors must
leave them as they are.
"""

import hashlib
import random

import pytest

from treeroute import (
    BenchmarkSpec,
    EdpInstance,
    PathCost,
    RootedSpanningTree,
    SearchConfig,
    compare,
    generate_commodities,
    run,
    run_benchmark,
    solution_to_dump,
    solve_ls,
    solve_msga,
)
from treeroute.bench import commodity_count, resolve_graph
from treeroute.edp import build_model
from treeroute.treevar import _MAX_TRIE_DEGREE

import oracles


def _digest(head: str, trace) -> str:
    text = head + repr(trace.improvements) + repr(trace.events)
    return hashlib.sha256(text.encode()).hexdigest()


LS_GOLDEN = {
    ("mesh:6x6", "0.25", 0):
        "1e5629049f2e602f789868239bdcd8336fd81d6a2b20109dfb35478814f9b05e",
    ("mesh:6x6", "0.25", 1):
        "4a1a1ced976fcda8652cdb1806fd5d80fbc40d01218aaa31ba4dc0bce175727e",
    ("mesh:6x6", "0.25", 2):
        "5019784d54cf1f12a6540d9789082fb46a062a2554a5457e00baae0ca0014fd3",
    ("mesh:10x10", "0.40", 0):
        "4aafc94dacd95fc1a33a007855268d527c06d7d672a2c8b5f1966400ecfbb390",
    ("mesh:10x10", "0.40", 1):
        "5925682b4744987cc84bd2c21f347ce4294c246711d3e8d82cbfb3aebeddcc80",
    ("mesh:10x10", "0.40", 2):
        "4d72430c97ca561072db6fb0d3b75e6ad46e502d2088348656f0979c47621e83",
}

# The ls-mesh15-sparse benchmark cell (k=22) at its iter_cap of 120,
# where most scanned removals hold no shared edge.
SPARSE_LS_GOLDEN = (
    "84c269a6a6055a4532b2a97d7476e88bba03eb85e5dbaec9b505406d827bf8fc")

# The ls-mesh25-dense benchmark cell (k=250) at iter_cap 20, where
# nearly every scanned pair passes the disjointness predicate's O(1)
# test and the chain counts decide.
DENSE_LS_GOLDEN = (
    "ce69bedd4043190cb4e369f60ea3a4baa09e5b3cad97be41a86fcfcf4be6775e")

# sha256 of dump + improvements only: MSGA records no search events.
MSGA_GOLDEN = {
    0: "b12b49a4a43ca7bcb28c0f26beeb6add0f236e67f873ff909e11c7f29542d276",
    1: "57dd2ccc3e1d64b4db3b0289ea82401185e5140b61fb03ec5a6f87f3a8e746a6",
    2: "449be7f30dc44137bbd0cfe25733affbbcf5f6698f31627849f8a980008d6e63",
}

# A random graph (30 nodes, 70 edges) where 8 nodes have more incidences
# than ``treevar``'s shuffle tries cover, so both ways of ordering a
# node's incidences decide this run; its 22 restarts redraw trees too.
RANDOM_LS_GOLDEN = (
    "dcd7c6a514fe40bf1c01463b723fb1b20eb933fea64e9a21fcd6a15dab9b937a")

PATH_COST_GOLDEN = (
    "9c0b04bdde723cccd5b888d71026cec08f3512d8f5ac47a2126ee00e8bbfc6c2")

# sha256 of every tree's father node and father edge lists, in commodity
# order, for the model of the ls-mesh25-dense benchmark cell.
MODEL_GOLDEN = (
    "516f5f460dfc383da650e38565e6778a1e4627c6f12713bab98203706eeee747")

# sha256 of the raw CSV followed by the aggregate CSV.
BENCH_GOLDEN = (
    "1138c22b724e4711f787bc5202ce551d8988672bdfef70a361c8728814385faf")


@pytest.mark.parametrize("graph,ratio,seed", sorted(LS_GOLDEN))
def test_capped_ls_digest(graph, ratio, seed):
    _, g = resolve_graph(graph)
    k = commodity_count(ratio, g.node_count)
    inst = EdpInstance(g, tuple(generate_commodities(g, k, seed)))
    solution, trace = solve_ls(inst, SearchConfig(seed=seed, iter_cap=40))
    assert _digest(solution_to_dump(solution, inst), trace) == \
        LS_GOLDEN[graph, ratio, seed]


def test_capped_ls_digest_at_sparse_benchmark_scale():
    _, g = resolve_graph("mesh:15x15")
    k = commodity_count("0.10", g.node_count)
    assert k == 22
    inst = EdpInstance(g, tuple(generate_commodities(g, k, 0)))
    solution, trace = solve_ls(inst, SearchConfig(seed=0, iter_cap=120))
    assert _digest(solution_to_dump(solution, inst), trace) == SPARSE_LS_GOLDEN


def test_capped_ls_digest_at_dense_benchmark_scale():
    _, g = resolve_graph("mesh:25x25")
    k = commodity_count("0.40", g.node_count)
    assert k == 250
    inst = EdpInstance(g, tuple(generate_commodities(g, k, 0)))
    solution, trace = solve_ls(inst, SearchConfig(seed=0, iter_cap=20))
    assert _digest(solution_to_dump(solution, inst), trace) == DENSE_LS_GOLDEN


def test_capped_ls_digest_on_a_random_graph_with_high_degrees():
    _, g = resolve_graph("random:30,70,2")
    assert sum(len(inc) > _MAX_TRIE_DEGREE for inc in g.neighbors) == 8
    k = commodity_count("0.25", g.node_count)
    inst = EdpInstance(g, tuple(generate_commodities(g, k, 0)))
    solution, trace = solve_ls(inst, SearchConfig(seed=0, iter_cap=80))
    assert sum(kind == "restart" for _, kind, _ in trace.events) == 22
    assert _digest(solution_to_dump(solution, inst), trace) == RANDOM_LS_GOLDEN


@pytest.mark.parametrize("seed", sorted(MSGA_GOLDEN))
def test_capped_msga_digest(seed):
    _, g = resolve_graph("mesh:10x10")
    k = commodity_count("0.40", g.node_count)
    inst = EdpInstance(g, tuple(generate_commodities(g, k, seed)))
    solution, trace = solve_msga(inst, SearchConfig(seed=seed, iter_cap=10))
    assert trace.events == []
    text = solution_to_dump(solution, inst) + repr(trace.improvements)
    assert hashlib.sha256(text.encode()).hexdigest() == MSGA_GOLDEN[seed]


def test_benchmark_scale_model_digest():
    # mesh 25x25 at ratio 0.40 with seed 0: 250 trees, 156,250 shuffled
    # incidence lists drawn from one rng.
    _, g = resolve_graph("mesh:25x25")
    k = commodity_count("0.40", g.node_count)
    inst = EdpInstance(g, tuple(generate_commodities(g, k, 0)))
    trees = build_model(inst, 0).trees
    assert len(trees) == 250
    text = repr([(t._father_node, t._father_edge) for t in trees])
    assert hashlib.sha256(text.encode()).hexdigest() == MODEL_GOLDEN


def test_capped_path_cost_run_digest():
    # The cheapest 0-23 path costs 4, so the budget of 3 is never met and
    # the run goes through perturbations and restarts as well.
    rng = random.Random(1)
    g = oracles.random_connected_graph(rng, 24, 40)
    tree = RootedSpanningTree.random_tree(g, 0, 23, random.Random(11))
    objective = compare(PathCost(tree, 0), "<=", 3)
    trace = run(objective, SearchConfig(seed=2, iter_cap=60))
    # one 'node father' line per node, then the induced path's edges
    lines = [f"{node} {father}" for node, father in enumerate(tree._father_node)]
    lines.append("path: " + " ".join(map(str, tree.induced_path())))
    assert _digest("\n".join(lines) + "\n", trace) == PATH_COST_GOLDEN


def test_capped_bench_csv_digest():
    # Capped t_s counts iterations, so both CSVs are deterministic.
    spec = BenchmarkSpec(graphs=["mesh:6x6", "random:12,20,3"],
                         commodity_ratios=["0.25", "0.40"],
                         instances_per_cell=2, iter_cap=8, solvers=["ls", "msga"])
    result = run_benchmark(spec)
    text = result.raw_csv() + result.aggregate_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == BENCH_GOLDEN
