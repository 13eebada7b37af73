"""Golden digests of capped runs: refactors must not change a decision.

Each digest covers everything a capped run decides (the solution dump
or final tree, every new best and every search event), so any change to
move order, rng use or a delta shows up here.  The LS and PathCost
digests were recorded on the code before the model-layer collapse, the
MSGA digests before the search-layer collapse; they must stay as they
are.
"""

import hashlib
import random

import pytest

from treeroute import (
    EdpInstance,
    PathCost,
    RootedSpanningTree,
    SearchConfig,
    compare,
    generate_commodities,
    run,
    solution_to_dump,
    solve_ls,
    solve_msga,
)
from treeroute.bench import commodity_count, resolve_graph

import oracles


def _digest(head: str, trace) -> str:
    text = head + repr(trace.improvements) + repr(trace.events)
    return hashlib.sha256(text.encode()).hexdigest()


LS_GOLDEN = {
    ("mesh:6x6", "0.25", 0):
        "7d29681829aae865bf7711b43ddd4a0c2bfb9bc474fca266c349ca2d1c84e188",
    ("mesh:6x6", "0.25", 1):
        "013b88296029e3c85a8bbb6a5b5cdc69596e266b3f9bf155e1640d093bf9d14d",
    ("mesh:6x6", "0.25", 2):
        "41a5368cd18a4a00518391982db426bb5a149e103e9bba12c57b1f5b0828fbf1",
    ("mesh:10x10", "0.40", 0):
        "1e9fc61394f0d23702f1ac791f8fba995a6a6a523899f1b125a3de58db67dd51",
    ("mesh:10x10", "0.40", 1):
        "bcadd0e5ee8e17fc887ec81262103f4d90f31f0bff32921eb339fc94e9e3ca29",
    ("mesh:10x10", "0.40", 2):
        "4998bdaa78925bb4654781fa5623d0e3aa4fb8d3f534accbebbc6a3df19aa6de",
}

# sha256 of dump + improvements only: MSGA records no search events.
MSGA_GOLDEN = {
    0: "b12b49a4a43ca7bcb28c0f26beeb6add0f236e67f873ff909e11c7f29542d276",
    1: "57dd2ccc3e1d64b4db3b0289ea82401185e5140b61fb03ec5a6f87f3a8e746a6",
    2: "449be7f30dc44137bbd0cfe25733affbbcf5f6698f31627849f8a980008d6e63",
}

PATH_COST_GOLDEN = (
    "0f8ae43661ce0439831ccc77a709d18f488a8563c5ac817a7e4432a2973bd7b8")


@pytest.mark.parametrize("graph,ratio,seed", sorted(LS_GOLDEN))
def test_capped_ls_digest(graph, ratio, seed):
    _, g = resolve_graph(graph)
    k = commodity_count(ratio, g.node_count)
    inst = EdpInstance(g, tuple(generate_commodities(g, k, seed)))
    solution, trace = solve_ls(inst, SearchConfig(seed=seed, iter_cap=40))
    assert _digest(solution_to_dump(solution, inst), trace) == \
        LS_GOLDEN[graph, ratio, seed]


@pytest.mark.parametrize("seed", sorted(MSGA_GOLDEN))
def test_capped_msga_digest(seed):
    _, g = resolve_graph("mesh:10x10")
    k = commodity_count("0.40", g.node_count)
    inst = EdpInstance(g, tuple(generate_commodities(g, k, seed)))
    solution, trace = solve_msga(inst, SearchConfig(seed=seed, iter_cap=10))
    assert trace.events == []
    text = solution_to_dump(solution, inst) + repr(trace.improvements)
    assert hashlib.sha256(text.encode()).hexdigest() == MSGA_GOLDEN[seed]


def test_capped_path_cost_run_digest():
    # The cheapest 0-23 path costs 4, so the budget of 3 is never met and
    # the run goes through stalls, perturbations and restarts as well.
    rng = random.Random(1)
    g = oracles.random_connected_graph(rng, 24, 40)
    tree = RootedSpanningTree.random_tree(g, 0, 23, 11)
    objective = compare(PathCost(tree, 0), "<=", 3)
    trace = run(objective, SearchConfig(seed=2, iter_cap=60))
    assert _digest(tree.dump(), trace) == PATH_COST_GOLDEN
