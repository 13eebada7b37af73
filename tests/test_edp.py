import random

import pytest

from treeroute import (
    BenchmarkSpec,
    Commodity,
    EdpInstance,
    SearchConfig,
    extract_disjoint,
    generate_commodities,
    greedy_complete,
    load_graph,
    run_benchmark,
    solution_to_dump,
    solve_ls,
    solve_msga,
    verify_dump,
)

import oracles


def random_instances(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        g = oracles.random_connected_graph(rng, rng.randint(5, 14), rng.randint(2, 12))
        k = rng.randint(1, g.node_count)
        yield EdpInstance(g, tuple(generate_commodities(g, k, rng.randrange(1000))))


def random_paths(rng, g, count):
    """Induced paths of random tree variables: valid, often overlapping."""
    return [oracles.random_tree_variable(rng, g).induced_path() for _ in range(count)]


def is_disjoint(paths):
    edges = [e for p in paths for e in p]
    return len(edges) == len(set(edges))


@pytest.mark.parametrize("solve", [solve_ls, solve_msga])
def test_solver_outputs_verify(solve):
    for i, inst in enumerate(random_instances(3, 12)):
        solution, trace = solve(inst, SearchConfig(seed=i, iter_cap=15))
        assert verify_dump(solution_to_dump(solution, inst), inst) == []
        assert solution.objective == len(solution.routed)
        assert (trace.best_time, trace.best_value) == trace.improvements[-1]
        if solve is solve_msga:
            assert solution.best_time == trace.best_time


def test_msga_without_passes_routes_nothing():
    inst = next(random_instances(4, 1))
    solution, trace = solve_msga(inst, SearchConfig(iter_cap=0))
    assert solution.objective == 0
    assert verify_dump(solution_to_dump(solution, inst), inst) == []
    assert trace.improvements == []
    assert (trace.best_value, trace.best_time) == (0, 0.0)


def test_extract_disjoint_is_disjoint_deterministic_and_idempotent():
    rng = random.Random(8)
    for _ in range(40):
        g = oracles.random_connected_graph(rng, rng.randint(4, 12), rng.randint(1, 10))
        paths = random_paths(rng, g, rng.randint(1, 8))
        kept = extract_disjoint(paths)
        assert kept == extract_disjoint(paths)
        assert is_disjoint([paths[i] for i in kept])
        if is_disjoint(paths):
            assert kept == list(range(len(paths)))
        again = extract_disjoint([paths[i] for i in kept])
        assert [kept[j] for j in again] == kept


def test_greedy_complete_keeps_every_kept_path():
    rng = random.Random(9)
    for _ in range(40):
        g = oracles.random_connected_graph(rng, rng.randint(4, 12), rng.randint(1, 10))
        commodities = generate_commodities(g, rng.randint(2, 8), rng.randrange(1000))
        paths = [
            oracles.random_tree_variable(rng, g, c.source, c.target).induced_path()
            for c in commodities
        ]
        kept = {i: paths[i] for i in extract_disjoint(paths)}
        pending = [(i, c) for i, c in enumerate(commodities) if i not in kept]
        routed = greedy_complete(g, kept, pending)
        assert all(routed[i] == p for i, p in kept.items())
        assert is_disjoint(routed.values())


def test_greedy_complete_routes_in_the_given_order():
    # two triangles joined by the bridge 2-3; both commodities need it
    g = load_graph("6 7\n0 1\n1 2\n0 2\n2 3\n3 4\n4 5\n3 5\n")
    first, second = Commodity(0, 4), Commodity(1, 5)
    bridge = g.find_edge(2, 3)
    routed = greedy_complete(g, {}, [(1, second), (0, first)])
    assert list(routed) == [1] and bridge in routed[1]
    routed = greedy_complete(g, {}, [(0, first), (1, second)])
    assert list(routed) == [0] and bridge in routed[0]


def test_benchmark_rows_do_not_depend_on_jobs():
    def raw(jobs):
        spec = BenchmarkSpec(graphs=["mesh:4x4", "random:12,20,3"],
                             commodity_ratios=["0.25", "0.5"],
                             instances_per_cell=2, iter_cap=8, jobs=jobs)
        return run_benchmark(spec).raw_csv()

    assert raw(1) == raw(2)
