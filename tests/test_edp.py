import concurrent.futures
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeroute import (
    BenchmarkSpec,
    Commodity,
    EdpInstance,
    SearchConfig,
    extract_disjoint,
    generate_commodities,
    greedy_complete,
    load_graph,
    parse_spec,
    run_benchmark,
    solution_to_dump,
    solve_ls,
    solve_msga,
    verify_dump,
)

import oracles
import treeroute.edp as edp
import treeroute.search as search
from treeroute.generators import generate_mesh


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
        dump = solution_to_dump(solution, inst)
        assert verify_dump(dump, inst) == []
        listed = [int(line.split()[0]) for line in dump.splitlines()[:-1]]
        assert listed == sorted(solution.routed)
        assert solution.objective == len(solution.routed)
        assert (trace.best_time, trace.best_value) == trace.improvements[-1]
        if solve is solve_msga:
            assert solution.best_time == trace.best_time


SUMMARY = "objective={}, C=0, time_to_best=0.000\n"


@pytest.mark.parametrize("dump,problems", [
    ("0 0 2 2 : 0 1 2\n" + SUMMARY.format(7) + SUMMARY.format(1),
     ["line 3: repeated summary line",
      "summary says objective=7 but dump has 1 path(s)"]),
    ("0 0 2 : 0 1 2\n" + SUMMARY.format(0),
     ["line 1: expected 'i s t hops : nodes'"]),
    ("0 0 2 2 9 : 0 1 2\n" + SUMMARY.format(0),
     ["line 1: expected 'i s t hops : nodes'"]),
    ("0 0 2 x : 0 1 2\n" + SUMMARY.format(0), ["line 1: non-integer field"]),
    ("0 0 2 2 : 0 1 2\nobjective=x, C=0\n", ["line 2: bad summary line"]),
    ("0 0 2 2 : 0 1 2\nobjective=1 C=0\n", ["line 2: bad summary line"]),
    ("0 0 2 2 : 0 1 2\n", ["missing summary line"]),
    ("# routed\n\n0 0 2 2 : 0 1 2\n   \n  # summary\n" + SUMMARY.format(1)
     + SUMMARY.format(1),
     ["line 7: repeated summary line"]),
], ids=["repeated-summary", "three-field-head", "five-field-head",
        "non-integer-head", "non-integer-summary", "summary-without-separator",
        "no-summary", "comments-and-blank-lines"])
def test_verify_dump_reports(dump, problems):
    g = load_graph("3 3\n0 1\n1 2\n0 2\n")
    inst = EdpInstance(g, (Commodity(0, 2),))
    assert verify_dump(dump, inst) == problems


def test_msga_without_passes_routes_nothing():
    inst = next(random_instances(4, 1))
    solution, trace = solve_msga(inst, SearchConfig(iter_cap=0))
    assert solution.objective == 0
    assert verify_dump(solution_to_dump(solution, inst), inst) == []
    assert trace.improvements == []
    assert (trace.best_value, trace.best_time) == (0, 0.0)


def slow_build_solve(monkeypatch, build_s, scan_s=0.25):
    """Budget-mode ``solve_ls`` with a 1.0 s limit on a fake clock where
    building the model takes ``build_s`` and every one-move scan
    ``scan_s``; returns the instance, the result and the scan start
    times counted from solve entry."""
    g = generate_mesh(6, 6)
    inst = EdpInstance(g, tuple(generate_commodities(g, 9, 0)))
    now = [100.0]
    scan_starts = []
    build = edp.build_model
    scan = search.explore_one_move

    def slow_build(inst, seed):
        now[0] += build_s
        return build(inst, seed)

    def slow_scan(tree, objective, rng):
        scan_starts.append(now[0] - 100.0)
        now[0] += scan_s
        return scan(tree, objective, rng)

    monkeypatch.setattr(search.time, "monotonic", lambda: now[0])
    monkeypatch.setattr(edp, "build_model", slow_build)
    monkeypatch.setattr(search, "explore_one_move", slow_scan)
    solution, trace = solve_ls(inst, SearchConfig(time_limit_s=1.0, seed=0))
    assert verify_dump(solution_to_dump(solution, inst), inst) == []
    return inst, solution, trace, scan_starts


def test_model_building_counts_against_the_budget(monkeypatch):
    _, _, trace, scan_starts = slow_build_solve(monkeypatch, build_s=0.6)
    assert scan_starts and max(scan_starts) < 1.0
    assert trace.improvements[0][0] == pytest.approx(0.6)


def test_a_build_that_spends_the_budget_returns_the_initial_extraction(monkeypatch):
    inst, solution, trace, scan_starts = slow_build_solve(monkeypatch, build_s=1.0)
    assert trace.iterations == 0 and scan_starts == []
    paths = [t.induced_path() for t in edp.build_model(inst, 0).trees]
    assert solution.routed == edp.evaluate_assignment(inst.graph, inst.commodities, paths)
    assert solution.best_time == trace.best_time == pytest.approx(1.0)


def test_no_extraction_starts_after_the_time_limit(monkeypatch):
    # Scans start at 0.0, 0.3, 0.6 and 0.9 s; the last one ends at 1.2 s
    # with a new violation best, which must not be extracted any more.
    evaluated_at = []
    evaluate = edp.evaluate_assignment

    def recorded(g, commodities, paths):
        evaluated_at.append(search.time.monotonic() - 100.0)
        return evaluate(g, commodities, paths)

    monkeypatch.setattr(edp, "evaluate_assignment", recorded)
    _, solution, trace, scan_starts = slow_build_solve(
        monkeypatch, build_s=0.0, scan_s=0.3)
    assert scan_starts == pytest.approx([0.0, 0.3, 0.6, 0.9])
    assert trace.best_time == pytest.approx(1.2)
    assert evaluated_at and max(evaluated_at) < 1.0
    assert solution.best_time < 1.0


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 15), max_size=8), max_size=12))
def test_extract_disjoint_matches_the_reference(paths):
    assert extract_disjoint(paths) == oracles.extract_disjoint_reference(paths)


@pytest.mark.parametrize("paths,kept", [
    ([], []),
    ([(0, 1, 2)] * 3, [0]),
    ([(0, 0, 1), (1, 2)], [0]),
    ([(3, 3), (4, 4, 5)], [0, 1]),
    ([(0, 1), (1, 2), (2, 0)], [0]),
    ([(0, 1), (2,), (3, 4)], [0, 1, 2]),
], ids=["empty", "identical", "repeated-edge", "repeated-edge-alone",
        "all-tied", "disjoint"])
def test_extract_disjoint_cases(paths, kept):
    assert extract_disjoint(paths) == kept
    assert oracles.extract_disjoint_reference(paths) == kept


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


def test_greedy_complete_rejects_overlapping_kept_paths():
    # 0-1-2 and 1-2-3 on the 4-cycle share the edge 1-2
    g = load_graph("4 4\n0 1\n1 2\n2 3\n0 3\n")
    with pytest.raises(ValueError):
        greedy_complete(g, {0: (0, 1), 1: (1, 2)}, [])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_greedy_complete_matches_the_set_based_reference(seed):
    # kept paths are a reference routing of a random prefix of a random
    # order; the rest is pending in another random order
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(4, 14), rng.randint(0, 14))
    commodities = generate_commodities(g, rng.randint(1, 10), rng.randrange(1000))
    order = list(enumerate(commodities))
    rng.shuffle(order)
    kept = oracles.greedy_complete_reference(
        g, {}, order[:rng.randint(0, len(order))])
    pending = [(i, c) for i, c in order if i not in kept]
    rng.shuffle(pending)
    routed = greedy_complete(g, kept, pending)
    expected = oracles.greedy_complete_reference(g, kept, pending)
    assert list(routed.items()) == list(expected.items())


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_evaluate_assignment_completes_the_reference_extraction(seed):
    # the survivors of the reference extraction are kept, and the dropped
    # commodities are pending in index order
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(4, 14), rng.randint(0, 14))
    commodities = generate_commodities(g, rng.randint(1, 10), rng.randrange(1000))
    paths = random_paths(rng, g, len(commodities))
    kept = {i: paths[i] for i in oracles.extract_disjoint_reference(paths)}
    pending = [(i, c) for i, c in enumerate(commodities) if i not in kept]
    expected = oracles.greedy_complete_reference(g, kept, pending)
    routed = edp.evaluate_assignment(g, commodities, paths)
    assert list(routed.items()) == list(expected.items())


@pytest.mark.parametrize("graphs,ratios,solvers", [
    (["mesh:4x4", "mesh:4x4"], ["0.25"], ["msga"]),
    (["mesh:4x4", "mesh:04x4"], ["0.25"], ["msga"]),
    (["mesh:4x4"], ["0.25", "1/4"], ["msga"]),
    (["mesh:4x4"], ["0.25"], ["msga", "ls", "msga"]),
])
def test_benchmark_rejects_duplicate_cells(graphs, ratios, solvers):
    with pytest.raises(ValueError):
        run_benchmark(BenchmarkSpec(graphs=graphs, commodity_ratios=ratios,
                                    instances_per_cell=2, iter_cap=3,
                                    solvers=solvers))


def test_benchmark_rows_do_not_depend_on_jobs():
    def raw(jobs):
        spec = BenchmarkSpec(graphs=["mesh:4x4", "random:12,20,3"],
                             commodity_ratios=["0.25", "0.5"],
                             instances_per_cell=2, iter_cap=8, jobs=jobs)
        return run_benchmark(spec).raw_csv()

    assert raw(1) == raw(2)


def test_benchmark_starts_no_more_workers_than_tasks(monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    spec = BenchmarkSpec(graphs=["mesh:3x3"], commodity_ratios=["0.5"],
                         instances_per_cell=1, iter_cap=2, jobs=64)
    result = run_benchmark(spec)
    assert started == [2]
    assert len(result.raw_rows) == 2


@pytest.mark.parametrize("line,name", [
    ("time_limit=nan", "time_limit_s"),
    ("time_limit=inf", "time_limit_s"),
    ("time_limit=0", "time_limit_s"),
    ("time_limit=-1", "time_limit_s"),
    ("iter_cap=-1", "iter_cap"),
])
def test_spec_rejects_a_budget_no_solver_accepts(line, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        parse_spec(f"graph=mesh:3x3\nratios=0.5\n{line}\n")


def test_importing_the_package_loads_no_process_pool():
    src = Path(edp.__file__).parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import treeroute; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
