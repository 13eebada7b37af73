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
    EdpSolution,
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
from treeroute.bench import commodity_count, resolve_graph
from treeroute.generators import generate_mesh
from treeroute.objectives import PathEdgeDisjoint


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


# a triangle 0-1-2 with a tail 2-3: commodity 0 runs 0->2, commodity 1 1->3
@pytest.mark.parametrize("dump,problems", [
    ("0 0 2 1 : 0 2\n1 1 3 2 : 1 2 3\n" + SUMMARY.format(2), []),
    ("0 0 2 2 : 0 1 2\n1 1 3 2 : 1 2 3\n" + SUMMARY.format(2),
     ["line 2: edge (1,2) already used by another path"]),
    ("0 0 2 4 : 0 1 2 0 2\n" + SUMMARY.format(1), ["line 1: path revisits a node"]),
    ("1 1 3 1 : 1 3\n" + SUMMARY.format(1), ["line 1: no edge (1,3) in the graph"]),
    ("-1 0 2 1 : 0 2\n" + SUMMARY.format(1), ["line 1: no commodity -1"]),
], ids=["disjoint", "shared-edge", "revisited-node", "missing-edge",
        "commodity-minus-one"])
def test_verify_dump_checks_the_paths(dump, problems):
    g = load_graph("4 4\n0 1\n1 2\n0 2\n2 3\n")
    inst = EdpInstance(g, (Commodity(0, 2), Commodity(1, 3)))
    assert verify_dump(dump, inst) == problems


@pytest.mark.parametrize("commodities,message", [
    ((), "at least one commodity"),
    ((Commodity(0, 1), Commodity(1, 3)), "commodity 1: node id 3 out of range"),
])
def test_instance_rejects_no_commodities_and_foreign_nodes(
        commodities, message, triangle):
    with pytest.raises(ValueError, match=message):
        EdpInstance(triangle, commodities)


def test_msga_without_passes_routes_nothing():
    inst = next(random_instances(4, 1))
    solution, trace = solve_msga(inst, SearchConfig(iter_cap=0))
    assert solution.objective == 0
    assert verify_dump(solution_to_dump(solution, inst), inst) == []
    assert trace.improvements == []
    assert (trace.best_value, trace.best_time) == (0, 0.0)


def small_instance(rng):
    """A random connected graph of 4-30 nodes with 1-12 commodities, some
    of them repeating or reversing an earlier pair."""
    g = oracles.random_connected_graph(rng, rng.randint(4, 30), rng.randint(0, 30))
    pairs: list[tuple[int, int]] = []
    for _ in range(rng.randint(1, 12)):
        draw = rng.random()
        if pairs and draw < 0.2:
            pairs.append(rng.choice(pairs))
        elif pairs and draw < 0.4:
            pairs.append(rng.choice(pairs)[::-1])
        else:
            pairs.append(tuple(rng.sample(range(g.node_count), 2)))
    return EdpInstance(g, tuple(Commodity(s, t) for s, t in pairs))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), iter_cap=st.integers(1, 6))
def test_capped_msga_matches_the_reference_solver(seed, iter_cap):
    inst = small_instance(random.Random(seed))
    cfg = SearchConfig(seed=seed, iter_cap=iter_cap)
    solution, trace = solve_msga(inst, cfg)
    routed, improvements = oracles.solve_msga_reference(inst, cfg)
    expected = EdpSolution(routed, 0, improvements[-1][0])
    assert solution_to_dump(solution, inst) == solution_to_dump(expected, inst)
    assert trace.improvements == improvements


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), iter_cap=st.integers(0, 8))
def test_capped_ls_matches_the_reference_solver(seed, iter_cap):
    inst = small_instance(random.Random(seed))
    cfg = SearchConfig(seed=seed, iter_cap=iter_cap)
    solution, trace = solve_ls(inst, cfg)
    expected, improvements, events = oracles.solve_ls_reference(inst, cfg)
    assert solution_to_dump(solution, inst) == solution_to_dump(expected, inst)
    assert trace.improvements == improvements
    assert trace.events == events


def mesh_instance(rng):
    """A mesh of 5x5 to 8x8 nodes with 2 to 40 % of its node count in
    commodities: the dense ones often extract the same kept paths twice
    in a row, and the sparse ones route every commodity."""
    g = generate_mesh(rng.randint(5, 8), rng.randint(5, 8))
    k = rng.randint(2, 2 * g.node_count // 5)
    return EdpInstance(g, tuple(generate_commodities(g, k, rng.randrange(2 ** 32))))


def ls_against_the_reference(seed, iter_cap):
    """Capped ``solve_ls`` on ``mesh_instance(Random(seed))``, checked
    against the reference solver; returns one ``(kind, repeated)`` pair
    per evaluation.  The kind is "completed", or the skip it took ("all
    routed" before extraction, "same kept" before completion), and
    ``repeated`` says whether its extraction read the same paths as the
    previous extraction did.  A skip is checked to be the one it claims:
    a best that routes every commodity, or the same kept paths as the
    last completion."""
    inst = mesh_instance(random.Random(seed))
    cfg = SearchConfig(seed=seed, iter_cap=iter_cap)
    evaluations = []
    last = {}
    extract = PathEdgeDisjoint.extract_disjoint
    complete = edp.greedy_complete
    run = edp.run

    def extract_recorded(constraint):
        retained = extract(constraint)
        paths = [tree.induced_path() for tree in constraint.trees]
        last.update(repeated=paths == last.get("paths"), paths=paths,
                    extracted={i: paths[i] for i in retained})
        return retained

    def complete_recorded(g, kept, pending):
        routed = complete(g, kept, pending)
        last.update(kept=dict(kept), completed=True,
                    best=max(last.get("best", 0), len(routed)))
        return routed

    def run_recorded(constraint, cfg, evaluate, started):
        def classified(clock):
            all_routed = last.get("best") == inst.k
            last.update(extracted=None, repeated=False, completed=False)
            evaluate(clock)
            if last["completed"]:
                kind = "completed"
            elif last["extracted"] is not None:
                assert last["extracted"] == last["kept"]
                kind = "same kept"
            else:
                assert all_routed
                kind = "all routed"
            evaluations.append((kind, last["repeated"]))

        return run(constraint, cfg, classified, started)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PathEdgeDisjoint, "extract_disjoint", extract_recorded)
        mp.setattr(edp, "greedy_complete", complete_recorded)
        mp.setattr(edp, "run", run_recorded)
        solution, trace = solve_ls(inst, cfg)
    expected, improvements, events = oracles.solve_ls_reference(inst, cfg)
    assert solution_to_dump(solution, inst) == solution_to_dump(expected, inst)
    assert trace.improvements == improvements
    assert trace.events == events
    return evaluations


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), iter_cap=st.integers(0, 20))
def test_evaluation_skips_match_the_reference_solver(seed, iter_cap):
    ls_against_the_reference(seed, iter_cap)


def test_every_evaluation_skip_is_taken():
    # the property's branches, reached on fixed examples; paths repeated
    # from the previous extraction must take the kept-paths skip
    evaluations = set()
    for seed in range(12):
        evaluations.update(ls_against_the_reference(seed, 4 + seed % 17))
    assert {kind for kind, _ in evaluations} == {
        "completed", "all routed", "same kept"}
    assert ("same kept", True) in evaluations


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), a=st.integers(1, 5), more=st.integers(1, 5))
def test_more_msga_passes_only_gain(seed, a, more):
    # the passes of a longer capped run begin with those of a shorter one
    inst = small_instance(random.Random(seed))
    short, short_trace = solve_msga(inst, SearchConfig(seed=seed, iter_cap=a))
    long, long_trace = solve_msga(inst, SearchConfig(seed=seed, iter_cap=a + more))
    assert [x for x in long_trace.improvements if x[0] <= a] == short_trace.improvements
    assert long.objective >= short.objective


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
    # An evaluation may skip extraction or completion, so each one is
    # marked where the search calls it, at the hook.
    evaluated_at = []
    run = edp.run

    def run_recorded(constraint, cfg, evaluate, started):
        def recorded(clock):
            evaluated_at.append(search.time.monotonic() - 100.0)
            evaluate(clock)

        return run(constraint, cfg, recorded, started)

    monkeypatch.setattr(edp, "run", run_recorded)
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


def test_extract_disjoint_rejects_a_negative_edge_id():
    # a negative id would wrap around a list indexed by edge id
    for paths in ([(0, -1), (2,)], [(-3,), (-3,)]):
        with pytest.raises(ValueError, match="non-negative"):
            extract_disjoint(paths)


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


def test_evaluate_assignment_needs_one_path_per_commodity():
    g = generate_mesh(3, 3)
    commodities = generate_commodities(g, 4, 0)
    paths = [oracles.random_tree_variable(random.Random(i), g, c.source,
                                          c.target).induced_path()
             for i, c in enumerate(commodities)]
    for given_paths, given_commodities in ((paths[:2], commodities),
                                           (paths, commodities[:2])):
        with pytest.raises(ValueError, match="paths for"):
            edp.evaluate_assignment(g, given_commodities, given_paths)


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


def test_benchmark_rejects_a_ratio_that_yields_no_commodities():
    spec = BenchmarkSpec(graphs=["mesh:3x3"], commodity_ratios=["0.1"],
                         instances_per_cell=1, iter_cap=1)
    with pytest.raises(ValueError, match="ratio 0.1 yields no commodities on mesh3x3"):
        run_benchmark(spec)


def test_commodity_count_bounds_the_exponent():
    with pytest.raises(ValueError, match="exponent beyond"):
        commodity_count("1e-401", 10)


def test_resolve_graph_names_a_file_by_its_basename(tmp_path):
    text = "4 4\n0 1\n1 2\n2 3\n3 0\n"
    path = tmp_path / "square.txt"
    path.write_text(text)
    name, g = resolve_graph(str(path))
    assert name == "square"
    assert g.edges == load_graph(text).edges


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
