import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeroute.search as search
from treeroute import (
    BasicMove,
    ComplexMove,
    PathCost,
    PathEdgeDisjoint,
    RootedSpanningTree,
    SearchConfig,
    compare,
    explore_one_move,
    explore_pair_move,
    explore_two_move,
    load_graph,
    run,
)
from treeroute.generators import generate_mesh

import oracles


def plateau_instance():
    """Single tree whose equality target is unreachable by one swap but
    hit exactly by two independent swaps (verified by enumeration)."""
    g = load_graph("5 6\n0 1 1\n1 2 5\n2 3 1\n3 4 5\n0 2 10\n2 4 4\n")
    tree = RootedSpanningTree.from_edges(g, 0, 4, [0, 1, 2, 3])
    objective = compare(PathCost(tree, 0), "==", 14)
    return g, tree, objective


def deadlock_instance():
    """Two commodities sharing an edge where no single preferred move
    reduces the violation but a coordinated pair does (found by
    exhaustive enumeration over all single and pair moves)."""
    g = load_graph("6 7\n0 1 1\n0 2 8\n2 3 8\n3 4 7\n3 5 5\n1 4 5\n0 5 3\n")
    t_a = RootedSpanningTree.from_edges(g, 1, 3, [1, 2, 3, 4, 5])
    t_b = RootedSpanningTree.from_edges(g, 0, 4, [0, 2, 3, 4, 5])
    constraint = PathEdgeDisjoint([t_a, t_b])
    return g, t_a, t_b, constraint


def all_preferred_moves(tree):
    path = tree.induced_path()
    for e_in, a, b in tree.preferred_moves():
        for e_out in path[a:b]:
            yield BasicMove(e_in, e_out)


class TestSearchConfig:
    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "time_limit_s", "seed", "iter_cap"]
        assert cfg.iter_cap is None

    def test_rejects_bad_values(self):
        for limit in (0, float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="time_limit_s"):
                SearchConfig(time_limit_s=limit)
        with pytest.raises(ValueError, match="iter_cap"):
            SearchConfig(iter_cap=-1)
        assert SearchConfig(iter_cap=0).iter_cap == 0


class TestExploreOneMove:
    def test_returns_improving_move(self):
        # swap the weight-5 edge out: 0-1-2 costs 6, 0-3-1-2 would cost 3
        g = load_graph("4 4\n0 1 5\n1 2 1\n0 3 1\n3 1 1\n")
        tree = RootedSpanningTree.from_edges(g, 0, 2, [0, 1, 2])
        cost = PathCost(tree, 0)
        move = explore_one_move(tree, cost, random.Random(0))
        assert move is not None
        assert cost.move_delta_fn(tree)(move) < 0

    def test_absent_at_verified_local_optimum(self):
        _, tree, objective = plateau_instance()
        delta = objective.move_delta_fn(tree)
        assert all(delta(m) >= 0 for m in all_preferred_moves(tree))
        assert explore_one_move(tree, objective, random.Random(0)) is None

    def test_absent_on_tree_shaped_graph(self):
        g = load_graph("4 3\n0 1 1\n1 2 1\n2 3 1\n")
        tree = RootedSpanningTree.from_edges(g, 0, 3, [0, 1, 2])
        assert explore_one_move(tree, PathCost(tree, 0), random.Random(0)) is None

    def test_global_optimum_on_enumerable_instance(self):
        # all spanning trees enumerated: no tree gives a cheaper 0-3 path
        g = load_graph("4 5\n0 1 1\n1 2 1\n2 3 1\n0 2 3\n1 3 3\n")
        best_cost = min(
            sum(g.weights[e][0] for e in oracles.path_from_tree(g, edges, 0, 3))
            for edges in oracles.all_spanning_trees(g)
        )
        tree = RootedSpanningTree.from_edges(g, 0, 3, [0, 1, 2])
        cost = PathCost(tree, 0)
        assert cost.value() == best_cost
        assert explore_one_move(tree, cost, random.Random(0)) is None


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["edp", "cost"]))
def test_failed_one_move_scan_is_exhaustive(seed, kind):
    # run() kicks after one failed scan, which is sound only if the scan
    # misses no improving move although it evaluates one removal per
    # inserted edge.
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(4, 9), rng.randint(1, 8))
    trees = [oracles.random_tree_variable(rng, g)
             for _ in range(3 if kind == "edp" else 1)]
    for tree in trees:
        for _ in range(rng.randint(0, 4)):
            move = oracles.random_valid_move(rng, tree)
            if move is not None:
                tree.apply(BasicMove(*move))
    if kind == "edp":
        objective = PathEdgeDisjoint(trees)
    else:
        objective = compare(PathCost(trees[0], 0), "<=", rng.randint(0, 12))
    for tree in trees:
        path = tree.induced_path()
        for e_in, a, b in tree.preferred_moves():
            paths = {tree.simulate_path(BasicMove(e_in, e_out))
                     for e_out in path[a:b]}
            assert len(paths) == 1
        delta = objective.move_delta_fn(tree)
        improving = any(delta(m) < 0 for m in all_preferred_moves(tree))
        found = explore_one_move(tree, objective, random.Random(seed))
        assert (found is not None) == improving
        if found is not None:
            assert delta(found) < 0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["edp", "cost"]))
def test_filtered_scan_draws_and_decides_as_the_reference(seed, kind):
    # The scan skips the deltas that cannot improve, but draws a removal
    # for every inserted edge, so one rng threaded through a short
    # descent sees the same stream and moves as the unfiltered scan.
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(4, 9), rng.randint(1, 8))
    trees = [oracles.random_tree_variable(rng, g)
             for _ in range(3 if kind == "edp" else 1)]
    for tree in trees:
        for _ in range(rng.randint(0, 4)):
            move = oracles.random_valid_move(rng, tree)
            if move is not None:
                tree.apply(BasicMove(*move))
    if kind == "edp":
        objective = PathEdgeDisjoint(trees)
    else:
        objective = compare(PathCost(trees[0], 0), "<=", rng.randint(0, 12))
    scan_rng, reference_rng = random.Random(seed), random.Random(seed)
    for tree in trees * 3:
        found = explore_one_move(tree, objective, scan_rng)
        expected = oracles.explore_one_move_reference(tree, objective, reference_rng)
        assert found == expected
        assert scan_rng.getstate() == reference_rng.getstate()
        if found is not None:
            tree.apply(found)


def test_scan_skips_a_stretch_whose_one_shared_edge_the_insert_replaces(
        monkeypatch):
    # Tree a's path 0-1-2 (edges 0, 1) shares edge 1 with tree b's path
    # 0-2-1 (edges 2, 1).  Inserting edge 2 takes (0, 1) off a's path,
    # one shared edge, but newly shares edge 2: delta 0, so the
    # predicate answers False.  Inserting edge 4 takes (1,) off for
    # unused edges 3 and 4: delta -1, True.  The scan runs no delta.
    g = load_graph("4 5\n0 1\n1 2\n0 2\n1 3\n3 2\n")
    t_a = RootedSpanningTree.from_edges(g, 0, 2, [0, 1, 3])
    t_b = RootedSpanningTree.from_edges(g, 0, 1, [2, 1, 4])
    constraint = PathEdgeDisjoint([t_a, t_b])
    assert t_a.induced_path() == (0, 1)
    # stretches path[0:2] == (0, 1) and path[1:2] == (1,)
    assert t_a.preferred_moves() == ((2, 0, 2), (4, 1, 2))
    improves = constraint.improves_fn(t_a)
    assert not improves(2, 0, 2) and improves(4, 1, 2)
    evaluated = []
    delta = constraint._delta

    def counted(tree, move):
        evaluated.append(move.e_in)
        return delta(tree, move)

    monkeypatch.setattr(constraint, "_delta", counted)
    reference_evaluated = set()
    for seed in range(8):
        scan_rng, reference_rng = random.Random(seed), random.Random(seed)
        evaluated.clear()
        found = explore_one_move(t_a, constraint, scan_rng)
        assert evaluated == []
        expected = oracles.explore_one_move_reference(
            t_a, constraint, reference_rng)
        reference_evaluated.update(evaluated)
        assert found == expected == BasicMove(4, 1)
        assert scan_rng.getstate() == reference_rng.getstate()
    assert reference_evaluated == {2, 4}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_scan_runs_no_delta_and_refreshes_once(seed):
    # The disjointness predicate is exact and answers without a full
    # delta, so a scan, whether it finds a move or not, runs no delta
    # and validates and refreshes only when it takes the predicate.
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(4, 9), rng.randint(1, 8))
    trees = [oracles.random_tree_variable(rng, g) for _ in range(rng.randint(2, 4))]
    for _ in range(rng.randint(0, 6)):
        tree = rng.choice(trees)
        move = oracles.random_valid_move(rng, tree)
        if move is not None:
            tree.apply(BasicMove(*move))
    constraint = PathEdgeDisjoint(trees)
    deltas, refreshes = [], []
    delta, refresh = constraint._delta, constraint._validated_refresh

    def counted_delta(tree, move):
        deltas.append(move)
        return delta(tree, move)

    def counted_refresh(tree):
        refreshes.append(tree)
        refresh(tree)

    constraint._delta = counted_delta
    constraint._validated_refresh = counted_refresh
    scan_rng, reference_rng = random.Random(seed), random.Random(seed)
    for tree in trees * 3:
        deltas.clear()
        refreshes.clear()
        found = explore_one_move(tree, constraint, scan_rng)
        assert deltas == []
        assert refreshes == [tree]
        expected = oracles.explore_one_move_reference(
            tree, constraint, reference_rng)
        assert found == expected
        assert scan_rng.getstate() == reference_rng.getstate()
        if found is not None:
            tree.apply(found)


def test_delta_closures_survive_a_complex_delta():
    # t1 runs 0-1-2 and t2 runs 0-1, both over edge 0; the move (3, 0)
    # reroutes either tree via 0-3-1
    g = load_graph("4 4\n0 1\n1 2\n0 3\n3 1\n")
    t1 = RootedSpanningTree.from_edges(g, 0, 2, [0, 1, 2])
    t2 = RootedSpanningTree.from_edges(g, 0, 1, [0, 1, 2])
    constraint = PathEdgeDisjoint([t1, t2])
    delta = constraint.move_delta_fn(t1)
    assert delta(BasicMove(3, 0)) == -1
    bundle = ComplexMove((BasicMove(3, 0),))
    assert search._complex_delta(t2, bundle, constraint) == -1
    assert delta(BasicMove(3, 0)) == -1


class TestExploreTwoMove:
    def test_finds_pair_on_plateau(self):
        _, tree, objective = plateau_instance()
        rng = random.Random(1)
        cm = explore_two_move(tree, objective, rng, samples=200)
        assert cm is not None
        before = objective.value()
        tree.apply_complex(cm)
        assert objective.value() < before

    def test_returned_bundle_is_independent(self):
        _, tree, objective = plateau_instance()
        cm = explore_two_move(tree, objective, random.Random(3), samples=200)
        assert cm is not None and tree.independent(cm.moves)

    def test_zero_budget_finds_nothing(self):
        _, tree, objective = plateau_instance()
        assert explore_two_move(tree, objective, random.Random(0), samples=0) is None


class TestExplorePairMove:
    def test_resolves_deadlock(self):
        _, t_a, t_b, constraint = deadlock_instance()
        assert constraint.violations() == 1
        # verified: no single preferred move on either tree improves
        for tree in (t_a, t_b):
            delta = constraint.move_delta_fn(tree)
            assert all(delta(m) >= 0 for m in all_preferred_moves(tree))
        found = explore_pair_move(t_a, t_b, constraint, random.Random(5), samples=500)
        assert found is not None
        move_a, move_b = found
        t_a.apply(move_a)
        t_b.apply(move_b)
        constraint.commit()
        assert constraint.violations() == 0

    def test_absent_at_joint_optimum(self):
        g = generate_mesh(3, 3)
        t_a = RootedSpanningTree.random_tree(g, 0, 2, rng=random.Random(1))
        t_b = RootedSpanningTree.random_tree(g, 6, 8, rng=random.Random(1))
        constraint = PathEdgeDisjoint([t_a, t_b])
        assert constraint.violations() == 0
        assert explore_pair_move(t_a, t_b, constraint, random.Random(2), 200) is None

    def test_same_tree_rejected(self):
        g = generate_mesh(3, 3)
        tree = RootedSpanningTree.random_tree(g, 0, 8, rng=random.Random(0))
        with pytest.raises(ValueError):
            explore_pair_move(tree, tree, PathEdgeDisjoint([tree]), random.Random(0))


def small_model(seed=0, k=4):
    g = generate_mesh(4, 4)
    rng = random.Random(seed)
    trees = []
    pairs = set()
    while len(trees) < k:
        s, t = rng.sample(range(16), 2)
        if (s, t) in pairs:
            continue
        pairs.add((s, t))
        trees.append(RootedSpanningTree.random_tree(
            g, s, t, random.Random(rng.randrange(2 ** 32))))
    return PathEdgeDisjoint(trees)


class TestRun:
    def test_tiny_budget_still_reports_initial(self):
        objective = small_model(1)
        cfg = SearchConfig(iter_cap=0, seed=1)
        trace = run(objective, cfg)
        assert trace.iterations == 0
        assert len(trace.improvements) == 1
        assert trace.best_value == objective.value()
        assert trace.best_time == 0.0

    def test_iteration_capped_runs_are_reproducible(self):
        def one():
            objective = small_model(7)
            trace = run(objective, SearchConfig(iter_cap=150, seed=3))
            return (trace.improvements, trace.events,
                    [t.tree_edges for t in objective.trees])

        a = one()
        b = one()
        assert a == b

    def test_improvement_log_strictly_decreases(self):
        trace = run(small_model(3), SearchConfig(iter_cap=200, seed=2))
        values = [v for _, v in trace.improvements]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert (trace.best_time, trace.best_value) == trace.improvements[-1]

    def test_accepted_moves_strictly_improve_between_kicks(self):
        trace = run(small_model(5), SearchConfig(iter_cap=300, seed=5))
        last = None
        for _, kind, value in trace.events:
            if kind.startswith("accept:"):
                if last is not None:
                    assert value < last
                last = value
            else:
                last = None  # perturbation/restart breaks the monotone run

    @pytest.mark.parametrize("seed", range(4))
    def test_every_capped_iteration_records_one_event(self, seed):
        trace = run(small_model(seed, k=6), SearchConfig(iter_cap=150, seed=seed))
        kinds = [kind for _, kind, _ in trace.events]
        assert len(kinds) == trace.iterations == 150
        assert set(kinds) <= {"accept:one-move", "perturbation", "restart"}
        kicks = [kind for kind in kinds if kind != "accept:one-move"]
        assert kicks
        assert kicks == [("perturbation", "restart")[i % 2] for i in range(len(kicks))]

    @pytest.mark.parametrize("make", [
        lambda: small_model(2, k=6),
        lambda: compare(PathCost(RootedSpanningTree.random_tree(
            generate_mesh(4, 4), 0, 15, random.Random(3)), 0), "<=", 5),
    ], ids=["edp", "path-cost"])
    def test_kicks_start_only_at_a_one_move_local_minimum(self, make, monkeypatch):
        objective = make()
        kicks = []

        def checked(kick):
            def at_minimum(obj, rng, time_up):
                for tree in obj.trees:
                    delta = obj.move_delta_fn(tree)
                    assert all(delta(m) >= 0 for m in all_preferred_moves(tree))
                kicks.append(kick.__name__)
                kick(obj, rng, time_up)
            return at_minimum

        monkeypatch.setattr(search, "_perturb", checked(search._perturb))
        monkeypatch.setattr(search, "_restart_conflicted",
                            checked(search._restart_conflicted))
        run(objective, SearchConfig(iter_cap=100, seed=1))
        assert "_perturb" in kicks and "_restart_conflicted" in kicks

    @pytest.mark.parametrize("make", [
        lambda: PathEdgeDisjoint([]),
        lambda: compare(3, "<=", 2),
    ], ids=["edp", "constant"])
    def test_an_objective_with_no_trees_kicks_without_a_tree(self, make):
        objective = make()
        value = objective.value()
        trace = run(objective, SearchConfig(iter_cap=3, seed=0))
        assert trace.iterations == 3
        assert [(kind, v) for _, kind, v in trace.events] == [
            ("perturbation", value), ("restart", value),
            ("perturbation", value)]

    def test_wall_clock_budget_respected(self):
        import time

        start = time.monotonic()
        run(small_model(13), SearchConfig(time_limit_s=0.3, seed=0))
        assert time.monotonic() - start < 3.0

    @pytest.mark.parametrize("cap,count", [(23, 11), (1100, 524)],
                             ids=["cap23", "cap1100"])
    def test_evaluations_come_at_the_start_new_bests_and_local_minima(
            self, cap, count):
        # a one-move local minimum is evaluated before its kick, so under
        # iter_cap it shares its clock with the kick's event; no
        # iteration count triggers an evaluation on its own
        evaluated = []
        trace = run(small_model(0, k=6), SearchConfig(iter_cap=cap, seed=0),
                    evaluated.append)
        bests = [t for t, _ in trace.improvements[1:]]
        kicks = [t for t, kind, _ in trace.events if not kind.startswith("accept:")]
        assert bests and kicks
        assert evaluated == sorted([0.0] + bests + kicks)
        assert len(evaluated) == count

    @staticmethod
    def slow_row_model(monkeypatch, scan_s):
        """Four row commodities on a 4x4 mesh: their shortest paths are
        disjoint, so every scan fails.  Each scan takes ``scan_s`` on a
        fake clock that reads 100.0 at the start; returns the objective,
        the clock and the list of scan start times."""
        g = generate_mesh(4, 4)
        objective = PathEdgeDisjoint([
            RootedSpanningTree.random_tree(g, 4 * r, 4 * r + 3, random.Random(r))
            for r in range(4)])
        assert objective.value() == 0
        now = [100.0]
        scan_starts = []

        def slow_scan(tree, obj, rng):
            scan_starts.append(now[0] - 100.0)
            now[0] += scan_s
            return explore_one_move(tree, obj, rng)

        monkeypatch.setattr(search.time, "monotonic", lambda: now[0])
        monkeypatch.setattr(search, "explore_one_move", slow_scan)
        return objective, now, scan_starts

    def test_no_scan_starts_after_the_time_limit(self, monkeypatch):
        objective, _, scan_starts = self.slow_row_model(monkeypatch, 0.4)
        trace = run(objective, SearchConfig(time_limit_s=1.0, seed=0))
        assert scan_starts and max(scan_starts) < 1.0
        assert trace.iterations == 1 and trace.events == []

    @pytest.mark.parametrize("limit,evaluations,first_events", [
        (0.9, [0.0], []), (1.1, [0.0, 1.0], [(1.0, "perturbation")])])
    def test_no_local_minimum_evaluation_starts_after_the_time_limit(
            self, monkeypatch, limit, evaluations, first_events):
        # the first scan round fails at 1.0 s: past a 0.9 s limit its
        # local minimum is neither evaluated nor kicked
        objective, _, scan_starts = self.slow_row_model(monkeypatch, 0.25)
        evaluated = []
        trace = run(objective, SearchConfig(time_limit_s=limit, seed=0),
                    evaluated.append)
        assert scan_starts[:4] == [0.0, 0.25, 0.5, 0.75]
        assert [event[:2] for event in trace.events[:1]] == first_events
        assert evaluated == evaluations

    def test_no_kick_follows_an_evaluation_that_ends_after_the_time_limit(
            self, monkeypatch):
        # the first scan round fails at 1.0 s and its evaluation ends at
        # 1.2 s, past the 1.1 s limit
        objective, now, _ = self.slow_row_model(monkeypatch, 0.25)
        evaluated = []

        def slow_evaluate(clock):
            evaluated.append(clock)
            if clock:
                now[0] += 0.2

        trace = run(objective, SearchConfig(time_limit_s=1.1, seed=0),
                    slow_evaluate)
        assert evaluated == [0.0, 1.0] and trace.events == []

    def test_a_spent_budget_still_evaluates_the_initial_trees(self, monkeypatch):
        objective, now, scan_starts = self.slow_row_model(monkeypatch, 0.25)
        evaluated = []
        trace = run(objective, SearchConfig(time_limit_s=1.0, seed=0),
                    evaluated.append, started=now[0] - 5.0)
        assert evaluated == [5.0] and scan_starts == []
        assert trace.iterations == 0 and trace.improvements == [(5.0, 0)]

    @pytest.mark.parametrize("kick", ["_perturb", "_restart_conflicted"])
    def test_a_kick_touches_no_tree_once_the_time_is_up(self, kick):
        # the limit passes after the first kicked tree
        objective = small_model(0, k=6)
        assert len(objective.conflicted_trees()) >= 2
        checks = []

        def time_up():
            checks.append(None)
            return len(checks) > 1

        versions = [t.version for t in objective.trees]
        getattr(search, kick)(objective, random.Random(0), time_up)
        changed = [t.version != v for t, v in zip(objective.trees, versions)]
        assert sum(changed) == 1 and len(checks) == 2

    def test_moves_come_from_preferred_sets_and_change_paths(self, monkeypatch):
        # every move run() applies on an accept is in its tree's preferred
        # set and changes that tree's induced path; kick moves are skipped
        objective = small_model(17)
        checked = []
        kicking = []
        apply = RootedSpanningTree.apply
        perturb = search._perturb

        def checked_apply(tree, move):
            if not kicking:
                checked.append((move in set(all_preferred_moves(tree)),
                                tree.simulate_path(move) != tree.induced_path()))
            return apply(tree, move)

        def flagged_perturb(obj, rng, time_up):
            kicking.append(True)
            try:
                perturb(obj, rng, time_up)
            finally:
                kicking.pop()

        monkeypatch.setattr(RootedSpanningTree, "apply", checked_apply)
        monkeypatch.setattr(search, "_perturb", flagged_perturb)
        trace = run(objective, SearchConfig(iter_cap=120, seed=6))
        accepts = [kind for _, kind, _ in trace.events if kind == "accept:one-move"]
        assert accepts and len(checked) == len(accepts)
        assert all(preferred and changed for preferred, changed in checked)
