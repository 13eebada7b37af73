import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeroute import (
    BasicMove,
    InvalidMoveError,
    PathCost,
    PathEdgeDisjoint,
    RootedSpanningTree,
    combine,
    compare,
    extract_disjoint,
    load_graph,
)
from treeroute.generators import generate_mesh

import oracles


def weighted_path_graph():
    # 0 -2- 1 -5- 2 -3- 3 plus chords so moves exist
    return load_graph("4 5\n0 1 2\n1 2 5\n2 3 3\n0 2 9\n1 3 4\n")


def chain_tree(g, s=0, t=3):
    return RootedSpanningTree.from_edges(g, s, t, [0, 1, 2])


def recompute(metric, tree):
    """From-scratch reference value for a path cost."""
    g = tree.graph
    return sum(g.weights[e][metric.k] for e in tree.induced_path())


class TestPathCost:
    def test_chain(self):
        g = weighted_path_graph()
        assert PathCost(chain_tree(g), 0).value() == 10  # 2 + 5 + 3

    def test_single_edge(self):
        g = load_graph("2 1\n0 1 7\n")
        tree = RootedSpanningTree.from_edges(g, 0, 1, [0])
        assert PathCost(tree, 0).value() == 7

    def test_random_mesh_matches_recompute(self):
        rng = random.Random(2)
        for _ in range(30):
            g = oracles.random_connected_graph(rng, rng.randint(3, 10), rng.randint(1, 8))
            tree = oracles.random_tree_variable(rng, g)
            assert PathCost(tree, 0).value() == recompute(PathCost(tree, 0), tree)

    def test_invalid_weight_index(self):
        g = weighted_path_graph()
        with pytest.raises(ValueError, match="weight index"):
            PathCost(chain_tree(g), 3)


class TestPathEdgeDisjoint:
    def two_tree_setup(self):
        g = generate_mesh(3, 3)
        t1 = RootedSpanningTree.random_tree(g, 0, 8, rng=random.Random(1))
        t2 = RootedSpanningTree.random_tree(g, 2, 6, rng=random.Random(2))
        return g, t1, t2

    def test_one_shared_edge(self):
        g = load_graph("4 4\n0 1\n1 2\n2 3\n0 3\n")
        # paths 0-1-2 and 3-0-1 share edge (0,1)
        t1 = RootedSpanningTree.from_edges(g, 0, 2, [0, 1, 2])
        t2 = RootedSpanningTree.from_edges(g, 3, 1, [0, 1, 3])
        assert t2.induced_path() == (3, 0)
        constraint = PathEdgeDisjoint([t1, t2])
        assert constraint.violations() == 1

    def test_disjoint_paths(self):
        g = generate_mesh(3, 3)
        t1 = RootedSpanningTree.random_tree(g, 0, 2, rng=random.Random(1))
        t2 = RootedSpanningTree.random_tree(g, 6, 8, rng=random.Random(1))
        constraint = PathEdgeDisjoint([t1, t2])
        expected = oracles.violation_count([t1.induced_path(), t2.induced_path()])
        assert constraint.violations() == expected

    def test_three_paths_over_one_bridge(self):
        # bridge (0,1); three commodities forced over it
        g = load_graph("5 5\n0 1\n2 0\n3 0\n1 4\n1 2\n")
        trees = [
            RootedSpanningTree.from_edges(g, 2, 1, [0, 1, 2, 3]),
            RootedSpanningTree.from_edges(g, 3, 1, [0, 1, 2, 3]),
            RootedSpanningTree.from_edges(g, 0, 4, [0, 1, 2, 3]),
        ]
        constraint = PathEdgeDisjoint(trees)
        paths = [t.induced_path() for t in trees]
        assert all(0 in p for p in paths)  # all cross the bridge, load 3
        assert constraint.violations() == 2
        assert constraint.violations() == oracles.violation_count(paths)

    def test_empty_tree_list(self):
        assert PathEdgeDisjoint([]).violations() == 0

    def test_duplicate_tree_rejected(self, triangle):
        tree = RootedSpanningTree.from_edges(triangle, 0, 2, [0, 1])
        with pytest.raises(ValueError):
            PathEdgeDisjoint([tree, tree])

    def test_trees_of_two_graphs_rejected(self, triangle):
        other = load_graph("3 3\n0 1\n1 2\n0 2\n")
        trees = [RootedSpanningTree.from_edges(g, 0, 2, [0, 1])
                 for g in (triangle, other)]
        with pytest.raises(ValueError, match="share one graph"):
            PathEdgeDisjoint(trees)

    def test_commit_consistency_randomized(self):
        rng = random.Random(77)
        g = generate_mesh(4, 4)
        trees = [oracles.random_tree_variable(rng, g) for _ in range(5)]
        constraint = PathEdgeDisjoint(trees)
        for _ in range(300):
            tree = rng.choice(trees)
            move = oracles.random_valid_move(rng, tree)
            if move is None:
                continue
            tree.apply(BasicMove(*move))
            constraint.commit()
            paths = [t.induced_path() for t in trees]
            assert constraint.violations() == oracles.violation_count(paths)


def recount_state(trees, edge_count):
    """Loads, holder XORs and per-path shared-edge counts of the trees'
    induced paths, counted from nothing."""
    paths = [t.induced_path() for t in trees]
    loads = [0] * edge_count
    holders = [0] * edge_count
    for i, p in enumerate(paths):
        for e in p:
            loads[e] += 1
            holders[e] ^= i
    overlap = [sum(loads[e] >= 2 for e in p) for p in paths]
    return paths, loads, holders, overlap


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_disjointness_state_matches_a_recount(seed):
    # After each apply, undo or reinit_random and a refresh, the kept
    # state equals a recount, and the drops on it equal extraction afresh.
    # Some steps make two changes before the refresh, so one refresh
    # updates two trees; ends repeat so that paths overlap often.
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(4, 14), rng.randint(0, 14))
    ends = [tuple(rng.sample(range(g.node_count), 2)) for _ in range(3)]
    trees = [oracles.random_tree_variable(rng, g, *rng.choice(ends))
             for _ in range(rng.randint(1, 8))]
    constraint = PathEdgeDisjoint(trees)
    # each tree's token of its latest apply, while it can still be undone
    tokens = {}
    for _ in range(rng.randint(1, 30)):
        for _ in range(rng.choice((1, 1, 2))):
            tree = rng.choice(trees)
            token = tokens.pop(id(tree), None)
            op = rng.random()
            if op < 0.25 and token is not None:
                tree.undo(token)
            elif op < 0.4:
                tree.reinit_random(rng)
            else:
                move = oracles.random_valid_move(rng, tree)
                if move is not None:
                    tokens[id(tree)] = tree.apply(BasicMove(*move))
        paths, loads, holders, overlap = recount_state(trees, g.edge_count)
        assert constraint.value() == oracles.violation_count(paths)
        assert constraint.edge_sets == [frozenset(p) for p in paths]
        assert (constraint.loads, constraint.holders, constraint.overlap) == \
            (loads, holders, overlap)
        assert constraint.conflicted_trees() == [
            t for t, p in zip(trees, paths) if any(loads[e] >= 2 for e in p)]
        kept = constraint.extract_disjoint()
        assert kept == extract_disjoint(paths) == \
            oracles.extract_disjoint_reference(paths)
        # the drops ran on copies
        assert (constraint.loads, constraint.holders, constraint.overlap) == \
            (loads, holders, overlap)


class TestReplaceEdgeDelta:
    def test_move_off_path_is_zero_for_every_kind(self):
        g = load_graph("5 5\n0 1 2\n1 2 5\n2 3 3\n2 4 1\n3 4 9\n")
        tree = RootedSpanningTree.from_edges(g, 0, 1, [0, 1, 2, 3])
        move = BasicMove(e_in=4, e_out=2)  # cycle 2-3-4, off the 0-1 path
        for d in (PathCost(tree, 0), PathEdgeDisjoint([tree])):
            assert d.move_delta_fn(tree)(move) == 0

    @pytest.mark.parametrize("make", [
        lambda t: PathEdgeDisjoint([t]),
        lambda t: PathCost(t, 0),
        lambda t: compare(PathEdgeDisjoint([t]), "<=", 0),
    ], ids=["edp", "cost", "expression"])
    @pytest.mark.parametrize("move", [(3, 2), (4, 2), (0, 3), (2, 3), (99, 3)])
    def test_invalid_move_raises_for_every_kind(self, make, move):
        # tree edges 0, 1, 3: edges 0 and 3 are no inserted edges, edge 2
        # lies on no cycle of edge 4, edge 3 on none of edge 2, and there
        # is no edge 99
        g = load_graph("4 5\n0 1 1\n1 2 1\n0 2 1\n1 3 1\n3 2 1\n")
        tree = RootedSpanningTree.from_edges(g, 0, 2, [0, 1, 3])
        d = make(tree)
        with pytest.raises(InvalidMoveError):
            d.move_delta_fn(tree)(BasicMove(*move))

    def test_cost_swap_five_for_two(self):
        # path edge of weight 5 replaced by a chord of weight 2
        g = load_graph("3 3\n0 1 5\n1 2 1\n0 2 0\n")
        g2 = load_graph("4 4\n0 1 5\n1 2 1\n0 3 1\n3 1 1\n")
        tree = RootedSpanningTree.from_edges(g2, 0, 2, [0, 1, 2])
        cost = PathCost(tree, 0)
        assert cost.value() == 6
        # replace (0,1) w5 with the 0-3-1 detour: e_in=(3,1), e_out=(0,1)
        delta = cost.move_delta_fn(tree)(BasicMove(3, 0))
        assert delta == (1 + 1) - 5  # -3

    def test_unregistered_tree_rejected(self):
        g = load_graph("3 3\n0 1 1\n1 2 1\n0 2 1\n")
        t1 = RootedSpanningTree.from_edges(g, 0, 2, [0, 1])
        t2 = RootedSpanningTree.from_edges(g, 0, 2, [0, 1])
        cost = PathCost(t1, 0)
        with pytest.raises(ValueError, match="not registered"):
            cost.move_delta_fn(t2)

    def _delta_oracle(self, differentiable, tree, move):
        before = differentiable.value()
        token = tree.apply(move)
        differentiable.commit()
        after = differentiable.value()
        tree.undo(token)
        differentiable.commit()
        return after - before

    def test_single_tree_kinds_match_apply_recompute_undo(self):
        rng = random.Random(4)
        g = oracles.random_connected_graph(rng, 8, 8, columns=2)
        tree = oracles.random_tree_variable(rng, g)
        kinds = [
            PathCost(tree, 0),
            compare(PathCost(tree, 0), "<=", 12),
            compare(PathCost(tree, 1), "==", 10),
            combine(PathCost(tree, 0), "+", PathCost(tree, 1)),
            combine(PathCost(tree, 0), "-", PathCost(tree, 1)),
            30 - PathCost(tree, 1),
        ]
        for _ in range(400):
            move = oracles.random_valid_move(rng, tree)
            if move is None:
                break
            m = BasicMove(*move)
            for d in kinds:
                assert d.move_delta_fn(tree)(m) == self._delta_oracle(d, tree, m)
            token = tree.apply(m)
            if rng.random() < 0.5:
                tree.undo(token)

    def test_disjoint_constraint_matches_oracle(self):
        rng = random.Random(6)
        g = generate_mesh(4, 4)
        trees = [oracles.random_tree_variable(rng, g) for _ in range(6)]
        constraint = PathEdgeDisjoint(trees)
        for _ in range(400):
            tree = rng.choice(trees)
            move = oracles.random_valid_move(rng, tree)
            m = BasicMove(*move)
            assert constraint.move_delta_fn(tree)(m) == \
                self._delta_oracle(constraint, tree, m)
            if rng.random() < 0.4:
                tree.apply(m)
                constraint.commit()


class TestImproves:
    def test_every_predicate_is_exact(self):
        # Every removal in a preferred stretch gives the same new path, so
        # each kind's answer must equal the sign of each of their deltas.
        rng = random.Random(4)  # tree 0 shares some of its path
        g = generate_mesh(4, 4)
        trees = [oracles.random_tree_variable(rng, g) for _ in range(4)]
        tree = trees[0]
        constraint = PathEdgeDisjoint(trees)
        path = tree.induced_path()
        moves = tree.preferred_moves()
        kinds = [
            constraint,
            PathCost(tree, 0),
            compare(PathCost(tree, 0), "<=", 2),
            combine(PathCost(tree, 0), "-", 1),
            compare(constraint, "<=", 0),
            constraint + 0,
        ]
        for d in kinds:
            improves = d.improves_fn(tree)
            delta = d.move_delta_fn(tree)
            answers = [improves(e_in, a, b) for e_in, a, b in moves]
            for (e_in, a, b), answer in zip(moves, answers):
                for e_out in path[a:b]:
                    assert answer == (delta(BasicMove(e_in, e_out)) < 0)
            if d is constraint:
                assert any(answers) and not all(answers)

    def test_unregistered_tree_rejected(self):
        g = load_graph("3 3\n0 1 1\n1 2 1\n0 2 1\n")
        t1 = RootedSpanningTree.from_edges(g, 0, 2, [0, 1])
        t2 = RootedSpanningTree.from_edges(g, 0, 2, [0, 1])
        for d in (PathCost(t1, 0), PathEdgeDisjoint([t1]),
                  compare(PathCost(t1, 0), "<=", 1)):
            with pytest.raises(ValueError, match="not registered"):
                d.improves_fn(t2)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_disjointness_predicate_is_sound(seed):
    # A preferred move takes the stretch ``path[a:b]`` off the path and
    # adds ``e_in`` plus father-chain edges that were off it; every
    # removal in the stretch gives the same new path, and the predicate
    # must answer exactly whether that path lowers the violation count.
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(4, 10), rng.randint(1, 10))
    trees = [oracles.random_tree_variable(rng, g) for _ in range(rng.randint(2, 4))]
    constraint = PathEdgeDisjoint(trees)
    for _ in range(rng.randint(0, 6)):
        tree = rng.choice(trees)
        move = oracles.random_valid_move(rng, tree)
        if move is not None:
            tree.apply(BasicMove(*move))
    loads = Counter(e for t in trees for e in t.induced_path())
    conflicted = constraint.conflicted_trees()
    for tree in trees:
        improves = constraint.improves_fn(tree)
        delta = constraint.move_delta_fn(tree)
        assert any(loads[e] >= 2 for e in tree.induced_path()) == \
            any(t is tree for t in conflicted)
        path = tree.induced_path()
        stretches = {e_in: (a, b) for e_in, a, b in tree.preferred_moves()}
        for e_in, (a, b) in stretches.items():
            outs = path[a:b]
            for e_out in outs:
                assert improves(e_in, a, b) == \
                    (delta(BasicMove(e_in, e_out)) < 0)
            if not improves(e_in, a, b):
                assert all(delta(BasicMove(e_in, e_out)) >= 0 for e_out in outs)
        # every strictly improving move, enumerated over all cycles
        for e_in in tree.replacing_edges():
            for e_out in oracles.cycle_of(g, tree.tree_edges, e_in):
                if delta(BasicMove(e_in, e_out)) < 0:
                    a, b = stretches.get(e_in, (0, 0))
                    assert e_out in path[a:b]
                    assert improves(e_in, a, b)


class TestReplaceEdgeDeltaMulti:
    def test_two_moves_one_tree_rejected(self, triangle):
        tree = RootedSpanningTree.from_edges(triangle, 0, 2, [0, 1])
        c = PathEdgeDisjoint([tree])
        with pytest.raises(ValueError, match="one move per tree"):
            c.multi_delta_fn((tree, tree))

    def test_both_paths_unchanged_gives_zero(self):
        g = load_graph("5 5\n0 1\n1 2\n2 3\n2 4\n3 4\n")
        t1 = RootedSpanningTree.from_edges(g, 0, 1, [0, 1, 2, 3])
        t2 = RootedSpanningTree.from_edges(g, 0, 1, [0, 1, 2, 3])
        c = PathEdgeDisjoint([t1, t2])
        off_path = BasicMove(e_in=4, e_out=2)
        assert c.multi_delta_fn((t1, t2))((off_path, off_path)) == 0

    def test_vacating_a_doubly_loaded_edge(self):
        # both paths cross (0,1); moving one off it drops the violation
        g = load_graph("4 4\n0 1\n1 2\n0 3\n3 1\n")
        t1 = RootedSpanningTree.from_edges(g, 0, 2, [0, 1, 2])
        t2 = RootedSpanningTree.from_edges(g, 0, 1, [0, 1, 2])
        c = PathEdgeDisjoint([t1, t2])
        assert c.violations() == 1
        move_t2 = BasicMove(e_in=3, e_out=0)  # reroute t2 via 0-3-1
        delta = c.multi_delta_fn((t2,))((move_t2,))
        assert delta == -1

    def test_joint_delta_when_single_deltas_do_not_sum(self):
        rng = random.Random(12)
        g = generate_mesh(4, 4)
        found_interaction = False
        for _ in range(600):
            t1 = oracles.random_tree_variable(rng, g)
            t2 = oracles.random_tree_variable(rng, g)
            c = PathEdgeDisjoint([t1, t2])
            m1 = oracles.random_valid_move(rng, t1)
            m2 = oracles.random_valid_move(rng, t2)
            m1, m2 = BasicMove(*m1), BasicMove(*m2)
            joint = c.multi_delta_fn((t1, t2))((m1, m2))
            singles = c.move_delta_fn(t1)(m1) + c.move_delta_fn(t2)(m2)
            # oracle: apply both, recompute, undo both
            tok1 = t1.apply(m1)
            tok2 = t2.apply(m2)
            c.commit()
            after = c.violations()
            t2.undo(tok2)
            t1.undo(tok1)
            c.commit()
            before = c.violations()
            assert joint == after - before
            if joint != singles:
                found_interaction = True
        assert found_interaction, "expected at least one interacting pair"

    def crossing_pair(self):
        # t1 runs 0-1-2 and t2 runs 0-1: both use edge 0, violation 1;
        # the move (3, 0) reroutes either tree via 0-3-1
        g = load_graph("4 4\n0 1\n1 2\n0 3\n3 1\n")
        t1 = RootedSpanningTree.from_edges(g, 0, 2, [0, 1, 2])
        t2 = RootedSpanningTree.from_edges(g, 0, 1, [0, 1, 2])
        return t1, t2, PathEdgeDisjoint([t1, t2])

    def test_an_invalid_second_move_raises_and_restores_both_trees(self):
        t1, t2, c = self.crossing_pair()
        before = [(t.tree_edges, t.induced_path()) for t in (t1, t2)]
        value = c.value()
        delta = c.multi_delta_fn((t1, t2))
        with pytest.raises(InvalidMoveError):
            # edge 1 is not on the cycle that edge 3 closes in t2
            delta((BasicMove(3, 0), BasicMove(3, 1)))
        assert [(t.tree_edges, t.induced_path()) for t in (t1, t2)] == before
        assert c.value() == value

    def test_a_move_count_unlike_the_tree_count_raises_and_restores(self):
        t1, t2, c = self.crossing_pair()
        before = [(t.tree_edges, t.induced_path()) for t in (t1, t2)]
        value = c.value()
        delta = c.multi_delta_fn((t1, t2))
        for moves in ((BasicMove(3, 0),), (BasicMove(3, 0),) * 3):
            with pytest.raises(ValueError, match=r"zip\(\) argument 2"):
                delta(moves)
            assert [(t.tree_edges, t.induced_path()) for t in (t1, t2)] == before
            assert c.value() == value

    def test_move_delta_closures_survive_a_joint_query(self):
        t1, t2, c = self.crossing_pair()
        closures = [
            (c.move_delta_fn(t), [BasicMove(e_in, e_out)
                                  for e_in in t.replacing_edges()
                                  for e_out in t.fundamental_cycle(e_in)])
            for t in (t1, t2)]
        expected = [[delta(m) for m in moves] for delta, moves in closures]
        assert -1 in expected[0]
        joint = c.multi_delta_fn((t1, t2))((BasicMove(3, 0), BasicMove(3, 0)))
        assert joint == 1  # both rerouted: edges 2 and 3 now shared
        assert [[delta(m) for m in moves] for delta, moves in closures] == expected
        assert c.violations() == 1


class TestCombineCompare:
    def test_comparison_satisfied(self):
        g = weighted_path_graph()
        tree = chain_tree(g)
        assert compare(PathCost(tree, 0), "<=", 10).violations() == 0

    def test_comparison_deficit(self):
        g = weighted_path_graph()
        tree = chain_tree(g)
        assert compare(PathCost(tree, 0), "<=", 7).violations() == 3
        assert compare(PathCost(tree, 0), ">=", 13).violations() == 3
        assert compare(PathCost(tree, 0), "==", 13).violations() == 3

    def test_constraint_zero_iff_satisfied(self):
        g = weighted_path_graph()
        tree = chain_tree(g)
        c = compare(PathCost(tree, 0), "==", 10)
        assert c.violations() == 0

    def test_arithmetic_composition(self):
        g = weighted_path_graph()
        tree = chain_tree(g)
        cost = PathCost(tree, 0)
        assert (cost + 5).value() == 15
        assert (5 + cost).value() == 15
        assert (cost - PathCost(tree, 0)).value() == 0
        assert (30 - cost).value() == 20
        assert combine(cost, "-", 4).value() == 6
        with pytest.raises(ValueError, match="unknown operator"):
            combine(cost, "*", 2)

    def test_budget_sum_delta_matches_oracle(self):
        rng = random.Random(3)
        g = generate_mesh(3, 3)
        t1 = oracles.random_tree_variable(rng, g, 0, 8)
        t2 = oracles.random_tree_variable(rng, g, 2, 6)
        both = compare(combine(PathCost(t1, 0), "+", PathCost(t2, 0)), "<=", 5)
        for _ in range(200):
            tree = rng.choice([t1, t2])
            move = oracles.random_valid_move(rng, tree)
            m = BasicMove(*move)
            before = both.violations()
            token = tree.apply(m)
            after = both.violations()
            tree.undo(token)
            assert both.move_delta_fn(tree)(m) == after - before

    def test_non_integer_constant_rejected(self):
        g = weighted_path_graph()
        with pytest.raises(TypeError):
            combine(PathCost(chain_tree(g), 0), "+", 1.5)

    def test_violations_requires_constraint(self):
        g = weighted_path_graph()
        with pytest.raises(TypeError):
            PathCost(chain_tree(g), 0).violations()
