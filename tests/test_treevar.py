import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeroute import (
    BasicMove,
    ComplexMove,
    InvalidMoveError,
    RootedSpanningTree,
    load_graph,
    path_nodes,
)
from treeroute.generators import generate_mesh, generate_random_connected

import oracles


def make_tree(g, s, t, edges):
    return RootedSpanningTree.from_edges(g, s, t, edges)


def preferred(tree):
    """Preferred removals by inserted edge."""
    return dict(tree.preferred_moves())


def tree_state(tree):
    return (
        tree.tree_edges,
        list(tree._father_node),
        list(tree._father_edge),
    )


class TestInit:
    def test_triangle_rooted_at_target(self, triangle):
        tree = RootedSpanningTree.random_tree(triangle, 0, 2, rng=random.Random(1))
        tree.validate()
        assert tree.root == 2 and tree.source == 0
        assert len(tree.tree_edges) == 2

    def test_triangle_tree_is_one_of_the_three(self, triangle):
        for seed in range(20):
            tree = RootedSpanningTree.random_tree(
                triangle, 0, 2, rng=random.Random(seed))
            assert tree.tree_edges in {
                frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}

    def test_path_graph_has_single_tree(self):
        g = load_graph("4 3\n0 1\n1 2\n2 3\n")
        for seed in (0, 1, 2):
            tree = RootedSpanningTree.random_tree(g, 0, 3, rng=random.Random(seed))
            assert tree.tree_edges == frozenset({0, 1, 2})

    def test_mesh_seeds_vary_but_invariants_hold(self):
        g = generate_mesh(5, 5)
        trees = [RootedSpanningTree.random_tree(g, 0, 24, rng=random.Random(s))
                 for s in range(8)]
        for tree in trees:
            tree.validate()
        assert len({t.tree_edges for t in trees}) > 1

    def test_deterministic_for_seed(self):
        g = generate_mesh(4, 4)
        a = RootedSpanningTree.random_tree(g, 0, 15, rng=random.Random(7))
        b = RootedSpanningTree.random_tree(g, 0, 15, rng=random.Random(7))
        assert a.tree_edges == b.tree_edges

    def test_source_equals_root_rejected(self, triangle):
        with pytest.raises(ValueError):
            RootedSpanningTree.random_tree(triangle, 2, 2, rng=random.Random(0))

    def test_from_edges_must_span(self, triangle):
        with pytest.raises(ValueError):
            RootedSpanningTree.from_edges(triangle, 0, 2, [0])

    @pytest.mark.parametrize("node", [-1, 3])
    @pytest.mark.parametrize("end", ["source", "root"])
    @pytest.mark.parametrize("builder", ["random_tree", "from_edges"])
    def test_out_of_range_end_rejected_before_building(
            self, triangle, builder, end, node):
        ends = {"source": 0, "root": 2, end: node}
        rng = random.Random(0)
        state = rng.getstate()
        arg = rng if builder == "random_tree" else [0, 1]
        with pytest.raises(ValueError, match=f"node id {node} out of range"):
            getattr(RootedSpanningTree, builder)(
                triangle, ends["source"], ends["root"], arg)
        assert rng.getstate() == state


@st.composite
def graph_root_seed(draw):
    """A mesh, or a random connected graph from a spanning tree (degrees
    from 1) up to a complete graph (degree n - 1, far above 5), with a
    root and an rng seed."""
    if draw(st.booleans()):
        g = generate_mesh(draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    else:
        n = draw(st.integers(2, 30))
        m = draw(st.integers(n - 1, n * (n - 1) // 2))
        g = generate_random_connected(n, m, draw(st.integers(0, 2 ** 16)))
    return g, draw(st.integers(0, g.node_count - 1)), draw(st.integers(0, 2 ** 64))


@settings(max_examples=300, deadline=None)
@given(graph_root_seed())
def test_random_trees_draw_as_random_shuffle(case):
    # The tree construction inlines CPython's Fisher-Yates shuffle; it
    # must give the trees and leave the rng state that random.shuffle
    # does, for random_tree and for reinit_random (the restarts).
    g, root, seed = case
    rng, ref_rng = random.Random(seed), random.Random(seed)

    def check(tree):
        fathers = (tree._father_node, tree._father_edge)
        assert fathers == oracles.random_fathers_reference(g, root, ref_rng)
        assert rng.getstate() == ref_rng.getstate()

    tree = RootedSpanningTree.random_tree(g, (root + 1) % g.node_count, root, rng)
    check(tree)
    tree.reinit_random(rng)
    check(tree)


class TestInducedPath:
    def test_father_chain(self):
        g = load_graph("3 2\n0 1\n1 2\n")
        tree = make_tree(g, 0, 2, [0, 1])
        assert tree.induced_path() == (0, 1)
        assert path_nodes(g, 0, tree.induced_path()) == [0, 1, 2]

    def test_adjacent_source(self, triangle):
        tree = make_tree(triangle, 0, 2, [1, 2])
        assert tree.induced_path() == (2,)

    def test_brute_force_all_trees_of_4_node_graph(self):
        g = load_graph("4 5\n0 1\n1 2\n2 3\n0 2\n1 3\n")
        for edges in oracles.all_spanning_trees(g):
            tree = make_tree(g, 0, 3, edges)
            assert tree.induced_path() == oracles.path_from_tree(g, edges, 0, 3)

    def test_path_changes_when_on_path_edge_removed(self):
        g = load_graph("4 5\n0 1\n1 2\n2 3\n0 2\n1 3\n")
        tree = make_tree(g, 0, 3, [0, 1, 2])
        before = tree.induced_path()
        move = BasicMove(e_in=3, e_out=0)  # (0,2) in, (0,1) out: on the path
        tree.apply(move)
        assert tree.induced_path() != before
        assert tree.induced_path() == oracles.path_from_tree(
            g, tree.tree_edges, 0, 3)


class TestEdgeSets:
    def test_replacing_is_complement(self, triangle):
        tree = make_tree(triangle, 0, 2, [0, 1])
        assert tree.replacing_edges() == [2]

    def test_tree_shaped_graph_has_none(self):
        g = load_graph("4 3\n0 1\n1 2\n2 3\n")
        tree = make_tree(g, 0, 3, [0, 1, 2])
        assert tree.replacing_edges() == []
        assert tree.preferred_moves() == ()

    def test_mesh_counts(self):
        g = generate_mesh(3, 3)
        tree = RootedSpanningTree.random_tree(g, 0, 8, rng=random.Random(0))
        assert len(tree.replacing_edges()) == 12 - 8  # m - (n - 1)

    def test_triangle_cycle(self, triangle):
        tree = make_tree(triangle, 0, 2, [0, 1])
        assert set(tree.fundamental_cycle(2)) == {0, 1}

    def test_four_cycle(self):
        g = load_graph("4 4\n0 1\n1 2\n2 3\n3 0\n")
        tree = make_tree(g, 0, 2, [0, 1, 2])
        assert set(tree.fundamental_cycle(3)) == {0, 1, 2}

    def test_cycle_matches_independent_finder_on_meshes(self):
        rng = random.Random(3)
        g = generate_mesh(3, 3)
        for _ in range(40):
            tree = oracles.random_tree_variable(rng, g)
            for e_in in tree.replacing_edges():
                assert set(tree.fundamental_cycle(e_in)) == oracles.cycle_of(
                    g, tree.tree_edges, e_in)

    def test_replacable_requires_non_tree_edge(self, triangle):
        tree = make_tree(triangle, 0, 2, [0, 1])
        with pytest.raises(InvalidMoveError):
            tree.fundamental_cycle(0)


@pytest.mark.parametrize("which", ["-1", "-edge_count", "edge_count"])
def test_out_of_range_inserted_edge_rejected(which):
    g = generate_mesh(3, 3)
    e_in = {"-1": -1, "-edge_count": -g.edge_count,
            "edge_count": g.edge_count}[which]
    tree = RootedSpanningTree.random_tree(g, 0, 8, rng=random.Random(0))
    e_out = tree.induced_path()[0]
    before = tree_state(tree)
    with pytest.raises(InvalidMoveError):
        tree.fundamental_cycle(e_in)
    with pytest.raises(InvalidMoveError):
        tree.apply(BasicMove(e_in, e_out))
    with pytest.raises(InvalidMoveError):
        tree.simulate_path(BasicMove(e_in, e_out))
    with pytest.raises(InvalidMoveError):
        tree.independent([BasicMove(e_in, e_out)])
    assert tree_state(tree) == before


class TestPreferredSets:
    def test_triangle_source_zero(self, triangle):
        tree = make_tree(triangle, 0, 2, [0, 1])
        assert list(preferred(tree)) == [2]
        assert set(preferred(tree)[2]) == {0, 1}

    def test_triangle_source_one_reduces(self, triangle):
        tree = make_tree(triangle, 1, 2, [0, 1])
        # path is just (1,2); replacing (0,2) can only change it via (1,2)
        assert list(preferred(tree)) == [2]
        assert set(preferred(tree)[2]) == {1}

    def test_no_preferred_when_cycles_avoid_path(self):
        # pendant edge 0-1 is the whole path; the only cycle lives in the
        # triangle {2,3,4} hanging off node 2
        g = load_graph("5 5\n0 1\n1 2\n2 3\n2 4\n3 4\n")
        tree = make_tree(g, 0, 1, [0, 1, 2, 3])
        assert tree.replacing_edges() == [4]
        assert tree.preferred_moves() == ()

    def test_preferred_equals_reduction_oracle_random(self):
        rng = random.Random(17)
        for _ in range(60):
            g = oracles.random_connected_graph(rng, rng.randint(3, 9), rng.randint(1, 7))
            tree = oracles.random_tree_variable(rng, g)
            on_path = set(tree.induced_path())
            moves = preferred(tree)
            for e_in in tree.replacing_edges():
                expected = oracles.cycle_of(g, tree.tree_edges, e_in) & on_path
                assert set(moves.get(e_in, ())) == expected
            assert list(moves) == sorted(moves)
            assert set(moves) <= set(tree.replacing_edges())
            assert all(moves.values())


class TestApply:
    def test_triangle_swap(self, triangle):
        tree = make_tree(triangle, 0, 2, [0, 1])
        tree.apply(BasicMove(e_in=2, e_out=0))
        assert tree.tree_edges == frozenset({1, 2})
        assert tree.induced_path() == (2,)

    def test_apply_undo_is_identity(self):
        rng = random.Random(23)
        for _ in range(50):
            g = oracles.random_connected_graph(rng, rng.randint(3, 12), rng.randint(1, 10))
            tree = oracles.random_tree_variable(rng, g)
            move = oracles.random_valid_move(rng, tree)
            if move is None:
                continue
            before = tree_state(tree)
            token = tree.apply(BasicMove(*move))
            tree.undo(token)
            assert tree_state(tree) == before

    def test_version_only_increases(self, triangle):
        tree = make_tree(triangle, 0, 2, [0, 1])
        v0 = tree.version
        token = tree.apply(BasicMove(2, 0))
        v1 = tree.version
        tree.undo(token)
        assert v1 > v0 and tree.version > v1

    def test_invalid_moves_leave_tree_unchanged(self, triangle):
        tree = make_tree(triangle, 0, 2, [0, 1])
        before = tree_state(tree)
        with pytest.raises(InvalidMoveError):
            tree.apply(BasicMove(e_in=0, e_out=1))  # e_in already in tree
        with pytest.raises(InvalidMoveError):
            tree.apply(BasicMove(e_in=2, e_out=99))
        assert tree_state(tree) == before

    def test_figure_style_move_on_12_node_tree(self):
        # a 12-node tree where inserting (8,10) closes a cycle through the
        # tree edge (7,11); replacing the latter reroutes the induced path
        g = load_graph(
            "12 13\n0 1\n1 2\n2 3\n3 4\n4 5\n0 6\n6 7\n7 11\n11 8\n8 9\n"
            "9 10\n8 10\n5 10\n"
        )
        tree_edges = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12]
        tree = make_tree(g, 11, 10, tree_edges)
        e_in = g.find_edge(8, 10)
        e_out = g.find_edge(7, 11)
        assert e_out in tree.fundamental_cycle(e_in)
        before = tree.induced_path()
        assert e_out in before
        tree.apply(BasicMove(e_in, e_out))
        after = tree.induced_path()
        assert after != before
        assert e_in in after and e_out not in after
        assert after == oracles.path_from_tree(g, tree.tree_edges, 11, 10)


class TestComplexMoves:
    def grid(self):
        return generate_mesh(5, 2)  # 10 nodes, 13 edges

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(2, 3))
    def test_order_independent(self, seed, size):
        # Every order of a bundle that passes the independence precheck
        # gives one tree.
        rng = random.Random(seed)
        g = oracles.random_connected_graph(rng, rng.randint(6, 14), rng.randint(3, 10))
        tree = oracles.random_tree_variable(rng, g)
        moves, covered = [], set()
        for e_in in rng.sample(tree.replacing_edges(), len(tree.replacing_edges())):
            cycle = tree.fundamental_cycle(e_in)
            if len(moves) < size and covered.isdisjoint(cycle):
                moves.append(BasicMove(e_in, rng.choice(cycle)))
                covered.update(cycle)
        assume(len(moves) >= 2)
        assert tree.independent(moves)
        outcomes = set()
        for order in itertools.permutations(moves):
            t = RootedSpanningTree.from_edges(g, tree.source, tree.root, tree.tree_edges)
            t.apply_complex(ComplexMove(order))
            outcomes.add(t.tree_edges)
        assert len(outcomes) == 1

    def test_single_move_bundle_equals_apply(self, triangle):
        t_a = make_tree(triangle, 0, 2, [0, 1])
        t_b = make_tree(triangle, 0, 2, [0, 1])
        t_a.apply(BasicMove(2, 0))
        t_b.apply_complex(ComplexMove((BasicMove(2, 0),)))
        assert t_a.tree_edges == t_b.tree_edges

    def test_shared_removal_rejected_atomically(self):
        g = load_graph("4 5\n0 1\n1 2\n2 3\n0 2\n1 3\n")
        tree = make_tree(g, 0, 3, [0, 1, 2])
        before = tree_state(tree)
        cm = ComplexMove((BasicMove(3, 1), BasicMove(4, 1)))
        with pytest.raises(InvalidMoveError):
            tree.apply_complex(cm)
        assert tree_state(tree) == before

    def test_inserted_tree_edge_rejected(self):
        g = load_graph("4 5\n0 1\n1 2\n2 3\n0 2\n1 3\n")
        tree = make_tree(g, 0, 3, [0, 1, 2])
        before = tree_state(tree)
        # edge 2 is a tree edge, alone and after the valid move (3, 0)
        for moves in ((BasicMove(2, 1),), (BasicMove(3, 0), BasicMove(2, 1))):
            with pytest.raises(InvalidMoveError, match="already a tree edge"):
                tree.independent(moves)
            with pytest.raises(InvalidMoveError, match="already a tree edge"):
                tree.apply_complex(ComplexMove(moves))
            assert tree_state(tree) == before

    def test_overlapping_cycles_rejected(self):
        g = load_graph("4 5\n0 1\n1 2\n2 3\n0 2\n1 3\n")
        tree = make_tree(g, 0, 3, [0, 1, 2])
        # cycles of edges 3 and 4 share tree edge 1
        assert not tree.independent([BasicMove(3, 0), BasicMove(4, 2)])

    def test_complex_undo_restores(self):
        rng = random.Random(9)
        g = self.grid()
        restored = 0
        while restored < 10:
            tree = oracles.random_tree_variable(rng, g, 0, 9)
            replacing = tree.replacing_edges()
            e1, e2 = rng.sample(replacing, 2)
            m1 = BasicMove(e1, rng.choice(tree.fundamental_cycle(e1)))
            m2 = BasicMove(e2, rng.choice(tree.fundamental_cycle(e2)))
            if not tree.independent([m1, m2]):
                continue
            before = tree_state(tree)
            token = tree.apply_complex(ComplexMove((m1, m2)))
            tree.undo(token)
            assert tree_state(tree) == before
            restored += 1

    def test_empty_bundle_rejected(self):
        with pytest.raises(InvalidMoveError):
            ComplexMove(())

    def test_two_detours_applied_together_on_12_node_chain(self):
        # chain 0..11 with chords (2,5) and (7,10); the two swaps shortcut
        # disjoint stretches of the induced path in one bundle
        g = load_graph(
            "12 13\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n9 10\n"
            "10 11\n2 5\n7 10\n"
        )
        tree = make_tree(g, 0, 11, range(11))
        m1 = BasicMove(g.find_edge(2, 5), g.find_edge(3, 4))
        m2 = BasicMove(g.find_edge(7, 10), g.find_edge(8, 9))
        assert tree.independent([m1, m2])
        token = tree.apply_complex(ComplexMove((m1, m2)))
        assert tree.induced_path() == (0, 1, 11, 5, 6, 12, 10)
        tree.undo(token)
        assert tree.tree_edges == frozenset(range(11))


class TestSimulatePath:
    def test_off_path_move_keeps_path(self):
        g = load_graph("5 5\n0 1\n1 2\n2 3\n2 4\n3 4\n")
        tree = make_tree(g, 0, 1, [0, 1, 2, 3])
        move = BasicMove(e_in=4, e_out=2)
        assert tree.simulate_path(move) == tree.induced_path()

    def test_triangle(self, triangle):
        tree = make_tree(triangle, 0, 2, [0, 1])
        assert tree.simulate_path(BasicMove(2, 0)) == (2,)
        assert tree.simulate_path(BasicMove(2, 1)) == (2,)

    def test_invalid_move_rejected(self, triangle):
        tree = make_tree(triangle, 0, 2, [0, 1])
        with pytest.raises(InvalidMoveError):
            tree.simulate_path(BasicMove(e_in=0, e_out=1))

    def test_matches_apply_on_random_meshes(self):
        rng = random.Random(31)
        g = generate_mesh(4, 4)
        for _ in range(1000):
            tree = oracles.random_tree_variable(rng, g)
            move = oracles.random_valid_move(rng, tree)
            if move is None:
                continue
            m = BasicMove(*move)
            predicted = tree.simulate_path(m)
            token = tree.apply(m)
            assert tree.induced_path() == predicted
            tree.undo(token)

    def test_rejects_exactly_what_apply_rejects(self):
        # every removal id from -1 to m for every inserted edge, so that
        # each kind of removal is met; a tree edge's kind is (on the path,
        # on the cycle), and (True, True) is the stretch
        rng = random.Random(53)
        kinds = set()
        for _ in range(60):
            g = oracles.random_connected_graph(rng, rng.randint(3, 7), rng.randint(1, 5))
            tree = oracles.random_tree_variable(rng, g)
            on_path = set(tree.induced_path())
            in_tree = tree.tree_edges
            for e_in in tree.replacing_edges():
                cycle = set(tree.fundamental_cycle(e_in))
                for e_out in range(-1, g.edge_count + 1):
                    kinds.add("out of range" if not 0 <= e_out < g.edge_count
                              else "non-tree" if e_out not in in_tree
                              else (e_out in on_path, e_out in cycle))
                    move = BasicMove(e_in, e_out)
                    before = (tree_state(tree), tree.version)
                    try:
                        predicted = tree.simulate_path(move)
                    except InvalidMoveError:
                        with pytest.raises(InvalidMoveError):
                            tree.apply(move)
                        assert (tree_state(tree), tree.version) == before
                        continue
                    token = tree.apply(move)
                    assert tree.induced_path() == predicted
                    tree.undo(token)
        assert kinds == {"out of range", "non-tree", (True, True),
                         (True, False), (False, True), (False, False)}


class TestPathChangeCharacterization:
    def test_exhaustive_on_small_graphs(self):
        rng = random.Random(41)
        for _ in range(40):
            g = oracles.random_connected_graph(rng, rng.randint(3, 6), rng.randint(1, 5))
            tree = oracles.random_tree_variable(rng, g)
            on_path = set(tree.induced_path())
            for e_in in tree.replacing_edges():
                for e_out in tree.fundamental_cycle(e_in):
                    before = tree.induced_path()
                    token = tree.apply(BasicMove(e_in, e_out))
                    changed = tree.induced_path() != before
                    tree.undo(token)
                    assert changed == (e_out in on_path)


class TestStateManagement:
    def test_stale_undo_token_rejected(self, triangle):
        tree = make_tree(triangle, 0, 2, [0, 1])
        token = tree.apply(BasicMove(2, 0))
        tree.apply(BasicMove(0, 2))
        with pytest.raises(InvalidMoveError):
            tree.undo(token)

    def test_foreign_undo_token_rejected(self):
        rng = random.Random(59)
        g = generate_mesh(4, 4)
        for _ in range(50):
            a = RootedSpanningTree.random_tree(g, 0, 15, rng)
            b = RootedSpanningTree.random_tree(g, 0, 12, rng)
            tokens = []
            for tree in (a, b):
                e_in, outs = rng.choice(tree.preferred_moves())
                tokens.append(tree.apply(BasicMove(e_in, rng.choice(outs))))
            before = tree_state(b)
            with pytest.raises(InvalidMoveError, match="another tree"):
                b.undo(tokens[0])
            assert tree_state(b) == before
            b.undo(tokens[1])
            a.undo(tokens[0])
