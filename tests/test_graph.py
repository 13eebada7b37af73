import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeroute import (
    Commodity,
    FreeEdges,
    Graph,
    GraphFormatError,
    GraphValidationError,
    WholeGraphPaths,
    commodities_to_text,
    graph_to_text,
    greedy_complete,
    load_commodities,
    load_graph,
    path_nodes,
    shortest_path_avoiding,
)
import treeroute.graph as graph
from treeroute.generators import generate_mesh

import oracles


class TestLoadGraph:
    def test_triangle(self, triangle):
        assert triangle.node_count == 3
        assert triangle.edge_count == 3
        assert triangle.edges == ((0, 1), (1, 2), (0, 2))
        assert triangle.find_edge(2, 0) == 2
        assert triangle.find_edge(0, 1) == 0
        assert triangle.find_edge(1, 0) == 0

    def test_single_edge(self):
        g = load_graph("2 1\n0 1\n")
        assert g.node_count == 2
        assert g.edge_count == 1

    def test_mesh25x25_roundtrip(self):
        g = generate_mesh(25, 25)
        assert g.node_count == 625
        assert g.edge_count == 1200  # 2*25*25 - 25 - 25
        again = load_graph(graph_to_text(g))
        assert again.node_count == g.node_count
        assert again.edges == g.edges
        assert again.weights == g.weights

    def test_comments_and_blank_lines_skipped(self):
        g = load_graph("# demo\n\n2 1\n\n0 1\n")
        assert g.edge_count == 1

    def test_malformed_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            load_graph("3\n")

    def test_malformed_edge_line_names_line(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            load_graph("2 1\n# pad\n0 x\n")

    def test_wrong_edge_count(self):
        with pytest.raises(GraphFormatError, match="expected 2 edge lines"):
            load_graph("3 2\n0 1\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError, match="self-loop"):
            load_graph("2 2\n0 1\n1 1\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphValidationError, match="duplicates"):
            load_graph("3 3\n0 1\n1 2\n1 0\n")

    def test_disconnected_rejected(self):
        with pytest.raises(GraphValidationError, match="disconnected"):
            load_graph("5 4\n0 1\n1 2\n2 0\n3 4\n")
        # names the lowest-numbered node that node 0 cannot reach
        with pytest.raises(GraphValidationError, match="node 1 unreachable"):
            load_graph("5 4\n0 2\n2 3\n3 0\n1 4\n")

    def test_too_few_edges_rejected_before_building(self):
        with pytest.raises(GraphFormatError, match="cannot connect"):
            load_graph("4 2\n0 1\n2 3\n")
        # a graph this large would take minutes to allocate
        with pytest.raises(GraphFormatError, match="cannot connect"):
            load_graph("1000000000 0\n")

    def test_node_id_out_of_range(self):
        with pytest.raises(GraphValidationError, match="out of range"):
            load_graph("2 1\n0 2\n")

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="negative"):
            load_graph("2 1\n0 1 -2\n")

    def test_inconsistent_weight_columns(self):
        with pytest.raises(GraphFormatError, match="column"):
            load_graph("3 2\n0 1 4\n1 2\n")

    @pytest.mark.parametrize("weight", [
        "1e999999999", "1e-999999999", "1.00000000000000000000000000001"])
    def test_weight_that_cannot_be_held_exactly_names_line(self, weight):
        with pytest.raises(GraphFormatError, match=f"line 2: bad weight '{weight}'"):
            load_graph(f"2 1\n0 1 {weight}\n")

    def test_weights_scale_exactly_up_to_the_exponent_bound(self):
        g = load_graph("3 2\n0 1 1e-400\n1 2 5e400\n")
        assert g.weight_scales == (400,)
        assert g.weights == ((1,), (5 * 10 ** 800,))
        again = load_graph(graph_to_text(g))
        assert (again.weights, again.weight_scales) == (g.weights, g.weight_scales)
        # the bound applies after normalising
        assert load_graph("2 1\n0 1 100e-402\n").weight_scales == (400,)

    @pytest.mark.parametrize("weight", [
        "1e401", "1e-401", "0.0001e-397",
        # a column scale of about 10**6 took seconds to apply
        "1e-999999", "1e999999", "1e-1000000",
        # found by test_text_fuzz: it loaded, and graph_to_text then hit
        # Python's 4,300-digit limit on int-to-str conversion
        pytest.param("1" + "0" * 5000, id="1-and-5000-zeros")])
    def test_weight_beyond_the_exponent_bound_names_line(self, weight):
        with pytest.raises(GraphFormatError, match=(
                f"line 2: weight '{weight}' has an exponent beyond e±400")):
            load_graph(f"2 1\n0 1 {weight}\n")

    def test_decimal_weights_scaled_exactly(self):
        g = load_graph("2 1\n0 1 1.25 3\n")
        assert g.weight_scales == (2, 0)
        assert g.weights[0] == (125, 3)

    def test_decimal_weights_share_column_scale(self):
        g = load_graph("3 2\n0 1 0.5\n1 2 2\n")
        assert g.weight_scales == (1,)
        assert g.weights[0] == (5,)
        assert g.weights[1] == (20,)


class TestCommodities:
    def test_roundtrip(self, triangle):
        commodities = load_commodities("2\n0 2\n1 0\n", triangle)
        assert [(c.source, c.target) for c in commodities] == [(0, 2), (1, 0)]
        assert load_commodities(commodities_to_text(commodities), triangle) == commodities

    def test_source_equals_target_rejected(self, triangle):
        with pytest.raises(GraphFormatError, match="source equals target"):
            load_commodities("1\n1 1\n", triangle)

    def test_range_checked_against_graph(self, triangle):
        with pytest.raises(GraphFormatError, match="out of range"):
            load_commodities("1\n0 7\n", triangle)


class TestShortestPathAvoiding:
    def test_direct_edge(self, triangle):
        assert shortest_path_avoiding(FreeEdges(triangle), 0, 2) == [2]

    def test_detour(self, triangle):
        free = FreeEdges(triangle)
        free.remove([2])
        assert shortest_path_avoiding(free, 0, 2) == [0, 1]

    def test_unreachable(self):
        free = FreeEdges(load_graph("2 1\n0 1\n"))
        free.remove([0])
        assert shortest_path_avoiding(free, 0, 1) is None

    def test_source_equals_target_rejected(self, triangle):
        with pytest.raises(ValueError):
            shortest_path_avoiding(FreeEdges(triangle), 1, 1)

    @pytest.mark.parametrize("s,t", [(-1, 1), (0, -1), (0, 4), (4, 0)])
    def test_node_out_of_range_rejected(self, s, t):
        cycle = load_graph("4 4\n0 1\n1 2\n2 3\n0 3\n")
        with pytest.raises(ValueError, match="out of range"):
            shortest_path_avoiding(FreeEdges(cycle), s, t)

    def test_matches_bfs_distance_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(100):
            g = oracles.random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 8))
            s = rng.randrange(g.node_count)
            t = rng.randrange(g.node_count)
            if s == t:
                continue
            forbidden = frozenset(
                e for e in range(g.edge_count) if rng.random() < 0.3
            )
            free = FreeEdges(g)
            free.remove(forbidden)
            path = shortest_path_avoiding(free, s, t)
            dist = oracles.bfs_distance(g, s, t, forbidden)
            if dist is None:
                assert path is None
            else:
                assert path is not None and len(path) == dist
                assert not set(path) & forbidden
                nodes = path_nodes(g, s, path)
                assert nodes[0] == s and nodes[-1] == t
                assert len(set(nodes)) == len(nodes)

    def test_deterministic_tie_break(self):
        # 0-1-3 and 0-2-3 tie; smallest-edge-id expansion picks via node 1
        g = load_graph("4 4\n0 1\n0 2\n1 3\n2 3\n")
        assert shortest_path_avoiding(FreeEdges(g), 0, 3) == [0, 2]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_a_free_view_is_searched_like_its_forbidden_set(seed):
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(2, 12), rng.randint(0, 12))
    forbidden = {e for e in range(g.edge_count) if rng.random() < 0.3}
    s, t = rng.sample(range(g.node_count), 2)
    free = FreeEdges(g)
    free.remove(forbidden)
    path = shortest_path_avoiding(free, s, t)
    assert path == oracles.shortest_path_avoiding_reference(g, s, t, forbidden)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_removing_paths_leaves_the_view_of_the_larger_taken_set(seed):
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(2, 12), rng.randint(0, 12))
    taken = {e for e in range(g.edge_count) if rng.random() < 0.3}
    free = FreeEdges(g)
    free.remove(taken)
    for _ in range(3):
        s, t = rng.sample(range(g.node_count), 2)
        path = shortest_path_avoiding(free, s, t)
        if path is None:
            continue
        free.remove(path)
        taken |= set(path)
        assert free.is_free == [e not in taken for e in range(g.edge_count)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_one_reused_view_answers_every_search_as_the_reference(seed):
    # searches interleaved with removals, as greedy completion makes
    # them, so later searches meet the labels earlier failures left
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(2, 12), rng.randint(0, 12))
    free = FreeEdges(g)
    taken: set[int] = set()
    for _ in range(12):
        if rng.random() < 0.3:
            cut = {e for e in range(g.edge_count)
                   if e not in taken and rng.random() < 0.2}
            free.remove(cut)
            taken |= cut
        s, t = rng.sample(range(g.node_count), 2)
        path = shortest_path_avoiding(free, s, t)
        assert path == oracles.shortest_path_avoiding_reference(g, s, t, taken)
        if path is not None and rng.random() < 0.5:
            free.remove(path)
            taken |= set(path)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_a_path_found_stays_the_answer_while_its_edges_are_free(seed):
    # the sub-view fact on the reference: taking out more edges, none of
    # them on the path, leaves the path the answer
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(2, 12), rng.randint(0, 12))
    s, t = rng.sample(range(g.node_count), 2)
    fewer = {e for e in range(g.edge_count) if rng.random() < 0.3}
    path = oracles.shortest_path_avoiding_reference(g, s, t, fewer)
    if path is None:
        return
    more = fewer | {e for e in range(g.edge_count)
                    if e not in path and rng.random() < 0.5}
    assert oracles.shortest_path_avoiding_reference(g, s, t, more) == path


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_views_sharing_a_memo_answer_every_search_as_the_reference(seed):
    # searches and removals interleaved over three views of one graph;
    # the pairs come from a small pool, both ways round, so the memo is
    # met hit, blocked and fresh
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(2, 12), rng.randint(0, 12))
    memo = WholeGraphPaths(g)
    views = [(FreeEdges(g, memo), set()) for _ in range(3)]
    pairs = [rng.sample(range(g.node_count), 2) for _ in range(3)]
    for _ in range(20):
        free, taken = rng.choice(views)
        if rng.random() < 0.2:
            cut = {e for e in range(g.edge_count)
                   if e not in taken and rng.random() < 0.2}
            free.remove(cut)
            taken |= cut
            assert free.is_free == [e not in taken for e in range(g.edge_count)]
        s, t = rng.choice(pairs)[::rng.choice((1, -1))]
        path = shortest_path_avoiding(free, s, t)
        assert path == oracles.shortest_path_avoiding_reference(g, s, t, taken)
        if path is not None and rng.random() < 0.5:
            free.remove(path)
            taken |= set(path)
            assert free.is_free == [e not in taken for e in range(g.edge_count)]
    assert all(path == tuple(oracles.shortest_path_avoiding_reference(g, s, t))
               for (s, t), path in memo.items())


# 0-1-3 and 0-2-3 tie; from 0 the search reaches 3 through 1, from 3
# through 2, so the two directions take different paths
ASYMMETRIC = "4 4\n0 1\n0 2\n2 3\n1 3\n"


def test_a_memo_keeps_each_direction_apart():
    g = load_graph(ASYMMETRIC)
    memo = WholeGraphPaths(g)
    free = FreeEdges(g, memo)
    assert shortest_path_avoiding(free, 0, 3) == [0, 3]
    assert shortest_path_avoiding(free, 3, 0) == [2, 1]
    assert memo == {(0, 3): (0, 3), (3, 0): (2, 1)}


def test_a_repeated_pair_hits_the_memo_until_its_path_is_taken(monkeypatch):
    g = load_graph(ASYMMETRIC)
    memo = WholeGraphPaths(g)
    first, second = FreeEdges(g, memo), FreeEdges(g, memo)
    views = {id(first.is_free): "first", id(second.is_free): "second"}
    search = graph._bfs
    searched = []  # per BFS: the view whose flags it ran on, or the fill

    def bfs(neighbors, edges, is_free, s, t):
        searched.append(views.get(id(is_free), "fill"))
        return search(neighbors, edges, is_free, s, t)

    monkeypatch.setattr(graph, "_bfs", bfs)
    assert shortest_path_avoiding(first, 0, 3) == [0, 3]
    assert searched == ["fill"]  # the memo's fill, and no search of the view
    assert shortest_path_avoiding(second, 0, 3) == [0, 3]
    assert searched == ["fill"]
    first.remove([0, 3])
    assert shortest_path_avoiding(first, 0, 3) == [1, 2]
    assert searched == ["fill", "first"]


def test_a_whole_graph_path_blocked_by_a_kept_edge_falls_back_to_the_search():
    g = load_graph(ASYMMETRIC)
    kept = {0: (3,)}  # the last edge of 0-1-3
    routed = greedy_complete(g, kept, [(1, Commodity(0, 3))],
                             memo=WholeGraphPaths(g))
    assert routed == {0: (3,), 1: (1, 2)}


def test_a_memo_serves_only_views_of_its_graph():
    with pytest.raises(ValueError, match="another graph"):
        FreeEdges(load_graph(ASYMMETRIC), WholeGraphPaths(_path_graph(4)))


def _path_graph(n):
    """Nodes 0..n-1 on a line; edge i joins i and i + 1."""
    return load_graph(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))


def test_a_failed_search_labels_the_source_component():
    free = FreeEdges(_path_graph(5))
    free.remove([1])  # {0, 1} | {2, 3, 4}
    assert shortest_path_avoiding(free, 0, 3) is None
    assert free.labels == 1
    assert free.component == [1, 1, 0, 0, 0]
    assert shortest_path_avoiding(free, 2, 4) == [2, 3]


def test_a_pair_with_one_end_labelled_fails_without_a_search():
    free = FreeEdges(_path_graph(5))
    free.remove([1])
    assert shortest_path_avoiding(free, 0, 3) is None
    # a search from 4 would fail and label {2, 3, 4}
    assert shortest_path_avoiding(free, 4, 1) is None
    assert free.labels == 1
    assert free.component == [1, 1, 0, 0, 0]


def test_a_stale_shared_label_still_searches():
    free = FreeEdges(_path_graph(5))
    free.remove([0])  # {0} | {1, 2, 3, 4}
    assert shortest_path_avoiding(free, 0, 2) is None
    assert free.component == [1, 0, 0, 0, 0]
    free.remove([2])  # splits {1, 2} from {3, 4}, which keep one label
    assert shortest_path_avoiding(free, 1, 4) is None
    assert free.labels == 2
    assert free.component == [1, 2, 2, 0, 0]
    assert shortest_path_avoiding(free, 4, 3) == [3]


def test_a_free_view_removes_only_free_edges(triangle):
    free = FreeEdges(triangle)
    free.remove([2])
    assert free.is_free == [True, True, False]
    with pytest.raises(ValueError):
        free.remove([2])
    with pytest.raises(ValueError):
        free.remove([0, 0])


@pytest.mark.parametrize("eid", [-1, -4, 3])  # -1, -m-1 and m for m = 3
def test_an_edge_id_outside_the_graph_is_rejected(triangle, eid):
    with pytest.raises(ValueError):
        FreeEdges(triangle).remove([eid])
    with pytest.raises(ValueError):
        greedy_complete(triangle, {0: (eid,)}, [])


class TestPathNodes:
    def test_walk(self, triangle):
        assert path_nodes(triangle, 0, [0, 1]) == [0, 1, 2]

    def test_discontinuous_rejected(self, triangle):
        with pytest.raises(ValueError):
            path_nodes(triangle, 2, [0, 0])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10), st.integers(0, 2 ** 30))
def test_generated_graph_text_roundtrip(n, extra, seed):
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, n, extra, columns=2)
    again = load_graph(graph_to_text(g))
    assert again.node_count == g.node_count
    assert again.edges == g.edges
    assert again.weights == g.weights
    assert again.weight_scales == g.weight_scales
