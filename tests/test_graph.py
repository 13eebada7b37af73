import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeroute import (
    Graph,
    GraphFormatError,
    GraphValidationError,
    commodities_to_text,
    graph_to_text,
    load_commodities,
    load_graph,
    path_nodes,
    shortest_path_avoiding,
)
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
        assert shortest_path_avoiding(triangle, 0, 2) == [2]

    def test_detour(self, triangle):
        assert shortest_path_avoiding(triangle, 0, 2, {2}) == [0, 1]

    def test_unreachable(self):
        g = load_graph("2 1\n0 1\n")
        assert shortest_path_avoiding(g, 0, 1, {0}) is None

    def test_source_equals_target_rejected(self, triangle):
        with pytest.raises(ValueError):
            shortest_path_avoiding(triangle, 1, 1)

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
            path = shortest_path_avoiding(g, s, t, forbidden)
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
        assert shortest_path_avoiding(g, 0, 3) == [0, 2]


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
