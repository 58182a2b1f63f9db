import random
import time

import pytest
from hypothesis import given, settings

from plane_forest import (
    Disconnected,
    EquivalenceMode,
    HasCycle,
    MorseFlow,
    canonical_plane,
    count_flows,
    count_plane,
    decode,
    enumerate_flows,
    enumerate_plane_center,
    flow_from_tree,
    flow_record,
    validate_flow_graph,
)
from plane_forest.morse import _record_head

from helpers import random_cyclic_multigraph, random_tree_edges, tree_strategy

ORIENTED = EquivalenceMode.ORIENTED
MIRROR = EquivalenceMode.MIRROR


class TestFlowFromTree:
    def test_two_vertex_tree(self):
        flow = flow_from_tree(canonical_plane(decode("()")))
        assert (flow.sources, flow.saddles, flow.sinks) == (2, 1, 1)

    def test_single_vertex_tree(self):
        # the north-pole/south-pole flow: no saddles at all
        flow = flow_from_tree(canonical_plane(decode("")))
        assert (flow.sources, flow.saddles, flow.sinks) == (1, 0, 1)

    def test_seven_vertex_tree(self):
        tree = enumerate_plane_center(7, ORIENTED)[0]
        flow = flow_from_tree(tree)
        assert (flow.sources, flow.saddles, flow.sinks) == (7, 6, 1)

    @given(tree_strategy())
    @settings(max_examples=60)
    def test_index_sum_is_two(self, tree):
        flow = flow_from_tree(canonical_plane(tree))
        assert flow.sources - flow.saddles + flow.sinks == 2

    def test_injective_on_classes(self):
        flows = enumerate_flows(6, ORIENTED)
        assert len({f.separatrices for f in flows}) == 14

    def test_invariants_enforced(self):
        tree = canonical_plane(decode("()"))
        with pytest.raises(ValueError):
            MorseFlow(sources=2, saddles=1, sinks=2, separatrices=tree)
        with pytest.raises(ValueError):
            MorseFlow(sources=3, saddles=1, sinks=1, separatrices=tree)
        with pytest.raises(ValueError):
            MorseFlow(sources=4, saddles=3, sinks=1, separatrices=tree)


class TestValidateFlowGraph:
    def test_triangle_rejected(self):
        with pytest.raises(HasCycle):
            validate_flow_graph(3, [(0, 1), (1, 2), (2, 0)])

    def test_two_isolated_vertices_rejected(self):
        with pytest.raises(Disconnected):
            validate_flow_graph(2, [])

    def test_forest_rejected_as_disconnected(self):
        with pytest.raises(Disconnected, match=r"^4 vertices but only 2 tree edges$"):
            validate_flow_graph(4, [(0, 1), (2, 3)])

    def test_cycle_reported_before_disconnection(self):
        with pytest.raises(HasCycle, match=r"^edge \(2, 0\) closes a cycle$"):
            validate_flow_graph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(HasCycle, match=r"^edge \(2, 0\) closes a cycle$"):
            validate_flow_graph(5, [(0, 1), (1, 2), (2, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(HasCycle):
            validate_flow_graph(2, [(0, 1), (1, 1)])

    def test_parallel_edge_rejected(self):
        with pytest.raises(HasCycle):
            validate_flow_graph(2, [(0, 1), (1, 0)])

    def test_path_accepted_with_any_rotations(self):
        flow = validate_flow_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert (flow.sources, flow.saddles) == (4, 3)
        flow2 = validate_flow_graph(
            4, [(0, 1), (1, 2), (2, 3)], rotations=[[1], [2, 0], [3, 1], [2]]
        )
        assert flow2 == flow

    def test_single_vertex_accepted(self):
        flow = validate_flow_graph(1, [])
        assert (flow.sources, flow.saddles, flow.sinks) == (1, 0, 1)

    def test_unknown_vertex_rejected(self):
        # ids, counts and edge lists of the wrong type are ill-formed, not
        # a TypeError
        cases = [
            (2, [(0, 5)]),
            (2, [(0, 1.0)]),
            (2, [(0, "1")]),
            (2.0, [(0, 1)]),
            (2, [0]),
            (2, None),
        ]
        for vertices, edges in cases:
            with pytest.raises(ValueError):
                validate_flow_graph(vertices, edges)

    def test_inconsistent_rotations_rejected(self):
        for rotations in [[[1], [0, 0]], [[1]], [[1], [0.0]], [1, 0]]:
            with pytest.raises(ValueError):
                validate_flow_graph(2, [(0, 1)], rotations=rotations)

    def test_rotation_data_controls_embedding(self):
        # a star with an extra arm: swapping two neighbors in one cyclic
        # order reflects the embedding
        edges = [(0, 1), (0, 2), (0, 3), (3, 4), (1, 5), (5, 6)]
        base = [[1, 2, 3], [0, 5], [0], [0, 4], [3], [1, 6], [5]]
        flipped = [[1, 3, 2], [0, 5], [0], [0, 4], [3], [1, 6], [5]]
        a = validate_flow_graph(7, edges, rotations=base, mode=ORIENTED)
        b = validate_flow_graph(7, edges, rotations=flipped, mode=ORIENTED)
        assert a.separatrices != b.separatrices
        a_m = validate_flow_graph(7, edges, rotations=base, mode=MIRROR)
        b_m = validate_flow_graph(7, edges, rotations=flipped, mode=MIRROR)
        assert a_m.separatrices == b_m.separatrices

    def test_rejects_all_random_cyclic_multigraphs(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(500):
            vertices, edges = random_cyclic_multigraph(rng)
            with pytest.raises((HasCycle, Disconnected)):
                validate_flow_graph(vertices, edges)

    def test_accepts_all_random_trees(self):
        rng = random.Random(0xBEEF)
        for _ in range(500):
            vertices = rng.randint(1, 10)
            flow = validate_flow_graph(vertices, random_tree_edges(rng, vertices))
            assert flow.sources - flow.saddles + flow.sinks == 2


# a 20,001-vertex star with its hub first and last, and a 10,000-edge path
LARGE = 20_001
LARGE_FLOW_GRAPHS = [
    (LARGE, [(0, v) for v in range(1, LARGE)], "U:" + "()" * (LARGE - 1)),
    (LARGE, [(LARGE - 1, v) for v in range(LARGE - 1)], "U:" + "()" * (LARGE - 1)),
    (10_001, [(v, v + 1) for v in range(10_000)], "U:" + ("(" * 5000 + ")" * 5000) * 2),
]


@pytest.mark.parametrize(
    "vertices, edges, line", LARGE_FLOW_GRAPHS, ids=["star", "star-hub-last", "path"]
)
class TestLargeFlowGraphs:
    @pytest.mark.parametrize("mode", [ORIENTED, MIRROR])
    def test_linear_time(self, vertices, edges, line, mode):
        # about 0.2 s of work; a least rotation that builds a word list per
        # rotation, or a contour walk that looks up its place in the hub's
        # list on every step, takes seconds on the stars
        start = time.process_time()
        flow = validate_flow_graph(vertices, edges, mode=mode)
        assert time.process_time() - start < 1.0
        assert flow.separatrices.serialize() == line


class TestCountFlows:
    @pytest.mark.parametrize(
        "saddles,expected", [(0, 1), (1, 1), (2, 1), (3, 2), (4, 3), (5, 6), (6, 14)]
    )
    def test_hand_tally_range(self, saddles, expected):
        assert count_flows(saddles, ORIENTED) == expected

    def test_seven_saddles_both_modes(self):
        # the hand tally claims 26; both computed values disagree
        assert count_flows(7, ORIENTED) == 34
        assert count_flows(7, MIRROR) == 27

    def test_matches_plane_counts(self):
        for saddles in range(0, 10):
            for mode in (ORIENTED, MIRROR):
                assert count_flows(saddles, mode) == count_plane(saddles + 1, mode)

    def test_negative_rejected(self):
        # one check and one message, wherever a saddle count comes in
        for call in count_flows, enumerate_flows, _record_head:
            with pytest.raises(ValueError, match=r"^saddle count must be non-negative, got -1$"):
                call(-1)


class TestFlowRecord:
    def test_format(self):
        flow = flow_from_tree(canonical_plane(decode("(())")))
        assert flow_record(flow) == "sources=3 saddles=2 sinks=1 tree=U:()()"

    def test_records_list_distinct(self):
        records = [flow_record(f) for f in enumerate_flows(5, MIRROR)]
        assert len(records) == len(set(records)) == 6
