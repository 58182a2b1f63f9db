import itertools
import math
import re

import pytest
from hypothesis import given

from plane_forest import (
    LimitExceeded,
    MalformedCode,
    RootedPlaneTree,
    count_rooted,
    decode,
    encode,
    enumerate_rooted,
    iter_dyck_codes,
    reflect,
    rooted_codes,
)
from plane_forest.trees import MAX_EDGES_ENV, _dyck_codes

from helpers import tree_strategy


LEAF = RootedPlaneTree()


def _brute_force_heights(edges):
    # every string over "()" of length 2*edges in lexicographic order,
    # mapped to its nesting depth when it is balanced
    heights = {}
    for chars in itertools.product("()", repeat=2 * edges):
        depth = height = 0
        for ch in chars:
            depth += 1 if ch == "(" else -1
            height = max(height, depth)
            if depth < 0:
                break
        if depth == 0:
            heights["".join(chars)] = height
    return heights


# malformed code -> the part of its error message that locates the fault
MALFORMED = {
    "(()": "1 unclosed '('",
    "())": "unmatched ')' at position 2",
    ")(": "unmatched ')' at position 0",
    "( )": "foreign character ' ' at position 1",
    "x": "foreign character 'x' at position 0",
    "(a)": "foreign character 'a' at position 1",
}


def catalan_by_recurrence(n: int) -> int:
    # independent of the closed form used by count_rooted
    table = [1]
    for m in range(1, n + 1):
        table.append(sum(table[i] * table[m - 1 - i] for i in range(m)))
    return table[n]


class TestEncode:
    def test_single_vertex(self):
        assert encode(LEAF) == ""

    def test_one_leaf_child(self):
        assert encode(RootedPlaneTree((LEAF,))) == "()"

    def test_path_of_three(self):
        path3 = RootedPlaneTree((RootedPlaneTree((LEAF,)),))
        assert encode(path3) == "(())"

    def test_children_in_order(self):
        two_kids = RootedPlaneTree((RootedPlaneTree((LEAF,)), LEAF))
        assert encode(two_kids) == "(())()"


class TestDecode:
    def test_two_leaf_children(self):
        assert decode("()()") == RootedPlaneTree((LEAF, LEAF))

    def test_mixed_children(self):
        assert decode("(())()") == RootedPlaneTree((RootedPlaneTree((LEAF,)), LEAF))

    def test_empty_is_single_vertex(self):
        assert decode("") == LEAF

    @pytest.mark.parametrize("bad", list(MALFORMED))
    def test_malformed(self, bad):
        with pytest.raises(MalformedCode, match=re.escape(MALFORMED[bad])):
            decode(bad)

    def test_repr_shows_the_code(self):
        assert repr(decode("(())()")) == "RootedPlaneTree('(())()')"

    @given(tree_strategy())
    def test_round_trip(self, tree):
        assert decode(encode(tree)) == tree
        assert RootedPlaneTree(tree.children) == tree
        assert "".join("(" + encode(c) + ")" for c in tree.children) == encode(tree)


class TestHeight:
    def test_single_vertex(self):
        assert LEAF.height == 0

    def test_one_edge(self):
        assert decode("()").height == 1

    def test_nested_path(self):
        assert decode("((()))").height == 3

    def test_height_is_max_over_children(self):
        assert decode("()((()))()").height == 3


class TestEnumeration:
    def test_three_edges_gives_five(self):
        assert len(list(enumerate_rooted(3))) == 5

    def test_four_edges_gives_fourteen(self):
        assert len(list(enumerate_rooted(4))) == 14

    def test_five_edges_gives_catalan_not_fifty_one(self):
        # the hand tally asserts 51 here; the recurrence oracle says 42
        assert catalan_by_recurrence(5) == 42
        assert len(list(enumerate_rooted(5))) == 42

    def test_codes_sorted_and_distinct(self):
        for edges in range(0, 9):
            codes = list(iter_dyck_codes(edges))
            assert codes == sorted(codes)
            assert len(set(codes)) == len(codes)

    def test_negative_edges_give_no_codes(self):
        assert list(iter_dyck_codes(-1)) == []

    def test_height_cap_keeps_order(self):
        # against an independent reference; 7 edges and more run past the
        # completion table
        for edges in range(0, 10):
            heights = _brute_force_heights(edges)
            # a negative cap admits no code, not even the empty one
            for max_height in range(-1, edges + 1):
                expected = [c for c, h in heights.items() if h <= max_height]
                assert list(_dyck_codes(edges, max_height)) == expected

    def test_first_code_far_past_the_recursion_limit(self):
        nested = "(" * 5000 + ")" * 5000
        assert next(iter_dyck_codes(5000)) == nested
        assert next(rooted_codes(5000, limit=5000)) == nested

    def test_round_trip_on_enumerated(self):
        for edges in range(0, 8):
            for code in iter_dyck_codes(edges):
                assert encode(decode(code)) == code

    def test_euler_relation(self):
        for edges in range(0, 8):
            for tree in enumerate_rooted(edges):
                assert tree.vertex_count == tree.edge_count + 1

    def test_catalan_identity_exhaustive(self):
        for edges in range(0, 13):
            assert sum(1 for _ in enumerate_rooted(edges)) == count_rooted(edges)


class TestCount:
    @pytest.mark.parametrize(
        "edges,expected", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 14), (6, 132)]
    )
    def test_small_values(self, edges, expected):
        assert count_rooted(edges) == expected

    def test_matches_recurrence(self):
        for edges in range(0, 21):
            assert count_rooted(edges) == catalan_by_recurrence(edges)

    def test_exact_at_scale(self):
        # would overflow a 64-bit float's integer range
        assert count_rooted(40) == math.comb(80, 40) // 41
        assert count_rooted(40) % 2 == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_rooted(-1)


class TestCaps:
    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv(MAX_EDGES_ENV, raising=False)
        with pytest.raises(LimitExceeded):
            enumerate_rooted(17)

    def test_env_override_lowers(self, monkeypatch):
        monkeypatch.setenv(MAX_EDGES_ENV, "3")
        with pytest.raises(LimitExceeded):
            enumerate_rooted(4)
        assert len(list(enumerate_rooted(3))) == 5

    def test_env_override_raises(self, monkeypatch):
        monkeypatch.setenv(MAX_EDGES_ENV, "40")
        enumerate_rooted(30)  # cap check passes; stream not consumed

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(MAX_EDGES_ENV, "many")
        with pytest.raises(ValueError):
            enumerate_rooted(2)

    def test_explicit_limit_wins(self):
        with pytest.raises(LimitExceeded):
            enumerate_rooted(5, limit=4)

    def test_negative_edges(self):
        with pytest.raises(ValueError):
            enumerate_rooted(-2)


class TestReflect:
    def test_reverses_child_order(self):
        assert encode(reflect(decode("(())()"))) == "()(())"

    def test_recursive_not_root_only(self):
        # the child order below the root must flip too
        assert encode(reflect(decode("((())())()"))) == "()(()(()))"

    @given(tree_strategy())
    def test_involution(self, tree):
        assert reflect(reflect(tree)) == tree

    @given(tree_strategy())
    def test_preserves_shape_numbers(self, tree):
        mirrored = reflect(tree)
        assert mirrored.vertex_count == tree.vertex_count
        assert mirrored.height == tree.height
