import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plane_forest import (
    CenterResult,
    Centrality,
    EquivalenceMode,
    LimitExceeded,
    MalformedCode,
    PlaneTree,
    canonical_plane,
    catalog_json,
    catalog_text,
    center,
    count_flows,
    count_plane,
    decode,
    encode,
    enumerate_flows,
    enumerate_plane_center,
    enumerate_plane_oracle,
    enumerate_rooted,
    is_isomorphic,
    iter_dyck_codes,
    reflect,
    rerooting_oracle_canon,
    rooted_representatives,
    rotation_system,
    validate_flow_graph,
)
from plane_forest.canonical import _center_split, _least_bicentral, _least_rotation
from plane_forest.morse import _contour_code
from plane_forest.trees import _corner_codes, _factors, _height_of

import helpers
from helpers import _strip_centers, random_tree, tree_strategy

ORIENTED = EquivalenceMode.ORIENTED
MIRROR = EquivalenceMode.MIRROR

# smallest chiral class pair, found by exhaustive scan with the re-rooting
# oracle: a center carrying a leaf, a 2-path and a 2-leaf cherry
CHIRAL_CODE = "()(())(()())"

# every catalog line up to 8 vertices, with the mode of its catalog
CATALOG_LINES = [
    (form.serialize(), mode)
    for mode in (ORIENTED, MIRROR)
    for vertices in range(1, 9)
    for form in enumerate_plane_center(vertices, mode)
]


class TestCenter:
    def test_path_of_three(self):
        result = center(decode("(())"))
        assert result.centers == (1,)
        assert result.radius == 1

    def test_path_of_four(self):
        result = center(decode("((()))"))
        assert result.centers == (1, 2)
        assert result.radius == 2

    def test_star_with_five_leaves(self):
        result = center(decode("()()()()()"))
        assert result.centers == (0,)
        assert result.radius == 1

    def test_single_vertex_and_edge(self):
        assert center(decode("")).centers == (0,)
        assert center(decode("")).radius == 0
        assert center(decode("()")).centers == (0, 1)
        assert center(decode("()")).radius == 1

    def test_center_is_position_independent(self):
        # same star, rooted at a leaf instead of the hub
        result = center(decode("(()()()())"))
        assert result.centers == (1,)
        assert result.radius == 1

    @given(tree_strategy())
    @settings(max_examples=60)
    def test_at_most_two_centers_and_adjacent(self, tree):
        result = center(tree)
        assert 1 <= len(result.centers) <= 2
        if len(result.centers) == 2:
            a, b = result.centers
            assert b in rotation_system(tree)[a]


class TestCanonicalPlane:
    def test_rerooting_invariance_small_exhaustive(self):
        for edges in range(0, 7):
            for tree in enumerate_rooted(edges):
                for mode in (ORIENTED, MIRROR):
                    reference = canonical_plane(tree, mode)
                    for rep in rooted_representatives(tree):
                        assert canonical_plane(rep, mode) == reference

    def test_side_leaf_mirror_pair_same_plane_tree(self):
        # spine with a side leaf, drawn both ways round
        a, b = decode("(())()"), decode("()(())")
        assert is_isomorphic(a, b, ORIENTED)
        assert is_isomorphic(a, b, MIRROR)

    def test_four_vertex_path_rerooted(self):
        assert is_isomorphic(decode("((()))"), decode("(())()"), ORIENTED)

    def test_four_vertex_star_rerooted(self):
        assert is_isomorphic(decode("(()())"), decode("()()()"), ORIENTED)

    def test_star_vs_path_distinct(self):
        assert not is_isomorphic(decode("()()()"), decode("((()))"), ORIENTED)
        assert not is_isomorphic(decode("()()()"), decode("((()))"), MIRROR)

    def test_reflexivity(self):
        tree = decode("(()())()")
        assert is_isomorphic(tree, tree, ORIENTED)

    def test_centrality_tags(self):
        assert canonical_plane(decode("(())")).centrality is Centrality.UNICENTRAL
        assert canonical_plane(decode("((()))")).centrality is Centrality.BICENTRAL
        assert canonical_plane(decode("")).centrality is Centrality.UNICENTRAL
        assert canonical_plane(decode("()")).centrality is Centrality.BICENTRAL

    def test_double_stars_not_merged(self):
        # adjacent hubs with 1+3 leaves vs 2+2 leaves; their half codes
        # concatenate identically, so naive pair codes would collide
        s13 = decode("()(()()())")
        s22 = decode("()()(()())")
        assert not is_isomorphic(s13, s22, ORIENTED)
        assert not is_isomorphic(s13, s22, MIRROR)

    def test_idempotence(self):
        for edges in range(0, 8):
            for tree in enumerate_rooted(edges):
                for mode in (ORIENTED, MIRROR):
                    form = canonical_plane(tree, mode)
                    assert canonical_plane(decode(form.canon), mode) == form

    @given(tree_strategy())
    @settings(max_examples=60)
    def test_mirror_closure(self, tree):
        assert canonical_plane(tree, MIRROR) == canonical_plane(reflect(tree), MIRROR)

    @given(tree_strategy())
    @settings(max_examples=60)
    def test_mirror_canon_is_least_oriented_canon_of_tree_and_reflection(self, tree):
        mirror = canonical_plane(tree, MIRROR)
        forms = [canonical_plane(tree, ORIENTED), canonical_plane(reflect(tree), ORIENTED)]
        assert mirror.canon == min(form.canon for form in forms)
        assert {form.centrality for form in forms} == {mirror.centrality}

    @given(tree_strategy())
    @settings(max_examples=60)
    def test_least_rotation_orders_branch_words_as_their_joins(self, tree):
        # branch words are a prefix code, so the least word list is the
        # least joined code over the root's rotations (and reflections)
        words = ["(" + encode(child) + ")" for child in tree.children]
        joins = ["".join(words[s:] + words[:s]) for s in range(max(len(words), 1))]
        assert _least_rotation(words, ORIENTED) == min(joins)
        reflections = [encode(reflect(decode(code))) for code in joins]
        assert _least_rotation(words, MIRROR) == min(joins + reflections)

    @given(tree_strategy())
    @settings(max_examples=60)
    def test_mode_refinement(self, tree):
        for rep in list(rooted_representatives(tree))[:6]:
            if is_isomorphic(tree, rep, ORIENTED):
                assert is_isomorphic(tree, rep, MIRROR)


def least_code_over_centers(tree, mode):
    # the definition: the least rotation of the branch words at each center
    adj = rotation_system(tree)
    return min(
        helpers._least_rotation(helpers._rooted_codes(adj, c), mode) for c in _strip_centers(adj)
    )


def centers_by_leaf_stripping(tree):
    # the definition: the vertices left by leaf stripping, and the radius
    # as the eccentricity of one of them, from a BFS
    adj = rotation_system(tree)
    centers = sorted(_strip_centers(adj))
    distance = {centers[0]: 0}
    order = [centers[0]]
    for v in order:
        for w in adj[v]:
            if w not in distance:
                distance[w] = distance[v] + 1
                order.append(w)
    return CenterResult(centers=tuple(centers), radius=max(distance.values()))


class TestCenterDefinition:
    # canonical_plane roots once, at the last center walked, and takes a
    # bicentral tree's least code from its two halves
    def test_every_tree_up_to_ten_edges(self):
        for edges in range(0, 11):
            for tree in enumerate_rooted(edges):
                for mode in (ORIENTED, MIRROR):
                    assert canonical_plane(tree, mode).canon == least_code_over_centers(tree, mode)

    @given(st.integers(min_value=1, max_value=60), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_random_trees(self, vertices, rng):
        tree = random_tree(rng, vertices)
        for mode in (ORIENTED, MIRROR):
            form = canonical_plane(tree, mode)
            assert form.canon == least_code_over_centers(tree, mode)
            bicentral = len(_strip_centers(rotation_system(tree))) == 2
            assert (form.centrality is Centrality.BICENTRAL) == bicentral

    def test_center_on_every_tree_up_to_nine_edges(self):
        for edges in range(0, 10):
            for tree in enumerate_rooted(edges):
                assert center(tree) == centers_by_leaf_stripping(tree)

    @given(st.integers(min_value=1, max_value=300), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_center_on_random_trees(self, vertices, rng):
        tree = random_tree(rng, vertices)
        assert center(tree) == centers_by_leaf_stripping(tree)


def preorder_of(adj):
    # vertex ids in the order a walk from vertex 0 meets them, each
    # vertex's neighbors after its parent taken in list order
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(adj[v][1:] if v else adj[v]))
    return order


class TestRotationSystem:
    # the full output: the code read back from vertex 0, each non-root
    # vertex's parent (its one smaller neighbor) first, and ids in preorder
    def check(self, tree):
        adj = rotation_system(tree)
        assert _contour_code(adj, 0) == encode(tree)
        for v in range(1, len(adj)):
            assert adj[v][0] < v and all(u > v for u in adj[v][1:])
        assert preorder_of(adj) == list(range(tree.vertex_count))

    def test_every_tree_up_to_eight_edges(self):
        for edges in range(0, 9):
            for tree in enumerate_rooted(edges):
                self.check(tree)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_trees(self, seed):
        rng = random.Random(seed)
        self.check(random_tree(rng, rng.randint(50, 400)))


def turned(adj, rng):
    # every cyclic order started at a random neighbour
    return [nbrs[k:] + nbrs[:k] for nbrs in adj for k in [rng.randrange(len(nbrs) or 1)]]


class TestAgainstReferences:
    # the contour walk and the least slice of the doubled join against the
    # BFS concatenation and the least word list they replaced
    def test_rooted_codes_at_every_root_up_to_eight_edges(self):
        for edges in range(0, 9):
            for tree in enumerate_rooted(edges):
                adj = rotation_system(tree)
                for root in range(len(adj)):
                    assert _contour_code(adj, root) == "".join(helpers._rooted_codes(adj, root))

    @given(st.integers(min_value=1, max_value=300), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_rooted_codes_on_random_trees(self, vertices, rng):
        adj = rotation_system(random_tree(rng, vertices))
        for root in range(vertices):
            assert _contour_code(adj, root) == "".join(helpers._rooted_codes(adj, root))

    # rotation_system puts each parent first; a caller's cyclic orders, the
    # root's too, may start anywhere, so the walk must wrap past a list's end
    def test_contour_code_from_any_first_neighbour_up_to_seven_edges(self):
        rng = random.Random(7)
        for edges in range(0, 8):
            for tree in enumerate_rooted(edges):
                adj = turned(rotation_system(tree), rng)
                for root in range(len(adj)):
                    assert _contour_code(adj, root) == "".join(helpers._rooted_codes(adj, root))

    @pytest.mark.parametrize("seed", range(10))
    def test_contour_code_from_any_first_neighbour_on_random_trees(self, seed):
        rng = random.Random(seed)
        adj = turned(rotation_system(random_tree(rng, rng.randint(50, 400))), rng)
        for root in range(len(adj)):
            assert _contour_code(adj, root) == "".join(helpers._rooted_codes(adj, root))

    def test_least_rotation_on_every_word_list_up_to_ten_edges(self):
        for edges in range(0, 11):
            for code in iter_dyck_codes(edges):
                words = _factors(code)
                for mode in (ORIENTED, MIRROR):
                    assert _least_rotation(words, mode) == helpers._least_rotation(words, mode)


def _half(rng, vertices, height, slot):
    # a random rooted tree's code made exactly this tall: its taller root
    # branches dropped, and a path of this height hung from its root,
    # first (slot 0), last (slot -1) or anywhere (slot None)
    words = [w for w in _factors(encode(random_tree(rng, vertices))) if _height_of(w) <= height]
    at = {0: 0, -1: len(words), None: rng.randint(0, len(words))}[slot]
    return "".join(words[:at] + ["(" * height + ")" * height] + words[at:])


class TestBicentralRule:
    # the opening-run rule against the least code over both ends
    @pytest.mark.parametrize("mode", [ORIENTED, MIRROR])
    def test_every_pair_of_halves_up_to_seven_edges(self, mode):
        by_height = collections.defaultdict(list)
        for edges in range(0, 8):
            for code in iter_dyck_codes(edges):
                by_height[_height_of(code)].append(code)
        for height, halves in by_height.items():
            for a in halves:
                for b in halves:
                    assert _least_bicentral(a, b, height, mode) == helpers._least_bicentral(a, b, mode)

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
        st.sampled_from(["run", "close", "fallback", "any"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200)
    def test_random_halves(self, height, m, n, case, rng):
        # "run" makes a open with `height` '(', "close" makes it end with
        # `height` ')', and "fallback" wraps both halves in leaves, so that
        # no rotation opens with `height` + 1 '(' at either end
        a = _half(rng, m, height, {"run": 0, "close": -1}.get(case))
        b = _half(rng, n, height, None)
        if case == "fallback":
            a, b = "()" + a + "()", "()" + b + "()"
        run, close = "(" * height, ")" * height
        assert {
            "run": a.startswith(run),
            "close": a.endswith(close),
            "fallback": not any(x.startswith(run) or x.endswith(close) for x in (a, b)),
            "any": True,
        }[case]
        for mode in (ORIENTED, MIRROR):
            for x, y in (a, b), (b, a):
                assert _least_bicentral(x, y, height, mode) == helpers._least_bicentral(x, y, mode)


# a 5,000-vertex path rooted at an end and a 5,000-leaf star rooted at its
# hub: the longest walk and the widest sibling scan
DEEP_AND_WIDE = [
    (
        "(" * 4999 + ")" * 4999,
        "B:" + "(" * 2500 + ")" * 2500 + "(" * 2499 + ")" * 2499,
        CenterResult(centers=(2499, 2500), radius=2500),
    ),
    ("()" * 5000, "U:" + "()" * 5000, CenterResult(centers=(0,), radius=1)),
]


@pytest.mark.parametrize("code, line, result", DEEP_AND_WIDE, ids=["path", "star"])
class TestDeepAndWide:
    # every walk over the code is iterative, so no RecursionError at any size
    @pytest.mark.parametrize("mode", [ORIENTED, MIRROR])
    def test_canonical_plane_and_parse(self, code, line, result, mode):
        form = canonical_plane(decode(code), mode)
        assert form.serialize() == line
        assert PlaneTree.parse(line, mode) == form

    def test_center(self, code, line, result):
        assert center(decode(code)) == result

    def test_against_references(self, code, line, result):
        adj = rotation_system(decode(code))
        for root in (0, len(adj) - 1):
            rooted = _contour_code(adj, root)
            assert rooted == "".join(helpers._rooted_codes(adj, root))
            words = _factors(rooted)
            for mode in (ORIENTED, MIRROR):
                assert _least_rotation(words, mode) == helpers._least_rotation(words, mode)

    @pytest.mark.parametrize("mode", [ORIENTED, MIRROR])
    def test_validate_flow_graph_with_rotations(self, code, line, result, mode):
        adj = rotation_system(decode(code))
        edges = [(v, w) for v, nbrs in enumerate(adj) for w in nbrs if v < w]
        flow = validate_flow_graph(len(adj), edges, rotations=adj, mode=mode)
        assert flow.separatrices.serialize() == line


class TestChirality:
    def test_no_chiral_tree_below_seven_vertices(self):
        for edges in range(0, 6):
            for tree in enumerate_rooted(edges):
                assert is_isomorphic(tree, reflect(tree), ORIENTED)

    def test_seven_vertex_chiral_pair(self):
        tree = decode(CHIRAL_CODE)
        mirrored = reflect(tree)
        assert not is_isomorphic(tree, mirrored, ORIENTED)
        assert is_isomorphic(tree, mirrored, MIRROR)

    def test_mirror_classes_are_unions_of_oriented_classes(self):
        tree = decode(CHIRAL_CODE)
        assert canonical_plane(tree, MIRROR) == canonical_plane(reflect(tree), MIRROR)


class TestRerootingOracle:
    def test_single_vertex(self):
        assert rerooting_oracle_canon(decode("")) == ""

    def test_path_rerooting_same_class(self):
        end = decode("(())")
        middle = decode("()()")
        assert rerooting_oracle_canon(end) == rerooting_oracle_canon(middle)

    def test_size_cap(self):
        with pytest.raises(LimitExceeded):
            rerooting_oracle_canon(decode("()" * 13))

    def test_partition_agreement_exhaustive(self):
        # canon strings differ between the two routes; the induced classes
        # must not, over every rooted tree with up to 9 edges
        for edges in range(0, 10):
            for mode in (ORIENTED, MIRROR):
                fast_to_slow = {}
                slow_to_fast = {}
                for tree in enumerate_rooted(edges):
                    fast = canonical_plane(tree, mode).serialize()
                    slow = rerooting_oracle_canon(tree, mode)
                    assert fast_to_slow.setdefault(fast, slow) == slow
                    assert slow_to_fast.setdefault(slow, fast) == fast

    def test_mirror_form_is_least_over_tree_and_reflection(self):
        # the two facts verify composes its mirror forms from, over every
        # rooted tree with up to 9 edges: reflection is an involution of
        # each size's rooted codes, and a tree's mirror form is the least
        # of its own oriented form and its reflection's
        for edges in range(0, 10):
            trees = list(enumerate_rooted(edges))
            assert {encode(reflect(tree)) for tree in trees} == set(map(encode, trees))
            for tree in trees:
                image = reflect(tree)
                assert reflect(image) == tree
                least = min(rerooting_oracle_canon(tree), rerooting_oracle_canon(image))
                assert rerooting_oracle_canon(tree, MIRROR) == least

    def test_induces_paper_sized_partition_on_four_edges(self):
        # all 14 rooted trees with 4 edges fall into 3 plane classes
        keys = {rerooting_oracle_canon(t) for t in enumerate_rooted(4)}
        assert len(keys) == 3


class TestCenterSplit:
    # one mode-free split gives both modes' canonical forms, whichever mode
    # takes its least code first
    @staticmethod
    def check(tree):
        for modes in (ORIENTED, MIRROR), (MIRROR, ORIENTED):
            kind, least = _center_split(encode(tree))
            for mode in modes:
                assert f"{kind.value}:{least(mode)}" == canonical_plane(tree, mode).serialize()

    def test_every_tree_up_to_nine_edges(self):
        for edges in range(0, 10):
            for tree in enumerate_rooted(edges):
                self.check(tree)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_trees(self, seed):
        rng = random.Random(seed)
        self.check(random_tree(rng, rng.randint(50, 400)))

    @pytest.mark.parametrize("code", ["()" * 2000, "(" * 2000 + ")" * 2000], ids=["star", "path"])
    def test_star_and_path(self, code):
        self.check(decode(code))

    def test_unicentral_words_factor_back_from_their_join(self):
        # the split's branch words are the primitive factors of their join
        unicentral = 0
        for edges in range(0, 12):
            for code in iter_dyck_codes(edges):
                kind, least = _center_split(code)
                if kind is Centrality.UNICENTRAL:
                    (words,) = least.args
                    assert _factors("".join(words)) == list(words)
                    unicentral += 1
        assert unicentral == 41563


class TestCornerWalk:
    def test_corners_are_every_vertex_and_rotation(self):
        # the contour walk against its definition: each vertex as the
        # root, each rotation of its branch words as the child order
        for edges in range(0, 9):
            for tree in enumerate_rooted(edges):
                adj = rotation_system(tree)
                expected = []
                for v in range(len(adj)):
                    words = _factors(_contour_code(adj, v))
                    expected += ["".join(words[s:] + words[:s]) for s in range(len(words) or 1)]
                codes = [encode(rep) for rep in rooted_representatives(tree)]
                assert len(codes) == max(2 * edges, 1)
                assert sorted(codes) == sorted(expected)

    @pytest.mark.parametrize("mode", [ORIENTED, MIRROR])
    def test_class_orbits_tile_the_rooted_codes(self, mode):
        # every rooted code is a corner of exactly one catalog class
        for vertices in range(1, 11):
            seen: set[str] = set()
            for form in enumerate_plane_center(vertices, mode):
                tree = decode(form.canon)
                images = [tree, reflect(tree)] if mode is MIRROR else [tree]
                orbit = {code for t in images for code in _corner_codes(encode(t))}
                assert seen.isdisjoint(orbit)
                seen |= orbit
            assert seen == set(iter_dyck_codes(vertices - 1))


class TestSerialization:
    def test_round_trip(self):
        for code in ("(())", "((()))", "()(())(()())"):
            form = canonical_plane(decode(code), ORIENTED)
            assert PlaneTree.parse(form.serialize(), ORIENTED) == form

    def test_prefix_encodes_centrality(self):
        assert canonical_plane(decode("(())")).serialize().startswith("U:")
        assert canonical_plane(decode("((()))")).serialize().startswith("B:")

    @pytest.mark.parametrize("line", ["X:()", "()", "U:(()", "U:xx"])
    def test_malformed_lines(self, line):
        with pytest.raises(MalformedCode):
            PlaneTree.parse(line, ORIENTED)

    def test_centrality_tag_must_match_code(self):
        with pytest.raises(MalformedCode):
            PlaneTree.parse("B:()()", ORIENTED)  # that code is unicentral
        with pytest.raises(MalformedCode):
            PlaneTree.parse("U:()", ORIENTED)  # a single edge is bicentral

    def test_rejects_non_canonical_code(self):
        # a valid, correctly tagged code of the same tree, but not its least one
        assert canonical_plane(decode("()()()()(())")).serialize() == "B:(()()()())()"
        with pytest.raises(MalformedCode):
            PlaneTree.parse("B:()()()()(())", ORIENTED)

    def test_accepts_exactly_the_canonical_codes(self):
        for edges in range(0, 7):
            for tree in enumerate_rooted(edges):
                code = encode(tree)
                for mode in (ORIENTED, MIRROR):
                    form = canonical_plane(tree, mode)
                    line = f"{form.centrality.value}:{code}"
                    if code == form.canon:
                        assert PlaneTree.parse(line, mode) == form
                    else:
                        with pytest.raises(MalformedCode):
                            PlaneTree.parse(line, mode)

    @given(st.sampled_from(CATALOG_LINES))
    @settings(max_examples=60)
    def test_catalog_lines_round_trip(self, item):
        line, mode = item
        assert PlaneTree.parse(line, mode).serialize() == line

    @given(st.sampled_from(CATALOG_LINES))
    @settings(max_examples=60)
    def test_parsed_lines_are_canonical(self, item):
        line, mode = item
        parsed = PlaneTree.parse(line, mode)
        assert canonical_plane(decode(parsed.canon), mode) == parsed

    def test_equality_includes_mode(self):
        tree = decode("(())")
        assert canonical_plane(tree, ORIENTED) != canonical_plane(tree, MIRROR)


# one call per public function that takes a mode, both catalog-writer
# paths and the small sizes that skip the gluing walk included
MODE_CALLS = {
    "canonical_plane": lambda mode: canonical_plane(decode(CHIRAL_CODE), mode),
    "is_isomorphic": lambda mode: is_isomorphic(decode(CHIRAL_CODE), reflect(decode(CHIRAL_CODE)), mode),
    "rerooting_oracle_canon": lambda mode: rerooting_oracle_canon(decode(CHIRAL_CODE), mode),
    "PlaneTree.parse": lambda mode: PlaneTree.parse("U:()()", mode),
    "enumerate_plane_center": lambda mode: enumerate_plane_center(7, mode),
    "enumerate_plane_center-1": lambda mode: enumerate_plane_center(1, mode),
    "enumerate_plane_oracle": lambda mode: enumerate_plane_oracle(7, mode),
    "count_plane": lambda mode: count_plane(7, mode),
    "count_plane-2": lambda mode: count_plane(2, mode),
    "count_flows": lambda mode: count_flows(6, mode),
    "enumerate_flows": lambda mode: enumerate_flows(6, mode),
    "validate_flow_graph": lambda mode: validate_flow_graph(3, [(0, 1), (1, 2)], None, mode),
    "catalog_text": lambda mode: catalog_text(3, mode, []),
    # classes of the member mode under test, so a string mode reaches the writer
    "catalog_json": lambda mode: catalog_json(
        3, mode, enumerate_plane_center(3, mode if isinstance(mode, EquivalenceMode) else ORIENTED)
    ),
}


class TestModeArgument:
    # a mode given as its string value is refused, not read as ORIENTED
    @pytest.mark.parametrize("name", MODE_CALLS)
    @pytest.mark.parametrize("mode", ["mirror", "oriented", None])
    def test_rejects_a_mode_that_is_no_member(self, name, mode):
        with pytest.raises(ValueError, match="EquivalenceMode"):
            MODE_CALLS[name](mode)
        for member in EquivalenceMode:
            MODE_CALLS[name](member)
