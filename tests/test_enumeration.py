import collections
import functools
import hashlib
import json

import pytest

from plane_forest import (
    CenterGluingSpec,
    Centrality,
    EquivalenceMode,
    LimitExceeded,
    assemble,
    canonical_plane,
    catalog_json,
    catalog_text,
    center,
    count_flows,
    count_plane,
    count_rooted,
    decode,
    encode,
    enumerate_plane_center,
    enumerate_plane_oracle,
    enumerate_rooted,
    iter_dyck_codes,
    reconcile_counts,
)
from plane_forest import canonical, enumeration
from plane_forest.trees import _factors, _height_of

import helpers
from helpers import _necklaces as reference_necklaces

ORIENTED = EquivalenceMode.ORIENTED
MIRROR = EquivalenceMode.MIRROR

# computed with the brute-force re-rooting oracle and frozen
ORIENTED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 14, 8: 34, 9: 95, 10: 280}
MIRROR_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 12, 8: 27, 9: 65, 10: 175}

# above the oracle cap: computed by the object-based gluing route (which
# built every branch as a RootedPlaneTree) and frozen. The SHA-256 of each
# size's catalog is the gate's: catalog_text(v, mode, enumerate_plane_center(
# v, mode, limit=v)) must equal the CLI's `--format catalog` row. The v=13
# digests come from the gluing route that still leaf-stripped and
# re-minimised every glued code, the v=14 ones from the route whose branch
# pool held every rooted tree of each size, whatever its height.
GLUED_COUNTS = {
    ORIENTED: {11: 854, 12: 2694, 13: 8714, 14: 28640},
    MIRROR: {11: 490, 12: 1473, 13: 4588, 14: 14782},
}


class TestCountPlane:
    @pytest.mark.parametrize("vertices,expected", [(3, 1), (4, 2), (6, 6), (7, 14)])
    def test_hand_tally_range_oriented(self, vertices, expected):
        assert count_plane(vertices, ORIENTED) == expected

    def test_frozen_oriented_counts(self):
        for v, expected in ORIENTED_COUNTS.items():
            if v <= 9:
                assert count_plane(v, ORIENTED) == expected

    def test_frozen_mirror_counts(self):
        for v, expected in MIRROR_COUNTS.items():
            if v <= 9:
                assert count_plane(v, MIRROR) == expected

    def test_monotone_refinement(self):
        for v in range(1, 10):
            assert count_plane(v, MIRROR) <= count_plane(v, ORIENTED)

    def test_invalid_vertices(self):
        with pytest.raises(ValueError):
            count_plane(0)

    def test_cap(self):
        with pytest.raises(LimitExceeded):
            count_plane(13)
        with pytest.raises(LimitExceeded):
            count_plane(5, limit=4)
        with pytest.raises(LimitExceeded, match="7154 vertices exceeds the count cap of 7153"):
            count_plane(7154, limit=7154)

    @pytest.mark.parametrize("mode", [ORIENTED, MIRROR])
    def test_counts_the_catalog(self, mode):
        # the closed form against the glued catalog, a route it shares no code with
        for v in range(1, 15):
            assert count_plane(v, mode, limit=v) == len(_glued(v, mode))

    def test_lists_nothing(self, monkeypatch):
        # the count, the flows count and the audit reach no gluing walk
        def never(*args):
            raise AssertionError("a count listed classes")

        for name in ("_necklaces", "_pool", "_center_codes"):
            monkeypatch.setattr(enumeration, name, never)
        for mode, frozen in (ORIENTED, ORIENTED_COUNTS), (MIRROR, MIRROR_COUNTS):
            counts = {**frozen, **GLUED_COUNTS[mode]}
            assert {v: count_plane(v, mode, limit=v) for v in range(1, 15)} == counts
            assert count_flows(13, mode, limit=14) == counts[14]
        assert [(row.kind, row.parameter) for row in reconcile_counts().mismatches] == [
            ("rooted", 5), ("plane", 8), ("flows", 7)]

    def test_forty_vertices(self):
        # OEIS A002995 and A006082 at 39 edges, far past any listing
        assert count_plane(40, ORIENTED, limit=40) == 8723402202550254696
        assert count_plane(40, MIRROR, limit=40) == 4361701118947759248


class TestNecklaceWalk:
    @pytest.mark.parametrize("mode", [ORIENTED, MIRROR])
    @pytest.mark.parametrize("budget", range(1, 13))
    def test_matches_the_reference_walk(self, budget, mode):
        # the divisor test, the bracelet test, FKM's >= filter and the size
        # prunes keep exactly the lists of the least-rotation rule, in its order
        for most in sorted({2, budget}):
            walked = list(enumeration._necklaces(budget, most, mode))
            assert [words for _, words in walked] == list(reference_necklaces(budget, most, mode))
            assert all(_height_of("".join(words)) == h + 1 for h, words in walked)

    def test_pool_is_the_branch_words_of_one_height(self):
        # one group per exact height, in word order; a size's groups hold
        # every rooted tree of that size once
        for v in range(1, 12):
            for h in range(v):
                words = tuple(f"({c})" for c in iter_dyck_codes(v - 1) if decode(c).height == h)
                assert enumeration._pool(v, h) == words
            assert sum(len(enumeration._pool(v, h)) for h in range(v)) == count_rooted(v - 1)

    @pytest.mark.parametrize("mode", [ORIENTED, MIRROR])
    def test_covers_the_smallest_sizes(self, mode):
        # the single vertex is the empty list, and the single edge the pair
        # of one-vertex halves; a one-vertex budget holds no list
        assert list(enumeration._necklaces(0, 0, mode)) == [(0, [])]
        assert list(enumeration._necklaces(1, 1, mode)) == list(enumeration._necklaces(1, 2, mode)) == []
        assert list(enumeration._necklaces(2, 2, mode)) == [(0, ["()", "()"])]

    def test_bracelet_is_the_least_rotation_rule(self):
        # on every necklace, the mirror image's rotations alone decide
        for budget in range(1, 13):
            for most in sorted({2, budget}):
                for _, words in enumeration._necklaces(budget, most, ORIENTED):
                    expected = helpers._least_rotation(words, MIRROR) == "".join(words)
                    assert enumeration._bracelet(words) == expected


class TestOracleRoute:
    def test_single_vertex(self):
        assert len(enumerate_plane_oracle(1, ORIENTED)) == 1

    def test_five_vertices(self):
        assert len(enumerate_plane_oracle(5, ORIENTED)) == 3

    def test_rooted_env_cap_does_not_apply(self, monkeypatch):
        # the oracle keeps to its own vertex cap, not the rooted enumeration cap
        monkeypatch.setenv("PLANE_FOREST_MAX_EDGES", "2")
        assert len(enumerate_plane_oracle(5)) == 3

    def test_cap(self):
        with pytest.raises(LimitExceeded):
            enumerate_plane_oracle(11)
        with pytest.raises(LimitExceeded):
            enumerate_plane_oracle(5, limit=4)

    def test_method_equivalence(self):
        for vertices in range(1, 9):
            for mode in (ORIENTED, MIRROR):
                glued = [p.serialize() for p in enumerate_plane_center(vertices, mode)]
                brute = [p.serialize() for p in enumerate_plane_oracle(vertices, mode)]
                assert glued == brute

    @pytest.mark.parametrize("mode", [ORIENTED, MIRROR])
    def test_one_object_per_class(self, monkeypatch, mode):
        # the serialized forms are deduplicated before any class is built
        built, real = [], canonical._plane_tree

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr("plane_forest.canonical._plane_tree", counted)
        monkeypatch.setattr("plane_forest.enumeration._plane_tree", counted)
        classes = enumerate_plane_oracle(9, mode)
        assert len(built) == len(classes) == count_plane(9, mode) < count_rooted(8)


class TestCenterRoute:
    def test_no_duplicates(self):
        for vertices in range(1, 9):
            forms = [p.serialize() for p in enumerate_plane_center(vertices, ORIENTED)]
            assert len(set(forms)) == len(forms)

    def test_sorted_output(self):
        for vertices in (6, 7, 8):
            forms = [p.serialize() for p in enumerate_plane_center(vertices, MIRROR)]
            assert forms == sorted(forms)

    def test_center_soundness_on_output(self):
        # gluing emits canonical codes without rescanning them, so every
        # class must root at its own center and canonicalize to itself
        for mode in (ORIENTED, MIRROR):
            for vertices in range(3, 13):
                for form in _glued(vertices, mode):
                    tree = decode(form.canon)
                    centers = center(tree).centers
                    assert 0 in centers
                    expected = 1 if form.centrality is Centrality.UNICENTRAL else 2
                    assert len(centers) == expected
                    assert canonical_plane(tree, mode) == form
                # a bicentral tree is a two-branch unicentral tree one vertex
                # larger whose center subdivides the central edge
                subdivided = set()
                for form in _glued(vertices + 1, mode):
                    factors = _factors(form.canon)
                    if form.centrality is Centrality.UNICENTRAL and len(factors) == 2:
                        a, b = factors
                        subdivided.add(canonical_plane(decode(a[1:-1] + b), mode))
                glued = _glued(vertices, mode)
                assert {f for f in glued if f.centrality is Centrality.BICENTRAL} == subdivided

    def test_sum_check_recovers_catalan(self):
        # grouping the full rooted enumeration by plane class loses nothing
        for vertices in range(2, 8):
            sizes = collections.Counter()
            for tree in enumerate_rooted(vertices - 1):
                sizes[canonical_plane(tree, ORIENTED)] += 1
            assert sum(sizes.values()) == count_rooted(vertices - 1)
            assert len(sizes) == count_plane(vertices, ORIENTED)

    def test_five_vertex_class_sizes(self):
        # the 14 rooted trees with 4 edges split 2 + 4 + 8 over 3 classes
        sizes = collections.Counter()
        for tree in enumerate_rooted(4):
            sizes[canonical_plane(tree, ORIENTED)] += 1
        assert sorted(sizes.values()) == [2, 4, 8]


@functools.lru_cache(maxsize=None)
def _glued(vertices, mode):
    return enumerate_plane_center(vertices, mode, limit=vertices)


class TestFrozenCatalogs:
    @pytest.mark.parametrize("vertices", sorted(GLUED_COUNTS[ORIENTED]))
    @pytest.mark.parametrize("mode", [ORIENTED, MIRROR])
    def test_counts_above_oracle_cap(self, vertices, mode):
        assert len(_glued(vertices, mode)) == GLUED_COUNTS[mode][vertices]

    @pytest.mark.parametrize("vertices,mode", [(v, mode) for mode in GLUED_COUNTS for v in GLUED_COUNTS[mode]])
    def test_catalog_digests(self, vertices, mode):
        # the library route, which no gate row runs, writes the CLI's bytes
        text = catalog_text(vertices, mode, _glued(vertices, mode))
        argv = ["enumerate", "--vertices", str(vertices), "--max-vertices", "14", "--format", "catalog"]
        argv += ["--mode", "mirror"] if mode is MIRROR else []
        (row,) = [row for row in helpers.GATE if row["argv"] == argv]
        assert hashlib.sha256(text.encode()).hexdigest() == row["stdout"]


class TestGluingSpec:
    def test_assemble_unicentral(self):
        spec = CenterGluingSpec(
            Centrality.UNICENTRAL,
            (decode("()"), decode("()")),
            target_vertices=5,
        )
        assert canonical_plane(assemble(spec)) == canonical_plane(decode("(())(())"))

    def test_assemble_bicentral(self):
        spec = CenterGluingSpec(
            Centrality.BICENTRAL, (decode("()"), decode("()")), target_vertices=4
        )
        tree = assemble(spec)
        assert encode(tree) == "()(())"
        assert tree.vertex_count == 4
        assert center(tree).centers == (0, 2)

    def test_rejects_single_branch(self):
        with pytest.raises(ValueError):
            CenterGluingSpec(Centrality.UNICENTRAL, (decode("()"),), 3)

    def test_rejects_lopsided_heights(self):
        # only one branch of maximal height; the glued vertex is no center
        with pytest.raises(ValueError):
            CenterGluingSpec(Centrality.UNICENTRAL, (decode("(())"), decode("")), 5)
        with pytest.raises(ValueError):
            CenterGluingSpec(Centrality.BICENTRAL, (decode("(())"), decode("()")), 5)

    def test_rejects_wrong_totals(self):
        with pytest.raises(ValueError):
            CenterGluingSpec(Centrality.UNICENTRAL, (decode(""), decode("")), 17)


class TestReconcile:
    def test_rooted_rows(self):
        report = reconcile_counts()
        by_key = {(r.kind, r.parameter): r for r in report.rows}
        assert by_key[("rooted", 4)].matches
        row5 = by_key[("rooted", 5)]
        assert row5.claimed == 51
        assert row5.computed_oriented == 42
        assert not row5.matches

    def test_plane_rows(self):
        report = reconcile_counts()
        by_key = {(r.kind, r.parameter): r for r in report.rows}
        assert by_key[("plane", 7)].matches  # 14, in oriented mode
        row8 = by_key[("plane", 8)]
        assert (row8.claimed, row8.computed_oriented, row8.computed_mirror) == (26, 34, 27)
        assert not row8.matches

    def test_flow_rows_track_plane_rows(self):
        report = reconcile_counts()
        by_key = {(r.kind, r.parameter): r for r in report.rows}
        for saddles in range(1, 8):
            flow_row = by_key[("flows", saddles)]
            plane_row = by_key[("plane", saddles + 1)]
            assert flow_row.computed_oriented == plane_row.computed_oriented
            assert flow_row.computed_mirror == plane_row.computed_mirror

    def test_mismatches_are_the_three_documented_rows(self):
        rows = reconcile_counts().mismatches
        assert [(row.kind, row.parameter) for row in rows] == [("rooted", 5), ("plane", 8), ("flows", 7)]

    def test_text_table_flags(self):
        text = reconcile_counts().to_text()
        assert "MISMATCH" in text
        assert "match" in text
        assert "51" in text and "42" in text


class TestCatalogFormats:
    def test_text_header(self):
        classes = enumerate_plane_center(6, ORIENTED)
        text = catalog_text(6, ORIENTED, classes)
        lines = text.splitlines()
        assert lines[0] == "# plane-trees v=6 mode=oriented count=6"
        assert len(lines) == 7
        assert lines[1:] == sorted(lines[1:])

    def test_json_fields(self):
        import json

        classes = enumerate_plane_center(7, MIRROR)
        doc = json.loads(catalog_json(7, MIRROR, classes))
        assert doc["vertices"] == 7
        assert doc["mode"] == "mirror"
        assert doc["count"] == 12
        assert len(doc["codes"]) == 12

    @pytest.mark.parametrize("writer", [catalog_text, catalog_json])
    def test_writers_refuse_classes_of_another_mode_or_size(self, writer):
        # the header names one mode and size; 2 of the 14 oriented 7-vertex
        # classes are no canonical mirror code, and 7-vertex lines under v=5
        # would misname every class
        oriented, mirror = enumerate_plane_center(7, ORIENTED), enumerate_plane_center(7, MIRROR)
        for vertices, mode, classes in (7, MIRROR, oriented), (7, ORIENTED, mirror), (5, ORIENTED, oriented):
            with pytest.raises(ValueError, match=f"mode={mode.value} v={vertices}"):
                writer(vertices, mode, classes)
        mixed = enumerate_plane_center(5, ORIENTED) + oriented
        with pytest.raises(ValueError, match="v=5"):
            writer(5, ORIENTED, mixed)

    @pytest.mark.parametrize("mode", [ORIENTED, MIRROR])
    @pytest.mark.parametrize("vertices", [1, 5, 11, 12])
    def test_formats_against_their_definitions(self, vertices, mode):
        # the formats are written a chunk of classes at a time; 12 vertices
        # fill more than one chunk, and an empty list still has a header
        for classes in (_glued(vertices, mode), []):
            codes = [p.serialize() for p in classes]
            doc = {"vertices": vertices, "mode": mode.value, "count": len(codes), "codes": codes}
            assert catalog_json(vertices, mode, classes) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
            header = f"# plane-trees v={vertices} mode={mode.value} count={len(codes)}"
            assert catalog_text(vertices, mode, classes) == "\n".join([header, *codes]) + "\n"
