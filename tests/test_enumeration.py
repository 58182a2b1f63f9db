import collections
import functools
import hashlib

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
    count_plane,
    count_rooted,
    decode,
    encode,
    enumerate_plane_center,
    enumerate_plane_oracle,
    enumerate_rooted,
    reconcile_counts,
)

ORIENTED = EquivalenceMode.ORIENTED
MIRROR = EquivalenceMode.MIRROR

# computed with the brute-force re-rooting oracle and frozen
ORIENTED_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 14, 8: 34, 9: 95, 10: 280}
MIRROR_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 12, 8: 27, 9: 65, 10: 175}

# above the oracle cap: computed by the object-based gluing route (which
# built every branch as a RootedPlaneTree) and frozen; the SHA-256 is that
# of catalog_text(v, mode, enumerate_plane_center(v, mode, limit=v)). The
# v=13 digests come from the gluing route that still leaf-stripped and
# re-minimised every glued code, the v=14 ones from the route whose branch
# pool held every rooted tree of each size, whatever its height.
GLUED_COUNTS = {
    ORIENTED: {11: 854, 12: 2694, 13: 8714, 14: 28640},
    MIRROR: {11: 490, 12: 1473, 13: 4588, 14: 14782},
}
GLUED_DIGESTS = {
    (11, ORIENTED): "3c05d77b7c6bb6d1041175b01f0fcc123290b3f05d84390adab2e230dc64a51e",
    (11, MIRROR): "91432425e8757be5da289668f93968db73c1c3db44bf27b8d8225903e35eb0d0",
    (12, ORIENTED): "f7c65fbdc68db961b9d7d4e6e340e4fcb182c3a8aced3fe58835b6fb87376200",
    (12, MIRROR): "44198e220aaf99edc8d5689840707316483a4532563fe59f884545d1ca87d9fb",
    (13, ORIENTED): "df97591bcbf582300ca787ea370a2a03d724a52ec488c8cf4ed519dc7261fdbc",
    (13, MIRROR): "871f2b02b22ebbb5b159ae4e0ec9a1fa3908927e657dbb1922c595612bd9b0fc",
    (14, ORIENTED): "a1d04d4cb400cdd204cf4d718ddb41331fbeec6893251a15f06c5fff65981d57",
    (14, MIRROR): "e13604faca84fabef94c2507106a6818c7370719eee8c50d4c8b93624e107215",
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


class TestOracleRoute:
    def test_single_vertex(self):
        assert len(enumerate_plane_oracle(1, ORIENTED)) == 1

    def test_five_vertices(self):
        assert len(enumerate_plane_oracle(5, ORIENTED)) == 3

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

    @pytest.mark.parametrize("vertices,mode", sorted(GLUED_DIGESTS, key=str))
    def test_catalog_digests(self, vertices, mode):
        text = catalog_text(vertices, mode, _glued(vertices, mode))
        assert hashlib.sha256(text.encode()).hexdigest() == GLUED_DIGESTS[vertices, mode]


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
