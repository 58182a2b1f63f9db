import itertools
import random
from collections import Counter

import pytest

from inputs import MAX_VERTICES, MIN_VERTICES, library_inputs, random_dyck, relabel, rotation_system
from plane_forest import EquivalenceMode, canonical_plane, decode, validate_flow_graph
from plane_forest import rotation_system as package_rotation_system


def is_dyck(code: str) -> bool:
    level = 0
    for ch in code:
        level += 1 if ch == "(" else -1
        if level < 0:
            return False
    return level == 0 and set(code) <= {"(", ")"}


@pytest.mark.parametrize("edges", [0, 1, 2, 5, 49, 399])
def test_random_dyck_gives_dyck_words(edges):
    rng = random.Random(edges)
    for _ in range(50):
        code = random_dyck(edges, rng)
        assert len(code) == 2 * edges
        assert is_dyck(code)


def test_random_dyck_is_uniform_on_small_sizes():
    # Catalan(3) = 5 words, each drawn about 1/5 of the time
    rng = random.Random(0)
    counts = Counter(random_dyck(3, rng) for _ in range(5000))
    assert len(counts) == 5
    assert all(800 < n < 1200 for n in counts.values())


def test_library_inputs_are_deterministic_per_seed():
    assert list(library_inputs(7, 40)) == list(library_inputs(7, 40))
    assert list(library_inputs(7, 40)) != list(library_inputs(8, 40))


def test_library_inputs_cover_the_size_range():
    trees = list(library_inputs(1, 400))
    sizes = [t["vertices"] for t in trees]
    assert all(MIN_VERTICES <= n <= MAX_VERTICES for n in sizes)
    assert min(sizes) == MIN_VERTICES and max(sizes) == MAX_VERTICES
    assert Counter(t["mode"] for t in trees) == {"oriented": 200, "mirror": 200}
    for t in trees:
        assert is_dyck(t["code"]) and len(t["code"]) == 2 * (t["vertices"] - 1)
        assert len(t["edges"]) == t["vertices"] - 1


def test_every_seed_asks_for_the_same_sizes():
    # only the shapes and the order depend on the seed
    one, two = list(library_inputs(1, 100)), list(library_inputs(2, 100))
    assert sorted(t["vertices"] for t in one) == sorted(t["vertices"] for t in two)
    assert [t["code"] for t in one] != [t["code"] for t in two]
    sizes = sorted(t["vertices"] for t in one)
    assert {b - a for a, b in itertools.pairwise(sizes)} <= {3, 4}


def test_rotation_system_matches_the_package():
    rng = random.Random(3)
    for edges in (0, 1, 4, 30):
        code = random_dyck(edges, rng)
        assert rotation_system(code) == package_rotation_system(decode(code))


@pytest.mark.parametrize("mode", list(EquivalenceMode))
def test_relabel_preserves_the_plane_class(mode):
    rng = random.Random(11)
    for vertices in (1, 2, 3, 7, 12, 60):
        for _ in range(5):
            code = random_dyck(vertices - 1, rng)
            edges, rotations = relabel(rotation_system(code), rng)
            flow = validate_flow_graph(vertices, edges, rotations, mode)
            assert flow.separatrices == canonical_plane(decode(code), mode)


def test_library_inputs_canonicalise_to_their_code():
    for t in library_inputs(5, 20):
        mode = EquivalenceMode(t["mode"])
        flow = validate_flow_graph(t["vertices"], t["edges"], t["rotations"], mode)
        assert flow.separatrices == canonical_plane(decode(t["code"]), mode)
