"""Exhaustive plane-tree enumeration by gluing branches onto a center.

Every tree of the plane with n >= 3 vertices is either unicentral (one
center vertex whose branches are rooted plane trees, at least two of them
of maximal height) or bicentral (a central edge joining two rooted halves
of equal height). Generating exactly one branch arrangement per rotation
class (and, in MIRROR mode, per reflection class) and one half pair per
swap class therefore yields every isomorphism class exactly once.

The gluing works on parenthesis codes throughout. The branch pool holds
each rooted plane tree `b` that fits below a center, as its branch word
`(b)` and its height, under a height cap worked out from the vertex count:
a unicentral branch needs a sibling as tall, and bicentral halves pair
only at equal heights, no taller than the smaller half. Branch words are
primitive Dyck words, a prefix code, so word lists order as their joins
do: a branch tuple is kept exactly when its join is its least rotation
(and mirror image, in MIRROR mode), and that join is its class's canonical
code. Halves `a`, `b` joined by an edge give `a(b)`, canonical as the
least rotation at either endpoint. No glued code is scanned back into a tree.

A second, slower route (`enumerate_plane_oracle`) canonicalizes every
rooted tree of the right size and dedups. The two routes must agree
byte-for-byte, which is the strongest consistency check in the package.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .canonical import Centrality, PlaneTree, _least_rotation, _plane_tree_of
from .errors import LimitExceeded
from .trees import (
    EquivalenceMode,
    RootedPlaneTree,
    _MIRROR,
    _dyck_codes,
    _factors,
    _height_of,
    _rotation_system_of,
    _tree_of,
    count_rooted,
    encode,
    iter_dyck_codes,
)

#: Center-method ceiling; raise explicitly for bigger runs.
DEFAULT_MAX_VERTICES = 12

#: The brute-force route touches Catalan(v-1) trees; keep it at desk scale.
ORACLE_MAX_VERTICES = 10


@dataclass(frozen=True)
class CenterGluingSpec:
    """A recipe for one glued tree: branches around a center vertex
    (UNICENTRAL, k >= 2 parts) or two halves joined by an edge (BICENTRAL).

    Construction is validated: the part heights must actually make the
    glued vertex (or edge) the center of the assembled tree.
    """

    kind: Centrality
    parts: tuple[RootedPlaneTree, ...]
    target_vertices: int

    def __post_init__(self) -> None:
        heights = [p.height for p in self.parts]
        if self.kind is Centrality.UNICENTRAL:
            if len(self.parts) < 2:
                raise ValueError("a unicentral gluing needs at least two branches")
            if sum(p.vertex_count for p in self.parts) != self.target_vertices - 1:
                raise ValueError("branch vertex counts must sum to target_vertices - 1")
            if heights.count(max(heights)) < 2:
                raise ValueError("at least two branches must attain the maximum height")
        else:
            if len(self.parts) != 2:
                raise ValueError("a bicentral gluing needs exactly two halves")
            if sum(p.vertex_count for p in self.parts) != self.target_vertices:
                raise ValueError("half vertex counts must sum to target_vertices")
            if heights[0] != heights[1]:
                raise ValueError("the two halves must have equal height")


def assemble(spec: CenterGluingSpec) -> RootedPlaneTree:
    """Build the glued tree, rooted at the center (or at the first half's
    endpoint of the central edge)."""
    if spec.kind is Centrality.UNICENTRAL:
        return RootedPlaneTree(spec.parts)
    first, second = spec.parts
    return _tree_of(encode(first) + "(" + encode(second) + ")")


class _PoolEntry(NamedTuple):
    word: str  # a rooted plane tree's code wrapped as a branch, "(b)"
    height: int  # the height of the tree b


@lru_cache(maxsize=None)
def _pool(vertices: int, max_height: int) -> tuple[_PoolEntry, ...]:
    # branch words of the trees of this size and height <= max_height, in code order
    return tuple(
        _PoolEntry("(" + code + ")", _height_of(code))
        for code in _dyck_codes(vertices - 1, max_height)
    )


def _compositions(total: int, k: int) -> Iterator[tuple[int, ...]]:
    # ordered tuples of k positive integers summing to total
    for cuts in itertools.combinations(range(1, total), k - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


def _unicentral_codes(vertices: int, mode: EquivalenceMode) -> Iterator[str]:
    # canonical codes: branch words in the order whose join is least; a
    # branch of s vertices has a sibling as tall, so height <= budget - 1 - s
    budget = vertices - 1
    for k in range(2, budget + 1):
        for sizes in _compositions(budget, k):
            for combo in itertools.product(*(_pool(s, budget - 1 - s) for s in sizes)):
                heights = [e.height for e in combo]
                if heights.count(max(heights)) < 2:
                    continue
                words = [e.word for e in combo]
                code = "".join(words)
                if _least_rotation(words, mode) == code:
                    yield code


def _bicentral_codes(vertices: int, mode: EquivalenceMode) -> Iterator[str]:
    # canonical codes of halves a(b) of equal height 1..n1-1, least over
    # both ends; a one-vertex half has height 0, which no larger half has
    for n1 in range(2, vertices // 2 + 1):
        n2 = vertices - n1
        for height in range(1, n1):
            first = [e for e in _pool(n1, height) if e.height == height]
            if n1 == n2:
                # the pool is code-sorted, so these pairs come out with a <= b
                pairs: Iterator[tuple[_PoolEntry, _PoolEntry]] = (
                    itertools.combinations_with_replacement(first, 2)
                )
            else:
                second = [e for e in _pool(n2, height) if e.height == height]
                pairs = itertools.product(first, second)
            for a, b in pairs:
                if mode is EquivalenceMode.MIRROR:
                    original = sorted((a.word, b.word))
                    reflected = sorted(w[::-1].translate(_MIRROR) for w in (a.word, b.word))
                    if reflected < original:
                        continue
                yield min(
                    _least_rotation(_factors(a.word[1:-1]) + [b.word], mode),
                    _least_rotation(_factors(b.word[1:-1]) + [a.word], mode),
                )


def enumerate_plane_center(
    vertices: int,
    mode: EquivalenceMode = EquivalenceMode.ORIENTED,
    *,
    limit: int | None = None,
) -> list[PlaneTree]:
    """Every plane-tree class with the given vertex count, exactly once,
    sorted by serialized canonical form.

    Raises LimitExceeded above the cap (default 12) and ValueError for a
    non-positive vertex count.
    """
    if vertices < 1:
        raise ValueError(f"vertex count must be positive, got {vertices}")
    cap = DEFAULT_MAX_VERTICES if limit is None else limit
    if vertices > cap:
        raise LimitExceeded(f"{vertices} vertices exceeds the enumeration cap of {cap}")
    if vertices <= 2:
        # the single vertex and the single edge have nothing to glue
        return [_plane_tree_of(_rotation_system_of("()" * (vertices - 1)), mode)]

    results = [
        PlaneTree(canon=code, mode=mode, centrality=Centrality.UNICENTRAL)
        for code in _unicentral_codes(vertices, mode)
    ]
    results.extend(
        PlaneTree(canon=code, mode=mode, centrality=Centrality.BICENTRAL)
        for code in _bicentral_codes(vertices, mode)
    )
    results.sort(key=PlaneTree.serialize)
    # the least-rotation test and the pair filter must be duplicate-free
    assert all(x != y for x, y in zip(results, results[1:])), "gluing emitted a duplicate"
    return results


def enumerate_plane_oracle(
    vertices: int,
    mode: EquivalenceMode = EquivalenceMode.ORIENTED,
    *,
    limit: int | None = None,
) -> list[PlaneTree]:
    """Brute-force route: canonicalize all Catalan(vertices-1) rooted trees
    and dedup. Verification-grade, capped at 10 vertices by default."""
    if vertices < 1:
        raise ValueError(f"vertex count must be positive, got {vertices}")
    cap = ORACLE_MAX_VERTICES if limit is None else limit
    if vertices > cap:
        raise LimitExceeded(f"{vertices} vertices exceeds the oracle cap of {cap}")
    classes = {
        _plane_tree_of(_rotation_system_of(code), mode)
        for code in iter_dyck_codes(vertices - 1)
    }
    return sorted(classes, key=PlaneTree.serialize)


def count_plane(
    vertices: int,
    mode: EquivalenceMode = EquivalenceMode.ORIENTED,
    *,
    limit: int | None = None,
) -> int:
    """Number of plane-tree classes with the given vertex count."""
    return len(enumerate_plane_center(vertices, mode, limit=limit))


# Counts asserted by the hand enumeration that this package audits. The
# reconcile report compares them against computed values; mismatches are
# reported, never "corrected".
CLAIMED_ROOTED = {0: 1, 1: 1, 2: 2, 3: 5, 4: 14, 5: 51}
CLAIMED_PLANE = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 14, 8: 26}
CLAIMED_FLOWS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 6, 6: 14, 7: 26}


@dataclass(frozen=True)
class ReconcileRow:
    kind: str  # "rooted" (by edges), "plane" (by vertices), "flows" (by saddles)
    parameter: int
    claimed: int
    computed_oriented: int
    computed_mirror: int

    @property
    def matches(self) -> bool:
        return self.claimed in (self.computed_oriented, self.computed_mirror)


@dataclass(frozen=True)
class ReconcileReport:
    rows: tuple[ReconcileRow, ...]

    @property
    def mismatches(self) -> tuple[ReconcileRow, ...]:
        return tuple(row for row in self.rows if not row.matches)

    def to_text(self) -> str:
        lines = ["kind    param  claimed  oriented  mirror  verdict"]
        for row in self.rows:
            verdict = "match" if row.matches else "MISMATCH"
            lines.append(
                f"{row.kind:<7} {row.parameter:>5}  {row.claimed:>7}  "
                f"{row.computed_oriented:>8}  {row.computed_mirror:>6}  {verdict}"
            )
        return "\n".join(lines)


def reconcile_counts() -> ReconcileReport:
    """Claimed hand-tally counts vs computed counts, one row per claim.

    Rooted counts do not depend on the mode, so both computed columns
    repeat the Catalan value there.
    """
    rows: list[ReconcileRow] = []
    for edges, claimed in sorted(CLAIMED_ROOTED.items()):
        exact = count_rooted(edges)
        rows.append(ReconcileRow("rooted", edges, claimed, exact, exact))
    plane_counts = {
        mode: {v: count_plane(v, mode) for v in sorted(CLAIMED_PLANE)}
        for mode in EquivalenceMode
    }
    for v, claimed in sorted(CLAIMED_PLANE.items()):
        rows.append(
            ReconcileRow(
                "plane",
                v,
                claimed,
                plane_counts[EquivalenceMode.ORIENTED][v],
                plane_counts[EquivalenceMode.MIRROR][v],
            )
        )
    for saddles, claimed in sorted(CLAIMED_FLOWS.items()):
        rows.append(
            ReconcileRow(
                "flows",
                saddles,
                claimed,
                plane_counts[EquivalenceMode.ORIENTED][saddles + 1],
                plane_counts[EquivalenceMode.MIRROR][saddles + 1],
            )
        )
    return ReconcileReport(tuple(rows))


def catalog_text(vertices: int, mode: EquivalenceMode, classes: Sequence[PlaneTree]) -> str:
    """Plain-text catalog: one header line, then one serialized class per line."""
    lines = [f"# plane-trees v={vertices} mode={mode.value} count={len(classes)}"]
    lines.extend(p.serialize() for p in classes)
    return "\n".join(lines) + "\n"


def catalog_json(vertices: int, mode: EquivalenceMode, classes: Sequence[PlaneTree]) -> str:
    """Machine-readable catalog with fields vertices, mode, count, codes."""
    doc = {
        "vertices": vertices,
        "mode": mode.value,
        "count": len(classes),
        "codes": [p.serialize() for p in classes],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
