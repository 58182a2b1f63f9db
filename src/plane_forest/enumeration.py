"""Exhaustive plane-tree enumeration by gluing branches onto a center.

Every tree of the plane is either unicentral (one center vertex whose
branches are rooted plane trees: none, or at least two of maximal
height) or bicentral (a central edge joining two rooted halves of equal
height). A bicentral tree with halves a, b is the two-branch tree
`(a)(b)` one vertex larger, its center subdividing the central edge.

So one walk glues both. Branch words `(b)` are primitive Dyck words, a
prefix code, so a canonical code rooted at a center is a necklace (in
MIRROR mode, a bracelet) over the ordered alphabet of branch words: its
join is its least rotation. An iterative prenecklace walk with letter
weights and a prune on the vertices left reaches every such word list:
it pushes a word only when it is >= the word p back (FKM's rule), the
sizes stop once even a tall word would leave too few vertices, and only
tall words are walked while only a tall word fits. It tracks p, the
length of the longest Lyndon prefix, and a prenecklace is a necklace
exactly when p divides its length: ORIENTED keeps a list on that test
alone, and MIRROR keeps a necklace that is also no greater than any
rotation of its mirror image, a bracelet. Exactly one list per class is
kept. A kept pair `(a)(b)` of height h one vertex larger is the
bicentral tree with halves a and b, and
`canonical._least_bicentral(a, b, h, mode)`, the one bicentral rule,
which canonical forms use too, names its class, taking a least code over
both ends of the central edge only when neither half's opening run
decides it. No glued code is scanned back into a tree.

A second, slower route (`enumerate_plane_oracle`) canonicalizes every
rooted tree and dedups; `_cross_check` runs it on a third route's codes,
one stream per size, held to gluing byte for byte and to their partition.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import chain, islice

from .canonical import (Centrality, PlaneTree, _center_split, _check_centrality, _check_mode, _checked,
                        _least_bicentral, _plane_tree)
from .trees import (
    EquivalenceMode,
    RootedPlaneTree,
    _Frozen,
    _dyck_codes,
    _mirror,
    _tree_of,
    count_rooted,
    encode,
    iter_dyck_codes,
)

#: Center-method ceiling; raise explicitly for bigger runs.
DEFAULT_MAX_VERTICES = 12

#: The brute-force route touches Catalan(v-1) trees; keep it at desk scale.
ORACLE_MAX_VERTICES = 10

#: Codes joined into each piece of a streamed listing.
_CHUNK = 1024


class CenterGluingSpec(_Frozen):
    """A recipe for one glued tree: branches around a center vertex
    (UNICENTRAL, k >= 2 parts) or two halves joined by an edge (BICENTRAL).

    Construction is validated: the part heights must actually make the
    glued vertex (or edge) the center of the assembled tree.
    """

    _fields = ("kind", "parts", "target_vertices")

    def __init__(self, kind: Centrality, parts: tuple[RootedPlaneTree, ...], target_vertices: int) -> None:
        _check_centrality(kind)
        heights = [p.height for p in parts]
        if kind is Centrality.UNICENTRAL:
            if len(parts) < 2:
                raise ValueError("a unicentral gluing needs at least two branches")
            if sum(p.vertex_count for p in parts) != target_vertices - 1:
                raise ValueError("branch vertex counts must sum to target_vertices - 1")
            if heights.count(max(heights)) < 2:
                raise ValueError("at least two branches must attain the maximum height")
        else:
            if len(parts) != 2:
                raise ValueError("a bicentral gluing needs exactly two halves")
            if sum(p.vertex_count for p in parts) != target_vertices:
                raise ValueError("half vertex counts must sum to target_vertices")
            if heights[0] != heights[1]:
                raise ValueError("the two halves must have equal height")
        self._store(kind, parts, target_vertices)


def assemble(spec: CenterGluingSpec) -> RootedPlaneTree:
    """Build the glued tree, rooted at the center (or at the first half's
    endpoint of the central edge)."""
    if spec.kind is Centrality.UNICENTRAL:
        return RootedPlaneTree(spec.parts)
    first, second = spec.parts
    return _tree_of(encode(first) + "(" + encode(second) + ")")


@lru_cache(maxsize=None)
def _pool(vertices: int, height: int) -> tuple[str, ...]:
    # the branch words "(b)" of the trees b of this size and exactly this
    # height, in word order: the codes of at most this height less those
    # of at most one less
    lower = set(_dyck_codes(vertices - 1, height - 1))
    return tuple(["(" + code + ")" for code in _dyck_codes(vertices - 1, height) if code not in lower])


def _bracelet(words: list[str]) -> bool:
    # whether a necklace's join is also <= every rotation of its mirror
    # image, cut at the image's word boundaries; it is its own least
    # rotation already
    code = "".join(words)
    image = _mirror(code)
    doubled, n, cut = image + image, len(code), 0
    for word in reversed(words):
        if doubled[cut : cut + n] < code:
            return False
        cut += len(word)
    return True


def _necklaces(budget: int, most: int, mode: EquivalenceMode) -> Iterator[tuple[int, list[str]]]:
    # the lists of `budget` vertices' worth of branch words, at most `most`
    # of them and two or more of the top height h, whose join is their own
    # least rotation, each with its h. An iterative FKM prenecklace walk:
    # each word is >= the word p back, p being the length of the longest
    # Lyndon prefix so far, and a prenecklace is a necklace iff p divides
    # its length, so only MIRROR tests necklaces, for a bracelet, against
    # the rotations of their mirror image. Each tall word still missing
    # needs h + 1 vertices: once even a tall word of this size would leave
    # too few, no larger size fits. Words come a height group at a time: h
    # alone while only a tall word fits, else 0..h, none over size - 1. The
    # last of `most` words takes all the vertices left. Height 0 is walked
    # even for a budget under 2, so the walk also covers the smallest trees:
    # a budget of 0 yields the empty list, the branchless single vertex, and
    # the single edge is the pair "()" "()" of a budget of 2, its halves.
    mirror = mode is EquivalenceMode.MIRROR
    for h in range(max(budget // 2, 1)):
        stack: list[tuple[list[str], int, int, int]] = [([], 1, budget, 0)]
        while stack:
            words, p, left, tall = stack.pop()
            if not left:
                if len(words) % p == 0 and (not mirror or _bracelet(words)):
                    yield h, words
                continue
            back = words[-p] if words else ""
            for size in range(1, left + 1) if len(words) + 1 < most else (left,):
                spare = left - size
                if (1 - tall) * (h + 1) > spare:
                    break
                for height in (h,) if (2 - tall) * (h + 1) > spare else range(min(h, size - 1) + 1):
                    now = tall + (height == h)
                    for word in _pool(size, height):
                        if word >= back:
                            step = p if word == back else len(words) + 1
                            stack.append((words + [word], step, spare, now))


def _center_codes(vertices: int, mode: EquivalenceMode, limit: int | None) -> list[str]:
    # the sorted serialized classes, bicentral first ("B:" sorts before
    # "U:"), with no class built
    _checked(vertices, mode, limit, DEFAULT_MAX_VERTICES, "enumeration")
    unicentral = ("".join(words) for _, words in _necklaces(vertices - 1, vertices - 1, mode))
    # two-branch necklaces one vertex larger are the bicentral half pairs
    bicentral = (_least_bicentral(a[1:-1], b[1:-1], h, mode) for h, (a, b) in _necklaces(vertices, 2, mode))
    lines = sorted(chain(map("B:".__add__, bicentral), map("U:".__add__, unicentral)))
    # one necklace test per class must leave no duplicate
    assert all(x != y for x, y in zip(lines, lines[1:])), "gluing emitted a duplicate"
    return lines


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
    return [_plane_tree(line[2:], mode, Centrality(line[0])) for line in _center_codes(vertices, mode, limit)]


def _brute_forms(codes: Iterable[str]) -> Iterator[tuple[str, tuple[str, ...]]]:
    # each code with its serialized (ORIENTED, MIRROR) classes, the least
    # codes taken once per input of the mode step, which a class's rootings share
    forms: dict[tuple, tuple[str, ...]] = {}
    for code in codes:
        kind, least = _center_split(code)
        if least.args not in forms:
            forms[least.args] = tuple(f"{kind.value}:{least(mode)}" for mode in EquivalenceMode)
        yield code, forms[least.args]


def enumerate_plane_oracle(
    vertices: int,
    mode: EquivalenceMode = EquivalenceMode.ORIENTED,
    *,
    limit: int | None = None,
) -> list[PlaneTree]:
    """Brute-force route: canonicalize all Catalan(vertices-1) rooted trees
    and dedup. Verification-grade, capped at 10 vertices by default."""
    _checked(vertices, mode, limit, ORACLE_MAX_VERTICES, "oracle")
    # dedup the forms first, so each class is built once
    lines = sorted({forms[mode is EquivalenceMode.MIRROR] for _, forms in _brute_forms(iter_dyck_codes(vertices - 1))})
    return [_plane_tree(line[2:], mode, Centrality(line[0])) for line in lines]


def _cross_check(vertices: int, slow: dict[str, str]) -> Iterator[tuple[EquivalenceMode, str, int]]:
    # yields (mode, first failing check or "", glued count): `slow`, an oriented
    # form per code, must cover every rooted tree of the size, whose brute-force
    # classes must be the glued ones and group them as it does; a mirror form is
    # the least of a tree's and its reflection's, where `slow` has the reflection
    pairs = {mode: set() for mode in EquivalenceMode}
    for code, (oriented, mirror) in _brute_forms(slow):
        form = slow[code]
        pairs[EquivalenceMode.ORIENTED].add((oriented, form))
        pairs[EquivalenceMode.MIRROR].add((mirror, min(form, slow.get(_mirror(code), form))))
    covered = len(slow) == count_rooted(vertices - 1)
    for mode, found in pairs.items():
        glued = _center_codes(vertices, mode, None)
        brute = sorted({form for form, _ in found})
        checks = {"rooted trees missing": covered, "catalogs differ": glued == brute,
                  "partitions differ": len(found) == len(brute) == len({form for _, form in found})}
        yield mode, next((name for name, passed in checks.items() if not passed), ""), len(glued)


def count_plane(
    vertices: int,
    mode: EquivalenceMode = EquivalenceMode.ORIENTED,
    *,
    limit: int | None = None,
) -> int:
    """Number of plane-tree classes with the given vertex count: the gluing
    walk's unicentral lists and bicentral pairs, with no class built."""
    _checked(vertices, mode, limit, DEFAULT_MAX_VERTICES, "enumeration")
    walks = _necklaces(vertices - 1, vertices - 1, mode), _necklaces(vertices, 2, mode)
    return sum(1 for walk in walks for _ in walk)


# Counts asserted by the hand enumeration that this package audits. The
# reconcile report compares them against computed values; mismatches are
# reported, never "corrected".
CLAIMED_ROOTED = {0: 1, 1: 1, 2: 2, 3: 5, 4: 14, 5: 51}
CLAIMED_PLANE = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 14, 8: 26}
CLAIMED_FLOWS = {1: 1, 2: 1, 3: 2, 4: 3, 5: 6, 6: 14, 7: 26}


class ReconcileRow(_Frozen):
    # kind: "rooted" (by edges), "plane" (by vertices), "flows" (by saddles)
    _fields = ("kind", "parameter", "claimed", "computed_oriented", "computed_mirror")

    def __init__(self, kind: str, parameter: int, claimed: int, computed_oriented: int, computed_mirror: int) -> None:
        self._store(kind, parameter, claimed, computed_oriented, computed_mirror)

    @property
    def matches(self) -> bool:
        return self.claimed in (self.computed_oriented, self.computed_mirror)


class ReconcileReport(_Frozen):
    _fields = ("rows",)

    def __init__(self, rows: tuple[ReconcileRow, ...]) -> None:
        self._store(rows)

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
    plane = {v: [count_plane(v, mode) for mode in EquivalenceMode] for v in CLAIMED_PLANE}
    rows += [ReconcileRow("plane", v, claimed, *plane[v]) for v, claimed in sorted(CLAIMED_PLANE.items())]
    rows += [ReconcileRow("flows", s, claimed, *plane[s + 1]) for s, claimed in sorted(CLAIMED_FLOWS.items())]
    return ReconcileReport(tuple(rows))


def _listing(codes: Iterable[str], count: int, header: str, fields: str, fmt: str) -> Iterator[str]:
    # `count` codes in one of the CLI formats, a chunk at a time: "codes"
    # one a line, "catalog" the same under "# <header> count=<count>",
    # "flows" each after the record head `header` under a count line, and
    # "json" as json.dumps(doc, indent=2, sort_keys=True) + "\n", `fields`
    # being the json text of the keys after "count"; no code needs escaping
    head, lead, sep, end, tail = {
        "codes": ("", "", "\n", "\n", ""),
        "catalog": (f"# {header} count={count}\n", "", "\n", "\n", ""),
        "flows": (f"{count}\n", header, "\n" + header, "\n", ""),
        "json": ('{\n  "codes": [', '\n    "', '",\n    "', '"\n  ',
                 f'],\n  "count": {count},\n  {fields}\n}}\n'),
    }[fmt]
    yield head
    codes = iter(codes)
    while chunk := list(islice(codes, _CHUNK)):  # sep leads every chunk after the first
        yield lead + sep.join(chunk)
        lead = sep
    yield (end if count else "") + tail  # no end after no codes: json.dumps writes []


def _rooted_listing(edges: int, codes: Iterable[str], fmt: str) -> Iterator[str]:
    return _listing(codes, count_rooted(edges), f"rooted-trees edges={edges}", f'"edges": {edges}', fmt)


def _catalog(vertices: int, mode: EquivalenceMode, lines: Sequence[str], fmt: str) -> Iterator[str]:
    # the catalog of the serialized classes `lines`
    header = f"plane-trees v={vertices} mode={mode.value}"
    fields = f'"mode": "{mode.value}",\n  "vertices": {vertices}'
    return _listing(lines, len(lines), header, fields, fmt)


def _class_lines(vertices: int, mode: EquivalenceMode, classes: Sequence[PlaneTree]) -> list[str]:
    # the classes serialized, each checked to have the mode and size the header names
    _check_mode(mode)
    if any(c.mode is not mode or c.vertex_count != vertices for c in classes):
        raise ValueError(f"a catalog of mode={mode.value} v={vertices} takes only classes of that mode and size")
    return [c.serialize() for c in classes]


def catalog_text(vertices: int, mode: EquivalenceMode, classes: Sequence[PlaneTree]) -> str:
    """Plain-text catalog: one header line, then one serialized class per line."""
    return "".join(_catalog(vertices, mode, _class_lines(vertices, mode, classes), "catalog"))


def catalog_json(vertices: int, mode: EquivalenceMode, classes: Sequence[PlaneTree]) -> str:
    """Machine-readable catalog with fields vertices, mode, count, codes."""
    return "".join(_catalog(vertices, mode, _class_lines(vertices, mode, classes), "json"))
