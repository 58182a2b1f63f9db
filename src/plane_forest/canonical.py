"""Tree centers and canonical codes for unrooted plane trees.

Re-rooting a plane tree at its center turns "same embedded tree" into a
string equality. Everything is read off the parenthesis code: one scan
gives each '(' its mate and the height of its subtree, and one walk goes
down from the root into the tallest branch while it beats every other
branch, the way up included, by 2 or more. Where the walk stops, a tie
between the two longest branches makes the vertex the one center, and a
lead of exactly 1 makes the tallest child the second center. Re-rooting at
the last center walked swaps the parentheses of every walked edge and
starts the code just after that center's '('. The canonical code of a
class is the lexicographically least rooted code over every admissible
re-rooting:

* unicentral trees: root at the center, minimize over the rotations of the
  center's cyclic child order;
* bicentral trees: minimize over both endpoints of the central edge and
  all rotations of each endpoint's cyclic order. `_least_bicentral` is
  this one rule, over the two rooted halves of height h that the central
  edge joins; gluing applies it too. The hanging half is the one branch
  h + 1 deep at its end, so when it opens with h '(' the code that starts
  with it wins and no rotation is taken; only when neither half opens (in
  MIRROR mode, or ends) so are both ends minimized.

In MIRROR mode the minimum additionally ranges over the reflected tree.
The result is always the code of an actual rooted representative, so it
decodes back to a tree with the right vertex count and cannot collide
across centrality kinds. The re-rooting oracle checks all this on its
own: one walk round the contour of the code keeps the least code rooted
at any corner.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from enum import Enum
from functools import partial
from itertools import accumulate

from .errors import LimitExceeded, MalformedCode
from .trees import (
    EquivalenceMode,
    RootedPlaneTree,
    _Frozen,
    _corner_codes,
    _factors,
    _height_of,
    _mirror,
    _preorder,
    _tree_of,
    decode,
    encode,
    reflect,
)

#: The oracle joins a 2n-character code per corner; keep it at desk scale.
REROOT_ORACLE_MAX_VERTICES = 12


class Centrality(Enum):
    UNICENTRAL = "U"
    BICENTRAL = "B"


class CenterResult(_Frozen):
    """Center vertex id(s) within a rooted representative, plus the radius.

    Vertex ids are preorder indices of the rooted tree handed to
    :func:`center` (the root is 0). Two centers are always adjacent.
    """

    _fields = ("centers", "radius")

    def __init__(self, centers: tuple[int, ...], radius: int) -> None:
        self._store(centers, radius)


class PlaneTree(_Frozen):
    """Canonical representative of an embedded tree up to plane isomorphism.

    Equality is componentwise on (canon, mode, centrality); the serialized
    form `U:<code>` / `B:<code>` is the dedup key used by every catalog.
    Construction checks the enum members and the balance of the code.
    """

    _fields = ("canon", "mode", "centrality")

    def __init__(self, canon: str, mode: EquivalenceMode, centrality: Centrality) -> None:
        _check_mode(mode)
        _check_centrality(centrality)
        _height_of(canon)  # raises MalformedCode on bad input
        self._store(canon, mode, centrality)

    @property
    def edge_count(self) -> int:
        return len(self.canon) // 2

    @property
    def vertex_count(self) -> int:
        return self.edge_count + 1

    def serialize(self) -> str:
        return f"{self.centrality.value}:{self.canon}"

    @classmethod
    def parse(cls, line: str, mode: EquivalenceMode) -> "PlaneTree":
        """Read a `U:<code>` / `B:<code>` line back; the mode tag lives at
        file level, so it is supplied by the caller."""
        prefix, sep, code = line.partition(":")
        if not sep or prefix not in ("U", "B"):
            raise MalformedCode(f"expected 'U:<code>' or 'B:<code>', got {line!r}")
        decode(code)  # raises MalformedCode on bad input
        form = _plane_tree_of(code, mode)
        if prefix != form.centrality.value:
            raise MalformedCode(f"centrality tag {prefix!r} contradicts the code {code!r}")
        # a non-canonical code would compare unequal to its own class
        if code != form.canon:
            raise MalformedCode(f"{code!r} is not the canonical {mode.value} code of its tree")
        return form


def _plane_tree(canon: str, mode: EquivalenceMode, centrality: Centrality) -> PlaneTree:
    # a PlaneTree from fields known to be sound, without checking them again
    tree = object.__new__(PlaneTree)
    tree._store(canon, mode, centrality)
    return tree


def rotation_system(tree: RootedPlaneTree) -> list[list[int]]:
    """Adjacency lists in planar cyclic order, vertices numbered in preorder.

    For every non-root vertex the parent comes first, then the children in
    their stored order; for the root the cyclic order is just the child
    order read cyclically.
    """
    parents, _, _ = _preorder(encode(tree))
    # a vertex's children follow it in preorder, so its parent comes first
    adj = [[]] + [[parent] for parent in parents[1:]]
    for vid in range(1, len(parents)):
        adj[parents[vid]].append(vid)
    return adj


def _check_mode(mode: EquivalenceMode) -> None:
    # a mode given as a string such as "mirror" equals no member, so every
    # `mode is EquivalenceMode.MIRROR` test would quietly read it as ORIENTED
    if not isinstance(mode, EquivalenceMode):
        raise ValueError(f"mode must be an EquivalenceMode member, got {mode!r}")


def _check_centrality(kind: Centrality) -> None:
    # a kind given by its letter, such as "U", would pass every `is` test as neither kind
    if not isinstance(kind, Centrality):
        raise ValueError(f"centrality must be a Centrality member, got {kind!r}")


def _checked(vertices: int, mode: EquivalenceMode, limit: int | None, cap: int, route: str) -> None:
    _check_mode(mode)
    if vertices < 1:
        raise ValueError(f"vertex count must be positive, got {vertices}")
    cap = cap if limit is None else limit
    if vertices > cap:
        raise LimitExceeded(f"{vertices} vertices exceeds the {route} cap of {cap}")


def _center_walk(code: str) -> tuple[list[int], list[int], int, bool]:
    # the scan and walk of the module docstring: the mate of each '(', the
    # '(' of every edge walked (a bicentral walk ends with the step into
    # the second center), the radius, and whether the tree is bicentral.
    # The way up never beats the tallest child, so the walk never turns back.
    mate = [0] * len(code)
    height = [0] * len(code)
    opens: list[int] = []
    for i, ch in enumerate(code):
        if ch == "(":
            opens.append(i)
        else:
            j = opens.pop()
            mate[j] = i
            if opens and height[j] >= height[opens[-1]]:
                height[opens[-1]] = height[j] + 1
    path: list[int] = []
    start, end, up = 0, len(code), 0
    while True:
        best, second, child = 0, up, -1
        while start < end:
            branch = height[start] + 1
            if branch > best:
                if best > second:
                    second = best
                best, child = branch, start
            elif branch > second:
                second = branch
            start = mate[start] + 1
        if best - second < 2:
            if best > second:
                path.append(child)
            return mate, path, best, best > second
        path.append(child)
        start, end, up = child + 1, mate[child], second + 1


def center(tree: RootedPlaneTree) -> CenterResult:
    """Standard tree center(s), found by one walk down the code, with the radius.

    Single vertices and single edges are their own centers. The radius is
    the eccentricity of a center, i.e. the minimum eccentricity over all
    vertices: the height of the tree rooted there.
    """
    code = encode(tree)
    _, path, radius, bicentral = _center_walk(code)
    # a vertex's preorder id counts the '(' up to the one opening it; the
    # root, standing before position 0, has none
    ends = [-1] + path
    centers = tuple(code.count("(", 0, i + 1) for i in ends[-1 - bicentral :])
    return CenterResult(centers=centers, radius=radius)


def _least_rotation(words: Sequence[str], mode: EquivalenceMode) -> str:
    # least code over the rotations of a root's branch words (and their
    # mirror images, in MIRROR mode), each a slice of the doubled join cut
    # at a word boundary; branch words are primitive Dyck words, a prefix
    # code, so word lists compare as their joins do
    code = "".join(words)
    n = len(code)
    cuts = list(accumulate(map(len, words[:-1]), initial=0))
    joins = [(code + code, cuts)]
    if mode is EquivalenceMode.MIRROR:
        image = _mirror(code)
        joins.append((image + image, [n - cut for cut in cuts]))
    return min(doubled[cut : cut + n] for doubled, starts in joins for cut in starts)


def _least_bicentral(a: str, b: str, height: int, mode: EquivalenceMode) -> str:
    # least code of the tree whose central edge joins the rooted halves a
    # and b, both `height` tall. Rooted at either end x, the other half y
    # hangs as the branch "(y)", the one word of that end's list that is
    # height + 1 deep; the others are at most height deep, and so are
    # their mirror images. A word opening with height + 1 '(' is less than
    # one opening with fewer, and branch words are a prefix code, so the
    # first word decides: every code opening with height + 1 '(' beats
    # every code that does not. "(y)" opens so when y opens with height
    # '(', and in MIRROR mode its image does when y ends with height ')'.
    # The least of those codes wins, with no rotation taken; when there is
    # none, every rotation at both ends is a candidate.
    run, close = "(" * height, ")" * height
    mirror = mode is EquivalenceMode.MIRROR
    codes = []
    for x, y in (a, b), (b, a):
        if y.startswith(run):
            codes.append("(" + y + ")" + x)
        if mirror and y.endswith(close):
            codes.append(_mirror(x + "(" + y + ")"))
    if codes:
        return min(codes)
    return min(_least_rotation(_factors(x) + ["(" + y + ")"], mode) for x, y in ((a, b), (b, a)))


def _center_split(code: str) -> tuple[Centrality, partial[str]]:
    # the mode-free part of a canonical form: the centrality, and the mode
    # step, a least code over the center's branch words or the two halves,
    # whose `args` are that input, hashable: (words,), words a tuple, or (a, b, h).
    # Re-rooted at the last center walked, the branch words are its
    # children's, in order, then the parent side: the code after the center's
    # subtree and then the code before it, with every walked edge turned round.
    mate, path, radius, bicentral = _center_walk(code)
    start, end = (path[-1] + 1, mate[path[-1]]) if path else (0, len(code))
    chars = list(code)
    for i in path:
        chars[i], chars[mate[i]] = ")", "("
    up = ["".join(chars[end:] + chars[:start])] if path else []
    if bicentral:
        # the halves: the second center's children, and the parent side
        return Centrality.BICENTRAL, partial(_least_bicentral, code[start:end], up[0][1:-1], radius - 1)
    words = []
    i = start
    while i < end:
        words.append(code[i : mate[i] + 1])
        i = mate[i] + 1
    return Centrality.UNICENTRAL, partial(_least_rotation, tuple(words + up))


def _plane_tree_of(code: str, mode: EquivalenceMode) -> PlaneTree:
    # canonical form of the embedded tree of a balanced code
    _check_mode(mode)
    kind, least = _center_split(code)
    return _plane_tree(least(mode), mode, kind)


def rooted_representatives(tree: RootedPlaneTree) -> Iterator[RootedPlaneTree]:
    """Every re-rooting of the underlying embedded tree, one per corner in
    contour order: each vertex as root, each rotation as its child order."""
    return map(_tree_of, _corner_codes(encode(tree)))


def canonical_plane(
    tree: RootedPlaneTree, mode: EquivalenceMode = EquivalenceMode.ORIENTED
) -> PlaneTree:
    """Canonical form of the embedded tree underlying any rooted representative.

    The defining property: every re-rooting and rotation of the same
    embedded tree maps to an identical PlaneTree, and (in MIRROR mode)
    so does its reflection.
    """
    return _plane_tree_of(encode(tree), mode)


def is_isomorphic(
    a: RootedPlaneTree,
    b: RootedPlaneTree,
    mode: EquivalenceMode = EquivalenceMode.ORIENTED,
) -> bool:
    """True iff a and b are the same tree of the plane (forgetting roots)."""
    return canonical_plane(a, mode) == canonical_plane(b, mode)


def rerooting_oracle_canon(
    tree: RootedPlaneTree, mode: EquivalenceMode = EquivalenceMode.ORIENTED
) -> str:
    """Independent canonical code: the least code over ALL corners, that is
    every vertex and rotation (and the reflection's, in MIRROR mode).
    Rooted anywhere, not at the center, so the strings differ from
    canonical_plane; the induced partition must be identical."""
    _checked(tree.vertex_count, mode, None, REROOT_ORACLE_MAX_VERTICES, "re-rooting oracle")
    images = [tree, reflect(tree)] if mode is EquivalenceMode.MIRROR else [tree]
    return min(code for t in images for code in _corner_codes(encode(t)))
