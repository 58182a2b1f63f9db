"""Rooted plane trees and their balanced-parenthesis codes.

A rooted plane tree is an ordered tree: the children of every vertex carry
a linear (left-to-right) order. Trees with n edges are in bijection with
balanced parenthesis strings of length 2n, one matched pair per edge, and
that string is the storage, hashing and ordering format used everywhere in
this package. `_preorder` is the one preorder scan of a code, read by
`render` and `canonical.rotation_system`; `_mirror` is the one reflection
of a code. `_Frozen` is the base of the package's immutable value classes.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator
from enum import Enum
from functools import cached_property

from .errors import LimitExceeded, MalformedCode

#: Default ceiling for exhaustive rooted enumeration (Catalan(16) ~ 35M).
DEFAULT_MAX_EDGES = 16

#: Environment variable overriding the enumeration cap.
MAX_EDGES_ENV = "PLANE_FOREST_MAX_EDGES"


class EquivalenceMode(Enum):
    """Which plane isomorphisms are allowed when comparing embedded trees.

    ORIENTED admits rotations of the cyclic vertex orders only; MIRROR
    additionally admits a global reflection. Every MIRROR class is a union
    of one or two ORIENTED classes.
    """

    ORIENTED = "oriented"
    MIRROR = "mirror"


class _Frozen:
    """An immutable value over the attributes named in `_fields`, with the
    equality, hashing, `repr` and `__match_args__` of a frozen dataclass.
    `_store` is the one place a value's fields, and their tuple as `_key`,
    are kept, in the `__dict__` that `pickle` and `copy` restore."""

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields

    def _store(self, *values: object) -> None:
        self.__dict__.update(zip(self._fields, values, strict=True), _key=values)

    def __eq__(self, other: object) -> bool:
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class RootedPlaneTree(_Frozen):
    """An immutable ordered tree, held as its parenthesis code.

    `RootedPlaneTree()` is the single-vertex tree and
    `RootedPlaneTree(children)` hangs the given subtrees below a new root,
    in order. Equality and hashing are those of the code, so they work at
    any depth.
    """

    _fields = ("_code",)

    def __init__(self, children: Iterable["RootedPlaneTree"] = ()) -> None:
        object.__setattr__(self, "_code", "".join(["(" + c._code + ")" for c in children]))

    @property
    def children(self) -> tuple["RootedPlaneTree", ...]:
        """The subtrees below the root: the primitive factors of the code."""
        return tuple(_tree_of(factor[1:-1]) for factor in _factors(self._code))

    @property
    def edge_count(self) -> int:
        return len(self._code) // 2

    @property
    def vertex_count(self) -> int:
        return self.edge_count + 1

    @cached_property
    def height(self) -> int:
        """Longest root-to-leaf distance in edges; 0 for a single vertex."""
        return _height_of(self._code)

    def is_leaf(self) -> bool:
        return not self._code

    # compared by the code alone, with no `_key`: decode and the rooted stream build one store
    def __eq__(self, other: object) -> bool:
        return self._code == other._code if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self._code,))

    def __repr__(self) -> str:
        return f"RootedPlaneTree({self._code!r})"


def _tree_of(code: str) -> RootedPlaneTree:
    # wrap a code known to be balanced, without scanning it again
    tree = object.__new__(RootedPlaneTree)
    object.__setattr__(tree, "_code", code)
    return tree


def encode(tree: RootedPlaneTree) -> str:
    """Balanced-parenthesis code: "(" + encode(child) + ")" per child, in order."""
    return tree._code


def decode(code: str) -> RootedPlaneTree:
    """Inverse of :func:`encode`.

    Raises MalformedCode on foreign characters or unbalanced input; the
    empty string decodes to the single-vertex tree.
    """
    _height_of(code)
    return _tree_of(code)


def reflect(tree: RootedPlaneTree) -> RootedPlaneTree:
    """Mirror image: reverse the child order at every vertex.

    A planar reflection flips all cyclic orders at once, so reversing only
    at the root would not model it.
    """
    return _tree_of(_mirror(tree._code))


_MIRROR = str.maketrans("()", ")(")


def _mirror(code: str) -> str:
    # reversing a code and swapping its parentheses reflects the tree
    return code[::-1].translate(_MIRROR)


def _height_of(code: str) -> int:
    # maximum nesting depth of a code; MalformedCode unless it is balanced
    depth = height = 0
    for i, ch in enumerate(code):
        if ch == "(":
            depth += 1
            if depth > height:
                height = depth
        elif ch == ")":
            if not depth:
                raise MalformedCode(f"unmatched ')' at position {i}: {code!r}")
            depth -= 1
        else:
            raise MalformedCode(f"foreign character {ch!r} at position {i}: {code!r}")
    if depth:
        raise MalformedCode(f"{depth} unclosed '(' in {code!r}")
    return height


def _factors(code: str) -> list[str]:
    # the primitive factors "(b)" of a balanced code, one per root branch
    factors: list[str] = []
    depth = start = 0
    for i, ch in enumerate(code):
        depth += 1 if ch == "(" else -1
        if depth == 0:
            factors.append(code[start : i + 1])
            start = i + 1
    return factors


def _preorder(code: str) -> tuple[list[int], list[int], list[int]]:
    # parent id (-1 for the root), depth and subtree vertex count of every
    # vertex of a balanced code's tree, numbered in preorder, in one scan
    parents, depths, sizes = [-1], [0], [1]
    path = [0]
    for ch in code:
        if ch == "(":
            parents.append(path[-1])
            depths.append(len(path))
            sizes.append(1)
            path.append(len(sizes) - 1)
        else:
            vid = path.pop()
            sizes[path[-1]] += sizes[vid]
    return parents, depths, sizes


def _corner_codes(code: str) -> Iterator[str]:
    # the code re-rooted at each of its max(2n, 1) corners in contour order:
    # moving the root past position k turns that edge round (its two
    # parentheses swap) and starts the code at k + 1
    mate = [0] * len(code)
    opens: list[int] = []
    for i, ch in enumerate(code):
        if ch == "(":
            opens.append(i)
        else:
            j = opens.pop()
            mate[i], mate[j] = j, i
    yield code
    chars = list(code)
    for k in range(len(code) - 1):
        chars[k], chars[mate[k]] = chars[mate[k]], chars[k]
        yield "".join(chars[k + 1 :] + chars[: k + 1])


def max_rooted_edges() -> int:
    """Enumeration cap; PLANE_FOREST_MAX_EDGES overrides the default of 16."""
    raw = os.environ.get(MAX_EDGES_ENV)
    if raw is None:
        return DEFAULT_MAX_EDGES
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_EDGES_ENV} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{MAX_EDGES_ENV} must be non-negative, got {value}")
    return value


def iter_dyck_codes(edges: int) -> Iterator[str]:
    """All balanced strings with `edges` pairs, in lexicographic order.

    A stream: memory is a stack of at most 2*edges prefixes plus a fixed
    table of short completions, not the number of codes. '(' sorts before
    ')', so the fully nested code comes first and "()()..." last.
    """
    return _dyck_codes(edges, edges)


#: Longest code tail taken from the completion table. The states with r
#: characters left have C(r, r // 2) completions between them, so the table
#: holds at most 1,912 strings whatever the edge count and builds in about
#: 0.2 ms; a longer tail saves little more per code and costs every small
#: call.
_TAIL = 12


def _dyck_codes(edges: int, max_height: int) -> Iterator[str]:
    # the codes of iter_dyck_codes whose nesting depth is at most
    # max_height, in the same order. Every character moves a state
    # (opens_left, depth) one step nearer the end, so the walk meets each
    # remaining length 2*opens_left + depth once on the way down. The table
    # maps each state with at most `tail` characters left to its
    # completions in order, shortest first; a stack of (prefix, opens_left,
    # depth) walks the rest, pushing ')' before '(' so the '(' branch is
    # walked first, and stops at `tail`.
    if min(edges, max_height) < 0:
        return
    tail = min(_TAIL, 2 * edges)
    table: dict[tuple[int, int], list[str]] = {(0, 0): [""]}
    for left in range(1, tail + 1):
        for opens_left in range(left // 2 + 1):
            depth = left - 2 * opens_left
            if depth > max_height:
                continue
            tails = []
            if opens_left and depth < max_height:
                tails += ["(" + t for t in table[opens_left - 1, depth + 1]]
            if depth:
                tails += [")" + t for t in table[opens_left, depth - 1]]
            table[opens_left, depth] = tails
    stack = [("", edges, 0)]
    while stack:
        prefix, opens_left, depth = stack.pop()
        if 2 * opens_left + depth == tail:
            for rest in table[opens_left, depth]:
                yield prefix + rest
            continue
        if depth:
            stack.append((prefix + ")", opens_left, depth - 1))
        if opens_left and depth < max_height:
            stack.append((prefix + "(", opens_left - 1, depth + 1))


def rooted_codes(edges: int, *, limit: int | None = None) -> Iterator[str]:
    """Cap-checked variant of :func:`iter_dyck_codes`.

    Raises LimitExceeded beyond the cap (default from
    :func:`max_rooted_edges`) and ValueError for negative input; both are
    raised at call time, before the stream starts.
    """
    if edges < 0:
        raise ValueError(f"edge count must be non-negative, got {edges}")
    cap = max_rooted_edges() if limit is None else limit
    if edges > cap:
        raise LimitExceeded(f"{edges} edges exceeds the enumeration cap of {cap}")
    return iter_dyck_codes(edges)


def enumerate_rooted(edges: int, *, limit: int | None = None) -> Iterator[RootedPlaneTree]:
    """Every rooted plane tree with the given edge count, exactly once.

    Emitted in lexicographic order of the parenthesis code; the number of
    trees is Catalan(edges). Cap handling as in :func:`rooted_codes`.
    """
    return (_tree_of(code) for code in rooted_codes(edges, limit=limit))


def count_rooted(edges: int) -> int:
    """Catalan(edges) = C(2n, n) / (n + 1), in exact integer arithmetic."""
    if edges < 0:
        raise ValueError(f"edge count must be non-negative, got {edges}")
    return math.comb(2 * edges, edges) // (edges + 1)
