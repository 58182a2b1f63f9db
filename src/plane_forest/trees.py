"""Rooted plane trees and their balanced-parenthesis codes.

A rooted plane tree is an ordered tree: the children of every vertex carry
a linear (left-to-right) order. Trees with n edges are in bijection with
balanced parenthesis strings of length 2n, one matched pair per edge, and
that string is the storage, hashing and ordering format used everywhere in
this package.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

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


@dataclass(frozen=True, init=False, repr=False)
class RootedPlaneTree:
    """An immutable ordered tree, held as its parenthesis code.

    `RootedPlaneTree()` is the single-vertex tree and
    `RootedPlaneTree(children)` hangs the given subtrees below a new root,
    in order. Equality and hashing are those of the code, so they work at
    any depth.
    """

    _code: str

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
    return _tree_of(tree._code[::-1].translate(_MIRROR))


#: Reversing a code and swapping its parentheses reflects the tree.
_MIRROR = str.maketrans("()", ")(")


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


def _rotation_system_of(code: str) -> list[list[int]]:
    # rotation system of the tree of a balanced code in one scan: vertices
    # in preorder, each non-root vertex's parent first, then its children
    adj: list[list[int]] = [[]]
    path = [0]
    for ch in code:
        if ch == "(":
            child = len(adj)
            adj[path[-1]].append(child)
            adj.append([path[-1]])
            path.append(child)
        else:
            path.pop()
    return adj


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

    A stream: memory grows with `edges`, not with the number of codes.
    '(' sorts before ')', so the fully nested code comes first and
    "()()..." last.
    """
    return _dyck_codes(edges, edges)


def _dyck_codes(edges: int, max_height: int) -> Iterator[str]:
    # the codes of iter_dyck_codes whose nesting depth is at most
    # max_height, in the same order: a stack of (prefix, opens_left, depth)
    # that pushes ')' before '(', so the '(' branch is walked first
    stack = [("", edges, 0)] if edges >= 0 else []
    while stack:
        prefix, opens_left, depth = stack.pop()
        if not opens_left:
            yield prefix + ")" * depth
            continue
        if depth:
            stack.append((prefix + ")", opens_left, depth - 1))
        if depth < max_height:
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
