"""Shared strategies, random generators and the byte-identity gate for the test suite."""

from __future__ import annotations

import json
import pathlib
import random
from typing import Iterator

from hypothesis import strategies as st

from plane_forest import EquivalenceMode, RootedPlaneTree
from plane_forest.enumeration import _pool
from plane_forest.trees import _factors, _mirror

#: The byte-identity gate: one row per CLI run, with its argv, its exit
#: code, the SHA-256 of its stdout and, for an error, its exact stderr.
GATE: list[dict] = json.loads(pathlib.Path(__file__).with_name("gate.json").read_text())


def tree_strategy(max_leaves: int = 24) -> st.SearchStrategy[RootedPlaneTree]:
    return st.recursive(
        st.just(RootedPlaneTree()),
        lambda inner: st.lists(inner, min_size=1, max_size=4).map(
            lambda kids: RootedPlaneTree(tuple(kids))
        ),
        max_leaves=max_leaves,
    )


def random_tree(rng: random.Random, vertices: int) -> RootedPlaneTree:
    """Uniformly scruffy ordered tree: attach each new leaf at a random
    position under a random existing vertex."""
    children: list[list[int]] = [[]]
    for _ in range(vertices - 1):
        parent = rng.randrange(len(children))
        children.append([])
        slot = rng.randint(0, len(children[parent]))
        children[parent].insert(slot, len(children) - 1)

    def build(i: int) -> RootedPlaneTree:
        return RootedPlaneTree(tuple(build(c) for c in children[i]))

    return build(0)


def random_tree_edges(
    rng: random.Random, vertices: int
) -> list[tuple[int, int]]:
    """Edge list of a random labeled tree on the given vertices."""
    edges = [(i, rng.randrange(i)) for i in range(1, vertices)]
    rng.shuffle(edges)
    return edges


def random_cyclic_multigraph(
    rng: random.Random, max_vertices: int = 9
) -> tuple[int, list[tuple[int, int]]]:
    """A multigraph with edges >= vertices; always contains a cycle."""
    vertices = rng.randint(1, max_vertices)
    edge_count = rng.randint(vertices, vertices + 4)
    edges = [
        (rng.randrange(vertices), rng.randrange(vertices)) for _ in range(edge_count)
    ]
    return vertices, edges


def _strip_centers(adj: list[list[int]]) -> list[int]:
    # peel leaves layer by layer until one or two vertices remain
    n = len(adj)
    if n <= 2:
        return list(range(n))
    degree = [len(nbrs) for nbrs in adj]
    removed = [False] * n
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        for v in layer:
            removed[v] = True
        remaining -= len(layer)
        nxt: list[int] = []
        for v in layer:
            for w in adj[v]:
                if not removed[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return [v for v in range(n) if not removed[v]]


def _rooted_codes(adj: list[list[int]], root: int) -> list[str]:
    # the branch words "(...)" at root, in root's cyclic order; each is
    # built leaves first over a BFS order, with every vertex's children
    # read cyclically after its parent
    parent = [-1] * len(adj)
    order = [root]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    # each code is popped by its parent, so the codes held at any time
    # belong to disjoint subtrees
    codes: dict[int, str] = {}
    for v in reversed(order[1:]):
        nbrs = adj[v]
        k = nbrs.index(parent[v])
        codes[v] = "(" + "".join([codes.pop(w) for w in nbrs[k + 1 :] + nbrs[:k]]) + ")"
    return [codes.pop(w) for w in adj[root]]


def _least_rotation(words: list[str], mode: EquivalenceMode) -> str:
    # least code over the rotations of a root's branch words (and their
    # mirror images, in MIRROR mode), as the least word list
    orders = [words]
    if mode is EquivalenceMode.MIRROR:
        orders.append([_mirror(word) for word in reversed(words)])
    return "".join(min(ws[s:] + ws[:s] for ws in orders for s in range(len(ws) or 1)))


def _least_bicentral(a: str, b: str, mode: EquivalenceMode) -> str:
    # least code of the tree whose central edge joins the rooted halves a
    # and b: rooted at either end, the other half hangs as one branch
    return min(
        _least_rotation(_factors(x) + ["(" + y + ")"], mode) for x, y in ((a, b), (b, a))
    )


def _necklaces(budget: int, most: int, mode: EquivalenceMode) -> Iterator[list[str]]:
    # the gluing walk with the leaf rule as defined: every prenecklace of
    # `budget` vertices' worth of branch words, at most `most` of them and
    # two or more of the top height h, is kept iff its join is its own
    # least rotation; lists of `most` words that leave vertices over are
    # walked to and dropped. Words come from `_pool` a height group at a
    # time, lowest first, so the lists come out in the walk's order
    for h in range(budget // 2):
        stack: list[tuple[list[str], int, int, int]] = [([], 1, budget, 0)]
        while stack:
            words, p, left, tall = stack.pop()
            if not left:
                if _least_rotation(words, mode) == "".join(words):
                    yield words
                continue
            if len(words) == most:
                continue
            back = words[-p] if words else ""
            for size in range(1, left + 1):
                for height in range(min(h, budget - 1 - size) + 1):
                    now = tall + (height == h)
                    for word in _pool(size, height):
                        if word >= back and max(0, 2 - now) * (h + 1) <= left - size:
                            step = p if word == back else len(words) + 1
                            stack.append((words + [word], step, left - size, now))
