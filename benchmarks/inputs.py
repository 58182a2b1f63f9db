"""Seeded inputs for the `library` workload.

Everything here is plain Python with no import of plane_forest: the
package only ever receives the parenthesis codes and edge lists made here.
"""

from __future__ import annotations

import random
from typing import Iterator

MIN_VERTICES = 50
MAX_VERTICES = 400
MODES = ("oriented", "mirror")


def random_dyck(edges: int, rng: random.Random) -> str:
    """A uniformly random balanced code with `edges` pairs.

    Cycle lemma: a shuffled sequence of `edges` up-steps and `edges + 1`
    down-steps has exactly one rotation whose proper prefixes all stay
    non-negative. It starts just after the first lowest prefix sum and ends
    with a down-step; dropping that step leaves a Dyck word, and every Dyck
    word is hit by the same number of shuffles.
    """
    steps = [1] * edges + [-1] * (edges + 1)
    rng.shuffle(steps)
    level, lowest, cut = 0, 1, 0
    for i, step in enumerate(steps):
        level += step
        if level < lowest:
            lowest, cut = level, i + 1
    rotated = steps[cut:] + steps[:cut]
    return "".join("(" if step > 0 else ")" for step in rotated[:-1])


def rotation_system(code: str) -> list[list[int]]:
    """Cyclic neighbour order of each vertex, vertices numbered in preorder:
    a non-root vertex lists its parent first, then its children in order."""
    adj: list[list[int]] = [[]]
    path = [0]
    for ch in code:
        if ch == "(":
            vertex = len(adj)
            adj.append([path[-1]])
            adj[path[-1]].append(vertex)
            path.append(vertex)
        else:
            path.pop()
    return adj


def relabel(
    adj: list[list[int]], rng: random.Random
) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The same embedded tree under a random vertex numbering, with every
    cyclic order started at a random neighbour and the edge list shuffled.

    Rotating a cyclic order and renaming vertices leave the plane class
    unchanged, so the result must canonicalise to the original code's class.
    """
    n = len(adj)
    names = list(range(n))
    rng.shuffle(names)
    rotations: list[list[int]] = [[] for _ in range(n)]
    edges: list[tuple[int, int]] = []
    for v, nbrs in enumerate(adj):
        turned = [names[w] for w in nbrs]
        shift = rng.randrange(len(turned)) if turned else 0
        rotations[names[v]] = turned[shift:] + turned[:shift]
        for w in nbrs:
            if v < w:
                edge = (names[v], names[w])
                edges.append(edge if rng.random() < 0.5 else edge[::-1])
    rng.shuffle(edges)
    return edges, rotations


def library_inputs(seed: int, count: int) -> Iterator[dict]:
    """`count` trees with 50-400 vertices, each with a mode and a
    relabelled, re-rotated edge list of itself. Same seed, same inputs.

    The sizes are spread evenly over the range and the modes split in
    half, both in a seeded order, so every seed asks for the same amount
    of work and only the trees' shapes differ. Made one at a time, so the
    caller never holds them all."""
    rng = random.Random(seed)
    span = MAX_VERTICES - MIN_VERTICES
    sizes = [MIN_VERTICES + (i * span) // max(count - 1, 1) for i in range(count)]
    modes = [MODES[i % len(MODES)] for i in range(count)]
    rng.shuffle(sizes)
    rng.shuffle(modes)
    for vertices, mode in zip(sizes, modes):
        code = random_dyck(vertices - 1, rng)
        edges, rotations = relabel(rotation_system(code), rng)
        yield {
            "code": code,
            "mode": mode,
            "vertices": vertices,
            "edges": edges,
            "rotations": rotations,
        }
