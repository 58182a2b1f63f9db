"""Flows with a single sink on the 2-sphere, modeled by their separatrix trees.

A structurally stable gradient-like flow on the sphere with exactly one
sink is classified, up to topological equivalence, by the embedded graph
whose vertices are the sources and whose edges are the stable manifolds of
the saddles. With one sink that graph can have no cycle (a cycle would
bound two regions, each needing its own sink) and is connected, so it is a
tree; and because a tree embedded in the sphere has a single complementary
face, sphere embeddings and plane embeddings classify identically. The
classification problem therefore reduces to the plane-tree catalog, and
everything here is purely combinatorial: no vector fields are integrated.

Index arithmetic pins the counts: sources - saddles + sinks equals the
Euler characteristic 2 of the sphere, so a flow with k saddles has k + 1
sources; `_sources` is the one place that adds that 1 and rejects a
negative saddle count. `validate_flow_graph` reads the rotation system
as one code, in one walk round the contour from vertex 0.
"""

from __future__ import annotations

from collections.abc import Sequence

from .canonical import PlaneTree, _plane_tree_of
from .enumeration import count_plane, enumerate_plane_center
from .errors import Disconnected, HasCycle
from .trees import EquivalenceMode, _Frozen


class MorseFlow(_Frozen):
    """Invariant data of a one-sink flow: fixed-point counts plus the
    separatrix tree. ORIENTED mode is equivalence under orientation-
    preserving sphere homeomorphisms; MIRROR also allows reversing ones."""

    _fields = ("sources", "saddles", "sinks", "separatrices")

    def __init__(self, sources: int, saddles: int, sinks: int, separatrices: PlaneTree) -> None:
        if sinks != 1:
            raise ValueError(f"one-sink flows only, got {sinks} sinks")
        if sources - saddles + sinks != 2:
            raise ValueError(f"index sum {sources} - {saddles} + {sinks} != 2")
        if separatrices.vertex_count != sources:
            raise ValueError("separatrix tree must have one vertex per source")
        if separatrices.edge_count != saddles:
            raise ValueError("separatrix tree must have one edge per saddle")
        self._store(sources, saddles, sinks, separatrices)


def flow_from_tree(tree: PlaneTree) -> MorseFlow:
    """The flow whose separatrix tree is the given class: one source per
    vertex, one saddle per edge, one sink in the single complementary face."""
    return MorseFlow(tree.vertex_count, tree.edge_count, 1, tree)


def _contour_code(adj: list[list[int]], root: int) -> str:
    # '(' down each edge, ')' back up, on a stack of (vertex, index last visited, neighbours
    # left); children follow the parent cyclically, so a vertex starts at its parent's index
    chars = []
    path = []
    v, at, left = root, -1, len(adj[root])
    while left or path:
        if left:
            at = (at + 1) % len(adj[v])
            w = adj[v][at]
            path.append((v, at, left - 1))
            chars.append("(")
            v, at, left = w, adj[w].index(v), len(adj[w]) - 1
        else:
            chars.append(")")
            v, at, left = path.pop()
    return "".join(chars)


def validate_flow_graph(
    vertices: int,
    edges: Sequence[tuple[int, int]],
    rotations: Sequence[Sequence[int]] | None = None,
    mode: EquivalenceMode = EquivalenceMode.ORIENTED,
) -> MorseFlow:
    """Accept a candidate separatrix multigraph iff it is a tree.

    `rotations`, when given, lists each vertex's neighbors in cyclic order
    and fixes the plane embedding; otherwise neighbors are taken in
    ascending index order. Raises HasCycle for any cycle (self-loops and
    parallel edges included), Disconnected for multiple components, and
    ValueError for ill-formed input.
    """
    if not isinstance(vertices, int) or vertices < 1:
        raise ValueError(f"need at least one vertex, got {vertices!r}")
    parent = list(range(vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    try:
        pairs = [(a, b) for a, b in edges]
        adj = None if rotations is None else [list(order) for order in rotations]
    except (TypeError, ValueError):
        raise ValueError("edges must be vertex pairs, rotations lists of vertices") from None
    neighbors: list[list[int]] = [[] for _ in range(vertices)]
    for a, b in pairs:
        ids = isinstance(a, int) and isinstance(b, int)
        if not (ids and 0 <= a < vertices and 0 <= b < vertices):
            raise ValueError(f"edge ({a!r}, {b!r}) mentions an unknown vertex")
        ra, rb = find(a), find(b)
        if ra == rb:
            raise HasCycle(f"edge ({a}, {b}) closes a cycle")
        parent[ra] = rb
        neighbors[a].append(b)
        neighbors[b].append(a)
    # no edge closed a cycle, so the graph is a forest: a tree iff it has
    # one edge fewer than vertices
    if len(pairs) != vertices - 1:
        raise Disconnected(f"{vertices} vertices but only {len(pairs)} tree edges")

    if adj is None:
        adj = [sorted(nbrs) for nbrs in neighbors]
    else:
        if len(adj) != vertices:
            raise ValueError("rotations must list every vertex")
        if not all(isinstance(u, int) for order in adj for u in order):
            raise ValueError("rotations must list vertex ids")
        for v in range(vertices):
            if sorted(adj[v]) != sorted(neighbors[v]):
                raise ValueError(f"rotation at vertex {v} does not match its edges")

    return flow_from_tree(_plane_tree_of(_contour_code(adj, 0), mode))


def _sources(saddles: int) -> int:
    # the sources of a one-sink flow with that many saddles, by the index sum
    if saddles < 0:
        raise ValueError(f"saddle count must be non-negative, got {saddles}")
    return saddles + 1


def count_flows(
    saddles: int,
    mode: EquivalenceMode = EquivalenceMode.ORIENTED,
    *,
    limit: int | None = None,
) -> int:
    """Topological-equivalence classes of one-sink flows with that many
    saddles; equals the plane-tree count with one vertex per source."""
    return count_plane(_sources(saddles), mode, limit=limit)


def enumerate_flows(
    saddles: int,
    mode: EquivalenceMode = EquivalenceMode.ORIENTED,
    *,
    limit: int | None = None,
) -> list[MorseFlow]:
    """All flow classes with the given saddle count, in catalog order."""
    return [flow_from_tree(tree) for tree in enumerate_plane_center(_sources(saddles), mode, limit=limit)]


def _record_head(saddles: int) -> str:
    # what a flow record with that many saddles holds before its tree's serialized class
    return f"sources={_sources(saddles)} saddles={saddles} sinks=1 tree="


def flow_record(flow: MorseFlow) -> str:
    """One-line report format for a single flow class."""
    return _record_head(flow.saddles) + flow.separatrices.serialize()
