"""Deterministic renderings of tree codes: dot, svg, or an ascii outline.

Layout quality is not a goal; embedding-order fidelity and byte-stable
output are. Accepts either a bare parenthesis code or a serialized
catalog line (`U:<code>` / `B:<code>`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .trees import RootedPlaneTree, decode, encode

FORMATS = ("dot", "svg", "ascii")
LAYOUTS = ("layered", "radial")


@dataclass(frozen=True)
class RenderSpec:
    format: str
    layout: str
    code: str

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")


def parse_code_argument(text: str) -> RootedPlaneTree:
    """Strip an optional centrality prefix and decode; MalformedCode on junk."""
    if text[:2] in ("U:", "B:"):
        text = text[2:]
    return decode(text)


def render(spec: RenderSpec) -> str:
    tree = parse_code_argument(spec.code)
    if spec.format == "ascii":
        return render_ascii(tree)
    if spec.format == "dot":
        return render_dot(tree)
    return render_svg(tree, layout=spec.layout)


def _preorder(tree: RootedPlaneTree) -> tuple[list[int], list[int], list[int]]:
    # parent id (-1 for the root), depth and subtree vertex count of every
    # vertex, numbered in preorder, from one scan of the code
    parents, depths, sizes = [-1], [0], [1]
    path = [0]
    for ch in encode(tree):
        if ch == "(":
            parents.append(path[-1])
            depths.append(len(path))
            sizes.append(1)
            path.append(len(sizes) - 1)
        else:
            vid = path.pop()
            sizes[path[-1]] += sizes[vid]
    return parents, depths, sizes


def render_ascii(tree: RootedPlaneTree) -> str:
    """Indented outline, one vertex per line, children in stored order."""
    _, depths, _ = _preorder(tree)
    return "".join("  " * depth + "o\n" for depth in depths)


def render_dot(tree: RootedPlaneTree) -> str:
    """Graphviz digraph; `ordering=out` keeps children in embedding order."""
    parents, _, _ = _preorder(tree)
    lines = ["digraph plane_tree {", "  graph [ordering=out];", "  node [shape=circle];"]
    lines.extend(f'  n{vid} [label="{vid}"];' for vid in range(len(parents)))
    lines.extend(f"  n{parents[vid]} -> n{vid};" for vid in range(1, len(parents)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _radial_positions(
    parents: list[int], depths: list[int], sizes: list[int]
) -> list[tuple[float, float]]:
    # children take angular wedges proportional to subtree size, preserving
    # their cyclic order around every vertex
    step = 60.0
    wedges = [(0.0, 2.0 * math.pi)]
    # where the next child's wedge starts, per vertex
    cursor = [0.0]
    for vid in range(1, len(parents)):
        parent = parents[vid]
        lo, hi = wedges[parent]
        span = (hi - lo) * sizes[vid] / max(sizes[parent] - 1, 1)
        start = cursor[parent]
        wedges.append((start, start + span))
        cursor[parent] = start + span
        cursor.append(start)
    positions = []
    for (lo, hi), depth in zip(wedges, depths):
        mid = (lo + hi) / 2.0
        r = step * depth
        positions.append((r * math.cos(mid), r * math.sin(mid)))
    return positions


def _layered_positions(
    parents: list[int], depths: list[int], sizes: list[int]
) -> list[tuple[float, float]]:
    # leaves get successive columns; inner vertices sit over their children
    n = len(parents)
    xs = [0.0] * n
    column = 0
    last_child = list(range(n))
    for vid in range(n):
        if sizes[vid] == 1:
            xs[vid] = float(column)
            column += 1
        if vid:
            last_child[parents[vid]] = vid
    for vid in range(n - 1, -1, -1):
        if sizes[vid] > 1:
            # the first child follows its parent in preorder
            xs[vid] = (xs[vid + 1] + xs[last_child[vid]]) / 2.0
    return [(60.0 * x, 60.0 * depth) for x, depth in zip(xs, depths)]


def render_svg(tree: RootedPlaneTree, layout: str = "radial") -> str:
    """Standalone svg document, one circle per vertex and one line per edge."""
    parents, depths, sizes = _preorder(tree)
    place = _radial_positions if layout == "radial" else _layered_positions
    points = place(parents, depths, sizes)
    pad = 20.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    min_x, min_y = min(xs) - pad, min(ys) - pad
    width = max(xs) - min_x + pad
    height = max(ys) - min_y + pad
    # each coordinate is formatted once, for its circle and its lines
    fxs = ["%.2f" % (x - min_x) for x in xs]
    fys = ["%.2f" % (y - min_y) for y in ys]

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
    ]
    for vid in range(1, len(parents)):
        p = parents[vid]
        lines.append(
            f'  <line x1="{fxs[p]}" y1="{fys[p]}" x2="{fxs[vid]}" y2="{fys[vid]}" '
            'stroke="black" stroke-width="1.5"/>'
        )
    for x, y in zip(fxs, fys):
        lines.append(f'  <circle cx="{x}" cy="{y}" r="5" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
