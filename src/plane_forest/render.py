"""Deterministic renderings of tree codes: dot, svg, or an ascii outline.

Layout quality is not a goal; embedding-order fidelity and byte-stable
output are. Accepts either a bare parenthesis code or a serialized
catalog line (`U:<code>` / `B:<code>`). All renderings read the one
preorder scan of a code, `trees._preorder`.
"""

from __future__ import annotations

import math

from .trees import RootedPlaneTree, _Frozen, _preorder, decode, encode

FORMATS = ("dot", "svg", "ascii")
LAYOUTS = ("layered", "radial")


class RenderSpec(_Frozen):
    _fields = ("format", "layout", "code")

    def __init__(self, format: str, layout: str, code: str) -> None:
        _check_choice("format", format, FORMATS)
        _check_choice("layout", layout, LAYOUTS)
        self._store(format, layout, code)


def _check_choice(name: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def render(spec: RenderSpec) -> str:
    tree = decode(spec.code[2:] if spec.code[:2] in ("U:", "B:") else spec.code)
    if spec.format == "ascii":
        return render_ascii(tree)
    if spec.format == "dot":
        return render_dot(tree)
    return render_svg(tree, layout=spec.layout)


def render_ascii(tree: RootedPlaneTree) -> str:
    """Indented outline, one vertex per line, children in stored order."""
    _, depths, _ = _preorder(encode(tree))
    return "".join("  " * depth + "o\n" for depth in depths)


def render_dot(tree: RootedPlaneTree) -> str:
    """Graphviz digraph; `ordering=out` keeps children in embedding order."""
    parents, _, _ = _preorder(encode(tree))
    lines = ["digraph plane_tree {", "  graph [ordering=out];", "  node [shape=circle];"]
    lines.extend(f'  n{vid} [label="{vid}"];' for vid in range(len(parents)))
    lines.extend(f"  n{parents[vid]} -> n{vid};" for vid in range(1, len(parents)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _radial_positions(
    parents: list[int], depths: list[int], sizes: list[int]
) -> tuple[list[float], list[float]]:
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
    xs, ys = [], []
    for (lo, hi), depth in zip(wedges, depths):
        mid = (lo + hi) / 2.0
        r = step * depth
        xs.append(r * math.cos(mid))
        ys.append(r * math.sin(mid))
    return xs, ys


def _layered_positions(
    parents: list[int], depths: list[int], sizes: list[int]
) -> tuple[list[float], list[float]]:
    # leaves get successive columns; inner vertices sit over their children
    n = len(parents)
    xs = [0.0] * n
    column = 0
    for vid in range(n):
        if sizes[vid] == 1:
            xs[vid] = float(column)
            column += 1
    # each vertex's last child: a later child overwrites an earlier one
    last_child = {parent: vid for vid, parent in enumerate(parents)}
    for vid in range(n - 1, -1, -1):
        if sizes[vid] > 1:
            # the first child follows its parent in preorder
            xs[vid] = (xs[vid + 1] + xs[last_child[vid]]) / 2.0
    return [60.0 * x for x in xs], [60.0 * depth for depth in depths]


def render_svg(tree: RootedPlaneTree, layout: str = "radial") -> str:
    """Standalone svg document, one circle per vertex and one line per edge."""
    _check_choice("layout", layout, LAYOUTS)
    parents, depths, sizes = _preorder(encode(tree))
    place = _radial_positions if layout == "radial" else _layered_positions
    xs, ys = place(parents, depths, sizes)
    pad = 20.0
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
