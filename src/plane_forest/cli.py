"""Command-line surface: count, enumerate, flows, verify, render.

Exit codes: 0 success, 1 usage or input error, 2 internal verification
mismatch. Output is deterministic; identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import itertools
import os
import stat
import sys
import tempfile
from typing import Iterable, Iterator

from .enumeration import (
    ORACLE_MAX_VERTICES,
    catalog_json,
    catalog_text,
    count_plane,
    enumerate_plane_center,
    reconcile_counts,
)
from .errors import LimitExceeded, PlaneForestError
from .morse import count_flows, enumerate_flows, flow_record
from .render import FORMATS, LAYOUTS, RenderSpec, render
from .trees import EquivalenceMode, count_rooted, enumerate_rooted, rooted_codes
from .canonical import canonical_plane, rerooting_oracle_canon


#: Most edges whose Catalan number prints within Python's default limit of
#: 4300 digits; a constant, so the cap holds where Python sets no limit.
_COUNT_MAX_EDGES = 7152


def _file_mode(path: str) -> int:
    # the permissions open(path, "w") gives: an existing file keeps its
    # own, a new one gets 0o666 less the umask (mkstemp's are owner-only)
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _emit(lines: Iterable[str], out: str | None) -> None:
    # full content is written to a sibling temp file and renamed into
    # place, so a failure mid-run never leaves a partial output file
    if out is None:
        for line in lines:
            sys.stdout.write(line)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    mode = _file_mode(out)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".plane-forest-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.chmod(tmp, mode)
            for line in lines:
                handle.write(line)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rooted_route(args: argparse.Namespace) -> bool:
    # --edges selects the rooted trees, which --max-vertices does not cap
    if args.edges is not None and args.max_vertices is not None:
        raise ValueError("--max-vertices caps plane trees by vertices, not --edges")
    return args.edges is not None


def cmd_count(args: argparse.Namespace) -> int:
    if _rooted_route(args):
        if args.edges > _COUNT_MAX_EDGES:
            raise LimitExceeded(f"{args.edges} edges exceeds the count cap of {_COUNT_MAX_EDGES}")
        value = count_rooted(args.edges)
    else:
        value = count_plane(args.vertices, EquivalenceMode(args.mode), limit=args.max_vertices)
    print(value)
    return 0


def _rooted_json(edges: int, codes: Iterator[str]) -> Iterator[str]:
    # json.dumps({"edges": edges, "count": n, "codes": codes}, indent=2,
    # sort_keys=True) + "\n", written as the codes stream: there is always
    # at least one code, and parentheses need no escaping
    yield '{\n  "codes": [\n    "' + next(codes) + '"'
    yield from map(',\n    "{}"'.format, codes)
    yield f'\n  ],\n  "count": {count_rooted(edges)},\n  "edges": {edges}\n}}\n'


def cmd_enumerate(args: argparse.Namespace) -> int:
    if _rooted_route(args):
        if args.format == "codes":
            _emit((code + "\n" for code in rooted_codes(args.edges)), args.out)
        elif args.format == "catalog":
            # the header is counted, not listed, so the codes stream as above
            lines = (code + "\n" for code in rooted_codes(args.edges))
            header = f"# rooted-trees edges={args.edges} count={count_rooted(args.edges)}\n"
            _emit(itertools.chain([header], lines), args.out)
        else:
            _emit(_rooted_json(args.edges, rooted_codes(args.edges)), args.out)
        return 0

    mode = EquivalenceMode(args.mode)
    classes = enumerate_plane_center(args.vertices, mode, limit=args.max_vertices)
    if args.format == "codes":
        _emit((p.serialize() + "\n" for p in classes), args.out)
    elif args.format == "catalog":
        _emit([catalog_text(args.vertices, mode, classes)], args.out)
    else:
        _emit([catalog_json(args.vertices, mode, classes)], args.out)
    return 0


def cmd_flows(args: argparse.Namespace) -> int:
    mode = EquivalenceMode(args.mode)
    lines = [str(count_flows(args.saddles, mode, limit=args.max_vertices)) + "\n"]
    if args.list:
        flows = enumerate_flows(args.saddles, mode, limit=args.max_vertices)
        lines.extend(flow_record(flow) + "\n" for flow in flows)
    _emit(lines, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    top = args.max_vertices if args.max_vertices is not None else 9
    sweep_top = min(top, ORACLE_MAX_VERTICES)
    all_ok = True
    print("internal consistency (center gluing vs brute-force re-rooting):")
    for vertices in range(1, sweep_top + 1):
        cells = []
        for mode in EquivalenceMode:
            glued = [p.serialize() for p in enumerate_plane_center(vertices, mode, limit=top)]
            # one sweep gives the brute-force catalog and the partition check
            pairs = {
                (canonical_plane(tree, mode).serialize(), rerooting_oracle_canon(tree, mode))
                for tree in enumerate_rooted(vertices - 1)
            }
            oracle = sorted({fast for fast, _ in pairs})
            ok = glued == oracle and len(pairs) == len(oracle) == len({slow for _, slow in pairs})
            all_ok = all_ok and ok
            cells.append(f"{mode.value}={'ok' if ok else 'FAIL'} (count={len(glued)})")
        print(f"  v={vertices:>2}: " + "  ".join(cells))
    if top > sweep_top:
        print(f"  (oracle comparison capped at v={sweep_top})")
    print()
    print("claimed-count audit (mismatches are reported, not failures):")
    report = reconcile_counts()
    for line in report.to_text().splitlines():
        print("  " + line)
    print()
    if all_ok:
        print("internal checks: all passed")
        return 0
    print("internal checks: FAILED", file=sys.stderr)
    return 2


def cmd_render(args: argparse.Namespace) -> int:
    spec = RenderSpec(format=args.format, layout=args.layout, code=args.code)
    _emit([render(spec)], args.out)
    return 0


def positive_int(text: str) -> int:
    # a cap below one vertex would check and list nothing
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plane-forest",
        description="Enumerate, canonicalize and render plane trees; count "
        "one-sink sphere flows by their separatrix trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mode",
            choices=[m.value for m in EquivalenceMode],
            default=EquivalenceMode.ORIENTED.value,
            help="plane isomorphism flavor (default: oriented)",
        )

    def add_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-vertices",
            type=positive_int,
            default=None,
            help="raise or lower the plane enumeration cap",
        )

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write to this path instead of stdout")

    p_count = sub.add_parser("count", help="print one integer: a tree or flow count")
    group = p_count.add_mutually_exclusive_group(required=True)
    group.add_argument("--edges", type=int, help="count rooted plane trees by edges")
    group.add_argument("--vertices", type=int, help="count plane trees by vertices")
    add_mode(p_count)
    add_cap(p_count)
    p_count.set_defaults(func=cmd_count)

    p_enum = sub.add_parser("enumerate", help="stream a sorted enumeration")
    group = p_enum.add_mutually_exclusive_group(required=True)
    group.add_argument("--edges", type=int, help="rooted plane trees by edges")
    group.add_argument("--vertices", type=int, help="plane trees by vertices")
    p_enum.add_argument(
        "--format", choices=("codes", "catalog", "json"), default="codes"
    )
    add_mode(p_enum)
    add_cap(p_enum)
    add_out(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_flows = sub.add_parser("flows", help="count one-sink flow classes by saddles")
    p_flows.add_argument("--saddles", type=int, required=True)
    p_flows.add_argument("--list", action="store_true", help="also print one record per class")
    add_mode(p_flows)
    add_cap(p_flows)
    add_out(p_flows)
    p_flows.set_defaults(func=cmd_flows)

    p_verify = sub.add_parser(
        "verify", help="cross-check both enumeration routes and audit claimed counts"
    )
    add_cap(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="draw a tree code as dot, svg or ascii")
    p_render.add_argument("--code", required=True, help="parenthesis code, optionally U:/B: prefixed")
    p_render.add_argument("--format", choices=FORMATS, default="ascii")
    p_render.add_argument("--layout", choices=LAYOUTS, default="radial")
    add_out(p_render)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; contract says 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (PlaneForestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
