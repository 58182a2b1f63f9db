"""Command-line surface: count, enumerate, flows, verify, render.

Exit codes: 0 success, 1 usage or input error, 2 internal verification
mismatch. `--out` replaces a file whole, but appends to a file already
open for writing on a descriptor (stdout's, stderr's, `/dev/fd/N`'s; not
stdin's, as in `--out f < f`) and writes a FIFO or a device in place; a
reader that closes any of them or stdout early ends the output with exit
0 and no message, and a closed stdout is an error (EBADF). Identical
invocations produce identical bytes, whatever the terminal's width.
"""

from __future__ import annotations

import argparse
import errno
import fcntl
import os
import stat
import sys
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import nullcontext, suppress

from .enumeration import (
    ORACLE_MAX_VERTICES,
    _catalog,
    _center_codes,
    _cross_check,
    _listing,
    _rooted_listing,
    count_plane,
    reconcile_counts,
)
from .errors import LimitExceeded, PlaneForestError
from .morse import _record_head, _sources, count_flows
from .render import FORMATS, LAYOUTS, RenderSpec, render
from .trees import EquivalenceMode, count_rooted, encode, enumerate_rooted, rooted_codes
from .canonical import rerooting_oracle_canon


#: Most edges whose Catalan number prints within Python's default limit of
#: 4300 digits; a constant, so the cap holds where Python sets no limit.
_COUNT_MAX_EDGES = 7152


def _file_mode(path: str) -> int | None:
    # the permissions open(path, "w") gives: an existing file keeps its
    # own, a new one gets 0o666 less the umask (mkstemp's are owner-only);
    # None for a target that exists and is not a regular file, or that a
    # descriptor /dev/fd lists holds open for writing (a closed one has no
    # file, and the listing's own is closed by then); fd 1 where there is none
    try:
        st = os.stat(path)
    except FileNotFoundError:
        if not path:  # names no file, though realpath("") is the working directory
            raise
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask
    for fd in map(int, os.listdir("/dev/fd") if os.path.isdir("/dev/fd") else ["1"]):
        with suppress(OSError):
            if os.path.samestat(st, os.fstat(fd)) and fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE:
                return None
    return stat.S_IMODE(st.st_mode) if stat.S_ISREG(st.st_mode) else None


def _emit(lines: Iterable[str], out: str | None) -> None:
    # a new or regular file gets its full content in a sibling temp file renamed
    # into place, so a failure mid-run never leaves a partial output file
    if out is None and sys.stdout is None:
        # Python sets sys.stdout to None when it starts with fd 1 closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    mode = None if out is None else _file_mode(out)
    tmp = ""
    try:
        if mode is None:
            # stdout, its own file, a FIFO or a device is written in place;
            # append mode keeps what a `>>` redirection already holds
            try:
                with nullcontext(sys.stdout) if out is None else open(out, "a", encoding="utf-8") as handle:
                    handle.writelines(lines)
                    handle.flush()
            except BrokenPipeError:
                # the reader stopped early, which ends the stream but is no
                # error; stdout goes to devnull, so a flush of what is still
                # buffered at interpreter exit cannot raise again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            return
        # a symlink is written through, as open(out, "w") would, not replaced
        target = os.path.realpath(out)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".plane-forest-")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.chmod(tmp, mode)
            handle.writelines(lines)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and out is not None:
            # the user named `out`: not the hidden temp file, and a failed
            # write names no file at all
            raise OSError(exc.errno, exc.strerror, out) from None
        raise


def _rooted_route(args: argparse.Namespace) -> bool:
    # --edges selects the rooted trees, which --max-vertices does not cap nor --mode compare
    for given, option in (args.max_vertices, "--max-vertices"), (args.mode, "--mode"):
        if args.edges is not None and given is not None:
            raise ValueError(f"{option} applies to plane trees by vertices, not --edges")
    return args.edges is not None


def cmd_count(args: argparse.Namespace) -> int:
    if _rooted_route(args):
        if args.edges > _COUNT_MAX_EDGES:
            raise LimitExceeded(f"{args.edges} edges exceeds the count cap of {_COUNT_MAX_EDGES}")
        value = count_rooted(args.edges)
    else:
        value = count_plane(args.vertices, EquivalenceMode(args.mode or "oriented"), limit=args.max_vertices)
    _emit([f"{value}\n"], None)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if _rooted_route(args):
        codes = rooted_codes(args.edges)  # a cap error comes before any output
        lines = _rooted_listing(args.edges, codes, args.format)
    else:
        mode = EquivalenceMode(args.mode or "oriented")
        lines = _catalog(args.vertices, mode, _center_codes(args.vertices, mode, args.max_vertices), args.format)
    _emit(lines, args.out)
    return 0


def cmd_flows(args: argparse.Namespace) -> int:
    mode = EquivalenceMode(args.mode or "oriented")
    if args.list:  # the count line is the length of the list: one enumeration
        codes = _center_codes(_sources(args.saddles), mode, args.max_vertices)  # a negative count fails first
        lines = _listing(codes, len(codes), _record_head(args.saddles), "", "flows")
    else:
        lines = [f"{count_flows(args.saddles, mode, limit=args.max_vertices)}\n"]
    _emit(lines, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    sweep_top = min(args.max_vertices, ORACLE_MAX_VERTICES)
    all_ok = True

    def lines() -> Iterator[str]:
        nonlocal all_ok
        yield "internal consistency (center gluing vs brute-force re-rooting):\n"
        for vertices in range(1, sweep_top + 1):
            # the oracle once per rooted tree, oriented; interned, one string per class
            slow = {
                encode(tree): sys.intern(rerooting_oracle_canon(tree, EquivalenceMode.ORIENTED))
                for tree in enumerate_rooted(vertices - 1)
            }
            checks = list(_cross_check(vertices, slow))
            all_ok = all_ok and not any(fault for _, fault, _ in checks)
            cells = [f"{mode.value}={'FAIL' if fault else 'ok'} (count={count}{fault and ': ' + fault})"
                     for mode, fault, count in checks]
            yield f"  v={vertices:>2}: " + "  ".join(cells) + "\n"
        if args.max_vertices > sweep_top:
            yield f"  (oracle comparison capped at v={sweep_top})\n"
        yield "\nclaimed-count audit (mismatches are reported, not failures):\n"
        yield from (f"  {line}\n" for line in reconcile_counts().to_text().splitlines())
        yield "\n" + ("internal checks: all passed\n" if all_ok else "")

    _emit(lines(), None)
    if all_ok:
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


class _Parser(argparse.ArgumentParser):
    # wraps at 78 as an 80-column terminal does, never at COLUMNS; subparsers inherit it
    def _get_formatter(self) -> argparse.HelpFormatter:
        return self.formatter_class(prog=self.prog, width=78)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plane-forest",
        description="Enumerate, canonicalize and render plane trees; count "
        "one-sink sphere flows by their separatrix trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mode",
            choices=[m.value for m in EquivalenceMode],
            help="plane isomorphism flavor (default: oriented)",
        )

    def add_cap(p: argparse.ArgumentParser, help: str = "raise or lower the plane enumeration cap") -> None:
        p.add_argument("--max-vertices", type=positive_int, help=help)

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
    p_flows.add_argument("--saddles", type=int, required=True, help="saddles of each flow: the edges of its separatrix tree")
    p_flows.add_argument("--list", action="store_true", help="also print one record per class")
    add_mode(p_flows)
    add_cap(p_flows)
    add_out(p_flows)
    p_flows.set_defaults(func=cmd_flows)

    p_verify = sub.add_parser(
        "verify", help="cross-check both enumeration routes and audit claimed counts"
    )
    add_cap(p_verify, "check plane trees of 1 to MAX_VERTICES vertices (default: %(default)s); the oracle "
            f"comparison stops at ORACLE_MAX_VERTICES = {ORACLE_MAX_VERTICES} even when MAX_VERTICES is higher")
    p_verify.set_defaults(func=cmd_verify, max_vertices=9)

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
