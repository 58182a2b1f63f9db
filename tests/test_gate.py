"""The byte-identity gate: every row of `gate.json` run through `cli.main`.

A row is one CLI run: its argv, its exit code, the SHA-256 of its stdout
and, for an error, its exact stderr. Each `enumerate`, `flows` and `render`
row also runs with `--out`: a success writes the pinned bytes to the file
and nothing to stdout or stderr, an error writes the row's stderr and no
file. CI's packaging step runs the rows, without `--out`, through the
installed `plane-forest` script and checks nothing else there. Every
`enumerate` and `render` format and every svg layout has a success row.
Nothing here writes the file: a change that has to move a row edits it by
hand, and CHANGES names the row.
"""

import argparse
import hashlib

import pytest

from plane_forest.cli import build_parser, main
from plane_forest.render import FORMATS, LAYOUTS

from helpers import GATE

EMPTY = hashlib.sha256(b"").hexdigest()

#: The commands that take `--out`.
LISTINGS = ("enumerate", "flows", "render")


def _row_id(row):
    # the long render code would make an unreadable id
    return " ".join(arg if len(arg) <= 40 else f"<{len(arg)}-character code>" for arg in row["argv"])


@pytest.fixture(autouse=True)
def _no_edge_cap(monkeypatch):
    # a user's edge cap may not flip a row
    monkeypatch.delenv("PLANE_FOREST_MAX_EDGES", raising=False)


@pytest.mark.parametrize("row", GATE, ids=_row_id)
def test_row(capsys, row):
    status = main(list(row["argv"]))
    out, err = capsys.readouterr()
    seen = {"exit": status, "stdout": hashlib.sha256(out.encode()).hexdigest()}
    assert seen == {"exit": row["exit"], "stdout": row["stdout"]}, f"observed {seen}"
    assert err == row.get("stderr", "")


@pytest.mark.parametrize("row", [row for row in GATE if row["argv"][0] in LISTINGS], ids=_row_id)
def test_row_through_out(capsys, tmp_path, row):
    # the file holds what stdout would; an error leaves no file, not even a temp one
    out = tmp_path / "out"
    status = main([*row["argv"], "--out", str(out)])
    if "stderr" in row:
        assert (status, *capsys.readouterr()) == (1, "", row["stderr"])
        assert list(tmp_path.iterdir()) == []
    else:
        assert (status, *capsys.readouterr()) == (0, "", "")
        assert list(tmp_path.iterdir()) == [out]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == row["stdout"]


def test_output_ignores_the_terminal_width(capsys, monkeypatch):
    # argparse would wrap usage and help to COLUMNS; the CLI wraps at a fixed width
    usage = next(row for row in GATE if row["argv"] == ["verify", "--max-vertices", "0"])
    helps = {}
    for columns in "40", "80", "200":
        monkeypatch.setenv("COLUMNS", columns)
        for command in "", "count", "enumerate", "flows", "verify", "render":
            assert main([*command.split(), "-h"]) == 0
            helps.setdefault(command or "plane-forest", set()).add(capsys.readouterr().out)
        assert main(usage["argv"]) == 1
        assert capsys.readouterr() == ("", usage["stderr"]), f"COLUMNS={columns}"
    assert [command for command, outs in helps.items() if len(outs) > 1] == []


def test_rows_are_unique_by_argv():
    argvs = [tuple(row["argv"]) for row in GATE]
    assert len(set(argvs)) == len(argvs)


def test_a_row_is_a_success_or_an_error():
    # a success exits 0 and writes nothing to stderr; an error exits 1,
    # writes nothing to stdout and states its whole stderr
    for row in GATE:
        if "stderr" in row:
            assert row.keys() == {"argv", "exit", "stdout", "stderr"}, row["argv"]
            assert (row["exit"], row["stdout"]) == (1, EMPTY) and row["stderr"].endswith("\n"), row["argv"]
        else:
            assert row.keys() == {"argv", "exit", "stdout"} and row["exit"] == 0, row["argv"]


def test_every_format_and_layout_has_a_success_row():
    # a new enumerate or render format, or a new svg layout, cannot go unpinned
    parser = build_parser()
    commands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction)).choices
    listings = next(action for action in commands["enumerate"]._actions if action.dest == "format").choices
    pinned = {"enumerate": set(), "render": set(), "svg": set()}
    for args in (parser.parse_args(row["argv"]) for row in GATE if "stderr" not in row):
        if args.command in ("enumerate", "render"):
            pinned[args.command].add(args.format)
        if args.command == "render" and args.format == "svg":
            pinned["svg"].add(args.layout)
    assert pinned == {"enumerate": set(listings), "render": set(FORMATS), "svg": set(LAYOUTS)}
