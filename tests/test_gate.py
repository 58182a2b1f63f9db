"""The byte-identity gate: every row of `gate.json` run through `cli.main`.

A row is one CLI run: its argv, its exit code, the SHA-256 of its stdout
and, for an error, its exact stderr. CI runs the same rows through the
installed `plane-forest` script. Nothing here writes the file: a change
that has to move a row edits it by hand, and CHANGES names the row.
"""

import hashlib

import pytest

from plane_forest.cli import main

from helpers import GATE

EMPTY = hashlib.sha256(b"").hexdigest()


def _row_id(row):
    # the long render code would make an unreadable id
    return " ".join(arg if len(arg) <= 40 else f"<{len(arg)}-character code>" for arg in row["argv"])


@pytest.mark.parametrize("row", GATE, ids=_row_id)
def test_row(capsys, monkeypatch, row):
    # a user's edge cap may not flip a row
    monkeypatch.delenv("PLANE_FOREST_MAX_EDGES", raising=False)
    status = main(list(row["argv"]))
    out, err = capsys.readouterr()
    seen = {"exit": status, "stdout": hashlib.sha256(out.encode()).hexdigest()}
    assert seen == {"exit": row["exit"], "stdout": row["stdout"]}, f"observed {seen}"
    assert err == row.get("stderr", "")


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
