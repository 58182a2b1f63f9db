import ast
import collections
import copy
import errno
import functools
import json
import os
import pathlib
import pickle
import re
import resource
import stat
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET

import pytest

import plane_forest
from plane_forest import (
    CenterResult,
    EquivalenceMode,
    PlaneTree,
    RenderSpec,
    canonical_plane,
    center,
    count_rooted,
    decode,
    encode,
    enumerate_flows,
    flow_record,
    iter_dyck_codes,
    reflect,
    render_svg,
    rotation_system,
    validate_flow_graph,
)
from plane_forest import canonical, cli, enumeration
from plane_forest.cli import main

from helpers import CLI, source_env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_rooted_four_edges(self, capsys):
        code, out, _ = run(capsys, "count", "--edges", "4")
        assert code == 0 and out == "14\n"

    def test_single_vertex(self, capsys):
        code, out, _ = run(capsys, "count", "--vertices", "1")
        assert code == 0 and out == "1\n"

    def test_eight_vertices_mirror(self, capsys):
        code, out, _ = run(capsys, "count", "--vertices", "8", "--mode", "mirror")
        assert code == 0 and out == "27\n"

    def test_requires_exactly_one_selector(self, capsys):
        assert run(capsys, "count")[0] == 1
        assert run(capsys, "count", "--edges", "2", "--vertices", "3")[0] == 1

    def test_cap_exit_code(self, capsys):
        code, out, err = run(capsys, "count", "--vertices", "13")
        assert code == 1 and out == "" and "cap" in err

    def test_cap_override_flag(self, capsys):
        code, out, _ = run(capsys, "count", "--vertices", "5", "--max-vertices", "5")
        assert code == 0 and out == "3\n"
        assert run(capsys, "count", "--vertices", "5", "--max-vertices", "4")[0] == 1

    def test_negative_input(self, capsys):
        assert run(capsys, "count", "--edges", "-3")[0] == 1

    def test_largest_rooted_count_prints_in_full(self, capsys):
        code, out, _ = run(capsys, "count", "--edges", "7152")
        assert code == 0 and len(out) == 4300 + 1
        assert int(out) == count_rooted(7152)

    @pytest.mark.parametrize("edges", ["7153", str(10**9)])
    def test_rooted_count_beyond_print_limit_fails_fast(self, capsys, edges):
        # rejected before Catalan(edges) is computed
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--edges", edges)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "7152" in err

    @pytest.mark.parametrize("mode", ["oriented", "mirror"])
    def test_largest_plane_count_prints_in_full(self, capsys, mode):
        # a plane count is at most the rooted one, so the same cap keeps it printable
        code, out, _ = run(capsys, "count", "--vertices", "7153", "--max-vertices", "7153", "--mode", mode)
        assert code == 0 and 0 < int(out) <= count_rooted(7152)

    @pytest.mark.parametrize("selector", [("count", "--vertices"), ("flows", "--saddles")], ids=["count", "flows"])
    def test_plane_count_beyond_print_limit_fails_fast(self, capsys, selector):
        # rejected before the closed form runs
        start = time.perf_counter()
        code, out, err = run(capsys, *selector, str(10**9), "--max-vertices", str(10**9 + 1))
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error: 100000000") and err.endswith(" vertices exceeds the count cap of 7153\n")

    def test_forty_vertices_in_a_cold_process(self):
        # the closed form answers far past any listing
        proc = subprocess.run([*CLI, "count", "--vertices", "40", "--max-vertices", "40"],
                              capture_output=True, env=source_env(), timeout=5)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"8723402202550254696\n", b"")


class TestEnumerate:
    def test_rooted_codes(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--edges", "2", "--format", "codes")
        assert code == 0 and out == "(())\n()()\n"

    def test_plane_codes_six_vertices(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--vertices", "6", "--format", "codes")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 6
        assert lines == sorted(lines)

    def test_plane_json_seven_vertices(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--vertices", "7", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == 14 and len(doc["codes"]) == 14
        assert doc["vertices"] == 7 and doc["mode"] == "oriented"

    def test_plane_catalog_header(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--vertices", "5", "--format", "catalog", "--mode", "mirror"
        )
        assert code == 0
        assert out.splitlines()[0] == "# plane-trees v=5 mode=mirror count=3"

    def test_rooted_catalog_and_json(self, capsys):
        codes = run(capsys, "enumerate", "--edges", "3", "--format", "codes")[1]
        code, out, _ = run(capsys, "enumerate", "--edges", "3", "--format", "catalog")
        assert code == 0
        assert out == "# rooted-trees edges=3 count=5\n" + codes
        code, out, _ = run(capsys, "enumerate", "--edges", "3", "--format", "json")
        assert json.loads(out)["count"] == 5

    def test_rooted_json_matches_json_dumps(self, capsys, tmp_path):
        # every --edges format, on stdout and through --out, against a
        # reference built from the code list; the codes are written in
        # joined chunks, and Catalan(8..11) fill one chunk or more
        for edges in range(0, 12):
            codes = list(iter_dyck_codes(edges))
            text = "".join(code + "\n" for code in codes)
            doc = {"edges": edges, "count": len(codes), "codes": codes}
            expected = {
                "codes": text,
                "catalog": f"# rooted-trees edges={edges} count={len(codes)}\n" + text,
                "json": json.dumps(doc, indent=2, sort_keys=True) + "\n",
            }
            for fmt, want in expected.items():
                argv = ["enumerate", "--edges", str(edges), "--format", fmt]
                assert run(capsys, *argv) == (0, want, "")
                target = tmp_path / f"{edges}.{fmt}"
                assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
                assert target.read_bytes() == want.encode()

    @pytest.mark.parametrize("size", [0, 1, 2, 1023, 1024, 1025, 2048, 2049, 5000])
    def test_joined_is_one_join(self, size):
        # chunk edges fall anywhere, and an empty item (the 0-edge code)
        # still counts as an item; "codes" joins with "\n", "json" with '",\n    "'
        items = [str(i) if i % 7 else "" for i in range(size)]
        doc = {"codes": items, "count": size, "edges": 0}
        wants = {"codes": "".join(item + "\n" for item in items),
                 "json": json.dumps(doc, indent=2, sort_keys=True) + "\n"}
        for fmt, want in wants.items():
            pieces = list(enumeration._listing(iter(items), size, "", '"edges": 0', fmt))
            assert "".join(pieces) == want
            # the head, one piece per chunk, then the end and tail in one
            assert len(pieces) == 2 + -(-size // enumeration._CHUNK)

    def test_out_file_permissions(self, capsys, tmp_path):
        # as open(out, "w") would leave them: 0o666 less the umask for a
        # new file, the old bits for an overwritten one
        fresh, kept = tmp_path / "fresh.txt", tmp_path / "kept.txt"
        kept.write_text("old\n")
        kept.chmod(0o644)
        old_umask = os.umask(0o027)
        try:
            for target in (fresh, kept):
                code, _, _ = run(capsys, "enumerate", "--vertices", "5", "--out", str(target))
                assert code == 0
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o640
        assert stat.S_IMODE(kept.stat().st_mode) == 0o644
        assert kept.read_text() == fresh.read_text() != "old\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "catalog.txt"
        code, out, _ = run(
            capsys, "enumerate", "--vertices", "4", "--format", "catalog", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == "# plane-trees v=4 mode=oriented count=2"

    def test_out_writes_through_a_symlink(self, capsys, tmp_path):
        # as open(out, "w") would: the link stays a link, its target is
        # rewritten in place and keeps its permissions
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("old\n")
        target.chmod(0o640)
        link.symlink_to(target.name)
        code, out, _ = run(capsys, "enumerate", "--edges", "2", "--out", str(link))
        assert (code, out) == (0, "")
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == "(())\n()()\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(tmp_path.iterdir()) == [link, target]  # no stray temp file

    def test_out_writes_into_a_fifo(self, capsys, tmp_path):
        # as open(out, "w") would: a FIFO cannot be renamed over, so the
        # output goes into it and it stays a FIFO
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        code, out, _ = run(capsys, "enumerate", "--edges", "2", "--out", str(fifo))
        reader.join(timeout=10)
        assert (code, out) == (0, "")
        assert got == ["(())\n()()\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]  # no stray temp file

    def test_out_dev_stdout_writes_to_stdout(self):
        # with stdout a pipe, /dev/stdout is written into, not renamed over
        proc = subprocess.run(
            [*CLI, "enumerate", "--edges", "2", "--out", "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env(), timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"(())\n()()\n", b"")

    def test_out_dev_stdout_appends_to_stdouts_file(self, tmp_path):
        # as `plane-forest enumerate --edges 2 --out /dev/stdout >> log.txt`:
        # stdout's own file is appended to, not replaced by a temp file
        log = tmp_path / "log.txt"
        log.write_text("first line\n")
        with open(log, "a") as stdout:
            proc = subprocess.run(
                [*CLI, "enumerate", "--edges", "2", "--out", "/dev/stdout"],
                stdout=stdout, stderr=subprocess.PIPE, env=source_env(), timeout=60,
            )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert log.read_text() == "first line\n(())\n()()\n"
        assert list(tmp_path.iterdir()) == [log]

    @pytest.mark.parametrize("stderr", [True, False], ids=["--out /dev/stderr", "--out /dev/fd/N"])
    def test_out_appends_to_a_file_open_on_another_descriptor(self, tmp_path, stderr):
        # as `--out /dev/stderr 2>> log.txt` and `--out /dev/fd/3 3>> log.txt`:
        # a file the process already writes through a descriptor is appended
        # to, not replaced by a temp file
        log = tmp_path / "log.txt"
        log.write_text("first line\n")
        with open(log, "a") as held:
            out, fds = ("/dev/stderr", ()) if stderr else (f"/dev/fd/{held.fileno()}", (held.fileno(),))
            proc = subprocess.run(
                [*CLI, "enumerate", "--edges", "2", "--out", out],
                stdout=subprocess.PIPE, stderr=held if stderr else subprocess.PIPE, pass_fds=fds,
                env=source_env(), timeout=60,
            )
        assert (proc.returncode, proc.stdout) == (0, b"")
        assert log.read_text() == "first line\n(())\n()()\n"
        assert list(tmp_path.iterdir()) == [log]

    @pytest.mark.parametrize("stdin", [True, False], ids=["< f", "N< f"])
    def test_out_replaces_a_file_open_only_for_reading(self, tmp_path, stdin):
        # as `--out f < f` and `--out f 3< f`: a descriptor that only reads
        # the file is not an in-place target, so the file is replaced whole
        target = tmp_path / "f"
        target.write_text("old\n")
        before = target.stat().st_ino
        with open(target) as held:
            proc = subprocess.run(
                [*CLI, "enumerate", "--edges", "2", "--out", str(target)],
                stdin=held if stdin else subprocess.DEVNULL, pass_fds=() if stdin else (held.fileno(),),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env(), timeout=60,
            )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert target.read_text() == "(())\n()()\n" and target.stat().st_ino != before
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("fd_dir", [True, False], ids=["/dev/fd", "no /dev/fd"])
    def test_out_replaces_a_regular_file(self, capsys, monkeypatch, tmp_path, fd_dir):
        # a file no descriptor holds is replaced whole, by a rename, also
        # where there is no /dev/fd to list the descriptors
        if not fd_dir:
            isdir = os.path.isdir
            monkeypatch.setattr(os.path, "isdir", lambda path: path != "/dev/fd" and isdir(path))
        target = tmp_path / "codes.txt"
        target.write_text("stale\n" * 10)
        before = target.stat().st_ino
        assert run(capsys, "enumerate", "--edges", "2", "--out", str(target)) == (0, "", "")
        assert target.read_text() == "(())\n()()\n" and target.stat().st_ino != before
        assert list(tmp_path.iterdir()) == [target]

    def test_no_partial_file_on_error(self, capsys, tmp_path):
        target = tmp_path / "never.txt"
        code, _, err = run(
            capsys, "enumerate", "--vertices", "99", "--format", "catalog", "--out", str(target)
        )
        assert code == 1 and "cap" in err
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no stray temp files either

    def test_out_errors_name_the_given_path(self, capsys, tmp_path):
        # a missing directory and a directory as the target: the one-line
        # error names the path given, never the hidden temp file
        missing, folder = tmp_path / "missing" / "x.txt", tmp_path / "folder"
        folder.mkdir()
        for target, number in (missing, errno.ENOENT), (folder, errno.EISDIR):
            code, out, err = run(capsys, "enumerate", "--vertices", "5", "--out", str(target))
            assert (code, out) == (1, "")
            assert err == f"error: [Errno {number}] {os.strerror(number)}: '{target}'\n"
        assert list(tmp_path.iterdir()) == [folder] and list(folder.iterdir()) == []

    @pytest.mark.parametrize("target", ["old.txt", "/dev/full"], ids=["file size limit", "/dev/full"])
    def test_out_write_errors_name_the_given_path(self, tmp_path, target):
        # a failed write carries no file name: the one-line error still names
        # the path given, the old file keeps its bytes and no temp file is left
        old = tmp_path / "old.txt"
        old.write_text("old\n")
        number = errno.EFBIG if target == "old.txt" else errno.ENOSPC
        proc = subprocess.run(
            [*CLI, "enumerate", "--edges", "10", "--out", target],
            cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60, env=source_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (8192, 8192)),
        )
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == f"error: [Errno {number}] {os.strerror(number)}: '{target}'\n".encode()
        assert list(tmp_path.iterdir()) == [old] and old.read_text() == "old\n"

    def test_out_empty_path_is_an_error(self, capsys, monkeypatch, tmp_path):
        # an empty path names no file, though realpath("") is the working
        # directory: exit 1 with the one-line ENOENT error, and no temp file
        # is made in the working directory's parent
        work = tmp_path / "work"
        work.mkdir()
        proc = subprocess.run(
            [*CLI, "enumerate", "--edges", "2", "--out", ""],
            cwd=work, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env(), timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"error: [Errno 2] No such file or directory: ''\n"
        assert list(tmp_path.iterdir()) == [work] and list(work.iterdir()) == []

        def mkstemp(**kwargs):
            raise AssertionError(f"a temp file was made in {kwargs['dir']}")

        monkeypatch.setattr(cli.tempfile, "mkstemp", mkstemp)
        want = (1, "", "error: [Errno 2] No such file or directory: ''\n")
        assert run(capsys, "flows", "--saddles", "3", "--list", "--out", "") == want

    @pytest.mark.parametrize("fmt", ["codes", "catalog", "json"])
    @pytest.mark.parametrize("env_cap, edges", [(None, "17"), ("2", "3")])
    def test_refused_rooted_cap_leaves_nothing(
        self, capsys, monkeypatch, tmp_path, fmt, env_cap, edges
    ):
        # the default cap of 16 edges, or a lower one from the environment
        if env_cap is None:
            monkeypatch.delenv("PLANE_FOREST_MAX_EDGES", raising=False)
        else:
            monkeypatch.setenv("PLANE_FOREST_MAX_EDGES", env_cap)
        target = tmp_path / "never.txt"
        for out in ([], ["--out", str(target)]):
            code, stdout, err = run(capsys, "enumerate", "--edges", edges, "--format", fmt, *out)
            assert code == 1 and stdout == ""
            assert err.startswith("error:") and err.count("\n") == 1 and "cap" in err
            assert list(tmp_path.iterdir()) == []  # no target, no temp file

    def test_round_trip_into_render_and_decode(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--vertices", "7", "--format", "codes")
        assert code == 0
        for line in out.splitlines():
            decode(line.partition(":")[2])
            assert run(capsys, "render", "--code", line, "--format", "ascii")[0] == 0


class TestFlows:
    def test_counts(self, capsys):
        assert run(capsys, "flows", "--saddles", "0")[1] == "1\n"
        assert run(capsys, "flows", "--saddles", "2")[1] == "1\n"
        assert run(capsys, "flows", "--saddles", "3")[1] == "2\n"
        assert run(capsys, "flows", "--saddles", "4")[1] == "3\n"

    def test_list_records(self, capsys):
        code, out, _ = run(capsys, "flows", "--saddles", "2", "--list")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "1"
        assert lines[1] == "sources=3 saddles=2 sinks=1 tree=U:()()"

    @pytest.mark.parametrize("listed", [False, True])
    def test_catalog_is_enumerated_once(self, capsys, monkeypatch, listed):
        # with --list the count line is the length of the sorted codes, and
        # no class is built; without it the count comes from the closed form
        glue, calls = enumeration._center_codes, []

        def counted(*args):
            calls.append(args)
            return glue(*args)

        def never(*args, **kwargs):
            raise AssertionError("flows built the plane classes")

        monkeypatch.setattr(cli, "_center_codes", counted)
        monkeypatch.setattr("plane_forest.enumeration.enumerate_plane_center", never)
        monkeypatch.setattr("plane_forest.morse.enumerate_plane_center", never)
        code, out, _ = run(capsys, "flows", "--saddles", "6", *(["--list"] if listed else []))
        assert code == 0 and out.splitlines()[0] == "14"
        assert len(out.splitlines()) == (15 if listed else 1)
        assert len(calls) == (1 if listed else 0)

    @pytest.mark.parametrize("mode", ["oriented", "mirror"])
    def test_list_records_are_the_catalog(self, capsys, mode):
        # one record per class of S + 1 vertices, in catalog order, each the
        # library's record of the library's flow
        for saddles in range(12):
            code, out, _ = run(capsys, "flows", "--saddles", str(saddles), "--list", "--mode", mode)
            count, *records = out.splitlines()
            _, catalog, _ = run(capsys, "enumerate", "--vertices", str(saddles + 1), "--mode", mode)
            head = f"sources={saddles + 1} saddles={saddles} sinks=1 tree="
            assert code == 0 and int(count) == len(records)
            assert records == [head + line for line in catalog.splitlines()]
            assert records == [flow_record(flow) for flow in enumerate_flows(saddles, EquivalenceMode(mode))]

    def test_mode_flag(self, capsys):
        code, out, _ = run(capsys, "flows", "--saddles", "7", "--mode", "mirror")
        assert code == 0 and out == "27\n"

    def test_invalid(self, capsys):
        # the saddle count is checked before the vertex count it gives
        want = (1, "", "error: saddle count must be non-negative, got -1\n")
        assert run(capsys, "flows", "--saddles", "-1") == want
        assert run(capsys, "flows", "--saddles", "-1", "--list") == want
        assert run(capsys, "flows")[0] == 1


def failed_checks(out):
    # the check named in each failing cell of a verify row
    return set(re.findall(r"=FAIL \(count=\d+: ([a-z ]+)\)", out))


class TestVerify:
    def test_default_run_passes_and_flags_mismatches(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-vertices", "7")
        assert code == 0
        assert "internal checks: all passed" in out
        row5 = next(line for line in out.splitlines() if line.split() ==
                    ["rooted", "5", "51", "42", "42", "MISMATCH"])
        assert row5
        row8 = next(line for line in out.splitlines() if line.split() ==
                    ["plane", "8", "26", "34", "27", "MISMATCH"])
        assert row8

    def test_matrix_covers_both_modes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-vertices", "6")
        assert code == 0
        assert "oriented=ok" in out and "mirror=ok" in out
        assert "FAIL" not in out

    def test_help_names_the_sweep_default_and_the_oracle_cap(self, capsys):
        # --max-vertices tops the sweep, 9 unless given, and cannot lift the oracle's stop at 10
        code, out, _ = run(capsys, "verify", "-h")
        words = " ".join(out.split())
        assert code == 0 and enumeration.ORACLE_MAX_VERTICES == 10
        assert "(default: 9)" in words and "ORACLE_MAX_VERTICES = 10" in words

    def test_sweep_centers_each_tree_once(self, capsys, monkeypatch):
        # one center scan per rooted tree up to 8 vertices, for both modes,
        # and no canonical PlaneTree built
        calls = collections.Counter()
        for name in ("_center_walk", "_plane_tree_of", "canonical_plane"):
            def counted(*args, real=getattr(canonical, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(canonical, name, counted)
        code, out, _ = run(capsys, "verify", "--max-vertices", "8")
        assert code == 0 and out.endswith("internal checks: all passed\n")
        assert calls == {"_center_walk": sum(count_rooted(edges) for edges in range(8))} == {"_center_walk": 626}

    @pytest.mark.parametrize("caller", ["verify", "oriented", "mirror"])
    def test_sweep_takes_each_least_code_once(self, capsys, monkeypatch, caller):
        # the mode step runs once per mode per distinct center input, not
        # once per rooted tree: the rootings of a class share their inputs.
        # `verify` up to 8 vertices and `enumerate_plane_oracle(8, mode)` take
        # both modes' steps on the one brute-force pass
        calls = collections.Counter()
        split = canonical._center_split

        def counted_split(code):
            kind, step = split(code)

            def counted(*args):
                calls[args[:-1], args[-1]] += 1
                return step.func(*args)

            return kind, functools.partial(counted, *step.args)

        monkeypatch.setattr(enumeration, "_center_split", counted_split)
        if caller == "verify":
            code, out, _ = run(capsys, "verify", "--max-vertices", "8")
            assert code == 0 and out.endswith("internal checks: all passed\n")
            sizes = range(8)
        else:
            mode = EquivalenceMode(caller)
            assert enumeration.enumerate_plane_oracle(8, mode) == enumeration.enumerate_plane_center(8, mode)
            sizes = [7]
        inputs = {split(code)[1].args for edges in sizes for code in iter_dyck_codes(edges)}
        assert len(inputs) < sum(count_rooted(edges) for edges in sizes)
        assert calls == {(given, mode): 1 for given in inputs for mode in EquivalenceMode}

    @pytest.mark.parametrize(
        "name, fault",
        [
            ("_least_rotation", lambda words, mode: "".join(words)),
            ("_least_bicentral", lambda a, b, height, mode: "(" + b + ")" + a),
        ],
        ids=["rotation-dependent", "one-ended-bicentral"],
    )
    def test_shared_step_hides_no_fault(self, capsys, monkeypatch, name, fault):
        # a mode step that depends on the rooting gives two forms to one
        # class, which sharing the step between equal inputs cannot hide
        monkeypatch.setattr(canonical, name, fault)
        code, out, err = run(capsys, "verify", "--max-vertices", "8")
        assert code == 2
        assert failed_checks(out) == {"catalogs differ"} and "internal checks: FAILED" in err

    def test_sweep_calls_the_oracle_once_per_tree(self, capsys, monkeypatch):
        # oriented forms only: a tree's mirror form is the least of its own
        # oriented form and its reflection's
        modes = collections.Counter()

        def counted(tree, mode, real=canonical.rerooting_oracle_canon):
            modes[mode] += 1
            return real(tree, mode)

        monkeypatch.setattr("plane_forest.cli.rerooting_oracle_canon", counted)
        code, out, _ = run(capsys, "verify", "--max-vertices", "8")
        assert code == 0 and out.endswith("internal checks: all passed\n")
        oriented = EquivalenceMode.ORIENTED
        assert modes == {oriented: sum(count_rooted(edges) for edges in range(8))} == {oriented: 626}

    @pytest.mark.parametrize(
        "oracle",
        [lambda tree, mode: "merged", lambda tree, mode: encode(tree)],
        ids=["merges-classes", "splits-classes"],
    )
    def test_partition_disagreement_fails(self, capsys, monkeypatch, oracle):
        monkeypatch.setattr("plane_forest.cli.rerooting_oracle_canon", oracle)
        code, out, err = run(capsys, "verify", "--max-vertices", "6")
        assert code == 2
        assert failed_checks(out) == {"partitions differ"} and "internal checks: FAILED" in err

    def test_missing_rooted_tree_fails(self, capsys, monkeypatch):
        # an oracle sweep that skips one rooted tree fails the coverage check
        # and raises nothing, though the tree's class keeps other rootings
        # and its reflection "()()(())" looks it up
        rooted = cli.enumerate_rooted

        def drop_one(edges):
            return [tree for tree in rooted(edges) if encode(tree) != "(())()()"]

        monkeypatch.setattr(cli, "enumerate_rooted", drop_one)
        code, out, err = run(capsys, "verify", "--max-vertices", "6")
        assert code == 2
        cells = "oriented=FAIL (count=3: rooted trees missing)  mirror=FAIL (count=3: rooted trees missing)"
        assert f"  v= 5: {cells}\n" in out and failed_checks(out) == {"rooted trees missing"}
        assert "internal checks: FAILED" in err

    def test_catalog_disagreement_fails(self, capsys, monkeypatch):
        # gluing that loses one class no longer matches the brute force
        glue = enumeration._center_codes

        def drop_last(vertices, mode, limit):
            return glue(vertices, mode, limit)[:-1]

        monkeypatch.setattr(enumeration, "_center_codes", drop_last)
        code, out, err = run(capsys, "verify", "--max-vertices", "6")
        assert code == 2
        assert failed_checks(out) == {"catalogs differ"} and "internal checks: FAILED" in err

    def test_closed_form_disagreement_fails(self, capsys, monkeypatch):
        # a formula off by one at one size fails that size's cell alone
        closed = enumeration._closed_count

        def off_at_five(vertices, mode):
            return closed(vertices, mode) + (vertices == 5 and mode is EquivalenceMode.ORIENTED)

        monkeypatch.setattr(enumeration, "_closed_count", off_at_five)
        code, out, err = run(capsys, "verify", "--max-vertices", "6")
        assert code == 2
        assert "  v= 5: oriented=FAIL (count=3: closed form differs)  mirror=ok (count=3)\n" in out
        assert failed_checks(out) == {"closed form differs"} and "internal checks: FAILED" in err


class TestRender:
    def test_ascii_two_lines(self, capsys):
        code, out, _ = run(capsys, "render", "--code", "()", "--format", "ascii")
        assert code == 0 and out == "o\n  o\n"

    def test_dot_counts(self, capsys):
        code, out, _ = run(capsys, "render", "--code", "U:(()())", "--format", "dot")
        assert code == 0
        assert out.count("[label=") == 4
        assert out.count("->") == 3
        assert "ordering=out" in out

    def test_svg_seven_glyphs(self, capsys):
        seven = run(capsys, "enumerate", "--vertices", "7", "--format", "codes")[1]
        some_code = seven.splitlines()[5]
        code, out, _ = run(capsys, "render", "--code", some_code, "--format", "svg")
        assert code == 0
        root = ET.fromstring(out)
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        lines = [el for el in root.iter() if el.tag.endswith("line")]
        assert len(circles) == 7 and len(lines) == 6

    def test_layered_layout(self, capsys):
        code, out, _ = run(
            capsys, "render", "--code", "((()))", "--format", "svg", "--layout", "layered"
        )
        assert code == 0
        ET.fromstring(out)

    def test_bad_code(self, capsys):
        code, _, err = run(capsys, "render", "--code", "((", "--format", "ascii")
        assert code == 1 and "error" in err

    def test_bad_format(self, capsys):
        assert run(capsys, "render", "--code", "()", "--format", "png")[0] == 1

    def test_svg_rejects_an_unknown_layout(self):
        with pytest.raises(ValueError) as svg_error:
            render_svg(decode("(())"), layout="foo")
        with pytest.raises(ValueError) as spec_error:
            RenderSpec(format="svg", layout="foo", code="(())")
        assert str(svg_error.value) == str(spec_error.value)

    @pytest.mark.parametrize(
        "args", [["dot"], ["svg", "--layout", "radial"], ["svg", "--layout", "layered"]]
    )
    def test_deep_path(self, capsys, args):
        depth = 10_000
        path = "(" * depth + ")" * depth
        code, out, err = run(capsys, "render", "--code", path, "--format", *args)
        assert code == 0 and err == ""
        assert out.count("->" if args[0] == "dot" else "<line ") == depth

    def test_deep_path_ascii(self, capsys):
        # the outline grows quadratically with depth, so a shallower path
        depth = 2000
        code, out, err = run(capsys, "render", "--code", "(" * depth + ")" * depth)
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "  " * depth + "o"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "tree.svg"
        code, _, _ = run(capsys, "render", "--code", "()()", "--format", "svg", "--out", str(target))
        assert code == 0 and target.exists()
        ET.fromstring(target.read_text())


class TestDeepPath:
    # a path 10^4 edges deep through every tree walk of the library
    DEPTH = 10_000
    CODE = "(" * DEPTH + ")" * DEPTH
    HALF = "(" * (DEPTH // 2) + ")" * (DEPTH // 2)

    def test_encode_and_reflect(self):
        tree = decode(self.CODE)
        assert encode(tree) == self.CODE
        assert encode(reflect(tree)) == self.CODE

    def test_equality_and_hash(self):
        assert decode(self.CODE) == decode(self.CODE)
        assert hash(decode(self.CODE)) == hash(decode(self.CODE))
        assert decode(self.CODE) != decode(self.CODE[1:-1])

    def test_pickle_and_deepcopy(self):
        tree = decode(self.CODE)
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert copy.deepcopy(tree) == tree

    def test_shape_numbers(self):
        tree = decode(self.CODE)
        assert tree.height == self.DEPTH
        assert tree.vertex_count == self.DEPTH + 1

    def test_rotation_system_and_center(self):
        tree = decode(self.CODE)
        adj = rotation_system(tree)
        assert adj[0] == [1] and adj[self.DEPTH] == [self.DEPTH - 1]
        assert center(tree) == CenterResult(centers=(self.DEPTH // 2,), radius=self.DEPTH // 2)

    @pytest.mark.parametrize("mode", list(EquivalenceMode))
    def test_canonical_plane_and_parse(self, mode):
        form = canonical_plane(decode(self.CODE), mode)
        assert form.serialize() == "U:" + self.HALF * 2
        assert PlaneTree.parse(form.serialize(), mode) == form

    def test_validate_flow_graph(self):
        edges = [(v, v + 1) for v in range(self.DEPTH)]
        flow = validate_flow_graph(self.DEPTH + 1, edges)
        assert flow.separatrices.serialize() == "U:" + self.HALF * 2

    def test_no_function_calls_itself(self):
        # every walk stays flat only while no function of the package recurses
        def called(call):
            return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

        recursive = []
        for stem, module in _package_modules():
            stack = [(module, stem)]
            while stack:
                node, scope = stack.pop()
                for child in ast.iter_child_nodes(node):
                    name = getattr(child, "name", None)
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        calls = [n for n in ast.walk(child) if isinstance(n, ast.Call)]
                        if any(called(call) == name for call in calls):
                            recursive.append(f"{scope}.{name}")
                        stack.append((child, f"{scope}.{name}.<locals>"))
                    elif isinstance(child, ast.ClassDef):
                        stack.append((child, f"{scope}.{name}"))
                    else:
                        stack.append((child, scope))
        assert recursive == []

    def test_no_private_name_is_dead(self):
        # a module-level private function, class or constant that no module
        # of the package loads is dead code
        modules = _package_modules()
        loaded = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for _, module in modules
            for node in ast.walk(module)
            if isinstance(getattr(node, "ctx", None), ast.Load)
        }
        dead = []
        for stem, module in modules:
            for node in module.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name in names:
                    if name.startswith("_") and not name.startswith("__") and name not in loaded:
                        dead.append(f"{stem}.{name}")
        assert dead == []


def _package_modules():
    # (module name, syntax tree) for every source file of the package
    package = pathlib.Path(plane_forest.__file__).parent
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))]


class TestContract:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_determinism(self, capsys):
        first = run(capsys, "enumerate", "--vertices", "8", "--format", "json")
        second = run(capsys, "enumerate", "--vertices", "8", "--format", "json")
        assert first == second

    @pytest.mark.parametrize("cap", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--vertices", "5"],
            ["enumerate", "--vertices", "5"],
            ["flows", "--saddles", "4"],
            ["verify"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_cap_below_one_is_usage_error(self, capsys, argv, cap):
        code, out, err = run(capsys, *argv, "--max-vertices", cap)
        assert code == 1 and out == ""
        assert "--max-vertices" in err and "must be at least 1" in err

    @pytest.mark.parametrize("command", ["count", "enumerate"])
    def test_vertex_cap_with_edges_is_input_error(self, capsys, command):
        # the rooted route is capped by PLANE_FOREST_MAX_EDGES alone
        code, out, err = run(capsys, command, "--edges", "4", "--max-vertices", "3")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--max-vertices" in err

    @pytest.mark.parametrize("command", ["count", "enumerate"])
    @pytest.mark.parametrize("mode", ["mirror", "oriented"])
    def test_mode_with_edges_is_input_error(self, capsys, command, mode):
        # rooted trees by edges are not compared up to any plane isomorphism,
        # so a given --mode, even the default one, would be ignored
        code, out, err = run(capsys, command, "--edges", "2", "--mode", mode)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--mode" in err

    @pytest.mark.parametrize("argv", [("count", "--vertices", "7"), ("flows", "--saddles", "6")])
    def test_mode_defaults_to_oriented(self, capsys, argv):
        # 14 oriented classes on 7 vertices, 12 mirror ones
        assert run(capsys, *argv) == (0, "14\n", "")

    def test_env_cap_reaches_cli(self, capsys, monkeypatch):
        monkeypatch.setenv("PLANE_FOREST_MAX_EDGES", "2")
        code, _, err = run(capsys, "enumerate", "--edges", "3")
        assert code == 1 and "cap" in err

    def test_env_cap_stops_the_verify_sweep(self, capsys, monkeypatch):
        # the oracle sweep enumerates rooted trees, which the cap bounds: the
        # rows within it print, then one error line and exit 1
        monkeypatch.setenv("PLANE_FOREST_MAX_EDGES", "2")
        code, out, err = run(capsys, "verify")
        rows = [f"  v= {v}: oriented=ok (count=1)  mirror=ok (count=1)\n" for v in (1, 2, 3)]
        assert out == "internal consistency (center gluing vs brute-force re-rooting):\n" + "".join(rows)
        assert code == 1 and err == "error: 3 edges exceeds the enumeration cap of 2\n"

    @pytest.mark.parametrize(
        "argv, unbuffered",
        [(["enumerate", "--edges", "12"], None), (["enumerate", "--vertices", "12"], None),
         (["verify", "--max-vertices", "10"], "1"), (["enumerate", "--edges", "12", "--out", "/dev/stdout"], None)],
        ids=["--edges", "--vertices", "verify", "--out /dev/stdout"],
    )
    def test_reader_closing_stdout_ends_quietly(self, argv, unbuffered):
        # as `plane-forest enumerate --edges 12 | head -1`: the reader takes
        # one line and closes the pipe long before the stream ends; unbuffered,
        # each line is its own write, so the next one meets the closed pipe
        env = source_env()
        if unbuffered is not None:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen([*CLI, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert first.strip() and err == b""

    @pytest.mark.parametrize(
        "argv",
        [("count", "--edges", "3"), ("enumerate", "--edges", "3"), ("flows", "--saddles", "3"), ("verify",),
         ("render", "--code", "()")],
        ids=lambda argv: argv[0],
    )
    def test_closed_stdout_is_one_error_line(self, capsys, monkeypatch, argv):
        # as `plane-forest count --edges 3 >&-`: Python starts with fd 1
        # closed and sys.stdout None, so the output has nowhere to go
        ebadf = "error: [Errno 9] Bad file descriptor\n"
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", None)
            code = main(list(argv))
        assert (code, *capsys.readouterr()) == (1, "", ebadf)
        env = source_env()
        child = ["sh", "-c", 'exec "$@" >&-', "sh", *CLI, *argv]
        proc = subprocess.run(child, stderr=subprocess.PIPE, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (1, ebadf.encode())
        if argv[0] not in ("count", "verify"):
            # --out /dev/stdout then names no file
            proc = subprocess.run([*child, "--out", "/dev/stdout"], stderr=subprocess.PIPE, env=env, timeout=60)
            assert (proc.returncode, proc.stderr) == (1, b"error: [Errno 2] No such file or directory: '/dev/stdout'\n")

    def test_reader_closing_an_out_fifo_ends_quietly(self, tmp_path):
        # as a reader that takes 10 bytes of an --out FIFO and closes it:
        # the output ends as it does on stdout, with exit 0 and no message,
        # and so it does with stdout closed, as in `... --out fifo >&-`
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []

        def read_ten_bytes():
            with open(fifo, "rb") as reader:
                got.append(reader.read(10))

        for prefix in [], ["sh", "-c", 'exec "$@" >&-', "sh"]:
            got.clear()
            proc = subprocess.Popen(
                [*prefix, *CLI, "enumerate", "--edges", "12", "--out", str(fifo)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env(),
            )
            reader = threading.Thread(target=read_ten_bytes, daemon=True)
            reader.start()
            out, err = proc.communicate(timeout=60)
            reader.join(timeout=10)
            assert (proc.returncode, out, err) == (0, b"", b""), prefix
            assert got == [b"(" * 10]
            assert stat.S_ISFIFO(fifo.stat().st_mode)

    @pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit to set")
    def test_out_of_memory_is_one_error_line(self, tmp_path):
        # as `ulimit -v 204800; plane-forest render --code <path> --format
        # ascii --out f`: the outline of a path 20,000 deep is 400 MB, twice
        # what the child may map, so the run ends in one line and leaves no file
        depth, cap = 20_000, 200 * 2**20
        argv = ["render", "--code", "(" * depth + ")" * depth, "--format", "ascii", "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [*CLI, *argv], capture_output=True, env=source_env(), timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", b"error: out of memory\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [("count", "--edges", "4"), ("count", "--vertices", "7"), ("enumerate", "--edges", "3"),
         ("flows", "--saddles", "3"), ("render", "--code", "()")],
        ids=" ".join,
    )
    def test_reader_gone_before_output_ends_quietly(self, argv, unbuffered):
        # as `{ sleep 1; plane-forest count --edges 4; } | true`: the reader
        # is gone before the first byte, so the first write (unbuffered) or
        # the flush (buffered) meets the closed pipe
        env = source_env(PYTHONUNBUFFERED="1" if unbuffered else None)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([*CLI, *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, b"")
