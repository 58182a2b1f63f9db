import ast
import copy
import hashlib
import json
import os
import pathlib
import pickle
import stat
import time
import xml.etree.ElementTree as ET

import pytest

import plane_forest
from plane_forest import (
    CenterResult,
    EquivalenceMode,
    PlaneTree,
    canonical_plane,
    center,
    count_rooted,
    decode,
    encode,
    reflect,
    rotation_system,
    validate_flow_graph,
)
from plane_forest.cli import main


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

    def test_rooted_json_matches_json_dumps(self, capsys):
        # the document is written piece by piece as the codes stream
        for edges in range(0, 9):
            codes = run(capsys, "enumerate", "--edges", str(edges), "--format", "codes")[1]
            doc = {"edges": edges, "count": count_rooted(edges), "codes": codes.splitlines()}
            code, out, _ = run(capsys, "enumerate", "--edges", str(edges), "--format", "json")
            assert code == 0
            assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_rooted_twelve_edges_frozen(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--edges", "12", "--format", "codes")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "0d0c1019b1c5e7d1e57d36b0b68440a32881ab19bacd0dfc027d774b135c854c"

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

    def test_no_partial_file_on_error(self, capsys, tmp_path):
        target = tmp_path / "never.txt"
        code, _, err = run(
            capsys, "enumerate", "--vertices", "99", "--format", "catalog", "--out", str(target)
        )
        assert code == 1 and "cap" in err
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no stray temp files either

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

    def test_mode_flag(self, capsys):
        code, out, _ = run(capsys, "flows", "--saddles", "7", "--mode", "mirror")
        assert code == 0 and out == "27\n"

    def test_invalid(self, capsys):
        assert run(capsys, "flows", "--saddles", "-1")[0] == 1
        assert run(capsys, "flows")[0] == 1


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

    def test_ten_vertex_output_frozen(self, capsys):
        # all three routes at every size up to 10, both modes; the audit
        # keeps its three MISMATCH rows
        code, out, _ = run(capsys, "verify", "--max-vertices", "10")
        assert code == 0
        assert out.count("MISMATCH") == 3
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "3d7e3a5876e1c93755115d8aa236037bad7be725ff36d8b23c2c61a83e1b6893"

    @pytest.mark.parametrize(
        "oracle",
        [lambda tree, mode: "merged", lambda tree, mode: encode(tree)],
        ids=["merges-classes", "splits-classes"],
    )
    def test_partition_disagreement_fails(self, capsys, monkeypatch, oracle):
        monkeypatch.setattr("plane_forest.cli.rerooting_oracle_canon", oracle)
        code, out, err = run(capsys, "verify", "--max-vertices", "6")
        assert code == 2
        assert "FAIL" in out and "internal checks: FAILED" in err

    def test_catalog_disagreement_fails(self, capsys, monkeypatch):
        # gluing that loses one class no longer matches the brute force
        glue = plane_forest.enumerate_plane_center

        def drop_last(vertices, mode, **kwargs):
            return glue(vertices, mode, **kwargs)[:-1]

        monkeypatch.setattr("plane_forest.cli.enumerate_plane_center", drop_last)
        code, out, err = run(capsys, "verify", "--max-vertices", "6")
        assert code == 2
        assert "FAIL" in out and "internal checks: FAILED" in err


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

    @pytest.mark.parametrize(
        "code,digest",
        [
            ("", "f65766b8165be658d8ef3a7da5d19e4a18d6ad3d91c5d772d4b84e92b0d5e807"),
            ("()", "53bda2256f8cccfb50e3380e0da408696a5044f352260a8ef9c049d0a0d4c6eb"),
            ("(()())()", "cac656b31aa33f4173434f5f96d0fddf47de0e47bc942a4a31d6e9c31ed21564"),
            (
                "((()())(()))()(())",
                "8d69ff4f317f213b46e311f783112324c23f1eb7ab1c0bac65a9bd55e0de2291",
            ),
            ("()(())(()())", "cd9b22062c6908e2c7fe18a5e66482c870fff6050127197276a28b90558a3fac"),
        ],
    )
    def test_output_bytes_frozen(self, capsys, code, digest):
        # ascii, dot, radial svg and layered svg, as first rendered by the
        # recursive walks
        outputs = hashlib.sha256()
        for args in (
            ["ascii"],
            ["dot"],
            ["svg", "--layout", "radial"],
            ["svg", "--layout", "layered"],
        ):
            status, out, _ = run(capsys, "render", "--code", code, "--format", *args)
            assert status == 0
            outputs.update(out.encode())
        assert outputs.hexdigest() == digest

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

    def test_env_cap_reaches_cli(self, capsys, monkeypatch):
        monkeypatch.setenv("PLANE_FOREST_MAX_EDGES", "2")
        code, _, err = run(capsys, "enumerate", "--edges", "3")
        assert code == 1 and "cap" in err
