"""The value classes against their frozen-dataclass forms, the import
footprint, and the catalog path that builds no PlaneTree."""

import contextlib
import copy
import dataclasses
import io
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import plane_forest
from plane_forest import (
    CenterGluingSpec,
    CenterResult,
    Centrality,
    EquivalenceMode,
    MalformedCode,
    MorseFlow,
    PlaneTree,
    ReconcileReport,
    ReconcileRow,
    RenderSpec,
    RootedPlaneTree,
    canonical_plane,
    catalog_json,
    catalog_text,
    decode,
    enumerate_plane_center,
    flow_from_tree,
)
from plane_forest.cli import main

ORIENTED, MIRROR = EquivalenceMode.ORIENTED, EquivalenceMode.MIRROR
U, B = Centrality.UNICENTRAL, Centrality.BICENTRAL


def twin(cls, repr=True):
    # the frozen dataclass with the same name and fields
    return dataclasses.make_dataclass(cls.__name__, cls.__match_args__, frozen=True, repr=repr)


PATH = decode("(())")
STAR = canonical_plane(decode("()()()"))
ROWS = (ReconcileRow("plane", 7, 14, 14, 12), ReconcileRow("flows", 7, 26, 34, 27))

#: For each class, two argument tuples of unequal instances.
CASES = [
    (RootedPlaneTree, ("(())",), ("()()",)),
    (PlaneTree, ("()()", ORIENTED, U), ("()()", MIRROR, U)),
    (CenterResult, ((0,), 1), ((0, 1), 1)),
    (CenterGluingSpec, (U, (PATH, PATH), 7), (B, (PATH, PATH), 6)),
    (ReconcileRow, ("plane", 7, 14, 14, 12), ("plane", 7, 14, 14, 13)),
    (ReconcileReport, (ROWS,), (ROWS[:1],)),
    (MorseFlow, (4, 3, 1, STAR), (4, 3, 1, canonical_plane(decode("((()))")))),
    (RenderSpec, ("svg", "radial", "()"), ("svg", "layered", "()")),
]


def build(cls, args):
    # RootedPlaneTree is built from its children; its one field is the code
    return decode(args[0]) if cls is RootedPlaneTree else cls(*args)


@pytest.mark.parametrize("cls, first, second", CASES, ids=[c[0].__name__ for c in CASES])
class TestLikeTheDataclass:
    def test_match_args(self, cls, first, second):
        assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(twin(cls)))
        assert len(cls.__match_args__) == len(first)

    def test_repr_eq_and_hash(self, cls, first, second):
        # RootedPlaneTree keeps its own repr, as its dataclass form did
        kind = twin(cls, repr=cls is not RootedPlaneTree)
        a, b, c = build(cls, first), build(cls, first), build(cls, second)
        ta, tc = kind(*first), kind(*second)
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != c and not a == c
        assert hash(a) == hash(ta) and hash(c) == hash(tc)
        assert (a == b) == (ta == kind(*first)) and (a == c) == (ta == tc)
        if cls is RootedPlaneTree:
            assert repr(a) == f"RootedPlaneTree({first[0]!r})"
        else:
            assert repr(a) == repr(ta) and repr(c) == repr(tc)
        # another class with equal fields is not equal, as for a dataclass
        assert a != ta and a != first

    def test_frozen(self, cls, first, second):
        value = build(cls, first)
        for name in (*cls.__match_args__, "anything"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == build(cls, first)

    def test_dict_holds_the_fields_and_their_key(self, cls, first, second):
        # what pickle and copy keep: the fields in `_fields` order, then their
        # tuple as `_key`; a RootedPlaneTree keeps its code, and its height
        # once it is cached
        value = build(cls, first)
        if cls is RootedPlaneTree:
            assert vars(value) == {"_code": first[0]}
            assert value.height and vars(value) == {"_code": first[0], "height": value.height}
            return
        # a PlaneTree from canonical_plane is stored without the checks
        for built in [value] + ([canonical_plane(decode(first[0]), first[1])] if cls is PlaneTree else []):
            assert list(vars(built)) == [*cls._fields, "_key"]
            assert built._key == tuple(getattr(built, name) for name in cls._fields) == first

    def test_pickle_and_deepcopy(self, cls, first, second):
        value = build(cls, first)
        for other in pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value):
            assert other == value and hash(other) == hash(value) and repr(other) == repr(value)
            assert type(other) is cls


def test_positional_patterns():
    match canonical_plane(decode("(())"), MIRROR), RenderSpec("dot", "radial", "()"):
        case PlaneTree(canon, EquivalenceMode.MIRROR, Centrality.UNICENTRAL), RenderSpec("dot", layout, _):
            assert (canon, layout) == ("()()", "radial")
        case _:
            pytest.fail("the positional patterns did not match")


def test_cached_height_survives_pickle():
    tree = decode("((()))()")
    assert tree.height == 3
    assert pickle.loads(pickle.dumps(tree)).height == 3 and copy.deepcopy(tree) == tree


@pytest.mark.parametrize(
    "build_bad",
    [
        lambda: MorseFlow(4, 3, 2, STAR),
        lambda: MorseFlow(5, 3, 1, STAR),
        lambda: MorseFlow(3, 2, 1, STAR),
        lambda: RenderSpec("png", "radial", "()"),
        lambda: RenderSpec("svg", "spiral", "()"),
        lambda: CenterGluingSpec(U, (PATH,), 4),
        lambda: CenterGluingSpec(U, (PATH, decode("")), 5),
        lambda: CenterGluingSpec(B, (PATH, decode("()")), 5),
        lambda: CenterGluingSpec(B, (PATH,), 3),
        lambda: CenterGluingSpec(B, (PATH, PATH), 5),
    ],
)
def test_checks_still_raise_value_error(build_bad):
    with pytest.raises(ValueError):
        build_bad()


class TestPlaneTreeFields:
    def test_mode_must_be_a_member(self):
        with pytest.raises(ValueError, match="EquivalenceMode"):
            PlaneTree("()", "mirror", U)

    def test_centrality_must_be_a_member(self):
        with pytest.raises(ValueError, match="Centrality"):
            PlaneTree("()", ORIENTED, "U")

    def test_gluing_kind_must_be_a_member(self):
        # a letter for a kind would pass the checks as bicentral and glue ()
        leaf = decode("")
        with pytest.raises(ValueError, match="^centrality must be a Centrality member, got 'U'$"):
            CenterGluingSpec("U", (leaf, leaf), 2)

    @pytest.mark.parametrize("code", ["((", "())", "(x)"])
    def test_code_must_balance(self, code):
        with pytest.raises(MalformedCode):
            PlaneTree(code, ORIENTED, U)

    def test_a_sound_value_equals_the_computed_form(self):
        tree = PlaneTree("()()", MIRROR, U)
        assert tree == canonical_plane(decode("(())"), MIRROR) and tree.serialize() == "U:()()"
        assert flow_from_tree(tree).separatrices is tree


def test_import_needs_no_dataclasses():
    # -S keeps the interpreter's site-packages, and whatever they import,
    # out of the check
    source = pathlib.Path(plane_forest.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(source)}
    probe = "import plane_forest, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


PUBLIC_NAMES = [
    "CLAIMED_FLOWS", "CLAIMED_PLANE", "CLAIMED_ROOTED", "CenterGluingSpec", "CenterResult", "Centrality",
    "DEFAULT_MAX_EDGES", "Disconnected", "EquivalenceMode", "HasCycle", "LimitExceeded", "MalformedCode",
    "MorseFlow", "PlaneForestError", "PlaneTree", "ReconcileReport", "ReconcileRow", "RenderSpec",
    "RootedPlaneTree", "assemble", "canonical_plane", "catalog_json", "catalog_text", "center", "count_flows",
    "count_plane", "count_rooted", "decode", "encode", "enumerate_flows", "enumerate_plane_center",
    "enumerate_plane_oracle", "enumerate_rooted", "flow_from_tree", "flow_record", "is_isomorphic",
    "iter_dyck_codes", "max_rooted_edges", "reconcile_counts", "reflect", "render", "render_ascii",
    "render_dot", "render_svg", "rerooting_oracle_canon", "rooted_codes", "rooted_representatives",
    "rotation_system", "validate_flow_graph",
]


def test_public_names_are_pinned():
    # the public API is these 49 names, sorted, each one bound
    assert plane_forest.__all__ == PUBLIC_NAMES and len(PUBLIC_NAMES) == 49
    assert all(getattr(plane_forest, name, None) is not None for name in PUBLIC_NAMES)


def cli_output(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(argv)) == 0
    return buffer.getvalue()


@pytest.mark.parametrize("mode", list(EquivalenceMode))
@pytest.mark.parametrize("vertices", range(1, 13))
def test_cli_catalog_matches_the_classes(vertices, mode):
    # the CLI writes its catalog from the codes alone; the classes that
    # enumerate_plane_center builds must give the same bytes
    classes = enumerate_plane_center(vertices, mode)
    argv = ("enumerate", "--vertices", str(vertices), "--mode", mode.value, "--format")
    assert cli_output(*argv, "catalog") == catalog_text(vertices, mode, classes)
    assert cli_output(*argv, "json") == catalog_json(vertices, mode, classes)
    assert cli_output(*argv, "codes") == "".join(c.serialize() + "\n" for c in classes)
