import json
import os
import sys
import time
import types

import pytest

import run
from tracer import BOUNDARIES, LAYERS, Span, Tracer, from_rows, layer_metrics, self_times

import plane_forest
import plane_forest.cli


def synthetic_spans() -> list[Span]:
    # main [0, 10] -> center [1, 5] -> canonical [2, 3]
    #              -> decode [6, 9]
    return [
        Span("cli.main", -1, 0, 0.0, 10.0, 10.0),
        Span("enumeration.enumerate_plane_center", 0, 0, 1.0, 5.0, 4.0, items=2),
        Span("canonical.canonical_plane", 1, 0, 2.0, 3.0, 1.0),
        Span("trees.decode", 0, 0, 6.0, 9.0, 3.0),
    ]


def test_self_time_on_a_synthetic_span_tree():
    spans = synthetic_spans()
    assert self_times(spans) == [3.0, 3.0, 1.0, 3.0]
    metrics = layer_metrics(spans)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["enumeration.self_s"] == 3.0
    assert metrics["canonical.self_s"] == 1.0
    assert metrics["trees.self_s"] == 3.0
    assert sum(metrics[f"{layer}.self_s"] for layer in LAYERS) == spans[0].busy
    assert metrics["enumeration.enumerate_plane_center.s"] == 4.0
    assert metrics["enumeration.classes"] == 2
    assert metrics["enumeration.center_yield.base"] == 1
    assert metrics["enumeration.center_yield"] == 2.0


def test_rows_round_trip_with_shifted_parents():
    spans = synthetic_spans()
    joined = spans + from_rows([s.row() for s in spans], base=len(spans))
    assert [s.parent for s in joined] == [-1, 0, 1, 0, -1, 4, 5, 4]
    assert self_times(joined) == self_times(spans) * 2


FAKE_SOURCE = '''
def iter_dyck_codes(n):
    for i in range(n):
        NOW[0] += 1.0
        yield str(i)

def _emit(lines, out):
    for line in lines:
        NOW[0] += 0.5

def main():
    NOW[0] += 2.0
    codes = iter_dyck_codes(3)
    NOW[0] += 10.0
    _emit(codes, None)
    return 0
'''


@pytest.fixture
def fake_module():
    # stands in for a calling module; the clock only moves when its code says so
    module = types.ModuleType("fake_caller")
    module.NOW = [0.0]
    exec(FAKE_SOURCE, module.__dict__)
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_generators_are_charged_for_next_calls_only(fake_module):
    originals = {name: getattr(fake_module, name) for name in ("iter_dyck_codes", "_emit", "main")}
    with Tracer(clock=lambda: fake_module.NOW[0]) as tracer:
        tracer.install({"fake_caller": tuple(originals)})
        assert fake_module.main is not originals["main"]
        fake_module.main()
    assert {name: getattr(fake_module, name) for name in originals} == originals

    metrics = layer_metrics(tracer.spans)
    assert metrics["cli.main.s"] == 16.5
    assert metrics["cli._emit.s"] == 4.5
    # created under main, consumed under _emit: the 10 s between is not its
    assert metrics["trees.iter_dyck_codes.s"] == 3.0
    assert metrics["trees.iter_dyck_codes.calls"] == 1
    assert metrics["trees.iter_dyck_codes.items"] == 3
    assert metrics["trees.self_s"] == 3.0
    assert metrics["cli.self_s"] == 13.5
    stream = [s for s in tracer.spans if s.name == "trees.iter_dyck_codes" and s.calls == 0]
    assert [tracer.spans[s.parent].name for s in stream] == ["cli._emit"]


def test_rebindings_are_restored_after_an_exception(fake_module):
    original = fake_module.main
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            tracer.install({"fake_caller": ("main",)})
            raise RuntimeError
    assert fake_module.main is original


def test_modules_are_resolved_through_sys_modules():
    # the package attribute `render` is the re-exported function
    assert not isinstance(plane_forest.render, types.ModuleType)
    render_module = sys.modules["plane_forest.render"]
    decode = render_module.decode
    with Tracer() as tracer:
        tracer.install(BOUNDARIES)
        assert render_module.decode is not decode
        render_module.render(render_module.RenderSpec("ascii", "radial", "(())"))
    assert render_module.decode is decode
    assert [s.name for s in tracer.spans] == ["trees.decode"]


def test_self_times_account_for_the_traced_wall(tmp_path):
    argv = ["enumerate", "--edges", "11", "--format", "codes", "--out", str(tmp_path / "codes")]
    cli = sys.modules["plane_forest.cli"]

    def timed() -> float:
        start = time.perf_counter()
        assert cli.main(argv) == 0
        return time.perf_counter() - start

    untraced = min(timed() for _ in range(3))
    with Tracer() as tracer:
        tracer.install(BOUNDARIES)
        traced = timed()
    overhead = traced / untraced - 1
    total_self = sum(layer_metrics(tracer.spans)[f"{layer}.self_s"] for layer in LAYERS)
    assert 0 <= traced - total_self <= traced * max(overhead, 0.01)
    metrics = layer_metrics(tracer.spans)
    assert metrics["trees.rooted_codes.items"] == 58786
    assert metrics["cli._emit.calls"] == 1


def test_benchmark_json_lists_the_printed_metrics():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


VERIFY_TAIL = """\
  rooted      5       51        42      42  MISMATCH
  plane       8       26        34      27  MISMATCH
  flows       7       26        34      27  MISMATCH

internal checks: all passed
"""


def test_verify_check_counts_a_wrong_report_as_failed(tmp_path):
    good = tmp_path / "good"
    good.write_text(VERIFY_TAIL)
    assert run.VerifyCheck()(str(good)) is None
    two_rows = tmp_path / "two"
    two_rows.write_text(VERIFY_TAIL.replace("  flows       7       26        34      27  MISMATCH\n", ""))
    assert run.VerifyCheck()(str(two_rows)) is not None
    failed = tmp_path / "failed"
    failed.write_text(VERIFY_TAIL.replace("all passed", "FAILED"))
    assert run.VerifyCheck()(str(failed)) is not None


def test_catalog_check_rejects_changed_bytes(tmp_path):
    path = tmp_path / "catalog"
    path.write_text("# plane-trees v=13 mode=oriented count=1\nU:()\n")
    check = run.CatalogCheck("oriented", run.CATALOGS["oriented"])
    assert check(str(path)) is not None
