"""The process that does a workload's work, started by `run.py`.

    python3 child.py cli REPORT TRACE ARGV...
        One command-line call, `plane_forest.cli.main(ARGV)`, exiting with
        its status. With TRACE=1 the tracer is installed before `main`
        runs. REPORT receives the peak RSS, when `main` ran, and any spans.

    python3 child.py library INPUTS REPORT SECONDS TRACE
        The library loop over the trees in INPUTS (one JSON object a
        line), pass after pass for SECONDS (at least one pass). With
        TRACE=1 the passes alternate untraced and traced. REPORT
        receives the peak RSS and the per-pass results.

`src` of the checkout must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import re
import resource
import sys
import time

import plane_forest.cli
from plane_forest import (
    EquivalenceMode,
    RenderSpec,
    canonical_plane,
    decode,
    render,
    validate_flow_graph,
)
import reference
from tracer import BOUNDARIES, Tracer

#: What the library loop calls; the tracer wraps these names in this module.
LIBRARY_CALLS = ("decode", "canonical_plane", "validate_flow_graph", "render")

#: Trees between two `reference.reference_work()` samples.
REFERENCE_EVERY = 25


def peak_rss_kb() -> int:
    """This process's own peak RSS. `ru_maxrss` is not used where VmHWM
    exists: Linux folds the peak of the process that spawned this one into
    it, so a large driver would show up in every child."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            return int(re.search(r"VmHWM:\s*(\d+)", handle.read()).group(1))
    except (OSError, AttributeError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def write_report(path: str, report: dict) -> None:
    """The report as one JSON line, then a second line with the seconds
    spent writing the first, so the driver can leave them out."""
    begun = time.perf_counter()
    report["peak_rss_kb"] = peak_rss_kb()
    text = json.dumps(report)  # in one go: json.dump writes piece by piece
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n" + json.dumps({"report_s": time.perf_counter() - begun}))


def run_cli(report_path: str, trace: bool, argv: list[str]) -> int:
    """`main` on the monotonic clock the driver shares (`main_span`), so it
    can tell interpreter start-up and exit apart from the call itself."""
    tracer = Tracer()
    if trace:
        tracer.install(BOUNDARIES)
    started = time.perf_counter()
    try:
        return sys.modules["plane_forest.cli"].main(argv)
    finally:
        ended = time.perf_counter()
        tracer.uninstall()
        report = {"main_span": [started, ended]}
        if trace:
            report["spans"] = [span.row() for span in tracer.spans]
        write_report(report_path, report)


def library_op(tree: dict) -> bool:
    """One tree: decode, canonicalise, validate the relabelled flow graph,
    render. True when the outputs pass their checks."""
    mode = EquivalenceMode(tree["mode"])
    canon = canonical_plane(decode(tree["code"]), mode)
    flow = validate_flow_graph(tree["vertices"], tree["edges"], tree["rotations"], mode)
    svg = render(RenderSpec(format="svg", layout="radial", code=tree["code"]))
    # the svg opens with an XML prolog, so look for the element anywhere
    return flow.separatrices == canon and "<svg" in svg


def library_pass(lines: list[str], tracer=None) -> dict:
    """One pass over the trees: each tree's wall and CPU seconds, how many
    failed, and a reference sample every `REFERENCE_EVERY` trees. Each tree is parsed from its JSON line just before its
    clocks start, so the inputs never sit in memory as objects and the peak
    RSS stays the package's own."""
    latencies, cpus, samples = [], [], []
    failed = 0
    for op, line in enumerate(lines):
        if op % REFERENCE_EVERY == 0:
            samples.extend(reference.sample(1))
        tree = json.loads(line)
        tree["edges"] = [tuple(edge) for edge in tree["edges"]]
        if tracer is not None:
            tracer.op = op
        began, cpu_began = time.perf_counter(), time.process_time()
        try:
            ok = library_op(tree)
        except Exception:  # a failed tree is counted, never fatal
            ok = False
        latencies.append(time.perf_counter() - began)
        cpus.append(time.process_time() - cpu_began)
        failed += not ok
    return {"latencies": latencies, "cpus": cpus, "failed": failed, "reference": samples}


def run_library(inputs_path: str, report_path: str, seconds: float, trace: bool) -> int:
    with open(inputs_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(library_pass(lines))
        if trace:
            with Tracer() as tracer:
                tracer.install({**BOUNDARIES, __name__: LIBRARY_CALLS})
                traced = library_pass(lines, tracer)
            traced["spans"] = [span.row() for span in tracer.spans]
            passes.append(traced)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) * (2 if trace else 1) > seconds:
            break
    write_report(report_path, {"passes": passes})
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        return run_cli(argv[1], argv[2] == "1", argv[3:])
    if argv[0] == "library":
        return run_library(argv[1], argv[2], float(argv[3]), argv[4] == "1")
    raise SystemExit(f"unknown child mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
