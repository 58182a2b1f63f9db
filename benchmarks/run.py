"""plane-forest benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from `./src`.
Workloads: catalog, verify, library, rooted-stream (see README.md next to
this file). Every operation's output is checked; a failed check is counted,
never fatal. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import reference
from inputs import library_inputs
from tracer import LAYER_OF, LAYERS, STREAMS, Span, from_rows, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK = ".bench_work"

#: Interpreter starts per run for `setup_s`, after one unmeasured start
#: that leaves the bytecode cache warm.
SETUP_STARTS = 15

#: Seconds a CLI child runs between two reference samples, each taken
#: while the child is held stopped.
SAMPLE_EVERY = 0.125

#: Trees per `library` pass: a pass takes a few seconds, so a run has
#: enough passes for each tree's median.
LIBRARY_TREES = 1000

#: Outputs of the package as first benchmarked; catalogs must stay
#: byte-identical.
CATALOG_VERTICES = 13
CATALOGS = {
    "oriented": {
        "format": "catalog",
        "count": 8714,
        "sha256": "df97591bcbf582300ca787ea370a2a03d724a52ec488c8cf4ed519dc7261fdbc",
    },
    "mirror": {
        "format": "json",
        "count": 4588,
        "sha256": "765a68746bd42850e7b4f2349f48b495ccfd0572c5fd75250633427adae43b15",
    },
}
STREAM_EDGES = 14
STREAM = {
    "count": 2674440,
    "sha256": "01b2e40c5941c965df615d75c27fea891ea2e6da0f6bb01876522f56be9ac2b4",
}
VERIFY_VERTICES = 10
#: rooted trees swept by the oracle and partition checks: 2 x sum of
#: Catalan(v - 1) for v <= 10
VERIFY_ITEMS = 13836
#: the documented hand-tally disagreements, reported but never failing
VERIFY_MISMATCHES = [("flows", 7), ("plane", 8), ("rooted", 5)]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MiB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}

TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
    "trace.start_s": "s",
    "trace.exit_s": "s",
    "trace.spans": "count",
    "cli.output_bytes": "bytes",
    "enumeration.classes": "count",
    "enumeration.center_yield": "ratio",
    "enumeration.center_yield.base": "count",
    "enumeration.oracle_yield": "ratio",
    "enumeration.oracle_yield.base": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
    for fn in STREAMS:
        units[f"{LAYER_OF[fn]}.{fn}.items"] = "count"
    units.update(TRACE_METRICS)
    return units


@dataclass
class Pass:
    """One pass over a workload's operations."""

    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    items: int = 0
    ops: int = 0
    failed: int = 0
    output_bytes: int = 0
    start_s: float = 0.0
    exit_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    #: each operation's speed factor, from the reference samples taken
    #: while it ran (see `reference.speed_factor`)
    factors: list[float] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)


class Bench:
    def __init__(self, root: str, sampling: bool) -> None:
        self.root = root
        self.sampling = sampling
        self.work = os.path.join(root, WORK)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.env.pop("PLANE_FOREST_MAX_EDGES", None)
        self.peak_rss_mb = 0.0
        self.problems: list[str] = []
        #: seconds of each `reference.reference_work()` timed in the run
        self.reference: list[float] = []
        #: speed factor of the `setup_s` starts
        self.setup_factor = 1.0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def spawn(
        self, argv: list[str], report: str, sample: bool = False
    ) -> tuple[int, float, float, float, float, dict]:
        """Run one child to its end, its output in the work directory.
        Returns its exit status, when it was started and when it had ended
        (`time.perf_counter`), the seconds it was held stopped for reference
        samples, its CPU seconds from its own rusage (wait4, so no other
        child's usage leaks in) and the report it wrote, with its own peak
        RSS (see child.peak_rss_kb)."""
        start = time.perf_counter()
        with open(self.path("stdout"), "wb") as out, open(self.path("stderr"), "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                status, usage, paused = self.wait(proc.pid, sample and self.sampling)
            except BaseException:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(proc.pid, signal.SIGCONT)
                    proc.kill()
                proc.wait()
                raise
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        written = {}
        try:
            with open(report, encoding="utf-8") as handle:
                for line in handle:
                    written.update(json.loads(line))
            os.unlink(report)
        except (OSError, ValueError):
            pass
        peak_kb = written.get("peak_rss_kb", usage.ru_maxrss)
        self.peak_rss_mb = max(self.peak_rss_mb, peak_kb / 1024)
        return proc.returncode, start, end, paused, usage.ru_utime + usage.ru_stime, written

    def wait(self, pid: int, sample: bool) -> tuple[int, resource.struct_rusage, float]:
        """Wait for child `pid` to end: its wait status, its own rusage and
        the seconds it was held stopped. With `sample`, the child is stopped
        every `SAMPLE_EVERY` seconds of its run for one reference sample,
        so the samples cover its whole run, on the CPU it runs on."""
        paused = 0.0
        try:
            pidfd = os.pidfd_open(pid) if sample else None
        except (AttributeError, OSError):
            pidfd = None
        try:
            while pidfd is not None and not select.select([pidfd], [], [], SAMPLE_EVERY)[0]:
                began = time.perf_counter()
                os.kill(pid, signal.SIGSTOP)
                _, status, usage = os.wait4(pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):
                    return status, usage, paused  # it ended before it could stop
                self.reference.extend(reference.sample(1))
                os.kill(pid, signal.SIGCONT)
                paused += time.perf_counter() - began
        finally:
            if pidfd is not None:
                os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
        return status, usage, paused

    def setup_seconds(self) -> float:
        """Median time from starting an interpreter to `import plane_forest`
        having returned; sets `setup_factor` from a reference sample taken
        before each start."""
        code = "import plane_forest, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
        times = []
        for _ in range(SETUP_STARTS + 1):
            self.reference.extend(reference.sample(1))
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", code], stdout=subprocess.PIPE, env=self.env, cwd=self.root
            )
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.close()
            if proc.wait() != 0 or ready != b"ready\n":
                raise RuntimeError("import plane_forest failed")
        self.setup_factor = reference.speed_factor(self.reference)
        return statistics.median(times[1:])

    def cli_op(self, done: Pass, argv: list[str], out: str | None, check) -> None:
        """One CLI call in a fresh process, timed and checked; a traced call
        adds its spans to the pass."""
        stdout, stderr, report = self.path("stdout"), self.path("stderr"), self.path("report.json")
        before = len(self.reference)
        status, start, end, paused, cpu, written = self.spawn(
            [sys.executable, CHILD, "cli", report, str(int(done.traced)), *argv], report, sample=True
        )
        wall = end - start - paused
        if len(self.reference) == before:  # no samples while it ran
            self.reference.extend(reference.sample(3))
        done.factors.append(reference.speed_factor(self.reference[before:]))
        if "main_span" in written:
            # both clocks are the system-wide monotonic clock
            main_start, main_end = written["main_span"]
            done.start_s += main_start - start
            done.exit_s += end - main_end - written["report_s"]
        done.ops += 1
        done.wall += wall
        done.cpu += cpu
        done.latencies.append(wall)
        done.cpus.append(cpu)
        with open(stderr, encoding="utf-8", errors="replace") as handle:
            errors = handle.read()
        if status != 0 or "Traceback" in errors:
            problem = f"exit status {status}: {errors.strip()[-300:]}"
        else:
            try:
                problem = check(out or stdout)
            except (OSError, ValueError, KeyError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is None:
            done.items += check.items
        else:
            done.failed += 1
            self.problems.append(f"{' '.join(argv)}: {problem}")
        done.output_bytes += os.path.getsize(stdout)
        if out is not None and os.path.exists(out):
            done.output_bytes += os.path.getsize(out)
            os.unlink(out)
        done.spans.extend(from_rows(written.get("spans", []), base=len(done.spans)))

    def catalog_pass(self, traced: bool) -> Pass:
        done = Pass(traced)
        for mode, expect in CATALOGS.items():
            out = self.path(f"catalog-{mode}")
            argv = [
                "enumerate",
                "--vertices", str(CATALOG_VERTICES),
                "--max-vertices", str(CATALOG_VERTICES),
                "--mode", mode,
                "--format", expect["format"],
                "--out", out,
            ]
            self.cli_op(done, argv, out, CatalogCheck(mode, expect))
        return done

    def verify_pass(self, traced: bool) -> Pass:
        done = Pass(traced)
        self.cli_op(done, ["verify", "--max-vertices", str(VERIFY_VERTICES)], None, VerifyCheck())
        return done

    def stream_pass(self, traced: bool) -> Pass:
        done = Pass(traced)
        out = self.path("rooted-codes")
        argv = ["enumerate", "--edges", str(STREAM_EDGES), "--format", "codes", "--out", out]
        self.cli_op(done, argv, out, StreamCheck())
        return done

    def cli_passes(self, one_pass, seconds: float, trace: bool) -> list[Pass]:
        """Passes until `seconds` are used, at least one; a traced run
        alternates untraced and traced passes."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(one_pass(False))
            if trace:
                passes.append(one_pass(True))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) * (2 if trace else 1) > seconds:
                return passes

    def library_passes(self, seed: int, seconds: float, trace: bool) -> list[Pass]:
        """All passes run in one long-lived child over the seeded trees."""
        start = time.perf_counter()
        inputs, report = self.path("library-inputs.jsonl"), self.path("library-report.json")
        with open(inputs, "w", encoding="utf-8") as handle:
            for tree in library_inputs(seed, LIBRARY_TREES):
                handle.write(json.dumps(tree) + "\n")
        budget = max(seconds - (time.perf_counter() - start), 0.0)
        argv = [sys.executable, CHILD, "library", inputs, report, f"{budget:.3f}", str(int(trace))]
        status, _, _, _, _, written = self.spawn(argv, report)
        if status != 0 or "passes" not in written:
            with open(self.path("stderr"), encoding="utf-8", errors="replace") as handle:
                raise RuntimeError(f"library child exited with {status}: {handle.read()[-2000:]}")
        raw = written["passes"]
        passes = []
        for entry in raw:
            self.reference.extend(entry["reference"])
            factor = reference.speed_factor(entry["reference"])
            done = Pass(
                traced="spans" in entry,
                wall=sum(entry["latencies"]),
                cpu=sum(entry["cpus"]),
                ops=len(entry["latencies"]),
                failed=entry["failed"],
                latencies=entry["latencies"],
                cpus=entry["cpus"],
                factors=[factor] * len(entry["latencies"]),
                spans=from_rows(entry.get("spans", [])),
            )
            done.items = done.ops - done.failed
            if done.failed:
                self.problems.append(f"library: {done.failed} of {done.ops} trees failed their checks")
            passes.append(done)
        return passes


class CatalogCheck:
    """SHA-256 against the recorded catalog, header count, and strictly
    increasing (sorted, duplicate-free) lines."""

    def __init__(self, mode: str, expect: dict) -> None:
        self.mode = mode
        self.expect = expect
        self.items = expect["count"]

    def __call__(self, path: str) -> str | None:
        with open(path, "rb") as handle:
            data = handle.read()
        if hashlib.sha256(data).hexdigest() != self.expect["sha256"]:
            return "catalog bytes differ from the recorded catalog"
        count = self.expect["count"]
        if self.expect["format"] == "json":
            doc = json.loads(data)
            header_ok = (doc["vertices"], doc["mode"], doc["count"]) == (
                CATALOG_VERTICES, self.mode, count
            )
            lines = doc["codes"]
        else:
            header, *lines = data.decode().splitlines()
            header_ok = header == f"# plane-trees v={CATALOG_VERTICES} mode={self.mode} count={count}"
        if not header_ok or len(lines) != count:
            return "header or line count is wrong"
        if not strictly_increasing(lines):
            return "lines are not sorted and duplicate-free"
        return None


class StreamCheck:
    """SHA-256 against the recorded stream, code count, strict order."""

    items = STREAM["count"]

    def __call__(self, path: str) -> str | None:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        if digest.hexdigest() != STREAM["sha256"]:
            return "code stream differs from the recorded stream"
        with open(path, "rb") as handle:
            # line by line: the driver's peak memory must stay below its
            # children's (see Bench.spawn)
            count = sum(1 for _ in handle)
            handle.seek(0)
            ordered = strictly_increasing(handle)
        if count != STREAM["count"]:
            return "wrong number of codes"
        if not ordered:
            return "codes are not sorted and duplicate-free"
        return None


class VerifyCheck:
    """`verify` passes its internal checks and reports exactly the three
    documented audit mismatches."""

    items = VERIFY_ITEMS

    def __call__(self, path: str) -> str | None:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if "internal checks: all passed" not in lines:
            return "internal checks did not pass"
        rows = [line.split() for line in lines if line.endswith("MISMATCH")]
        if sorted((row[0], int(row[1])) for row in rows) != VERIFY_MISMATCHES:
            return "audit mismatches differ from the documented three"
        return None


def strictly_increasing(lines) -> bool:
    return all(a < b for a, b in itertools.pairwise(lines))


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def typical(per_pass: list[list[float]]) -> list[float]:
    """A typical pass: each operation's median over the passes. Every pass
    runs the same operations in the same order, so a slow spell of the
    host lifts only the passes it falls in."""
    return [statistics.median(op) for op in zip(*per_pass)]


def end_to_end(
    passes: list[Pass], setup: float, setup_factor: float, peak_rss_mb: float, scaled: bool = True
) -> dict[str, float]:
    """The end-to-end metrics. With `scaled`, each operation's times are
    multiplied by its own speed factor and `setup` by `setup_factor`."""

    def times(p: Pass, values: list[float]) -> list[float]:
        return [x * f for x, f in zip(values, p.factors)] if scaled else values

    latencies = typical([times(p, p.latencies) for p in passes])
    wall = sum(latencies)
    return {
        "setup_s": setup * (setup_factor if scaled else 1.0),
        "wall_s": wall,
        "cpu_s": sum(typical([times(p, p.cpus) for p in passes])),
        "items_per_s": statistics.median(p.items for p in passes) / wall,
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": percentile(latencies, 99) * 1e3,
    }


def per_layer(passes: list[Pass]) -> dict[str, float]:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_pass = []
    for p in traced:
        metrics = layer_metrics(p.spans)
        metrics["cli.output_bytes"] = p.output_bytes
        metrics["trace.start_s"] = p.start_s
        metrics["trace.exit_s"] = p.exit_s
        metrics["trace.covered_frac"] = sum(metrics[f"{l}.self_s"] for l in LAYERS) / p.wall
        per_pass.append(metrics)
    result = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    result["trace.wall_s"] = statistics.median(p.wall for p in traced)
    result["trace.untraced_wall_s"] = statistics.median(p.wall for p in plain)
    result["trace.overhead_frac"] = result["trace.wall_s"] / result["trace.untraced_wall_s"] - 1
    return result


def machine_facts() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return f"nproc={os.cpu_count()} python={sys.version.split()[0]} loadavg_at_start={load}"


WORKLOADS = ("catalog", "verify", "library", "rooted-stream")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "plane_forest", "__init__.py")):
        print("error: run from the root of a plane-forest checkout (no src/plane_forest)", file=sys.stderr)
        return 2
    print(f"machine: {machine_facts()}")
    reference.pin_to_one_cpu()
    bench = Bench(root, sampling=not args.trace)
    shutil.rmtree(bench.work, ignore_errors=True)
    os.makedirs(bench.work)
    try:
        setup = bench.setup_seconds()
        trace = bool(args.trace)
        if args.workload == "library":
            passes = bench.library_passes(args.seed, args.seconds, trace)
        else:
            one_pass = {
                "catalog": bench.catalog_pass,
                "verify": bench.verify_pass,
                "rooted-stream": bench.stream_pass,
            }[args.workload]
            passes = bench.cli_passes(one_pass, args.seconds, trace)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in dict.fromkeys(bench.problems):
        print(f"check failed: {problem}")
    plain = [p for p in passes if not p.traced]
    factor = reference.speed_factor(bench.reference)
    print(
        f"workload={args.workload} seed={args.seed} passes={len(plain)} "
        f"items_per_pass={plain[0].items} ops_per_pass={len(plain[0].latencies)} "
        f"failed_frac={failed / attempted:.6g} ratio "
        f"driver_peak_rss_mb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} "
        f"reference_samples={len(bench.reference)} speed_factor={factor:.4f}"
    )
    if trace:
        values, units = per_layer(passes), per_layer_units()
        notes = dict.fromkeys(values, "")
    else:
        values = end_to_end(plain, setup, bench.setup_factor, bench.peak_rss_mb)
        unscaled = end_to_end(plain, setup, bench.setup_factor, bench.peak_rss_mb, scaled=False)
        units = END_TO_END
        notes = {name: f" (unscaled {unscaled[name]:.6g})" for name in values}
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}{notes[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
