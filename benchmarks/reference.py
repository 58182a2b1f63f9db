"""The host's speed, timed on a fixed piece of interpreter work.

On a shared virtual machine the same Python code runs up to half again
slower or faster from one minute to the next, on wall and CPU clocks
alike, because the host's other tenants take a varying share of the
cores, caches and memory bus. A run is too short to average that out. So
each run also times `reference_work`, which never changes and never
touches plane_forest, between its operations on the same CPU, and scales
its times by the speed those samples show (see `speed_factor`). A change to the package moves the scaled times as it
moves the raw ones; a slow spell of the host moves both the workload and
the reference, and cancels out.
"""

from __future__ import annotations

import os
import random
import statistics
import time

from inputs import random_dyck, relabel, rotation_system

#: Median seconds of one `reference_work()` on the 2-CPU machine the
#: figures in README.md were taken on. It only sets the scale: on that
#: machine, at its usual speed, scaled seconds read as wall seconds.
REFERENCE_S = 0.010

#: Share of a workload's time taken to move with the reference's speed;
#: the rest, waiting on memory, is taken not to move. Chosen on repeated
#: runs of all four workloads: 1.0 over-corrects `catalog`, a third of
#: whose time is freeing 211 MiB of objects, and 0.5 under-corrects the
#: pure-compute `verify` and `rooted-stream` (see README.md).
COMPUTE_SHARE = 0.7


def reference_work() -> None:
    """About 10 ms of the kind of work the package does: string building,
    list and dict churn, small-object allocation and sorting."""
    rng = random.Random(0)
    for _ in range(12):
        code = random_dyck(199, rng)
        relabel(rotation_system(code), rng)
        sorted(code[i : i + 20] for i in range(len(code)))


def sample(count: int) -> list[float]:
    """Seconds of `count` runs of `reference_work`."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return times


def speed_factor(samples: list[float]) -> float:
    """What a time measured alongside `samples` is multiplied by to read in
    seconds at the reference speed.

    The host's speed relative to the reference is the mean of each
    sample's speed, `REFERENCE_S / sample`: the host flips between a slow
    and a fast speed for spells of a fraction of a second, so the samples,
    taken evenly over the time measured, weigh each speed by the share of
    that time it lasted (a median would pick one speed and ignore the
    other). A time `t` at that speed is `COMPUTE_SHARE` of its reference
    time divided by the speed plus the rest unchanged; the factor undoes
    that."""
    speed = statistics.fmean(REFERENCE_S / s for s in samples)
    return 1.0 / (COMPUTE_SHARE / speed + 1.0 - COMPUTE_SHARE)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU, so the
    reference samples and the work they scale share a core. Where affinity
    cannot be set, nothing changes."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
