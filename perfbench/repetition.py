"""One benchmark repetition in its own single-threaded process.

Usage: ``python3 perfbench/repetition.py <workload> <seed> <mode>`` with mode
``plain`` (timed run, stepped to measure completion gaps) or ``profiled``
(unstepped run under ``cProfile`` for per-layer self time).  Prints one JSON
object on its last standard-output line.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import json
import os
import pstats
import resource
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

# Import every module the system constructor imports lazily, so setup_s
# times the construction and not first-time imports.
import repro  # noqa: E402
import repro.core.byzantine  # noqa: E402,F401
import repro.obs.sampler  # noqa: E402,F401
import repro.obs.spans  # noqa: E402,F401
import repro.sim.tracing  # noqa: E402,F401
import repro.workloads.ycsb  # noqa: E402,F401
from repro.core import ResilientDBSystem  # noqa: E402
from repro.sim.clock import micros  # noqa: E402

from perfbench import layers  # noqa: E402
from perfbench.measure import (  # noqa: E402
    completion_gaps,
    config_digest,
    normalized_time,
    percentile_tail,
    result_digest,
)
from perfbench.workloads import WORKLOADS, gate  # noqa: E402

#: simulated step between completion-count readings (model_outage_ms
#: resolution)
OUTAGE_STEP = micros(10)
#: extra timed constructions after the run, for a steadier setup_s median
EXTRA_SETUPS = 4
#: rounds of one calibration chunk (about 10 ms on 2 vCPUs)
CALIBRATION_ROUNDS = 2_000
#: host seconds between calibration chunks during a timed run
CALIBRATE_EVERY_S = 0.1


class _Event:
    __slots__ = ("when", "owner", "payload")

    def __init__(self, when, owner, payload):
        self.when = when
        self.owner = owner
        self.payload = payload


def _consumer():
    total = 0
    while True:
        total += yield total


def calibration_s(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Host seconds for a fixed loop built from the simulator's hot
    operations: heap push/pop of event tuples, slotted-object allocation,
    dict writes and generator resumes.

    The host's speed changes by up to 1.7x from one second to the next, and
    the loop slows with it, so host time divided by the time of the chunks
    run around it cancels most of that drift (see ``normalized_time``).  The
    loop's code is fixed, and it runs with the cyclic collector off so that
    the simulator's live heap does not set its cost: a change to
    ``src/repro`` moves the ratio only through the simulator's own time.
    """
    heap = []
    table = {}
    sink = _consumer()
    next(sink)
    sequence = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for i in range(rounds):
            for j in range(3):
                sequence += 1
                when = (i * 7919 + j * 104729) % 100003
                heapq.heappush(heap, (when, sequence, _Event(when, j, [i, j])))
            while len(heap) > 256:
                when, seq, event = heapq.heappop(heap)
                table[event.owner + (seq & 1023)] = event.payload
                sink.send(1)
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def step_completions(system, step: int, calibrate_every: Optional[float] = None):
    """Make ``system.sim.run`` advance in fixed simulated steps and record
    ``(time, completed requests)`` after each.

    With ``calibrate_every`` set, a calibration chunk also runs between
    steps once that many host seconds have passed since the last one.
    Returns the live series and the live list of chunks, each
    ``(host start, host end, calibration_s)``.
    """
    sim = system.sim
    groups = system.client_groups
    run = sim.run
    series = []
    chunks = []
    last_chunk_end = None

    def record():
        nonlocal last_chunk_end
        series.append((sim.now, sum(g.completed_requests for g in groups)))
        if calibrate_every is None:
            return
        now = time.perf_counter()
        if now - last_chunk_end > calibrate_every:
            seconds = calibration_s()
            last_chunk_end = time.perf_counter()
            chunks.append((now, last_chunk_end, seconds))

    def stepped_run(until):
        nonlocal last_chunk_end
        if last_chunk_end is None:
            last_chunk_end = time.perf_counter()
        while sim.now + step < until:
            run(until=sim.now + step)
            record()
        run(until=until)
        record()
        return sim.now

    sim.run = stepped_run
    return series, chunks


def modelled_layer_counts(system, result) -> dict:
    """Per-layer counts the simulation exposes as public attributes."""
    counts = {
        "net.messages": result.messages_sent,
        "net.bytes": result.bytes_sent,
        "net.msgs_per_txn": result.messages_sent / max(1, result.completed_txns),
        "consensus.view_changes": sum(
            replica.engine.view for replica in system.replicas.values()
        ),
        "flow.busy_nacks": result.busy_nacks_received,
        "flow.requests_shed": result.requests_shed,
        "flow.admission_rejected": result.admission_rejected,
    }
    for stage in layers.STAGES:
        counts[f"core.primary_sat.{stage}"] = result.primary_saturation.get(stage, 0.0)
    return counts


def repetition(name: str, seed: int, profiled: bool) -> dict:
    workload = WORKLOADS[name]
    config = workload.config(seed)
    out = {
        "workload": name,
        "seed": seed,
        "config_digest": config_digest(
            config, {"crash_primary_at": workload.crash_primary_at}
        ),
        "ok": False,
        "problems": [],
    }
    started = time.perf_counter()
    system = ResilientDBSystem(config)
    setups = [time.perf_counter() - started]
    workload.prepare(system)
    series, chunks = (
        (None, None) if profiled
        else step_completions(system, OUTAGE_STEP, CALIBRATE_EVERY_S)
    )
    profiler = cProfile.Profile() if profiled else None
    result = None
    before = calibration_s()
    started = time.perf_counter()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            result = system.run()
        finally:
            if profiler is not None:
                profiler.disable()
    except Exception as exc:  # a crashed run is a failed repetition
        out["problems"].append(f"run raised {exc!r}")
    ended = time.perf_counter()
    timeline = [(started, started, before)] + (chunks or [])
    timeline.append((ended, ended, calibration_s()))
    out["wall_s"], out["wall_norm"] = normalized_time(timeline)
    out["calibration_s"] = [seconds for _, _, seconds in timeline]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["issued"] = sum(g.next_request_id for g in system.client_groups)
    out["busy_nacks"] = sum(g.busy_nacks_received for g in system.client_groups)
    # the kernel has no public event counter; its tie-break sequence
    # number counts every event ever scheduled
    out["events"] = system.sim._sequence
    if result is not None:
        out["problems"].extend(gate(workload, system, result))
        out["digest"] = result_digest(
            result,
            {rid: r.executed_log for rid, r in system.replicas.items()},
        )
        samples = system.metrics.histogram("request_latency").count
        out.update(
            model_txns_per_s=result.throughput_txns_per_s,
            model_latency_p50_ms=result.latency_p50_s * 1e3,
            model_latency_p99_ms=result.latency_p99_s * 1e3,
            latency_samples=samples,
            p99_tail_samples=percentile_tail(99, samples),
        )
        if series is not None:
            gaps = completion_gaps(series, workload.outage_start)
            out["model_outage_ms"] = max(gaps) / 1e6
            recovered = gaps.index(max(gaps)) < len(gaps) - 1
            if workload.crash_primary_at is not None and not recovered:
                out["problems"].append("no request completed after the crash outage")
        if profiler is not None:
            stats = pstats.Stats(profiler).stats
            package_dir = os.path.dirname(repro.__file__)
            out["layers"] = layers.attribute_self_time(stats, package_dir, HERE)
            out["counts"] = layers.call_counts(stats, package_dir)
            out["counts"].update(modelled_layer_counts(system, result))
    out["ok"] = result is not None and not out["problems"]
    system.close()
    del system, result, series, chunks, profiler
    gc.collect()
    for _ in range(EXTRA_SETUPS):
        started = time.perf_counter()
        extra = ResilientDBSystem(config)
        setups.append(time.perf_counter() - started)
        extra.close()
        del extra
        gc.collect()
    out["setup_s"] = setups
    return out


def main(argv) -> int:
    name, seed, mode = argv[1], int(argv[2]), argv[3]
    if name not in WORKLOADS or mode not in ("plain", "profiled"):
        print(f"usage: {argv[0]} <workload> <seed> plain|profiled", file=sys.stderr)
        return 2
    print(json.dumps(repetition(name, seed, mode == "profiled")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
