"""Run one benchmark workload and print every metric by name and unit.

Usage::

    python3 perfbench/run.py --workload pbft-n16 [--seed N] [--seconds S] [--trace 0|1]

Repetitions run one at a time, each in its own single-threaded process
(``perfbench/repetition.py``), until ``--seconds`` of host time is spent
(at least ``MIN_REPETITIONS``).  Every repetition passes the workload's
correctness gate and produces the same result digest, or the run fails.
With ``--trace 1`` one more repetition runs under ``cProfile`` and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list each metric and a provenance block.  Exit status 0 means every check
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPETITION = os.path.join(HERE, "repetition.py")
sys.path.insert(0, ROOT)

from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.measure import error_rate, request_tally  # noqa: E402

MIN_REPETITIONS = 3
#: one calibration chunk's host time on the reference host (2 vCPUs,
#: Python 3.11); setup_s is scaled to that host's speed
CALIBRATION_REF_S = 0.01
#: every run, traced repetition included, ends well inside this
RUN_LIMIT_S = 170.0

#: the end-to-end metrics of an untraced run: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_norm": "x_calib",
    "peak_rss_mb": "MB",
    "model_txns_per_s": "txn/s",
    "model_latency_p50_ms": "sim_ms",
    "model_latency_p99_ms": "sim_ms",
    "model_outage_ms": "sim_ms",
    "success_rate": "ratio",
}


def run_repetition(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """One repetition process; a crash or timeout is a failed repetition."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, REPETITION, workload, str(seed), mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        return _failed(f"{mode} repetition exceeded {timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    tail = proc.stderr.strip().splitlines()[-3:]
    return _failed(f"{mode} repetition exited {proc.returncode}: {' | '.join(tail)}")


def _failed(problem: str) -> dict:
    return {"ok": False, "issued": 0, "busy_nacks": 0, "problems": [problem]}


def git_revision(root: str) -> Optional[str]:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: str) -> str:
    """Hash of every Python source file of the simulator."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for directory, subdirs, files in sorted(os.walk(src)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def determinism_problems(repetitions: List[dict]) -> List[str]:
    """Every repetition of one seed must model byte-identical behaviour."""
    problems = []
    for key in ("digest", "events", "model_outage_ms"):
        values = {json.dumps(rep.get(key)) for rep in repetitions if key in rep}
        if len(values) > 1:
            problems.append(f"{key} differs across repetitions: {sorted(values)}")
    return problems


def scaled_setups(rep: dict) -> List[float]:
    """The repetition's construction times, scaled to the reference host's
    speed by the median of its calibration chunks."""
    scale = CALIBRATION_REF_S / statistics.median(rep["calibration_s"])
    return [seconds * scale for seconds in rep["setup_s"]]


def end_to_end(plain: List[dict]) -> Dict[str, float]:
    first = plain[0]
    return {
        "setup_s": statistics.median(s for rep in plain for s in scaled_setups(rep)),
        "wall_norm": statistics.median(rep["wall_norm"] for rep in plain),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        "model_txns_per_s": first["model_txns_per_s"],
        "model_latency_p50_ms": first["model_latency_p50_ms"],
        "model_latency_p99_ms": first["model_latency_p99_ms"],
        "model_outage_ms": first["model_outage_ms"],
        "success_rate": 1.0 - error_rate(plain),
    }


def per_layer(profiled: dict, untraced_wall_s: float) -> Dict[str, float]:
    values = dict(profiled["counts"])
    traced = profiled["wall_s"]
    layer_s = profiled["layers"]
    for layer, seconds in layer_s.items():
        if layer != "other":
            values[f"{layer}.self_s"] = seconds
    # the explicit remainder makes the layers add up to the traced wall time
    values["other.self_s"] = traced - sum(
        seconds for layer, seconds in layer_s.items() if layer != "other"
    )
    values["trace.wall_s"] = traced
    values["trace.overhead_frac"] = traced / untraced_wall_s - 1.0
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no simulator sources under {ROOT}/src/repro", file=sys.stderr)
        return 2
    # the workload table imports the simulator, so only now that it exists
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    started = time.perf_counter()
    plain: List[dict] = []
    while True:
        elapsed = time.perf_counter() - started
        if len(plain) >= MIN_REPETITIONS:
            typical = statistics.median(rep["host_s"] for rep in plain)
            if elapsed + typical > args.seconds:
                break
        rep_started = time.perf_counter()
        rep = run_repetition(args.workload, seed, "plain", RUN_LIMIT_S - elapsed)
        rep["host_s"] = time.perf_counter() - rep_started
        plain.append(rep)
        if not rep["ok"]:
            break
    repetitions = list(plain)
    profiled = None
    if args.trace and all(rep["ok"] for rep in plain):
        elapsed = time.perf_counter() - started
        profiled = run_repetition(args.workload, seed, "profiled", RUN_LIMIT_S - elapsed)
        repetitions.append(profiled)

    problems = [p for rep in repetitions for p in rep["problems"]]
    attempted, failed, _refused = request_tally(repetitions)
    nondeterministic = determinism_problems(repetitions)
    if nondeterministic:
        # a determinism bug fails the whole run
        problems += nondeterministic
        failed = attempted
    correct = not problems

    metrics: Dict[str, float] = {}
    units = PER_LAYER if args.trace else END_TO_END
    if correct:
        e2e = end_to_end(plain)
        wall_s = statistics.median(rep["wall_s"] for rep in plain)
        metrics = per_layer(profiled, wall_s) if args.trace else e2e
        for name in END_TO_END:
            print(f"{name:<26} {e2e[name]:>16.6g} {END_TO_END[name]}")
        host_setup_s = statistics.median(s for rep in plain for s in rep["setup_s"])
        print(f"{'wall_s':<26} {wall_s:>16.6g} s (host time of run(), unscaled)")
        print(f"{'host_setup_s':<26} {host_setup_s:>16.6g} s (unscaled)")
        first = plain[0]
        print(
            f"{'latency samples':<26} {first['latency_samples']:>16d} "
            f"({first['p99_tail_samples']} beyond p99)"
        )
        print(f"{'error_rate':<26} {error_rate(plain):>16.6g} ratio")
        if args.trace:
            for name in PER_LAYER:
                print(f"{name:<26} {metrics[name]:>16.6g} {PER_LAYER[name]}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    ok_reps = [rep for rep in repetitions if rep["ok"]]
    print(json.dumps({"provenance": {
        "workload": args.workload,
        "seed": seed,
        "git_revision": git_revision(ROOT),
        "source_digest": source_digest(ROOT),
        "config_digest": ok_reps[0]["config_digest"] if ok_reps else None,
        "result_digest": ok_reps[0]["digest"] if ok_reps else None,
        "scheduled_events": ok_reps[0]["events"] if ok_reps else None,
        "repetitions": len(plain),
        "wall_s_each": [rep["wall_s"] for rep in plain if "wall_s" in rep],
        "wall_norm_each": [rep["wall_norm"] for rep in plain if "wall_norm" in rep],
        "calibration_s_median_each": [
            statistics.median(rep["calibration_s"])
            for rep in plain if "calibration_s" in rep
        ],
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
