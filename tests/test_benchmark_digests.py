"""Golden digests of the benchmark's large deployments.

``tests/core/test_golden_digests.py`` pins small n=4 runs.  The
benchmark's workloads (``perfbench/workloads.py``) are the paper's n=16
deployments, RCC with three lanes, fig19's 10x overload point and a
primary crash under full fidelity; their result digests are otherwise
only compared between repetitions of one run.  Pinning them here means a
change in same-tick event order at n=16, or in how RCC lanes interleave,
fails tier-1 instead of passing silently.

Each run is built exactly as a benchmark repetition builds it, at the
workload's default seed, and hashed with the benchmark's own
``result_digest`` (every ``ExperimentResult`` field plus every replica's
executed log).  The digests were measured before the transport's NICs
became callbacks, so they also pin that change as behaviour-preserving.
"""

import pytest

from perfbench.measure import result_digest
from perfbench.workloads import WORKLOADS, gate
from repro.core import ResilientDBSystem

#: workload -> (default seed, result digest)
GOLDEN = {
    "pbft-n16": (1, "09d81e9bdda173b3"),
    "rcc-m3": (1, "8c096b64b8c508cf"),
    "overload-10x": (11, "6a1232de6af95661"),
    "pbft-primary-crash": (1, "bb536fc009cee6c1"),
}


def test_every_workload_is_pinned():
    assert set(GOLDEN) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_benchmark_workload_digest(name):
    workload = WORKLOADS[name]
    seed, expected = GOLDEN[name]
    assert workload.default_seed == seed
    system = ResilientDBSystem(workload.config(seed))
    try:
        workload.prepare(system)
        result = system.run()
        assert gate(workload, system, result) == []
        logs = {rid: replica.executed_log for rid, replica in system.replicas.items()}
        assert result_digest(result, logs) == expected
    finally:
        system.close()
