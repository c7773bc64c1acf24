"""Unit-level tests of replica internals (no full runs)."""

import pytest

from repro.consensus.base import ExecuteReady
from repro.consensus.messages import ClientRequest, RequestBatch, make_null_batch
from repro.core import ResilientDBSystem
from repro.workloads import Operation, OpType, Transaction


@pytest.fixture
def system(small_config):
    return ResilientDBSystem(small_config)


def make_batch(txns=3):
    request = ClientRequest(
        "client0",
        1,
        tuple(
            Transaction("client0", (Operation(OpType.WRITE, f"k{i}", "v"),))
            for i in range(txns)
        ),
    )
    batch = RequestBatch((request,))
    batch.digest = "d"
    return batch


def test_output_queue_routing_is_stable(system):
    replica = system.replicas["r0"]
    before = [queue.enqueued_total for queue in replica.output_queues]
    replica._enqueue_output("r1", object())
    replica._enqueue_output("r1", object())
    after = [queue.enqueued_total for queue in replica.output_queues]
    # both messages landed on the same queue (per-destination affinity)
    deltas = [b - a for a, b in zip(before, after)]
    assert sorted(deltas) == [0, 2]


def test_enqueue_execute_dedupes(system):
    replica = system.replicas["r0"]
    action = ExecuteReady(sequence=5, view=0, request=make_batch())
    replica._enqueue_execute(action)
    replica._enqueue_execute(action)
    assert list(replica.exec_pending) == [5]
    # already-executed sequences are ignored too
    replica.next_exec_sequence = 10
    replica._enqueue_execute(ExecuteReady(sequence=7, view=0, request=make_batch()))
    assert 7 not in replica.exec_pending


def test_digest_cost_per_batch_cheaper_than_per_request(system):
    replica = system.replicas["r0"]
    requests = tuple(
        ClientRequest(
            "client0",
            i,
            (Transaction("client0", (Operation(OpType.WRITE, "k", "v"),)),),
        )
        for i in range(10)
    )
    batch = RequestBatch(requests)
    per_batch = replica._digest_cost_for(batch)
    replica.config = replica.config.with_options(per_request_digests=True)
    per_request = replica._digest_cost_for(batch)
    assert per_request > per_batch


def test_null_batch_properties():
    batch = make_null_batch()
    assert batch.is_null
    assert batch.txn_count == 0
    assert batch.digest == "null-batch"
    assert batch.batch_bytes() == b""


def test_request_batch_size_accounting():
    batch = make_batch(txns=4)
    assert batch.txn_count == 4
    assert batch.payload_bytes() > 4 * 16
    # batch bytes cached and stable
    assert batch.batch_bytes() is batch.batch_bytes()


def test_current_primary_tracks_engine_view(system):
    replica = system.replicas["r1"]
    assert replica.engine.forward_target("client0", 0) == "r0"
    replica.engine.view = 1
    assert replica.engine.forward_target("client0", 0) == "r1"
    assert replica.engine.is_primary


def test_batch_txns_counts_transactions():
    from repro.core.replica import Replica

    requests = [
        ClientRequest(
            "c", i,
            tuple(
                Transaction("c", (Operation(OpType.WRITE, "k", "v"),))
                for _ in range(3)
            ),
        )
        for i in range(2)
    ]
    assert Replica._batch_txns(requests) == 6


def test_replica_endpoint_and_cpu_registered(system):
    replica = system.replicas["r0"]
    assert replica.endpoint.name == "r0"
    assert replica.cpu.cores == system.config.cores_per_replica
    assert replica.chain.height == 0
    assert replica.next_exec_sequence == 1
