"""Tests for the NIC-level transport and fault injection."""

import pytest

from repro.net import FaultPlan, Message, Network, Topology, WIRE_HEADER_BYTES
from repro.sim import Simulator, micros, seconds


class Ping(Message):
    kind = "ping"

    __slots__ = ("body_bytes",)

    def __init__(self, sender, body_bytes=0):
        super().__init__(sender)
        self.body_bytes = body_bytes

    def payload_bytes(self):
        return self.body_bytes


def make_network(sim, **topo_kwargs):
    network = Network(sim, topology=Topology(**topo_kwargs))
    a = network.register("a")
    b = network.register("b")
    return network, a, b


def drain_one(sim, endpoint, collected):
    def loop():
        message = yield endpoint.inbox.get()
        collected.append((sim.now, message))

    sim.spawn(loop())


def test_message_delivered_with_latency_and_serialisation():
    sim = Simulator()
    network, _a, b = make_network(
        sim, one_way_latency_ns=micros(100), nic_gbps=10.0
    )
    got = []
    drain_one(sim, b, got)
    message = Ping("a", body_bytes=10_000)
    network.send("a", "b", message)
    sim.run(until=seconds(1))
    assert len(got) == 1
    arrival, delivered = got[0]
    assert delivered is message
    size = message.wire_bytes()
    tx_ns = Topology(nic_gbps=10.0).transmission_ns(size)
    # TX serialisation + propagation + RX serialisation
    assert arrival == 2 * tx_ns + micros(100)


def test_wire_size_accounting():
    message = Ping("a", body_bytes=500)
    assert message.wire_bytes() == WIRE_HEADER_BYTES + 500
    # auth adds the per-receiver token size
    from repro.crypto import Ed25519Scheme, KeyStore

    store = KeyStore(0)
    store.register("a")
    scheme = Ed25519Scheme(store)
    message.auth, _ = scheme.authenticate(b"x", "a", ["b"])
    assert message.wire_bytes() == WIRE_HEADER_BYTES + 500 + 64


def test_nic_serialises_back_to_back_sends():
    """Two large messages from one endpoint share its TX NIC, so the second
    arrives one serialisation time after the first."""
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=0, nic_gbps=1.0)
    arrivals = []

    def drain():
        while True:
            yield b.inbox.get()
            arrivals.append(sim.now)

    sim.spawn(drain())
    first = Ping("a", body_bytes=100_000)
    second = Ping("a", body_bytes=100_000)
    network.send("a", "b", first)
    network.send("a", "b", second)
    sim.run(until=seconds(1))
    tx_ns = Topology(nic_gbps=1.0).transmission_ns(first.wire_bytes())
    assert arrivals == [2 * tx_ns, 3 * tx_ns]


def test_broadcast_excludes_sender():
    sim = Simulator()
    network = Network(sim, topology=Topology(one_way_latency_ns=0))
    endpoints = {name: network.register(name) for name in ("a", "b", "c")}
    received = {name: [] for name in endpoints}

    def drain(name):
        while True:
            message = yield endpoints[name].inbox.get()
            received[name].append(message)

    for name in endpoints:
        sim.spawn(drain(name))
    network.broadcast("a", list(endpoints), Ping("a"))
    sim.run(until=seconds(1))
    assert len(received["b"]) == 1 and len(received["c"]) == 1
    assert received["a"] == []


def test_duplicate_registration_rejected():
    sim = Simulator()
    network = Network(sim)
    network.register("a")
    with pytest.raises(ValueError):
        network.register("a")


def test_send_to_unknown_endpoint_rejected():
    sim = Simulator()
    network = Network(sim)
    network.register("a")
    with pytest.raises(KeyError):
        network.send("a", "ghost", Ping("a"))


def test_crashed_receiver_drops_message():
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=0)
    network.faults.crash("b")
    got = []
    drain_one(sim, b, got)
    network.send("a", "b", Ping("a"))
    sim.run(until=seconds(1))
    assert got == []
    assert network.dropped_messages == 1


def test_crashed_sender_sends_nothing():
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=0)
    network.faults.crash("a")
    got = []
    drain_one(sim, b, got)
    network.send("a", "b", Ping("a"))
    sim.run(until=seconds(1))
    assert got == []


def test_scheduled_crash_takes_effect_at_time():
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=0)
    network.faults.crash_at("b", micros(500))
    arrivals = []

    def drain():
        while True:
            yield b.inbox.get()
            arrivals.append(sim.now)

    sim.spawn(drain())
    network.send("a", "b", Ping("a"))
    sim.schedule(micros(600), network.send, "a", "b", Ping("a"))
    sim.run(until=seconds(1))
    assert len(arrivals) == 1


def test_partition_blocks_both_directions():
    sim = Simulator()
    network, a, b = make_network(sim, one_way_latency_ns=0)
    network.faults.partition(["a"], ["b"])
    got_a, got_b = [], []
    drain_one(sim, a, got_a)
    drain_one(sim, b, got_b)
    network.send("a", "b", Ping("a"))
    network.send("b", "a", Ping("b"))
    sim.run(until=seconds(1))
    assert got_a == [] and got_b == []
    network.faults.heal_partitions()
    network.send("a", "b", Ping("a"))
    sim.run(until=seconds(2))
    assert len(got_b) == 1


def test_lossy_link_drops_deterministically():
    sim = Simulator(seed=3)
    network, _a, b = make_network(sim, one_way_latency_ns=0)
    network.faults.drop_link("a", "b", probability=0.5)
    count = []

    def drain():
        while True:
            yield b.inbox.get()
            count.append(1)

    sim.spawn(drain())
    for _ in range(100):
        network.send("a", "b", Ping("a"))
    sim.run(until=seconds(1))
    assert 20 < len(count) < 80  # roughly half, seeded so stable
    assert network.dropped_messages == 100 - len(count)


def test_fault_plan_validation():
    plan = FaultPlan()
    with pytest.raises(ValueError):
        plan.drop_link("a", "b", probability=1.5)


def test_network_statistics():
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=0)
    got = []
    drain_one(sim, b, got)
    message = Ping("a", body_bytes=1000)
    network.send("a", "b", message)
    sim.run(until=seconds(1))
    assert network.messages_sent == 1
    assert network.bytes_sent == message.wire_bytes()


def test_rx_nic_serialises_two_senders():
    """Two senders' NICs transmit in parallel, but the receiver's RX NIC
    takes their messages one after the other."""
    sim = Simulator()
    network = Network(sim, topology=Topology(one_way_latency_ns=0, nic_gbps=1.0))
    for name in ("a", "b", "c"):
        network.register(name)
    arrivals = []

    def drain():
        while True:
            message = yield network.endpoints["b"].inbox.get()
            arrivals.append((sim.now, message.sender))

    sim.spawn(drain())
    network.send("a", "b", Ping("a", body_bytes=100_000))
    network.send("c", "b", Ping("c", body_bytes=100_000))
    sim.run(until=seconds(1))
    tx_ns = Topology(nic_gbps=1.0).transmission_ns(Ping("a", 100_000).wire_bytes())
    assert arrivals == [(2 * tx_ns, "a"), (3 * tx_ns, "c")]


def test_receiver_crashing_in_flight_drops_message():
    """The TX side delivers (the receiver is up when the message leaves),
    but the receiver is down when its RX NIC finishes: the message is
    dropped and counted."""
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=micros(100))
    network.faults.crash_at("b", micros(50))
    got = []
    drain_one(sim, b, got)
    network.send("a", "b", Ping("a"))
    sim.run(until=seconds(1))
    assert got == []
    assert network.messages_sent == 1
    assert network.dropped_messages == 1


def test_sends_before_first_step_arrive_in_fifo_order():
    """Messages queued before the kernel has run at all keep their order,
    even when a small message follows a large one."""
    sim = Simulator()
    network, _a, b = make_network(sim, one_way_latency_ns=micros(10), nic_gbps=1.0)
    sizes = [50_000, 10, 20_000, 0, 5]
    messages = [Ping("a", body_bytes=size) for size in sizes]
    for message in messages:
        network.send("a", "b", message)
    received = []

    def drain():
        while True:
            received.append((yield b.inbox.get()))

    sim.spawn(drain())
    sim.run(until=seconds(1))
    assert received == messages


def test_memoised_sizes_match_the_size_formula():
    """The sizes computed once at construction equal the formula summed
    over the transactions, for multi-op padded requests in a batch and the
    proposal that carries it."""
    from repro.consensus.messages import ClientRequest, PrePrepare, RequestBatch
    from repro.workloads import Operation, OpType, Transaction

    def txn(i, padding):
        ops = (
            Operation(OpType.WRITE, f"key{i}", "v" * (i + 1)),
            Operation(OpType.READ, f"k{i}"),
            Operation(OpType.WRITE, "x", "value"),
        )
        return Transaction("client", ops, padding_bytes=padding)

    def txn_formula(t):
        ops = sum(1 + len(op.key) + len(op.value or "") for op in t.ops)
        return 16 + ops + t.padding_bytes

    requests = tuple(
        ClientRequest("client", rid, tuple(txn(i, 8 * i) for i in range(rid + 1)))
        for rid in range(4)
    )
    for request in requests:
        expected = 16 + sum(txn_formula(t) for t in request.txns)
        assert request.payload_bytes() == expected
        assert request.wire_bytes() == WIRE_HEADER_BYTES + expected
        assert request.txn_count == len(request.txns)
    batch = RequestBatch(requests)
    batch_bytes = 16 + sum(
        16 + sum(txn_formula(t) for t in request.txns) for request in requests
    )
    assert batch.payload_bytes() == batch_bytes
    assert batch.txn_count == sum(len(request.txns) for request in requests) == 10
    proposal = PrePrepare("r0", 0, 1, "digest", batch)
    assert proposal.payload_bytes() == 48 + batch_bytes
    assert proposal.wire_bytes() == WIRE_HEADER_BYTES + 48 + batch_bytes
