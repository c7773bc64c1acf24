"""NIC-level transport between endpoints.

Model per message, src → dst:

1. The message enters ``src``'s transmit queue; the TX NIC process drains
   it FIFO, occupying the NIC for ``size ÷ bandwidth`` (serialisation).
2. After the topology's one-way propagation latency it reaches ``dst``'s
   receive queue; the RX NIC process occupies the receiving NIC for the
   same serialisation time, then delivers into ``dst.inbox``.

Both ends matter: a primary broadcasting large ``Pre-prepare`` messages is
TX-bound, while a primary collecting 2f+1 ``Prepare``/``Commit`` messages
from every backup is RX-bound.  The fault plan is consulted at transmit
time (sender crash) and delivery time (receiver crash, drops, partitions).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.topology import Topology
from repro.sim.queues import SimQueue


class Endpoint:
    """One network-attached node (replica or client group)."""

    def __init__(self, network: "Network", name: str):
        self.network = network
        self.name = name
        sim = network.sim
        #: messages ready for the node's input threads
        self.inbox = SimQueue(sim, name=f"{name}.inbox")
        self._tx_queue = SimQueue(sim, name=f"{name}.tx")
        self._rx_queue = SimQueue(sim, name=f"{name}.rx")
        sim.spawn(self._tx_loop(), name=f"{name}.tx-nic")
        sim.spawn(self._rx_loop(), name=f"{name}.rx-nic")

    def _tx_loop(self):
        network = self.network
        sim = network.sim
        while True:
            dst, message, size = yield self._tx_queue.get()
            tx_ns = network.topology.transmission_ns(size)
            if tx_ns:
                yield tx_ns
                network.nic_busy.add(tx_ns)
            if network.faults.should_deliver(self.name, dst, sim.now):
                endpoint = network.endpoints[dst]
                sim.schedule(
                    network.topology.one_way_latency_ns,
                    endpoint._rx_queue.put_nowait,
                    (message, size),
                )
            else:
                network.dropped_messages += 1

    def _rx_loop(self):
        network = self.network
        sim = network.sim
        while True:
            message, size = yield self._rx_queue.get()
            tx_ns = network.topology.transmission_ns(size)
            if tx_ns:
                yield tx_ns
            if network.faults.is_crashed(self.name, sim.now):
                network.dropped_messages += 1
                continue
            self.inbox.put_nowait(message)


class Network:
    """The datacenter fabric connecting all endpoints."""

    def __init__(
        self,
        sim,
        topology: Optional[Topology] = None,
        faults: Optional[FaultPlan] = None,
    ):
        self.sim = sim
        self.topology = topology or Topology()
        self.faults = faults or FaultPlan(sim.rng.fork("faults"))
        self.endpoints: Dict[str, Endpoint] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.dropped_messages = 0

        from repro.sim.metrics import BusyTracker

        self.nic_busy = BusyTracker("nic")

    def reset_window(self) -> None:
        """Zero traffic statistics (called when a measurement window opens)."""
        self.messages_sent = 0
        self.bytes_sent = 0
        self.dropped_messages = 0
        self.nic_busy.reset()

    def register(self, name: str) -> Endpoint:
        """Attach an endpoint; returns its handle (with ``inbox``)."""
        if name in self.endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        endpoint = Endpoint(self, name)
        self.endpoints[name] = endpoint
        return endpoint

    def send(self, src: str, dst: str, message: Message) -> None:
        """Queue ``message`` for transmission src → dst."""
        if dst not in self.endpoints:
            raise KeyError(f"unknown destination endpoint {dst!r}")
        if self.faults.is_crashed(src, self.sim.now):
            self.dropped_messages += 1
            return
        size = message.wire_bytes()
        self.messages_sent += 1
        self.bytes_sent += size
        message.created_at = self.sim.now
        self.endpoints[src]._tx_queue.put_nowait((dst, message, size))

    def broadcast(self, src: str, destinations: Iterable[str], message: Message) -> None:
        """Send one copy of ``message`` to every destination (not ``src``)."""
        for dst in destinations:
            if dst != src:
                self.send(src, dst, message)
