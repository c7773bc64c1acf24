"""NIC-level transport between endpoints.

Model per message, src → dst:

1. The message joins ``src``'s TX NIC, a FIFO server that occupies the
   NIC for ``size ÷ bandwidth`` (serialisation) per message.
2. After the topology's one-way propagation latency it reaches ``dst``'s
   RX NIC, which occupies the receiving NIC for the same serialisation
   time, then delivers into ``dst.inbox``.

Both ends matter: a primary broadcasting large ``Pre-prepare`` messages is
TX-bound, while a primary collecting 2f+1 ``Prepare``/``Commit`` messages
from every backup is RX-bound.  The fault plan is consulted at transmit
time (sender crash) and delivery time (receiver crash, drops, partitions).

The NICs are not simulation processes: each is a busy flag, a backlog
and kernel callbacks (``_tx_start``/``_tx_done``, ``_rx_start``/
``_rx_done``).  A message that finds its NIC idle starts after a 0-tick
event; one that finds it busy waits in the backlog and starts, after a
0-tick event, when the message ahead of it is done.  Only ``inbox`` is a
:class:`~repro.sim.queues.SimQueue`, since the node's threads ``get()``
from it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional

from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.topology import Topology
from repro.sim.metrics import BusyTracker
from repro.sim.queues import SimQueue


class Endpoint:
    """One network-attached node (replica or client group)."""

    __slots__ = (
        "network",
        "name",
        "inbox",
        "_tx_busy",
        "_tx_backlog",
        "_rx_busy",
        "_rx_backlog",
    )

    def __init__(self, network: "Network", name: str):
        self.network = network
        self.name = name
        #: messages ready for the node's input threads
        self.inbox = SimQueue(network.sim, name=f"{name}.inbox")
        #: a NIC is busy from the moment a message's start is scheduled
        #: until its backlog is empty
        self._tx_busy = False
        self._tx_backlog: deque = deque()
        self._rx_busy = False
        self._rx_backlog: deque = deque()

    # ------------------------------------------------------------------
    # TX NIC
    # ------------------------------------------------------------------
    def _transmit(self, dst: str, message: Message, tx_ns: int) -> None:
        if self._tx_busy:
            self._tx_backlog.append((dst, message, tx_ns))
        else:
            self._tx_busy = True
            self.network.sim.schedule(0, self._tx_start, dst, message, tx_ns)

    def _tx_start(self, dst: str, message: Message, tx_ns: int) -> None:
        if tx_ns:
            self.network.sim.schedule(tx_ns, self._tx_done, dst, message, tx_ns)
        else:
            self._tx_done(dst, message, 0)

    def _tx_done(self, dst: str, message: Message, tx_ns: int) -> None:
        network = self.network
        sim = network.sim
        if tx_ns:
            network.nic_busy.add(tx_ns)
        if network.faults.should_deliver(self.name, dst, sim.now):
            sim.schedule(
                network.topology.one_way_latency_ns,
                network.endpoints[dst]._receive,
                message,
                tx_ns,
            )
        else:
            network.dropped_messages += 1
        if self._tx_backlog:
            sim.schedule(0, self._tx_start, *self._tx_backlog.popleft())
        else:
            self._tx_busy = False

    # ------------------------------------------------------------------
    # RX NIC
    # ------------------------------------------------------------------
    def _receive(self, message: Message, tx_ns: int) -> None:
        if self._rx_busy:
            self._rx_backlog.append((message, tx_ns))
        else:
            self._rx_busy = True
            self.network.sim.schedule(0, self._rx_start, message, tx_ns)

    def _rx_start(self, message: Message, tx_ns: int) -> None:
        if tx_ns:
            self.network.sim.schedule(tx_ns, self._rx_done, message)
        else:
            self._rx_done(message)

    def _rx_done(self, message: Message) -> None:
        network = self.network
        if network.faults.is_crashed(self.name, network.sim.now):
            network.dropped_messages += 1
        else:
            self.inbox.put_nowait(message)
        if self._rx_backlog:
            network.sim.schedule(0, self._rx_start, *self._rx_backlog.popleft())
        else:
            self._rx_busy = False


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
        self.endpoints[src]._transmit(
            dst, message, self.topology.transmission_ns(size)
        )

    def broadcast(self, src: str, destinations: Iterable[str], message: Message) -> None:
        """Send one copy of ``message`` to every destination (not ``src``)."""
        for dst in destinations:
            if dst != src:
                self.send(src, dst, message)
