"""The discrete-event simulator core.

The :class:`Simulator` owns a single binary-heap event queue of
``(time, sequence, callback, args)`` entries.  The sequence number breaks
ties between events scheduled for the same tick, making runs fully
deterministic: the same program against the same seed produces the same
trace, byte for byte.  Nothing in the kernel reads the wall clock or OS
entropy.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from repro.sim.process import Process
from repro.sim.rng import DeterministicRNG

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised when a simulation process fails or the kernel is misused."""


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator(seed=7)

        def worker():
            yield Timeout(micros(10))
            ...

        sim.spawn(worker())
        sim.run(until=seconds(1))
    """

    def __init__(self, seed: int = 0):
        self.now: int = 0
        self.rng = DeterministicRNG(seed)
        self._heap: list = []
        self._sequence = 0
        self._live_processes = 0
        self._stopped = False

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._sequence = sequence = self._sequence + 1
        _heappush(self._heap, (self.now + int(delay), sequence, fn, args))

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator; it begins running at the
        current simulation time (after already-queued events for this tick)."""
        process = Process(self, generator, name=name)
        self._live_processes += 1
        process.completion.on_trigger(self._process_finished)
        self.schedule(0, process.resume, None)
        return process

    def _process_finished(self, _value: Any) -> None:
        self._live_processes -= 1

    def stop(self) -> None:
        """Halt the simulation after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Run events in time order.

        With ``until`` set, runs until the clock would pass ``until`` ticks
        (the clock is then left exactly at ``until``).  Without it, runs
        until no events remain.  After :meth:`stop` the clock stays at the
        stopping event, so pending events are never left in the past.
        Returns the final clock value.
        """
        self._stopped = False
        heap = self._heap
        if until is None:
            while heap:
                when, _seq, fn, args = _heappop(heap)
                self.now = when
                fn(*args)
                if self._stopped:
                    break
            return self.now
        while heap:
            entry = _heappop(heap)
            if entry[0] > until:
                _heappush(heap, entry)
                break
            self.now = entry[0]
            entry[2](*entry[3])
            if self._stopped:
                return self.now
        if self.now < until:
            self.now = until
        return self.now

    def peek(self) -> Optional[int]:
        """Time of the next pending event, or None if the queue is empty."""
        return self._heap[0][0] if self._heap else None

    @property
    def pending_events(self) -> int:
        return len(self._heap)
