"""Effect objects that simulation processes yield to the kernel.

A process is a Python generator.  Each ``yield`` hands the kernel an
*effect* describing what the process is waiting for.  The kernel resumes
the process (via ``generator.send(value)``) when the effect completes.

Supported effects:

- ``Timeout(delay)`` or a bare ``int`` — resume after ``delay`` ticks.
- ``SimEvent`` — resume when the event is triggered; the trigger value is
  the result of the ``yield``.
- ``SimQueue.get()`` / bounded ``SimQueue.put(item)`` — see
  :mod:`repro.sim.queues`.
- ``Resource.acquire()`` — see :mod:`repro.sim.resources`.
- ``Process`` — join: resume when the target process finishes.
"""

from __future__ import annotations

from typing import Any, List


class _TimeoutSentinel:
    """Unique marker delivered when an event is triggered by a timer."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<TIMEOUT>"


#: Sentinel value delivered to waiters when a :class:`SimEvent` fires due to
#: an attached timer rather than a real completion (see
#: :meth:`SimEvent.trigger_after`).
TIMEOUT = _TimeoutSentinel()


class Timeout:
    """Effect: suspend the yielding process for ``delay`` clock ticks."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self.delay = int(delay)

    def _bind(self, sim, process) -> None:
        sim.schedule(self.delay, process.resume, None)


class SimEvent:
    """A one-shot event that processes can wait on.

    The first call to :meth:`trigger` resumes every waiter with the trigger
    value; later triggers are ignored (this makes race patterns such as
    "response arrives" vs. "client timer fires" easy to express — whichever
    happens first wins, the loser is a no-op).
    """

    __slots__ = ("sim", "_waiters", "_callbacks", "triggered", "value")

    def __init__(self, sim):
        self.sim = sim
        self._waiters: List[Any] = []
        self._callbacks: List[Any] = []
        self.triggered = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> bool:
        """Fire the event, resuming all waiters.  Returns False if already
        fired (in which case nothing happens)."""
        if self.triggered:
            return False
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        callbacks, self._callbacks = self._callbacks, []
        for process in waiters:
            self.sim.schedule(0, process.resume, value)
        for fn in callbacks:
            self.sim.schedule(0, fn, value)
        return True

    def trigger_after(self, delay: int, value: Any = TIMEOUT) -> None:
        """Arrange for the event to fire with ``value`` after ``delay`` ticks
        unless something else triggers it first."""
        self.sim.schedule(delay, self.trigger, value)

    def on_trigger(self, fn) -> None:
        """Register a callback invoked with the trigger value (callback-style
        alternative to yielding on the event)."""
        if self.triggered:
            self.sim.schedule(0, fn, self.value)
        else:
            self._callbacks.append(fn)

    def _bind(self, sim, process) -> None:
        if self.triggered:
            sim.schedule(0, process.resume, self.value)
        else:
            self._waiters.append(process)


class Timer:
    """A cancellable one-shot timer.

    ``Timer(sim, delay, fn, *args)`` schedules ``fn(*args)`` after ``delay``
    ticks; :meth:`cancel` before expiry suppresses the call.  Used for
    protocol retransmission/view-change timers.
    """

    __slots__ = ("_fn", "_args", "_cancelled", "_fired")

    def __init__(self, sim, delay: int, fn, *args):
        self._fn = fn
        self._args = args
        self._cancelled = False
        self._fired = False
        sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if not self._cancelled:
            self._fired = True
            self._fn(*self._args)

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def active(self) -> bool:
        return not (self._cancelled or self._fired)
