"""Common interface and cost model for record stores."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class StorageCosts:
    """Simulated nanoseconds the execute-thread spends per record access.

    The in-memory figures model a hash-map probe plus a cache-line copy;
    the SQLite figures model the API call + SQL parse/step + page access
    that §5.7 observes the execute-thread busy-waiting on.  Calibrated so
    the Fig. 14 shape (−94% throughput, +24× latency) reproduces.
    """

    memory_read_ns: int = 150
    memory_write_ns: int = 250
    sqlite_read_ns: int = 90_000
    sqlite_write_ns: int = 170_000


class KVStore:
    """Record-store interface used by the execution layer.

    ``read``/``write`` perform the real operation and return the simulated
    cost in nanoseconds, which the caller charges to its CPU.
    """

    name = "kvstore"

    def read(self, key: str):
        """Return ``(value_or_None, cost_ns)``."""
        raise NotImplementedError

    def write(self, key: str, value: str):
        """Store value; return ``cost_ns``."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of records currently stored."""
        raise NotImplementedError

    def snapshot(self) -> Dict[str, str]:
        """Every record, as a fresh dict (state transfer, convergence
        checks)."""
        raise NotImplementedError

    def restore(self, records: Dict[str, str]) -> None:
        """Replace the whole store with ``records`` (state transfer)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release external resources (no-op for in-memory stores)."""
