"""In-memory key-value store — ResilientDB's default state backend.

"Employing in-memory storage can ensure faster access, which in turn can
lead to high system throughput" (§3).  Durability is delegated to the
protocol: at most f replicas fail, so the replicated in-memory copies are
the persistence story, with checkpoints for recovery.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.storage.base import KVStore, StorageCosts


class InMemoryKVStore(KVStore):
    """Dict-backed record store with modelled access costs."""

    name = "memory"

    def __init__(self, costs: Optional[StorageCosts] = None):
        self.costs = costs or StorageCosts()
        self._records: Dict[str, str] = {}
        self.reads = 0
        self.writes = 0

    def read(self, key: str) -> Tuple[Optional[str], int]:
        self.reads += 1
        return self._records.get(key), self.costs.memory_read_ns

    def write(self, key: str, value: str) -> int:
        self.writes += 1
        self._records[key] = value
        return self.costs.memory_write_ns

    def size(self) -> int:
        return len(self._records)

    def snapshot(self) -> Dict[str, str]:
        return dict(self._records)

    def restore(self, records: Dict[str, str]) -> None:
        self._records = dict(records)

    def preload(self, records: Dict[str, str]) -> None:
        """Bulk-load the initial table (free of simulated cost — the paper
        initialises each replica with an identical YCSB table before the
        measurement starts)."""
        self._records.update(records)
