"""Client transactions and their operations.

Mirrors ResilientDB's transaction base class (§4.8): a transaction carries
its identifier, the issuing client, and its data — here a list of typed
read/write operations plus optional padding payload (the Fig. 12 experiment
grows requests by attaching a set of 8-byte integers).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class OpType(str, enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class Operation:
    """One key-value access inside a transaction."""

    op_type: OpType
    key: str
    value: Optional[str] = None

    def __post_init__(self):
        if self.op_type is OpType.WRITE and self.value is None:
            raise ValueError(f"write to {self.key!r} requires a value")

    def wire_bytes(self) -> int:
        key_bytes = len(self.key)
        value_bytes = len(self.value) if self.value is not None else 0
        return 1 + key_bytes + value_bytes  # 1 = op tag


@dataclass
class Transaction:
    """A client transaction: one or more operations plus padding payload.

    ``txn_id`` is assigned by the primary's input-thread when the request is
    sequenced (§4.3); until then it is None.
    """

    client_id: str
    ops: Tuple[Operation, ...]
    #: extra integers-as-payload, in bytes (Fig. 12's message-size knob)
    padding_bytes: int = 0
    txn_id: Optional[int] = None
    #: simulation time the client issued it (for end-to-end latency)
    submitted_at: Optional[int] = None

    def __post_init__(self):
        if not self.ops:
            raise ValueError("transaction must contain at least one operation")
        if self.padding_bytes < 0:
            raise ValueError(f"padding_bytes must be >= 0, got {self.padding_bytes}")
        # ops and padding never change after construction; only txn_id and
        # submitted_at are filled in later, and they are not on the wire
        self._wire_bytes = (
            16 + sum(op.wire_bytes() for op in self.ops) + self.padding_bytes
        )

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def wire_bytes(self) -> int:
        """Serialized size: fixed header + operations + padding."""
        return self._wire_bytes

    def canonical_bytes(self) -> bytes:
        """Stable byte encoding used for digests and request signatures."""
        parts = [self.client_id]
        for op in self.ops:
            parts.append(f"{op.op_type.value}:{op.key}:{op.value or ''}")
        parts.append(str(self.padding_bytes))
        return "|".join(parts).encode("utf-8")
