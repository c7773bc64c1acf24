"""Proof-of-Execution (PoE) — the paper's own follow-up protocol [21].

§2.1: "PoE tries to eliminate the limitations of Zyzzyva by providing a
two-phase, speculative consensus protocol but requires one phase of
quadratic communication among all the replicas."

Model implemented here (simplified from the PoE paper, Gupta et al. 2019):

1. The primary broadcasts ``Propose`` (sequence, digest, batch).
2. Every replica that accepts the proposal broadcasts ``Support`` —
   the single quadratic phase.
3. A replica holding 2f+1 matching ``Support`` messages *speculatively
   executes* the batch and answers the client; clients complete on 2f+1
   matching responses (not 3f+1 — this is what removes Zyzzyva's
   fragility under backup failures).

Like the Zyzzyva engine, view change is out of scope: the experiments
only fail backups, which PoE rides out without any protocol action.

This is an *extension* beyond the paper's evaluation; the bench
``benchmarks/test_ext_poe.py`` places PoE between PBFT and Zyzzyva on
message cost and shows it keeps Zyzzyva-class throughput under the
failures that collapse Zyzzyva.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.consensus.base import Action, Broadcast, ExecuteReady, SingleLeaderEngine
from repro.consensus.messages import ClientRequest, Propose, Support


@dataclass
class _PoeSlot:
    propose: object = None
    digest: object = None
    supports: Dict[str, Set[str]] = field(default_factory=dict)
    sent_support: bool = False
    executed: bool = False


class PoeReplica(SingleLeaderEngine):
    """One replica's PoE engine.  I/O-free; returns actions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.slots: Dict[int, _PoeSlot] = {}

    def _slot(self, sequence: int) -> _PoeSlot:
        slot = self.slots.get(sequence)
        if slot is None:
            slot = _PoeSlot()
            self.slots[sequence] = slot
        return slot

    # ------------------------------------------------------------------
    # primary side
    # ------------------------------------------------------------------
    def propose(
        self, digest: str, request: ClientRequest
    ) -> Tuple[Propose, List[Action]]:
        self._require_primary()
        sequence = self.next_sequence
        self.next_sequence += 1
        message = Propose(self.replica_id, self.view, sequence, digest, request)
        slot = self._slot(sequence)
        slot.propose = message
        slot.digest = digest
        slot.sent_support = True
        support = Support(self.replica_id, self.view, sequence, digest)
        actions: List[Action] = [Broadcast(message), Broadcast(support)]
        self._record_support(slot, self.replica_id, digest)
        actions.extend(self._maybe_execute(sequence, slot))
        return message, actions

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def handle_propose(self, message: Propose) -> List[Action]:
        if message.view != self.view or message.sender != self.primary_of(self.view):
            return self._reject()
        if not self._in_window(message.sequence):
            return self._reject()
        slot = self._slot(message.sequence)
        if slot.propose is not None and slot.digest != message.digest:
            return self._reject()  # equivocation: first wins
        if slot.sent_support:
            return []
        slot.propose = message
        slot.digest = message.digest
        slot.sent_support = True
        support = Support(self.replica_id, self.view, message.sequence, message.digest)
        actions: List[Action] = [Broadcast(support)]
        self._record_support(slot, self.replica_id, message.digest)
        actions.extend(self._maybe_execute(message.sequence, slot))
        return actions

    def handle_support(self, message: Support) -> List[Action]:
        if message.view != self.view:
            return self._reject()
        if not self._in_window(message.sequence):
            return self._reject()
        slot = self._slot(message.sequence)
        self._record_support(slot, message.sender, message.digest)
        return self._maybe_execute(message.sequence, slot)

    def _record_support(self, slot: _PoeSlot, sender: str, digest: str) -> None:
        slot.supports.setdefault(digest, set()).add(sender)

    def _maybe_execute(self, sequence: int, slot: _PoeSlot) -> List[Action]:
        if slot.executed or slot.propose is None or slot.digest is None:
            return []
        voters = slot.supports.get(slot.digest, ())
        if len(voters) < self.quorum.certificate_quorum:
            return []
        slot.executed = True
        return [
            ExecuteReady(
                sequence=sequence,
                view=self.view,
                request=slot.propose.request,
                speculative=True,  # execution precedes any commit proof
            )
        ]
