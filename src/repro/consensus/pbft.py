"""PBFT state machine (Castro & Liskov [7]), as described in §2.1.

Normal case, per slot (sequence number):

1. The primary assigns the next sequence number to a client request batch
   and broadcasts ``PrePrepare``.
2. Each backup validates it and broadcasts ``Prepare``; a replica holding
   the pre-prepare plus 2f distinct backup ``Prepare`` messages for the
   same (view, sequence, digest) is **prepared** and broadcasts ``Commit``.
3. A replica with 2f+1 distinct matching ``Commit`` messages is
   **committed** and hands the batch to the execution layer
   (:class:`~repro.consensus.base.ExecuteReady`).

Slots progress independently — this is the out-of-order consensus of §4.5;
PBFT never requires a request to reference the previous one, which is what
makes the parallelism safe.  Execution order is restored downstream.

View change: when a replica's timer for an uncommitted slot expires it
broadcasts ``ViewChange`` carrying its prepared certificates; the primary
of the next view assembles 2f+1 votes into ``NewView``, re-proposing every
prepared sequence so no committed request can be lost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.consensus.base import (
    Action,
    Broadcast,
    CancelViewChangeTimer,
    EnterView,
    ExecuteReady,
    ProposalError,
    SingleLeaderEngine,
    StartViewChangeTimer,
    ViewChangeInProgress,
)
from repro.consensus.messages import (
    ClientRequest,
    Commit,
    NewView,
    Prepare,
    PrePrepare,
    ViewChange,
)


@dataclass
class Slot:
    """Consensus state for one sequence number."""

    preprepare: Optional[PrePrepare] = None
    digest: Optional[str] = None
    #: digest -> distinct prepare senders (keyed by digest so a byzantine
    #: replica's conflicting vote cannot poison the honest quorum)
    prepares: Dict[str, Set[str]] = field(default_factory=dict)
    commits: Dict[str, Set[str]] = field(default_factory=dict)
    #: digest -> (sender, token) pairs retained for the block certificate
    commit_tokens: Dict[str, List[Tuple[str, bytes]]] = field(default_factory=dict)
    sent_prepare: bool = False
    sent_commit: bool = False
    committed: bool = False


class PbftReplica(SingleLeaderEngine):
    """One replica's PBFT engine.  I/O-free; returns actions."""

    has_view_change = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.in_view_change = False
        self.slots: Dict[int, Slot] = {}
        self._view_change_votes: Dict[int, Dict[str, ViewChange]] = {}

    def _slot(self, sequence: int) -> Slot:
        slot = self.slots.get(sequence)
        if slot is None:
            slot = Slot()
            self.slots[sequence] = slot
        return slot

    # ------------------------------------------------------------------
    # normal case: primary
    # ------------------------------------------------------------------
    def propose(
        self, digest: str, request: ClientRequest
    ) -> Tuple[PrePrepare, List[Action]]:
        """Primary only: propose ``request`` at the next sequence number.

        The caller (batch-thread) computed and paid for ``digest``.  A
        failed proposal consumes no sequence number.
        """
        proposal = self.make_preprepare(self.next_sequence, digest, request)
        self.next_sequence += 1
        return proposal

    def make_preprepare(
        self, sequence: int, digest: str, request: ClientRequest
    ) -> Tuple[PrePrepare, List[Action]]:
        """Primary only: propose ``request`` at ``sequence``."""
        self._require_primary()
        if self.in_view_change:
            raise ViewChangeInProgress("cannot propose during a view change")
        slot = self._slot(sequence)
        if slot.preprepare is not None:
            raise ProposalError(f"sequence {sequence} already proposed")
        message = PrePrepare(self.replica_id, self.view, sequence, digest, request)
        slot.preprepare = message
        slot.digest = digest
        return message, [Broadcast(message), StartViewChangeTimer(sequence)]

    # ------------------------------------------------------------------
    # normal case: message handlers
    # ------------------------------------------------------------------
    def handle_preprepare(self, message: PrePrepare) -> List[Action]:
        if self.in_view_change or message.view != self.view:
            return self._reject()
        if message.sender != self.primary_of(message.view):
            return self._reject()  # only the primary may propose
        if not self._in_window(message.sequence):
            return self._reject()
        slot = self._slot(message.sequence)
        if slot.preprepare is not None and slot.digest != message.digest:
            # equivocating primary: keep the first proposal, drop this one
            return self._reject()
        if slot.sent_prepare:
            return []
        slot.preprepare = message
        slot.digest = message.digest
        slot.sent_prepare = True
        prepare = Prepare(self.replica_id, self.view, message.sequence, message.digest)
        actions: List[Action] = [
            Broadcast(prepare),
            StartViewChangeTimer(message.sequence),
        ]
        # count our own prepare, then re-check quorum — matching votes may
        # have arrived before the pre-prepare (§4.3's asynchrony example)
        self._record_prepare(slot, self.replica_id, message.digest)
        actions.extend(self._maybe_commit(message.sequence, slot))
        return actions

    def handle_prepare(self, message: Prepare) -> List[Action]:
        if self.in_view_change or message.view != self.view:
            return self._reject()
        if message.sender == self.primary_of(message.view):
            return self._reject()  # the primary never sends Prepare
        if not self._in_window(message.sequence):
            return self._reject()
        slot = self._slot(message.sequence)
        self._record_prepare(slot, message.sender, message.digest)
        return self._maybe_commit(message.sequence, slot)

    def handle_commit(self, message: Commit) -> List[Action]:
        if self.in_view_change or message.view != self.view:
            return self._reject()
        if not self._in_window(message.sequence):
            return self._reject()
        slot = self._slot(message.sequence)
        voters = slot.commits.setdefault(message.digest, set())
        if message.sender not in voters:
            voters.add(message.sender)
            token = None
            if message.auth is not None:
                token = message.auth.for_receiver(self.replica_id)
            slot.commit_tokens.setdefault(message.digest, []).append(
                (message.sender, token or b"")
            )
        return self._maybe_execute(message.sequence, slot)

    # -- quorum bookkeeping --------------------------------------------
    def _record_prepare(self, slot: Slot, sender: str, digest: str) -> None:
        slot.prepares.setdefault(digest, set()).add(sender)

    def _prepared(self, slot: Slot) -> bool:
        """Pre-prepare received plus 2f distinct backup Prepare votes for
        its digest (the primary never votes Prepare; its pre-prepare is its
        vote)."""
        if slot.digest is None:
            return False
        votes = slot.prepares.get(slot.digest, ())
        return len(votes) >= self.quorum.prepare_quorum

    def _maybe_commit(self, sequence: int, slot: Slot) -> List[Action]:
        if slot.sent_commit or not self._prepared(slot):
            # the primary holds the request but never sends Prepare, so its
            # commit gate is the same quorum check on received prepares
            return []
        slot.sent_commit = True
        commit = Commit(self.replica_id, self.view, sequence, slot.digest)
        actions: List[Action] = [Broadcast(commit)]
        # our own commit vote counts toward the 2f+1
        voters = slot.commits.setdefault(slot.digest, set())
        if self.replica_id not in voters:
            voters.add(self.replica_id)
            slot.commit_tokens.setdefault(slot.digest, []).append(
                (self.replica_id, b"")
            )
        actions.extend(self._maybe_execute(sequence, slot))
        return actions

    def _maybe_execute(self, sequence: int, slot: Slot) -> List[Action]:
        if slot.committed or slot.digest is None or slot.preprepare is None:
            return []
        voters = slot.commits.get(slot.digest, ())
        if len(voters) < self.quorum.commit_quorum:
            return []
        slot.committed = True
        proof = tuple(slot.commit_tokens.get(slot.digest, ()))[
            : self.quorum.commit_quorum
        ]
        return [
            CancelViewChangeTimer(sequence),
            ExecuteReady(
                sequence=sequence,
                view=self.view,
                request=slot.preprepare.request,
                commit_proof=proof,
            ),
        ]

    # ------------------------------------------------------------------
    # state transfer
    # ------------------------------------------------------------------
    def adopt_state(self, executed_sequence: int, log_slice) -> None:
        super().adopt_state(executed_sequence, log_slice)
        # adopting a quorum-attested state is proof the system is live; a
        # lone, never-quorate primary suspicion would otherwise wedge this
        # replica in in_view_change forever
        self.in_view_change = False

    # ------------------------------------------------------------------
    # view change
    # ------------------------------------------------------------------
    def on_view_change_timeout(self, sequence: int) -> List[Action]:
        """Host timer fired for ``sequence``; if still uncommitted, vote to
        replace the primary."""
        slot = self.slots.get(sequence)
        if slot is not None and slot.committed:
            return []
        return self._start_view_change(self.view + 1)

    def suspect_primary(self) -> List[Action]:
        """Host-level suspicion (e.g. a forwarded client request saw no
        progress): vote to replace the primary."""
        if self.in_view_change:
            return []
        return self._start_view_change(self.view + 1)

    def _start_view_change(self, new_view: int) -> List[Action]:
        if new_view <= self.view:
            return []
        self.in_view_change = True
        prepared = tuple(
            (sequence, slot.digest)
            for sequence, slot in sorted(self.slots.items())
            if slot.digest is not None and self._prepared(slot) and not slot.committed
        )
        vote = ViewChange(self.replica_id, new_view, self.stable_sequence, prepared)
        # record our own vote
        self._view_change_votes.setdefault(new_view, {})[self.replica_id] = vote
        actions: List[Action] = [Broadcast(vote)]
        actions.extend(self._maybe_new_view(new_view))
        return actions

    def handle_view_change(self, message: ViewChange) -> List[Action]:
        if message.new_view <= self.view:
            return self._reject()
        votes = self._view_change_votes.setdefault(message.new_view, {})
        votes[message.sender] = message
        actions: List[Action] = []
        # join the view change once f+1 replicas vote (we cannot be the
        # only correct replica left behind)
        if (
            not self.in_view_change
            and len(votes) >= self.quorum.f + 1
            and self.replica_id not in votes
        ):
            actions.extend(self._start_view_change(message.new_view))
        actions.extend(self._maybe_new_view(message.new_view))
        return actions

    def _maybe_new_view(self, new_view: int) -> List[Action]:
        if self.primary_of(new_view) != self.replica_id:
            return []
        votes = self._view_change_votes.get(new_view, {})
        if len(votes) < self.quorum.view_change_quorum or self.view >= new_view:
            return []
        # union of prepared certificates across votes; at most one digest
        # can be prepared per sequence among correct replicas
        carried: Dict[int, str] = {}
        for vote in votes.values():
            for sequence, digest in vote.prepared:
                carried.setdefault(sequence, digest)
        carried_pairs = tuple(sorted(carried.items()))
        new_view_message = NewView(
            self.replica_id, new_view, tuple(sorted(votes)), carried_pairs
        )
        actions: List[Action] = [Broadcast(new_view_message)]
        actions.extend(self._enter_view(new_view))
        # re-propose every carried request we hold the body for, and fill
        # any uncarried gap below the highest known sequence with a null
        # batch so ordered execution never stalls on a hole
        known = set(self.slots) | set(carried)
        max_known = max(known, default=self.stable_sequence)
        for sequence in range(self.stable_sequence + 1, max_known + 1):
            slot = self.slots.get(sequence)
            if slot is not None and slot.committed:
                continue
            if sequence in carried:
                if slot is None or slot.preprepare is None:
                    # we lack the body; a correct deployment fetches it —
                    # out of scope here (see DESIGN.md simplifications)
                    continue
                digest = carried[sequence]
                request = slot.preprepare.request
            else:
                from repro.consensus.messages import make_null_batch

                request = make_null_batch()
                digest = request.digest
            self.slots[sequence] = Slot()
            _message, propose_actions = self.make_preprepare(sequence, digest, request)
            actions.extend(propose_actions)
        self._resequence()
        return actions

    def handle_new_view(self, message: NewView) -> List[Action]:
        if message.new_view <= self.view:
            return self._reject()
        if message.sender != self.primary_of(message.new_view):
            return self._reject()
        if len(set(message.view_change_voters)) < self.quorum.view_change_quorum:
            return self._reject()
        actions = self._enter_view(message.new_view)
        # reset uncommitted carried slots; the new primary's fresh
        # pre-prepares will re-run the agreement in the new view
        for sequence, _digest in message.carried:
            slot = self.slots.get(sequence)
            if slot is not None and not slot.committed:
                self.slots[sequence] = Slot()
        self._resequence()
        return actions

    def _resequence(self) -> None:
        """Entered a new view: should this replica lead it (now or after
        later view changes), it proposes above every sequence it has
        seen, carried re-proposals and gap fillers included."""
        high = max([self.stable_sequence] + list(self.slots))
        self.next_sequence = max(self.next_sequence, high + 1)

    def _enter_view(self, new_view: int) -> List[Action]:
        self.view = new_view
        self.in_view_change = False
        self._view_change_votes = {
            v: votes for v, votes in self._view_change_votes.items() if v > new_view
        }
        return [EnterView(new_view)]
