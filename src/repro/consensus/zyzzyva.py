"""Zyzzyva [36]: speculative BFT (§2.1, "Speculative Execution").

The fast path has a single linear phase: the primary orders a request and
broadcasts ``OrderRequest``; every backup executes *speculatively* on
receipt — before knowing whether the order is agreed — and responds to the
client directly.  The client considers the request complete only after all
3f+1 replicas answer with identical (sequence, history-hash, result)
values.

When fewer than 3f+1 (but at least 2f+1) matching responses arrive before
the client's timer fires, the client assembles the matching responses into
a ``CommitCertificate``, sends it to all replicas, and completes on 2f+1
``LocalCommit`` acknowledgements.  This two-extra-phases-plus-timeout slow
path is why a single crashed backup devastates Zyzzyva's throughput
(Fig. 17) — every request must now wait out the client timer.

Ordering integrity comes from the *history hash*: ``h_n = H(h_{n-1} ‖
d_n)``.  Replicas that diverge from the primary's order produce different
history hashes and the client's matching test fails.

View change is not modelled: the paper's failure experiments crash only
backup replicas, which in Zyzzyva never triggers a view change — the
damage is entirely client-side timeouts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.consensus.base import (
    GENESIS_HISTORY,
    Action,
    Broadcast,
    ExecuteReady,
    QuorumConfig,
    SendTo,
    SingleLeaderEngine,
)
from repro.consensus.messages import (
    ClientRequest,
    CommitCertificate,
    LocalCommit,
    OrderRequest,
)
from repro.crypto.hashing import digest_bytes


def extend_history(history_hash: str, digest: str) -> str:
    """``h_n = H(h_{n-1} ‖ d_n)`` — the caller pays the digest cost."""
    return digest_bytes(f"{history_hash}|{digest}".encode("utf-8"))


class ZyzzyvaReplica(SingleLeaderEngine):
    """One replica's Zyzzyva engine.  I/O-free; returns actions."""

    #: the primary extends its ordered history per proposal; every
    #: replica extends its execution history per executed batch
    propose_hash_bytes = 64
    execute_hash_bytes = 96
    client_certifies = True

    @staticmethod
    def spec_reply_quorum(quorum: QuorumConfig) -> int:
        return quorum.fast_path_quorum

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: primary-side ordered history (the primary computes the chain as
        #: it assigns sequence numbers)
        self.history_hash = GENESIS_HISTORY
        #: execution-side history ``h_n`` over executed batches, which
        #: every speculative response reports
        self.exec_history_hash = GENESIS_HISTORY
        #: sequence -> digest of every accepted order-request
        self.slots: Dict[int, str] = {}
        #: highest sequence covered by a commit certificate we have seen
        self.max_committed = 0

    def record_execution(self, digest: str) -> None:
        self.exec_history_hash = extend_history(self.exec_history_hash, digest)

    # ------------------------------------------------------------------
    # primary side
    # ------------------------------------------------------------------
    def propose(
        self, digest: str, request: ClientRequest
    ) -> Tuple[OrderRequest, List[Action]]:
        """Primary only: assign the next sequence number and order the
        request.  The primary extends the history chain here, so sequence
        assignment and history are atomic."""
        self._require_primary()
        sequence = self.next_sequence
        self.next_sequence += 1
        self.history_hash = extend_history(self.history_hash, digest)
        message = OrderRequest(
            self.replica_id, self.view, sequence, digest, self.history_hash, request
        )
        self.slots[sequence] = digest
        # the primary executes speculatively too and answers the client
        return message, [
            Broadcast(message),
            ExecuteReady(
                sequence=sequence,
                view=self.view,
                request=request,
                speculative=True,
            ),
        ]

    # ------------------------------------------------------------------
    # backup side
    # ------------------------------------------------------------------
    def handle_order_request(self, message: OrderRequest) -> List[Action]:
        if message.view != self.view:
            return self._reject()
        if message.sender != self.primary_of(message.view):
            return self._reject()
        if not self._in_window(message.sequence):
            return self._reject()
        known = self.slots.get(message.sequence)
        if known is not None:
            if known != message.digest:
                self.rejected_messages += 1  # equivocation: keep first
            return []
        self.slots[message.sequence] = message.digest
        return [
            ExecuteReady(
                sequence=message.sequence,
                view=self.view,
                request=message.request,
                speculative=True,
            )
        ]

    def handle_commit_certificate(self, message: CommitCertificate) -> List[Action]:
        """Client slow path: acknowledge a 2f+1 certificate."""
        responders = set(message.responders)
        if len(responders) < self.quorum.certificate_quorum:
            return self._reject()
        if not responders.issubset(set(self.replica_ids)):
            return self._reject()
        self.max_committed = max(self.max_committed, message.sequence)
        return [
            SendTo(
                message.sender,
                LocalCommit(self.replica_id, message.view, message.sequence),
            )
        ]
