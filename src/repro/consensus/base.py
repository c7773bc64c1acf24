"""Shared consensus machinery: quorum arithmetic, protocol actions and the
engine contract.

State machines return lists of :class:`Action` objects; the host (the
replica pipeline, or a test harness) interprets them.  Keeping protocol
logic free of I/O and timing makes safety properties directly testable.
:class:`Engine` is everything the host asks an engine beyond handing it
messages, so the host never needs to know which protocol it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.consensus.messages import ClientRequest
from repro.crypto.hashing import digest_bytes
from repro.net.message import Message

#: execution-history hash of the empty history (Zyzzyva's ``h_0``)
GENESIS_HISTORY = digest_bytes(b"zyzzyva-genesis")


@dataclass(frozen=True)
class QuorumConfig:
    """Quorum arithmetic for ``n = 3f + 1`` replicas (§2.1)."""

    n: int
    f: int

    def __post_init__(self):
        if self.f < 0:
            raise ValueError(f"f must be >= 0, got {self.f}")
        if self.n < 3 * self.f + 1:
            raise ValueError(
                f"n={self.n} cannot tolerate f={self.f} faults (need n >= 3f+1)"
            )

    @classmethod
    def for_replicas(cls, n: int) -> "QuorumConfig":
        """Maximum fault tolerance for ``n`` replicas: f = ⌊(n−1)/3⌋."""
        if n < 4:
            raise ValueError(f"BFT needs at least 4 replicas, got {n}")
        return cls(n=n, f=(n - 1) // 3)

    @property
    def commit_quorum(self) -> int:
        """Commit messages needed to mark a request committed.

        ⌈(n+f+1)/2⌉ — equals the paper's 2f+1 when n = 3f+1 and keeps the
        required property for larger n: any two commit quorums intersect
        in at least f+1 replicas, hence in a non-faulty one.
        """
        return -(-(self.n + self.f + 1) // 2)  # ceil division

    @property
    def prepare_quorum(self) -> int:
        """Prepare messages needed to mark a request prepared (2f when
        n = 3f+1; the pre-prepare itself supplies the missing vote)."""
        return self.commit_quorum - 1

    @property
    def checkpoint_quorum(self) -> int:
        """Identical checkpoint messages for stability."""
        return self.commit_quorum

    @property
    def view_change_quorum(self) -> int:
        return self.commit_quorum

    @property
    def client_response_quorum(self) -> int:
        """Matching responses a PBFT client waits for: f + 1."""
        return self.f + 1

    @property
    def fast_path_quorum(self) -> int:
        """Responses Zyzzyva's fast path needs: all n replicas ("a client
        [must] receive a response from all the 3f+1 replicas", §2.1)."""
        return self.n

    @property
    def certificate_quorum(self) -> int:
        """Spec-responses in a Zyzzyva commit certificate."""
        return self.commit_quorum


# ----------------------------------------------------------------------
# typed proposal failures
# ----------------------------------------------------------------------
class ProposalError(RuntimeError):
    """A proposal could not be made.  Subclasses say why, so a host (or
    the multi-instance coordinator) can catch per-engine and re-steer the
    batch instead of crashing the replica."""


class NotPrimaryError(ProposalError):
    """The engine asked to propose is not the primary of its view."""


class ViewChangeInProgress(ProposalError):
    """The engine is mid view change; proposals resume in the new view."""


# ----------------------------------------------------------------------
# actions
# ----------------------------------------------------------------------
class Action:
    """Base class for protocol outputs."""

    __slots__ = ()


@dataclass(frozen=True)
class SendTo(Action):
    """Send ``message`` to one destination (a replica or a client)."""

    dst: str
    message: Message


@dataclass(frozen=True)
class Broadcast(Action):
    """Send ``message`` to every other replica."""

    message: Message


@dataclass(frozen=True)
class ExecuteReady(Action):
    """Hand a committed (PBFT) or speculatively ordered (Zyzzyva) batch to
    the execution layer.

    ``commit_proof`` carries the (replica, signature-token) pairs of the
    commit quorum so block generation can embed the certificate instead of
    hashing the previous block (§4.6); Zyzzyva's speculative execution has
    no proof yet and passes an empty tuple plus ``speculative=True``.
    """

    sequence: int
    view: int
    request: ClientRequest
    commit_proof: tuple = ()
    speculative: bool = False


@dataclass(frozen=True)
class StartViewChangeTimer(Action):
    """Arm the view-change timer for ``sequence`` if not already armed."""

    sequence: int


@dataclass(frozen=True)
class CancelViewChangeTimer(Action):
    """Disarm the view-change timer for ``sequence`` (request committed)."""

    sequence: int


@dataclass(frozen=True)
class EnterView(Action):
    """Report that the replica moved to ``view`` (host updates routing;
    the new primary's pipeline enables its batch/sequencing stages)."""

    view: int


# ----------------------------------------------------------------------
# the engine contract
# ----------------------------------------------------------------------
class Engine:
    """What the replica host asks a consensus engine.

    Besides ``handle_<message>`` for each protocol message it accepts and
    ``advance_stable(sequence)``, every engine answers:

    - ``is_primary``: may this replica propose right now?
    - ``propose(digest, batch) -> (proposal, actions)``: order the batch
      (hashed by the caller) at the engine's next sequence number;
      ``proposal.sequence`` is the execution sequence.  Raises
      :class:`ProposalError` when no proposal can be made now, without
      consuming a sequence number.
    - ``forward_target(sender, request_id)``: where a replica that cannot
      propose forwards a client request.
    - ``proposer_of(sequence, view)``: who proposed an executed batch.
    - ``steer_target(sender, request_id)``: where a client sends first.

    The members defined here carry the defaults: class attributes state
    fixed protocol properties, methods the single-proposal-stream answers.
    """

    #: the engine replaces faulty primaries by view change, so the host
    #: arms view-change timers and forward probes; such an engine has
    #: ``in_view_change``, ``on_view_change_timeout`` and ``suspect_primary``
    has_view_change = False
    #: the host runs a periodic ``balance_actions()`` pass
    rebalances = False
    #: history-hash bytes the primary digests per proposal, and every
    #: replica per executed batch (the host charges the CPU)
    propose_hash_bytes = 0
    execute_hash_bytes = 0
    #: execution history a speculative response reports
    exec_history_hash = GENESIS_HISTORY
    #: clients arm a commit-certificate timer after a send (Zyzzyva's
    #: slow path) instead of a retransmit timer
    client_certifies = False
    #: clients are steered across several proposing lanes: retransmits go
    #: to one rotating fallback replica, and a busy-NACK marks the lane of
    #: its sender busy so retries rotate over ``lane_primaries()``
    client_lanes = False

    @staticmethod
    def spec_reply_quorum(quorum: QuorumConfig) -> int:
        """Matching speculative responses that complete a request."""
        return quorum.certificate_quorum

    def nack_lane(self, sender: str, request_id: int) -> Optional[int]:
        """The lane a busy-NACK for this request names, if any."""
        return None

    def execution_sequence(self, message: Message) -> int:
        """Execution sequence of the slot a protocol message votes on."""
        return message.sequence

    def record_execution(self, digest: str) -> None:
        """The host executed the next batch, whose digest is ``digest``."""

    def adopt_state(self, executed_sequence: int, log_slice) -> None:
        """State transfer installed a quorum-attested state through
        ``executed_sequence``; ``log_slice`` holds the adopted (sequence,
        digest) entries."""
        self.advance_stable(executed_sequence)


class SingleLeaderEngine(Engine):
    """An engine with one primary per view, rotating round the replica
    list; clients contact the view-0 primary and replicas forward.
    Subclasses keep their per-sequence state in ``slots``."""

    def __init__(
        self,
        replica_id: str,
        replica_ids: Tuple[str, ...],
        quorum: QuorumConfig,
        sequence_window: int = 100_000,
    ):
        if replica_id not in replica_ids:
            raise ValueError(f"{replica_id!r} not in replica set")
        if len(replica_ids) != quorum.n:
            raise ValueError(
                f"replica set size {len(replica_ids)} != quorum n {quorum.n}"
            )
        self.replica_id = replica_id
        self.replica_ids = tuple(replica_ids)
        self.quorum = quorum
        self.sequence_window = sequence_window
        self.view = 0
        #: next sequence this replica proposes at while primary
        self.next_sequence = 1
        self.stable_sequence = 0
        #: statistics the host surfaces in experiment reports
        self.rejected_messages = 0

    def primary_of(self, view: int) -> str:
        return self.replica_ids[view % len(self.replica_ids)]

    @property
    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.replica_id

    def _require_primary(self) -> None:
        if not self.is_primary:
            raise NotPrimaryError(
                f"{self.replica_id} is not primary of view {self.view}"
            )

    def advance_stable(self, sequence: int) -> int:
        """Host notification: checkpoint at ``sequence`` became stable.

        Garbage-collects per-sequence state (``slots``) at or below the
        new horizon and returns how many entries were dropped.
        """
        if sequence <= self.stable_sequence:
            return 0
        self.stable_sequence = sequence
        old = [s for s in self.slots if s <= sequence]
        for s in old:
            del self.slots[s]
        return len(old)

    def _reject(self) -> list:
        """Count a rejected message; handlers return the empty action list."""
        self.rejected_messages += 1
        return []

    def _in_window(self, sequence: int) -> bool:
        return (
            self.stable_sequence < sequence
            <= self.stable_sequence + self.sequence_window
        )

    def forward_target(self, sender: str, request_id: int) -> str:
        return self.primary_of(self.view)

    def proposer_of(self, sequence: int, view: int) -> str:
        return self.primary_of(view)

    def steer_target(self, sender: str, request_id: int) -> str:
        return self.primary_of(0)
