"""Closed-loop clients (§5.1, §5.8).

The paper drives every experiment with up to 80K closed-loop clients: each
client keeps one request in flight and issues the next one the moment the
previous completes.  That model is what produces Fig. 15's signature — as
clients grow, throughput saturates while latency rises linearly (the extra
requests simply queue).

Simulating 80K coroutines would be wasteful; instead clients are grouped.
A :class:`ClientGroup` owns one network endpoint and manages
``clients_per_group`` *logical* clients as pending-request records.  Group
size changes nothing about offered load or completion logic — it only
coalesces endpoints.

Completion rules:

- **PBFT**: f+1 matching responses from distinct replicas.
- **Zyzzyva fast path**: 3f+1 responses matching on (view, sequence,
  result digest, history hash).
- **Zyzzyva slow path**: if the fast path misses the client's timer but
  ≥ 2f+1 responses match, the client sends a ``CommitCertificate`` to all
  replicas and completes on 2f+1 ``LocalCommit`` acks.  With even one
  crashed backup every request takes this path, which is the mechanism
  behind Fig. 17's collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.consensus.messages import ClientRequest, CommitCertificate
from repro.flow import AIMDWindow, RetransmitBackoff
from repro.sim.clock import millis
from repro.sim.events import Timer
from repro.workloads.ycsb import YCSBWorkload


@dataclass
class PendingRequest:
    """Book-keeping for one in-flight logical-client request."""

    submitted_at: int
    txn_count: int
    #: the request message, kept for retransmission
    request: Optional[ClientRequest] = None
    #: the armed retransmit / Zyzzyva timer, cancelled on completion
    timer: Optional[Timer] = None
    #: PBFT: responding replica -> result digest
    responses: Dict[str, str] = field(default_factory=dict)
    #: Zyzzyva: match key -> set of responders
    spec_matches: Dict[Tuple, Set[str]] = field(default_factory=dict)
    #: Zyzzyva slow path state
    certificate_sent: bool = False
    certificate_sequence: Optional[int] = None
    certificate_digest: Optional[str] = None
    local_commits: Set[str] = field(default_factory=set)
    retransmissions: int = 0
    #: busy-nacks received for this request (feeds the backoff exponent)
    nacks: int = 0


class ClientGroup:
    """A bundle of logical closed-loop clients sharing one endpoint."""

    def __init__(self, system, index: int, logical_clients: int):
        self.system = system
        self.config = system.config
        self.sim = system.sim
        self.name = f"client{index}"
        self.logical_clients = logical_clients
        self.endpoint = system.network.register(self.name)
        #: the protocol's client rules and steering (see
        #: repro.consensus.base.Engine), as the view-0 primary's engine
        #: states them
        self.rules = system.replicas[system.replica_ids[0]].engine
        rng = system.rng.fork(self.name)
        self.workload = YCSBWorkload(
            rng,
            record_count=self.config.ycsb_records,
            ops_per_txn=self.config.ops_per_txn,
            padding_bytes=self.config.payload_padding_bytes,
            write_fraction=self.config.write_fraction,
            theta=self.config.ycsb_theta,
        )
        self.next_request_id = 0
        self.pending: Dict[int, PendingRequest] = {}
        # -- overload protection (repro.flow) ---------------------------
        config = self.config
        base_retry = config.client_retransmit or millis(5)
        self.backoff = RetransmitBackoff(
            base=base_retry,
            factor=config.retransmit_backoff_factor,
            cap=config.retransmit_backoff_max,
            jitter=config.retransmit_jitter,
            rng=system.rng.fork(f"{self.name}.flow"),
        )
        # the AIMD pending window; by default every logical client may
        # have its one request in flight (no windowing until congestion)
        initial = config.client_window_initial or logical_clients
        self.window = AIMDWindow(
            initial=max(1, min(initial, logical_clients)),
            min_size=min(config.client_window_min, max(1, logical_clients)),
            max_size=logical_clients,
            additive=config.client_window_additive,
            decrease=config.client_window_decrease,
            cooldown=base_retry,
        )
        #: logical clients whose next request awaits window room
        self._deferred = 0
        self.busy_nacks_received = 0
        #: RCC: lane primary -> time its Busy signal expires
        self._lane_busy_until: Dict[str, int] = {}
        self.completed_requests = 0
        self.fast_path_completions = 0
        self.slow_path_completions = 0
        #: (request_id, sequence, result digest) per completion, recorded
        #: when ``config.record_completions`` is on (the fuzzer's reply
        #: oracle matches these against replica executed logs)
        self.completion_log: List[Tuple[int, Optional[int], Optional[str]]] = []

    # ------------------------------------------------------------------
    def start(self, ramp_ns: int) -> None:
        """Spawn the response loop and stagger the initial window of
        requests over ``ramp_ns`` to avoid a synthetic thundering herd."""
        self.sim.spawn(self._inbox_loop(), name=f"{self.name}.inbox")
        for i in range(self.logical_clients):
            delay = (ramp_ns * i) // max(1, self.logical_clients)
            self.sim.schedule(delay, self._send_new_request)

    # ------------------------------------------------------------------
    # request issue
    # ------------------------------------------------------------------
    def _send_new_request(self) -> None:
        config = self.config
        if len(self.pending) >= self.window.size:
            # AIMD window closed: this logical client's next request is
            # deferred until completions reopen room
            self._deferred += 1
            return
        request_id = self.next_request_id
        self.next_request_id += 1
        txns = tuple(
            self.workload.next_transaction(self.name)
            for _ in range(config.client_batch_txns)
        )
        request = ClientRequest(self.name, request_id, txns)
        # multi-primary RCC steers each request to its lane's primary
        # (avoiding lanes that recently signalled Busy); single-primary
        # protocols contact the initial primary
        target = self._steer_target(request_id)
        if config.real_auth_tokens:
            request.auth, _ = self.system.client_scheme.authenticate(
                request.signable_bytes(), self.name, [target]
            )
        pending = PendingRequest(
            submitted_at=self.sim.now, txn_count=len(txns), request=request
        )
        self.pending[request_id] = pending
        spans = self.system.spans
        if spans.enabled:
            spans.begin((self.name, request_id), self.sim.now)
        self.system.network.send(self.name, target, request)
        if self.rules.client_certifies:
            pending.timer = Timer(
                self.sim,
                config.zyzzyva_client_timeout,
                self._on_zyzzyva_timeout,
                request_id,
            )
        elif config.client_retransmit is not None:
            pending.timer = Timer(
                self.sim, self.backoff.delay(0), self._on_retransmit,
                request_id, request,
            )

    def _steer_target(self, request_id: int) -> str:
        target = self.rules.steer_target(self.name, request_id)
        if not self._lane_busy_until:  # only lane-steered clients fill it
            return target
        now = self.sim.now
        if self._lane_busy_until.get(target, 0) <= now:
            return target
        # the steered lane is busy: rotate deterministically to the first
        # lane primary that has not recently said Busy
        primaries = self.rules.lane_primaries()
        if target not in primaries:
            return target
        start = primaries.index(target)
        for offset in range(1, len(primaries)):
            candidate = primaries[(start + offset) % len(primaries)]
            if self._lane_busy_until.get(candidate, 0) <= now:
                return candidate
        return target

    def _release_deferred(self) -> None:
        while self._deferred and len(self.pending) < self.window.size:
            self._deferred -= 1
            self._send_new_request()

    def _on_retransmit(self, request_id: int, request: ClientRequest) -> None:
        pending = self.pending.get(request_id)
        if pending is None:
            return
        pending.retransmissions += 1
        replica_ids = self.system.replica_ids
        if self.rules.client_lanes:
            # the steer target may be a dead lane primary; fail over to a
            # single rotating fallback, which forwards to the lane's
            # *current* primary — broadcasting from every steered-away
            # client would square the message load under one crash
            target = self.rules.steer_target(self.name, request_id)
            index = replica_ids.index(target)
            fallback = replica_ids[
                (index + pending.retransmissions) % len(replica_ids)
            ]
            self.system.network.send(self.name, fallback, request)
        else:
            # PBFT clients that suspect the primary broadcast to all
            # replicas, which forward to the current primary
            for rid in replica_ids:
                self.system.network.send(self.name, rid, request)
        if self.config.client_retransmit is not None:
            # exponential backoff (with jitter) keeps retransmissions of a
            # long-unanswered request from compounding an overload
            pending.timer = Timer(
                self.sim,
                self.backoff.delay(pending.retransmissions + pending.nacks),
                self._on_retransmit, request_id, request,
            )

    # ------------------------------------------------------------------
    # overload signals (busy-nack)
    # ------------------------------------------------------------------
    def _handle_busy(self, message) -> None:
        """A replica refused or shed one of our requests: treat it as a
        congestion signal (shrink the window, back off, steer away)."""
        self.busy_nacks_received += 1
        self.window.on_congestion(self.sim.now)
        if self.rules.client_lanes:
            self._lane_busy_until[message.sender] = (
                self.sim.now + self.backoff.delay(1)
            )
        for request_id in message.request_ids:
            pending = self.pending.get(request_id)
            if pending is None:
                continue  # answered by another replica in the meantime
            pending.nacks += 1
            self._schedule_retry(request_id, pending)

    def _schedule_retry(self, request_id: int, pending: PendingRequest) -> None:
        if pending.timer is not None:
            pending.timer.cancel()
        delay = self.backoff.delay(pending.retransmissions + pending.nacks)
        if self.rules.client_certifies:
            pending.timer = Timer(
                self.sim, delay, self._retry_zyzzyva, request_id
            )
        else:
            pending.timer = Timer(
                self.sim, delay, self._retry_after_nack, request_id
            )

    def _retry_after_nack(self, request_id: int) -> None:
        """Resend a NACKed request to its steer target only — the primary
        is alive, just busy; a suspect-the-primary broadcast would
        multiply exactly the load that caused the NACK."""
        pending = self.pending.get(request_id)
        if pending is None or pending.request is None:
            return
        pending.retransmissions += 1
        self.system.network.send(
            self.name, self._steer_target(request_id), pending.request
        )
        if self.config.client_retransmit is not None:
            pending.timer = Timer(
                self.sim,
                self.backoff.delay(pending.retransmissions + pending.nacks),
                self._on_retransmit, request_id, pending.request,
            )

    def _retry_zyzzyva(self, request_id: int) -> None:
        """NACKed Zyzzyva request: resend, then fall back to the normal
        client-timeout path (which owns certificate handling)."""
        pending = self.pending.get(request_id)
        if pending is None or pending.request is None:
            return
        pending.retransmissions += 1
        self.system.network.send(
            self.name, self._steer_target(request_id), pending.request
        )
        pending.timer = Timer(
            self.sim, self.config.zyzzyva_client_timeout,
            self._on_zyzzyva_timeout, request_id,
        )

    # ------------------------------------------------------------------
    # response handling
    # ------------------------------------------------------------------
    def _inbox_loop(self):
        quorum_needed = self.system.quorum.client_response_quorum
        # Zyzzyva's fast path needs every replica to answer identically;
        # PoE's speculative responses already carry a 2f+1 support quorum
        fast_needed = self.rules.spec_reply_quorum(self.system.quorum)
        commit_needed = self.system.quorum.certificate_quorum
        upper_bound = not self.config.consensus_enabled
        while True:
            message = yield self.endpoint.inbox.get()
            kind = message.kind
            if kind == "client-response":
                for request_id in message.request_ids:
                    pending = self.pending.get(request_id)
                    if pending is None:
                        continue
                    pending.responses[message.sender] = message.result_digest
                    matching = sum(
                        1
                        for digest in pending.responses.values()
                        if digest == message.result_digest
                    )
                    if upper_bound or matching >= quorum_needed:
                        self._complete(
                            request_id, fast=True,
                            sequence=message.sequence,
                            digest=message.result_digest,
                        )
            elif kind == "spec-response":
                key = (
                    message.view,
                    message.sequence,
                    message.result_digest,
                    message.history_hash,
                )
                for request_id in message.request_ids:
                    pending = self.pending.get(request_id)
                    if pending is None:
                        continue
                    responders = pending.spec_matches.setdefault(key, set())
                    responders.add(message.sender)
                    if len(responders) >= fast_needed:
                        self._complete(
                            request_id, fast=True,
                            sequence=message.sequence,
                            digest=message.result_digest,
                        )
            elif kind == "local-commit":
                # sequence-scoped ack; match any pending request awaiting
                # certificates for that sequence
                self._handle_local_commit(message, commit_needed)
            elif kind == "busy-nack":
                self._handle_busy(message)

    def _handle_local_commit(self, message, commit_needed: int) -> None:
        for request_id, pending in list(self.pending.items()):
            if (
                not pending.certificate_sent
                or pending.certificate_sequence != message.sequence
            ):
                continue
            pending.local_commits.add(message.sender)
            if len(pending.local_commits) >= commit_needed:
                self._complete(
                    request_id, fast=False,
                    sequence=pending.certificate_sequence,
                    digest=pending.certificate_digest,
                )

    # ------------------------------------------------------------------
    # Zyzzyva client timer (§5.10)
    # ------------------------------------------------------------------
    def _on_zyzzyva_timeout(self, request_id: int) -> None:
        pending = self.pending.get(request_id)
        if pending is None:
            return  # completed on the fast path; timer is moot
        commit_needed = self.system.quorum.certificate_quorum
        best_key, responders = None, set()
        for key, who in pending.spec_matches.items():
            if len(who) > len(responders):
                best_key, responders = key, who
        if best_key is not None and len(responders) >= commit_needed:
            if not pending.certificate_sent:
                pending.certificate_sent = True
                view, sequence, result_digest, _history = best_key
                pending.certificate_sequence = sequence
                pending.certificate_digest = result_digest
                certificate = CommitCertificate(
                    self.name, view, sequence, result_digest,
                    tuple(sorted(responders)[:commit_needed]),
                )
                if self.config.real_auth_tokens:
                    certificate.auth, _ = self.system.client_scheme.authenticate(
                        certificate.signable_bytes(), self.name,
                        list(self.system.replica_ids),
                    )
                for rid in self.system.replica_ids:
                    self.system.network.send(self.name, rid, certificate)
            # re-arm in case local-commits get lost too
            pending.timer = Timer(self.sim, self.config.zyzzyva_client_timeout,
                                  self._on_zyzzyva_timeout, request_id)
        else:
            # not even a certificate quorum: retransmit the whole request
            pending.retransmissions += 1
            pending.timer = Timer(self.sim, self.config.zyzzyva_client_timeout,
                                  self._on_zyzzyva_timeout, request_id)

    # ------------------------------------------------------------------
    def _complete(
        self,
        request_id: int,
        fast: bool,
        sequence: Optional[int] = None,
        digest: Optional[str] = None,
    ) -> None:
        pending = self.pending.pop(request_id, None)
        if pending is None:
            return
        # the request is answered: its retransmit (or Zyzzyva) timer must
        # never fire again
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None
        self.window.on_success()
        if self.config.record_completions:
            self.completion_log.append((request_id, sequence, digest))
        self.completed_requests += 1
        metrics = self.system.metrics
        if fast:
            self.fast_path_completions += 1
            metrics.counter("fast_path_completions").increment()
        else:
            self.slow_path_completions += 1
            metrics.counter("slow_path_completions").increment()
        latency = self.sim.now - pending.submitted_at
        metrics.histogram("request_latency").record(latency)
        spans = self.system.spans
        if spans.enabled:
            spans.finish((self.name, request_id), self.sim.now)
        metrics.counter("requests_completed").increment()
        metrics.counter("txns_completed").increment(pending.txn_count)
        metrics.counter("ops_completed").increment(
            pending.txn_count * self.config.ops_per_txn
        )
        # closed loop: this logical client immediately issues its next
        # one, plus any deferred clients the window now has room for
        self._send_new_request()
        self._release_deferred()
