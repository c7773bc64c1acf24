"""The pipelined replica (§4.1–§4.8, Figures 6a/6b).

Each replica runs, as simulated threads competing for its CPU cores:

- ``input-i`` threads: pull messages off the endpoint inbox, classify and
  route them.  At the primary, client requests go to the batch-threads'
  *common queue*; protocol messages go to the worker's queue; checkpoint
  messages to the checkpoint-thread's queue.  Non-primaries forward client
  requests to the current primary.
- ``batch-i`` threads (primary): verify client signatures, assemble up to
  ``batch_size`` transactions into a batch, hash the batch string once,
  hand the batch to the consensus engine (``PrePrepare``/``OrderRequest``)
  and sign the proposal.
- ``worker`` thread: verifies and feeds every protocol message to the
  consensus state machine, signs and emits the resulting votes.
- ``execute`` thread: strictly ordered execution.  Committed batches can
  finish consensus out of order (§4.5); the execute-thread consumes them
  in sequence order by waiting exactly for the next sequence number — the
  simulation-level equivalent of parking on queue ``txn_id % QC`` (§4.6).
  It applies operations to the record store, appends a block certified by
  the 2f+1 commit signatures, answers clients, and emits checkpoints
  every Δ transactions.
- ``checkpoint`` thread: collects checkpoint votes; at 2f+1 identical
  votes it advances the stable checkpoint and garbage-collects old slots
  and blocks (§4.7).
- ``output-i`` threads: drain per-thread send queues onto the NIC, with
  destinations spread across the threads (§4.1).

Setting ``batch_threads=0`` or ``execute_threads=0`` folds those stages
into the worker thread — the degenerate pipelines of the Fig. 8/9 study.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from repro.consensus.base import (
    Broadcast,
    CancelViewChangeTimer,
    EnterView,
    ExecuteReady,
    ProposalError,
    QuorumConfig,
    SendTo,
    StartViewChangeTimer,
)
from repro.consensus.messages import (
    BusyNack,
    Checkpoint,
    ClientRequest,
    ClientResponse,
    RequestBatch,
    SpecResponse,
)
from repro.engines import make_engine
from repro.flow import AdmissionController, FlowStats
from repro.crypto.hashing import digest_bytes, digest_cost
from repro.net.message import Message
from repro.sim.events import SimEvent, Timer
from repro.sim.queues import SimPriorityQueue, SimQueue
from repro.sim.resources import CpuScheduler
from repro.storage.blockchain import Block, Blockchain, CertificationMode
from repro.storage.bufferpool import BufferPool
from repro.storage.checkpoints import CheckpointStore
from repro.storage.memstore import InMemoryKVStore
from repro.storage.sqlstore import SqliteKVStore
from repro.workloads.transactions import OpType


class Replica:
    """One replica node: pipeline, consensus engine, ledger and state."""

    def __init__(self, system, replica_id: str):
        self.system = system
        self.config = system.config
        self.sim = system.sim
        self.replica_id = replica_id
        config = self.config

        self.endpoint = system.network.register(replica_id)
        self.cpu = CpuScheduler(self.sim, config.cores_per_replica)
        system.metrics.register_resettable(self.cpu)

        # -- consensus engine ------------------------------------------
        quorum = QuorumConfig(n=config.num_replicas, f=config.f)
        self.quorum = quorum
        replica_ids = system.replica_ids
        self.engine = make_engine(config, replica_id, replica_ids, quorum)

        # -- overload protection (repro.flow) ---------------------------
        self.flow = FlowStats()
        self.admission = AdmissionController(
            max_inflight=config.admission_max_inflight,
            max_per_client=config.admission_max_per_client,
        )
        #: request keys already placed in a proposal; shedding one of
        #: these would violate the no-shed-after-sequencing invariant
        #: (tripwired in ``_on_batch_shed``)
        self._sequenced_keys: set = set()

        # -- queues between stages --------------------------------------
        policy = config.queue_policy
        self.batch_queue = SimQueue(
            self.sim,
            f"{replica_id}.batch-q",
            capacity=config.batch_queue_capacity,
            policy=policy,
            on_shed=self._on_batch_shed,
        )
        # protocol messages outrank client requests so that, in the 0B
        # degenerate pipeline where the worker also batches, a backlog of
        # unverified client requests cannot starve quorum progress; the
        # capacity bound applies to client requests only
        self.work_queue = SimPriorityQueue(
            self.sim,
            f"{replica_id}.work-q",
            capacity=config.work_queue_capacity,
            policy=policy,
            on_shed=self._on_batch_shed,
        )
        self.checkpoint_queue = SimQueue(
            self.sim,
            f"{replica_id}.ckpt-q",
            capacity=config.checkpoint_queue_capacity,
            policy=policy,
            on_shed=self._on_message_shed,
        )
        # output queues are fed by non-process callers (timers, NACK
        # paths), which cannot park — so the "block" policy leaves them
        # unbounded and back-pressure applies upstream instead
        self.output_queues = [
            SimQueue(
                self.sim,
                f"{replica_id}.out-q{i}",
                capacity=(
                    config.output_queue_capacity if policy != "block" else None
                ),
                policy=policy,
                on_shed=self._on_message_shed,
            )
            for i in range(config.output_threads)
        ]
        if config.inbox_capacity is not None:
            inbox = self.endpoint.inbox
            inbox.capacity = config.inbox_capacity
            inbox.policy = policy
            inbox.on_shed = self._on_inbox_shed

        # -- ordered execution state (§4.6) ------------------------------
        self.exec_pending: Dict[int, ExecuteReady] = {}
        self.next_exec_sequence = 1
        self._exec_event: Optional[SimEvent] = None

        # -- durable state ------------------------------------------------
        if config.storage_backend == "memory":
            self.store = InMemoryKVStore(config.storage_costs)
        else:
            self.store = SqliteKVStore(config.storage_costs)
        self.chain = Blockchain(
            first_primary=replica_ids[0],
            mode=config.certification,
            quorum_size=quorum.commit_quorum,
        )
        self.checkpoints = CheckpointStore(
            quorum_size=quorum.checkpoint_quorum,
            interval=config.checkpoint_batches,
        )
        #: executed (sequence, digest) log, for safety validation
        self.executed_log: List[Tuple[int, str]] = []
        #: checkpoint sequence -> state digest this replica attested to
        #: (the checkpoint-consistency oracle cross-checks these)
        self.checkpoint_digests: Dict[int, str] = {}
        self.state_digest = digest_bytes(b"initial-state")

        # -- buffer pools (§4.8): message objects and transaction objects
        self.message_pool = BufferPool(
            object, config.buffer_pool_capacity, enabled=config.buffer_pool
        )
        self.txn_pool = BufferPool(
            object,
            min(config.buffer_pool_capacity * max(1, config.batch_size), 500_000),
            enabled=config.buffer_pool,
        )

        # -- primary-side admission ----------------------------------------
        self._seen_requests: set = set()
        #: out-of-order ablation: a capacity-1 token gate (§4.5)
        self._consensus_token: Optional[SimQueue] = None
        if not config.out_of_order:
            self._consensus_token = SimQueue(
                self.sim, f"{replica_id}.token", capacity=1
            )
            self._consensus_token.put_nowait(None)

        # -- timers -------------------------------------------------------
        self._vc_timers: Dict[int, Timer] = {}
        self._forward_probe: Optional[Tuple[int, int]] = None

        # -- statistics ------------------------------------------------------
        self.invalid_messages = 0
        self.forwarded_requests = 0

        #: byzantine behaviour policy (None = honest); transforms outgoing
        #: actions — see :mod:`repro.core.byzantine`
        self.adversary = None

        # -- crash recovery / state transfer (§4.7) -------------------------
        self._recovering = False
        self._recovery_responses: Dict[Tuple[int, str], list] = {}
        self.recoveries_completed = 0

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self) -> None:
        """Spawn every pipeline thread."""
        config = self.config
        for i in range(config.input_threads):
            self.sim.spawn(self._input_loop(i), name=f"{self.replica_id}.input-{i}")
        for i in range(config.batch_threads):
            self.sim.spawn(self._batch_loop(i), name=f"{self.replica_id}.batch-{i}")
        if config.consensus_enabled:
            self.sim.spawn(self._worker_loop(), name=f"{self.replica_id}.worker")
            self.sim.spawn(
                self._checkpoint_loop(), name=f"{self.replica_id}.checkpoint"
            )
            if config.execute_threads:
                self.sim.spawn(
                    self._execute_loop(), name=f"{self.replica_id}.execute"
                )
            if self.engine.rebalances:
                self.sim.spawn(
                    self._balance_loop(), name=f"{self.replica_id}.balance"
                )
        for i in range(config.output_threads):
            self.sim.spawn(self._output_loop(i), name=f"{self.replica_id}.output-{i}")

    @property
    def committed_watermark(self) -> int:
        """Highest sequence locally committed (handed to execution),
        whether or not the execute-thread has reached it yet."""
        return max(
            self.next_exec_sequence - 1,
            max(self.exec_pending, default=0),
        )

    @property
    def executed_watermark(self) -> int:
        """Highest sequence actually executed, in order."""
        return self.next_exec_sequence - 1

    def _forward(self, request: ClientRequest) -> None:
        """Send a client request on to the replica that can propose it."""
        self._enqueue_output(
            self.engine.forward_target(request.sender, request.request_id),
            request,
        )

    # ==================================================================
    # input threads (§4.1)
    # ==================================================================
    def _input_loop(self, index: int):
        thread_id = f"{self.replica_id}.input-{index}"
        costs = self.config.work_costs
        inbox = self.endpoint.inbox
        while True:
            message = yield inbox.get()
            yield self.cpu.run(costs.input_dispatch_ns, thread_id)
            kind = message.kind
            if kind == "client-request":
                yield from self._route_client_request(message, thread_id)
            elif kind == "checkpoint":
                accepted = yield from self._stage_put(
                    self.checkpoint_queue, message
                )
                if not accepted:
                    self.flow.shed_messages += 1
            else:
                # protocol messages ride at priority 0, which the work
                # queue's capacity bound never applies to
                self.work_queue.put_nowait(message)

    def _stage_put(self, queue, item, priority: Optional[int] = None):
        """Enqueue ``item`` under the queue's policy from a process
        context; the generator's return value says whether it got in
        (``block`` parks the caller until it does)."""
        if queue.capacity is None:
            if priority is None:
                queue.put_nowait(item)
            else:
                queue.put_nowait(item, priority)
            return True
        if queue.policy == "block":
            if priority is None:
                accepted = yield queue.put(item)
            else:
                accepted = yield queue.put(item, priority)
            return accepted
        if priority is None:
            return queue.offer(item)
        return queue.offer(item, priority)

    def _route_client_request(self, message: ClientRequest, thread_id: str):
        costs = self.config.work_costs
        if not self.config.consensus_enabled:
            # Fig. 7 upper-bound mode: requests go straight to the
            # independent responder threads
            accepted = yield from self._stage_put(self.batch_queue, message)
            if not accepted:
                self._reject_request(message, "queue", admitted=False)
            return
        if not self.engine.is_primary:
            # forward to the current primary (client may not know the view)
            self.forwarded_requests += 1
            self._forward(message)
            # classic PBFT: adopting a forwarded request arms a probe — if
            # the system makes no progress before it fires, the primary is
            # suspected and a view change begins
            self._arm_forward_probe()
            return
        key = (message.sender, message.request_id)
        if key in self._seen_requests:
            return  # client retransmission of an in-flight request
        # admission control runs before anything is recorded, so a NACKed
        # retry re-enters cleanly once the primary has room again
        reason = self.admission.try_admit(message.sender)
        if reason is not None:
            self.flow.rejected_requests += 1
            self._send_busy_nack(message, reason)
            return
        self._seen_requests.add(key)
        spans = self.system.spans
        if spans.enabled:
            spans.stamp(key, "input", self.sim.now)
        yield self.cpu.run(costs.sequence_assign_ns, thread_id)
        if self.config.batch_threads:
            accepted = yield from self._stage_put(self.batch_queue, message)
        else:
            # 0B: the worker batches; client requests ride at low priority
            accepted = yield from self._stage_put(
                self.work_queue, message, priority=1
            )
        if not accepted:
            self._reject_request(message, "queue")

    # ==================================================================
    # overload protection (repro.flow)
    # ==================================================================
    def _reject_request(
        self, message: ClientRequest, reason: str, admitted: bool = True
    ) -> None:
        """A bounded queue refused this request: undo its admission and
        NACK the client so it backs off and retries."""
        self._seen_requests.discard((message.sender, message.request_id))
        if admitted:
            self.admission.release_client(message.sender)
        self.flow.rejected_requests += 1
        self._send_busy_nack(message, reason)

    def _on_batch_shed(self, item) -> None:
        """shed_oldest evicted ``item`` from the batch or work queue."""
        if not isinstance(item, ClientRequest):
            self.flow.shed_messages += 1
            return
        key = (item.sender, item.request_id)
        if key in self._sequenced_keys:
            # must be unreachable: requests gain a sequence number only
            # after leaving these queues — recorded for the oracle
            self.flow.shed_sequenced.append(key)
        self.flow.shed_requests += 1
        self.flow.shed_keys.append(key)
        self._seen_requests.discard(key)
        self.admission.release_client(item.sender)
        self._send_busy_nack(item, "shed")

    def _on_message_shed(self, item) -> None:
        """shed_oldest evicted a non-request item (checkpoint vote or an
        outbound (dst, message) pair) — counted, nothing to NACK."""
        self.flow.shed_messages += 1

    def _on_inbox_shed(self, item) -> None:
        """shed_oldest evicted an undispatched inbound message."""
        self.system.network.dropped_messages += 1
        if isinstance(item, ClientRequest):
            key = (item.sender, item.request_id)
            self.flow.shed_requests += 1
            self.flow.shed_keys.append(key)
            self._send_busy_nack(item, "shed")
        else:
            self.flow.shed_messages += 1

    def _send_busy_nack(self, request: ClientRequest, reason: str) -> None:
        """Tell the client its request was turned away (unsigned — a NACK
        carries no result, only a congestion signal)."""
        nack = BusyNack(
            self.replica_id,
            (request.request_id,),
            reason,
            retry_after_ns=self.config.client_retransmit or 0,
        )
        lane = self.engine.nack_lane(request.sender, request.request_id)
        if lane is not None:
            # name the busy lane so clients can steer away from it
            nack.instance = lane
        self.flow.nacks_sent += 1
        self.flow.nacked_keys.add((request.sender, request.request_id))
        self._enqueue_output(request.sender, nack)

    # ==================================================================
    # batch threads (§4.2–§4.3)
    # ==================================================================
    def _batch_loop(self, index: int):
        thread_id = f"{self.replica_id}.batch-{index}"
        if not self.config.consensus_enabled:
            yield from self._upper_bound_loop(thread_id)
            return
        from repro.sim.events import TIMEOUT

        while True:
            first = yield self.batch_queue.get()
            requests = [first]
            # fill the batch; if arrivals stall, the fill deadline bounds
            # how long early requests wait for stragglers
            deadline = self.sim.now + self.config.batch_fill_timeout
            while self._batch_txns(requests) < self.config.batch_size:
                if len(self.batch_queue) > 0:
                    requests.append(self.batch_queue.get_nowait())
                    continue
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    break
                item = yield self.batch_queue.get(timeout=remaining)
                if item is TIMEOUT:
                    break
                requests.append(item)
            yield from self._form_and_propose(requests, thread_id)

    @staticmethod
    def _batch_txns(requests: List[ClientRequest]) -> int:
        return sum(len(request.txns) for request in requests)

    def _form_and_propose(self, requests: List[ClientRequest], thread_id: str):
        """Verify, assemble, digest and propose one consensus batch."""
        config = self.config
        costs = config.work_costs
        client_scheme = self.system.client_scheme
        valid_requests = []
        for request in requests:
            yield self.cpu.run(
                client_scheme.verify_cost(request.wire_bytes()), thread_id
            )
            if config.real_auth_tokens:
                ok, _ = client_scheme.check(
                    request.signable_bytes(), request.auth, request.sender,
                    self.replica_id,
                )
                if not ok:
                    self.invalid_messages += 1
                    self.admission.release_client(request.sender)
                    continue
            valid_requests.append(request)
        if not valid_requests:
            return
        batch = RequestBatch(tuple(valid_requests))
        _obj, alloc_cost = self.message_pool.acquire()
        alloc_cost += self.txn_pool.acquire_bulk(batch.txn_count)
        op_count = sum(
            txn.op_count for request in valid_requests for txn in request.txns
        )
        assembly = (
            costs.batch_fixed_ns
            + costs.batch_per_txn_ns * batch.txn_count
            + costs.batch_per_op_ns * op_count
            + alloc_cost
        )
        yield self.cpu.run(assembly, thread_id)
        yield self.cpu.run(self._digest_cost_for(batch), thread_id)
        batch.digest = digest_bytes(batch.batch_bytes())
        if self._consensus_token is not None:
            yield self._consensus_token.get()  # out-of-order disabled
        engine = self.engine
        if not engine.is_primary:
            # view changed while this batch was being formed; forward the
            # raw requests to the new primary
            for request in valid_requests:
                self._forward(request)
            self._release_token()
            return
        if engine.propose_hash_bytes:
            # the engine extends a history hash as it assigns the sequence
            yield self.cpu.run(
                digest_cost(engine.propose_hash_bytes, config.crypto_costs),
                thread_id,
            )
        try:
            proposal, actions = engine.propose(batch.digest, batch)
        except ProposalError:
            # e.g. a view change against this primary began meanwhile
            self._return_unproposed(valid_requests)
            self._release_token()
            return
        # the batch now owns a sequence number: these requests are past
        # the point where overload shedding may touch them.  (A proposal's
        # sequence is the execution sequence, e.g. RCC's global slot.)
        for request in valid_requests:
            self._sequenced_keys.add((request.sender, request.request_id))
        self.admission.on_propose(proposal.sequence)
        spans = self.system.spans
        if spans.enabled:
            now = self.sim.now
            keys = tuple(
                (request.sender, request.request_id)
                for request in valid_requests
            )
            for key in keys:
                spans.stamp(key, "batch", now)
            spans.link_batch(proposal.sequence, keys)
            spans.stamp_sequence(proposal.sequence, "propose", now)
        yield from self._dispatch(actions, thread_id)

    def _return_unproposed(self, requests: List[ClientRequest]) -> None:
        """The engine refused to propose these requests: undo their
        admission and hand each one on, to the replica that can propose
        it or, when that is still this one, back to its client as a
        busy-NACK to retry."""
        for request in requests:
            target = self.engine.forward_target(request.sender, request.request_id)
            if target == self.replica_id:
                self._reject_request(request, "view-change")
                continue
            self._seen_requests.discard((request.sender, request.request_id))
            self.admission.release_client(request.sender)
            self._enqueue_output(target, request)

    def _release_token(self) -> None:
        if self._consensus_token is not None:
            self._consensus_token.put_nowait(None)

    def _digest_cost_for(self, batch: RequestBatch) -> int:
        """CPU ns to digest a batch.

        The §4.3 design hashes one string representation of the whole
        batch; the ablation (``per_request_digests``) pays the per-hash
        setup cost once per request plus a combining hash, which is what
        batching was introduced to avoid.
        """
        crypto = self.config.crypto_costs
        total_bytes = len(batch.batch_bytes())
        if not self.config.per_request_digests:
            return digest_cost(total_bytes, crypto)
        per_request = sum(
            digest_cost(request.payload_bytes(), crypto)
            for request in batch.requests
        )
        return per_request + digest_cost(32 * len(batch.requests), crypto)

    # ==================================================================
    # worker thread (§4.3–§4.4)
    # ==================================================================
    _HANDLERS = {
        "pre-prepare": "handle_preprepare",
        "prepare": "handle_prepare",
        "commit": "handle_commit",
        "view-change": "handle_view_change",
        "new-view": "handle_new_view",
        "order-request": "handle_order_request",
        "commit-certificate": "handle_commit_certificate",
        "poe-propose": "handle_propose",
        "poe-support": "handle_support",
        # state transfer is host-level, not engine-level
        "state-request": None,
        "state-response": None,
    }

    #: proposal messages whose batch digest a backup must re-verify
    _PROPOSAL_KINDS = ("pre-prepare", "order-request", "poe-propose")

    #: sentinel a flush timer drops into the work queue so a 0B worker's
    #: partial batch is proposed once the fill deadline passes
    _FLUSH_BATCH = object()

    def _worker_loop(self):
        thread_id = f"{self.replica_id}.worker"
        pending_client_requests: List[ClientRequest] = []
        flush_armed = False
        while True:
            message = yield self.work_queue.get()
            if message is Replica._FLUSH_BATCH:
                flush_armed = False
                if pending_client_requests:
                    batch_requests, pending_client_requests = (
                        pending_client_requests,
                        [],
                    )
                    yield from self._form_and_propose(batch_requests, thread_id)
                continue
            if message.kind == "client-request":
                # 0B pipeline: the worker performs batching itself
                pending_client_requests.append(message)
                if (
                    self._batch_txns(pending_client_requests)
                    >= self.config.batch_size
                ):
                    batch_requests, pending_client_requests = (
                        pending_client_requests,
                        [],
                    )
                    yield from self._form_and_propose(batch_requests, thread_id)
                elif not flush_armed:
                    flush_armed = True
                    Timer(
                        self.sim,
                        self.config.batch_fill_timeout,
                        self.work_queue.put_nowait,
                        Replica._FLUSH_BATCH,
                        0,
                    )
                continue
            yield from self._handle_protocol_message(message, thread_id)
            # 0E pipeline: the worker also executes whatever became ready
            if not self.config.execute_threads:
                yield from self._drain_executions(thread_id)

    def _handle_protocol_message(self, message: Message, thread_id: str):
        config = self.config
        costs = config.work_costs
        scheme = self.system.replica_scheme
        # commit certificates come from clients, signed with their scheme
        if message.kind == "commit-certificate":
            scheme = self.system.client_scheme
        yield self.cpu.run(scheme.verify_cost(message.wire_bytes()), thread_id)
        if config.real_auth_tokens:
            ok, _ = scheme.check(
                message.signable_bytes(), message.auth, message.sender,
                self.replica_id,
            )
            if not ok:
                self.invalid_messages += 1
                return
        yield self.cpu.run(costs.worker_message_ns, thread_id)
        if message.kind == "state-request":
            yield from self._serve_state_transfer(message, thread_id)
            return
        if message.kind == "state-response":
            self._absorb_state_response(message)
            return
        if message.kind in self._PROPOSAL_KINDS:
            # a backup re-hashes the batch string to check the digest —
            # the primary cannot be trusted to have hashed honestly
            batch = message.request
            if not batch.is_null:
                # materialise transaction objects for the batch (§4.8)
                if message.sender != self.replica_id:
                    yield self.cpu.run(
                        self.txn_pool.acquire_bulk(batch.txn_count), thread_id
                    )
                yield self.cpu.run(self._digest_cost_for(batch), thread_id)
                if digest_bytes(batch.batch_bytes()) != message.digest:
                    self.invalid_messages += 1
                    return
        handler_name = self._HANDLERS.get(message.kind)
        if handler_name is None:
            self.invalid_messages += 1
            return
        if self._recovering:
            return  # consensus participation resumes after adoption
        actions = getattr(self.engine, handler_name)(message)
        yield from self._dispatch(actions, thread_id)

    # ==================================================================
    # action dispatch
    # ==================================================================
    def _dispatch(self, actions, thread_id: str, transformed: bool = False):
        if self.adversary is not None and not transformed:
            actions = self.adversary.transform(self, actions)
        for action in actions:
            if isinstance(action, Broadcast):
                spans = self.system.spans
                if spans.enabled and action.message.kind in (
                    "commit",  # PBFT: broadcasting Commit == prepared
                    "poe-support",  # PoE: broadcasting Support == endorsed
                ):
                    spans.stamp_sequence(
                        self.engine.execution_sequence(action.message),
                        "prepare",
                        self.sim.now,
                    )
                receivers = [
                    rid for rid in self.system.replica_ids if rid != self.replica_id
                ]
                yield from self._sign_and_queue(
                    action.message, receivers, thread_id,
                    scheme=self.system.replica_scheme,
                )
            elif isinstance(action, SendTo):
                scheme = self.system.replica_scheme
                if action.dst not in self.system.replica_set:
                    scheme = self.system.client_scheme
                yield from self._sign_and_queue(
                    action.message, [action.dst], thread_id, scheme=scheme
                )
            elif isinstance(action, ExecuteReady):
                self._enqueue_execute(action)
                if not self.config.execute_threads:
                    yield from self._drain_executions(thread_id)
            elif isinstance(action, StartViewChangeTimer):
                self._arm_vc_timer(action.sequence)
            elif isinstance(action, CancelViewChangeTimer):
                timer = self._vc_timers.pop(action.sequence, None)
                if timer is not None:
                    timer.cancel()
            elif isinstance(action, EnterView):
                self._on_enter_view(action.view)
            else:  # pragma: no cover - future action types
                raise TypeError(f"unhandled action {action!r}")

    def _sign_and_queue(self, message, receivers, thread_id, scheme):
        yield self.cpu.run(
            scheme.sign_cost(message.wire_bytes(), len(receivers)), thread_id
        )
        if self.config.real_auth_tokens:
            message.auth, _ = scheme.authenticate(
                message.signable_bytes(), self.replica_id, receivers
            )
        for dst in receivers:
            self._enqueue_output(dst, message)

    def _enqueue_output(self, dst: str, message) -> None:
        index = zlib.crc32(dst.encode("utf-8")) % len(self.output_queues)
        queue = self.output_queues[index]
        if queue.capacity is None:
            queue.put_nowait((dst, message))
        elif not queue.offer((dst, message)):
            self.flow.shed_messages += 1

    # ==================================================================
    # multi-primary (RCC) lane balancing
    # ==================================================================
    def _balance_loop(self):
        """Periodic skip-certificate pass for the lanes this replica
        leads: commits null batches into lanes that fell behind the
        round-robin merge, so one idle or failed lane cannot wedge the
        global execution order.  Runs through quiescence too — that is
        what levels the lanes after the workload stops."""
        from repro.sim.events import Timeout

        thread_id = f"{self.replica_id}.worker"
        interval = max(1, self.config.rcc_balance_interval)
        while True:
            yield Timeout(interval)
            if self._recovering:
                continue
            actions = self.engine.balance_actions()
            if actions:
                yield from self._dispatch(actions, thread_id)

    # ==================================================================
    # view-change timers
    # ==================================================================
    def _arm_vc_timer(self, sequence: int) -> None:
        if sequence in self._vc_timers:
            return
        self._vc_timers[sequence] = Timer(
            self.sim, self.config.view_change_timeout, self._on_vc_timeout, sequence
        )

    def _on_vc_timeout(self, sequence: int) -> None:
        self._vc_timers.pop(sequence, None)
        actions = self.engine.on_view_change_timeout(sequence)
        if actions:
            self.sim.spawn(
                self._dispatch(actions, f"{self.replica_id}.worker"),
                name=f"{self.replica_id}.vc-dispatch",
            )

    def _arm_forward_probe(self) -> None:
        if self._forward_probe is not None or not self.engine.has_view_change:
            return
        self._forward_probe = (len(self.executed_log), self.engine.view)
        Timer(self.sim, self.config.view_change_timeout, self._on_forward_probe)

    def _on_forward_probe(self) -> None:
        if self._forward_probe is None:
            return
        executed_then, view_then = self._forward_probe
        self._forward_probe = None
        engine = self.engine
        if (
            len(self.executed_log) != executed_then
            or engine.view != view_then
            or engine.in_view_change
        ):
            return  # progress happened or a view change is already underway
        actions = engine.suspect_primary()
        if actions:
            self.sim.spawn(
                self._dispatch(actions, f"{self.replica_id}.worker"),
                name=f"{self.replica_id}.suspect-dispatch",
            )

    def _on_enter_view(self, view: int) -> None:
        tracer = self.system.tracer
        if tracer.enabled:
            tracer.record(
                self.sim.now, self.replica_id, "view-change",
                f"entered view {view}",
            )
        # requests admitted by the old primary are re-proposed or
        # retransmitted under the new view; dropping the stale per-client
        # counts keeps the admission budget from leaking across views
        if not self.engine.is_primary:
            self.admission.clear_backlog()

    # ==================================================================
    # ordered execution (§4.5–§4.6)
    # ==================================================================
    def _enqueue_execute(self, action: ExecuteReady) -> None:
        sequence = action.sequence
        if sequence < self.next_exec_sequence or sequence in self.exec_pending:
            return  # replay after a view change; already executed/queued
        spans = self.system.spans
        if spans.enabled:
            spans.stamp_sequence(sequence, "commit", self.sim.now)
        self.exec_pending[sequence] = action
        if sequence == self.next_exec_sequence and self._exec_event is not None:
            event, self._exec_event = self._exec_event, None
            event.trigger(None)

    def _execute_loop(self):
        thread_id = f"{self.replica_id}.execute"
        while True:
            if self.next_exec_sequence in self.exec_pending:
                yield from self._drain_executions(thread_id)
            else:
                # park until the next-in-order batch commits — the QC-queue
                # trick means no polling and no dequeue-requeue churn
                event = SimEvent(self.sim)
                self._exec_event = event
                yield event

    def _drain_executions(self, thread_id: str):
        while self.next_exec_sequence in self.exec_pending:
            action = self.exec_pending.pop(self.next_exec_sequence)
            self.next_exec_sequence += 1
            yield from self._execute_batch(action, thread_id)

    def _execute_batch(self, action: ExecuteReady, thread_id: str):
        config = self.config
        costs = config.work_costs
        storage = config.storage_costs
        batch: RequestBatch = action.request
        # execution is in order, so this releases every consensus
        # instance at or below the sequence from the admission budget
        self.admission.on_execute(action.sequence)

        # phase 1: charge all CPU up front.  The per-op storage cost comes
        # from the cost table regardless of backend, so the charge can be
        # computed without touching state.
        if config.storage_backend == "memory":
            read_cost, write_cost = storage.memory_read_ns, storage.memory_write_ns
        else:
            read_cost, write_cost = storage.sqlite_read_ns, storage.sqlite_write_ns
        cost = costs.execute_fixed_ns
        ops_executed = 0
        for request in batch.requests:
            for txn in request.txns:
                for op in txn.ops:
                    ops_executed += 1
                    cost += costs.execute_op_ns
                    cost += write_cost if op.op_type is OpType.WRITE else read_cost
        if config.certification is CertificationMode.PREV_HASH:
            # traditional chaining: hash the previous block (the costly
            # design that §4.6's commit-certificate blocks avoid)
            cost += digest_cost(256, config.crypto_costs)
        cost += costs.block_create_ns
        if self.engine.execute_hash_bytes:  # execution-history extension
            cost += digest_cost(self.engine.execute_hash_bytes, config.crypto_costs)
        yield self.cpu.run(cost, thread_id)

        # phase 2: mutate everything atomically (one simulated instant) so
        # a run cut off mid-batch never leaves state ahead of the log
        if config.apply_state:
            for request in batch.requests:
                for txn in request.txns:
                    for op in txn.ops:
                        if op.op_type is OpType.WRITE:
                            self.store.write(op.key, op.value)
                        else:
                            self.store.read(op.key)
        self._append_block(action, batch)
        self.engine.record_execution(batch.digest or "")
        self.executed_log.append((action.sequence, batch.digest or ""))
        self.state_digest = digest_bytes(
            f"{self.state_digest}|{batch.digest}".encode("utf-8")
        )
        tracer = self.system.tracer
        if tracer.enabled:
            tracer.record(
                self.sim.now, self.replica_id, "execute",
                f"seq={action.sequence} txns={batch.txn_count} "
                f"digest={str(batch.digest)[:12]}",
            )
        spans = self.system.spans
        if spans.enabled:
            spans.stamp_sequence(action.sequence, "execute", self.sim.now)
        metrics = self.system.metrics
        metrics.counter("replica_txns_executed").increment(batch.txn_count)
        metrics.counter("replica_ops_executed").increment(ops_executed)
        # transaction objects return to their pool once executed (§4.8)
        self.txn_pool.release_bulk(batch.txn_count)

        if not batch.is_null:
            yield from self._respond_to_clients(action, batch, thread_id)

        if self.checkpoints.is_checkpoint_sequence(action.sequence):
            yield from self._emit_checkpoint(action.sequence, thread_id)

        if self._consensus_token is not None and self.engine.is_primary:
            self._consensus_token.put_nowait(None)

    def _append_block(self, action: ExecuteReady, batch: RequestBatch) -> None:
        """Build and append the block (CPU already charged by the caller)."""
        config = self.config
        prev_hash = None
        certificate = ()
        if config.certification is CertificationMode.PREV_HASH:
            prev_hash = self.chain.head().block_hash()
        else:
            certificate = tuple(action.commit_proof)
            if len({signer for signer, _ in certificate}) < self.quorum.commit_quorum:
                # speculative (Zyzzyva) or degenerate runs have no commit
                # certificate; synthesise the quorum attestation the chain
                # expects from the accepted order
                certificate = tuple(
                    (rid, b"speculative")
                    for rid in self.system.replica_ids[: self.quorum.commit_quorum]
                )
        block = Block(
            sequence=action.sequence,
            digest=batch.digest or "",
            view=action.view,
            proposer=self.engine.proposer_of(action.sequence, action.view),
            txn_count=batch.txn_count,
            prev_hash=prev_hash,
            commit_certificate=certificate,
        )
        self.chain.append(block)

    def _respond_to_clients(self, action, batch: RequestBatch, thread_id: str):
        """One response message per client group with requests in the batch."""
        config = self.config
        costs = config.work_costs
        by_group: Dict[str, List[int]] = {}
        for request in batch.requests:
            by_group.setdefault(request.sender, []).append(request.request_id)
            # answered requests leave the per-client admission budget
            # (no-op on backups, which never admitted them)
            self.admission.release_client(request.sender)
        speculative = action.speculative
        for group, request_ids in by_group.items():
            if speculative:
                message = SpecResponse(
                    self.replica_id,
                    tuple(request_ids),
                    action.view,
                    action.sequence,
                    result_digest=batch.digest or "",
                    history_hash=self.engine.exec_history_hash,
                )
            else:
                message = ClientResponse(
                    self.replica_id,
                    tuple(request_ids),
                    action.view,
                    action.sequence,
                    result_digest=batch.digest or "",
                )
            yield self.cpu.run(costs.response_create_ns, thread_id)
            # client-bound messages go through the adversary too — a
            # byzantine replica's power includes lying to clients, and
            # policies like ConflictingVoter corrupt response digests to
            # deny Zyzzyva's all-n fast path
            if self.adversary is not None:
                for transformed in self.adversary.transform(
                    self, [SendTo(group, message)]
                ):
                    if isinstance(transformed, SendTo):
                        yield from self._sign_and_queue(
                            transformed.message, [transformed.dst], thread_id,
                            scheme=self.system.client_scheme,
                        )
                continue
            yield from self._sign_and_queue(
                message, [group], thread_id, scheme=self.system.client_scheme
            )

    def _emit_checkpoint(self, sequence: int, thread_id: str):
        config = self.config
        self.checkpoint_digests[sequence] = self.state_digest
        yield self.cpu.run(digest_cost(4096, config.crypto_costs), thread_id)
        message = Checkpoint(
            self.replica_id,
            sequence,
            self.state_digest,
            blocks_included=config.checkpoint_batches,
        )
        receivers = [r for r in self.system.replica_ids if r != self.replica_id]
        yield from self._sign_and_queue(
            message, receivers, thread_id, scheme=self.system.replica_scheme
        )
        # our own vote counts too
        self._record_checkpoint_vote(sequence, self.state_digest, self.replica_id)

    # ==================================================================
    # crash recovery / state transfer (§4.7)
    # ==================================================================
    def begin_recovery(self) -> None:
        """Called by the host after the crash heals: fetch missed state.

        The replica stops participating in consensus, asks every peer for
        a transfer, adopts the state once f+1 peers agree on (executed
        sequence, state digest), and keeps retrying while it still lags.
        """
        if self._recovering:
            return
        self._recovering = True
        self.sim.spawn(self._recovery_loop(), name=f"{self.replica_id}.recovery")

    def _recovery_loop(self):
        from repro.consensus.messages import StateTransferRequest
        from repro.sim.events import Timeout

        retry_delay = max(self.config.state_transfer_retry, 1)
        peers = [
            rid for rid in self.system.replica_ids if rid != self.replica_id
        ]
        for _attempt in range(50):
            if not self._recovering:
                # adopted a snapshot; confirm normal execution resumed —
                # commits proposed while the transfer was in flight may
                # have left a gap the snapshot predates
                progress_mark = self.next_exec_sequence
                yield Timeout(retry_delay)
                if self.next_exec_sequence > progress_mark:
                    return  # executing again: recovery complete
                self._recovering = True  # stalled behind a gap: go again
            self._recovery_responses = {}
            request = StateTransferRequest(
                self.replica_id, self.next_exec_sequence - 1
            )
            yield from self._sign_and_queue(
                request, peers, f"{self.replica_id}.worker",
                scheme=self.system.replica_scheme,
            )
            yield Timeout(retry_delay)
        self._recovering = False  # give up gracefully; stay a follower

    def _serve_state_transfer(self, message, thread_id: str):
        """Answer a recovering peer (any healthy replica does)."""
        from repro.consensus.messages import StateTransferResponse

        if self._recovering:
            return
        have = message.have_sequence
        # derive the watermark from the log, not next_exec_sequence: the
        # counter is bumped before the execute-thread's CPU charge, so
        # mid-execution it claims a sequence whose log entry and state
        # mutation have not happened yet — a recovering peer adopting that
        # torn snapshot would be left with a permanent gap in its log
        executed = self.executed_log[-1][0] if self.executed_log else 0
        if executed <= have:
            return  # nothing to offer
        log_slice = tuple(
            entry for entry in self.executed_log if entry[0] > have
        )
        snapshot = None
        snapshot_records = 0
        if self.config.apply_state and hasattr(self.store, "_records"):
            snapshot = dict(self.store._records)
            snapshot_records = len(snapshot)
        response = StateTransferResponse(
            self.replica_id,
            executed_sequence=executed,
            state_digest=self.state_digest,
            log_slice=log_slice,
            blocks=self.chain.suffix_since(have),
            snapshot=snapshot,
            snapshot_records=snapshot_records,
            pruned_through=self.chain.pruned_through,
        )
        # building the snapshot costs real CPU proportional to its size
        yield self.cpu.run(
            self.config.work_costs.execute_op_ns
            + snapshot_records * 50,
            thread_id,
        )
        yield from self._sign_and_queue(
            response, [message.sender], thread_id,
            scheme=self.system.replica_scheme,
        )

    def _absorb_state_response(self, message) -> None:
        if not self._recovering:
            return
        if message.executed_sequence < self.next_exec_sequence:
            return  # stale offer
        key = (message.executed_sequence, message.state_digest)
        offers = self._recovery_responses.setdefault(key, [])
        offers.append(message)
        if len({offer.sender for offer in offers}) < self.quorum.f + 1:
            return
        self._adopt_state(offers[-1])

    def _adopt_state(self, response) -> None:
        """f+1 peers agree: install the transferred state."""
        if response.snapshot is not None:
            if hasattr(self.store, "_records"):
                self.store._records = dict(response.snapshot)
            else:  # pragma: no cover - sqlite backend
                self.store.preload(response.snapshot)
        self.executed_log.extend(response.log_slice)
        self.state_digest = response.state_digest
        self.next_exec_sequence = response.executed_sequence + 1
        self.exec_pending = {
            seq: action
            for seq, action in self.exec_pending.items()
            if seq >= self.next_exec_sequence
        }
        if response.blocks:
            self.chain.adopt(response.blocks, response.pruned_through)
        self.engine.adopt_state(response.executed_sequence, response.log_slice)
        self._recovering = False
        self.recoveries_completed += 1
        self.system.metrics.counter("recoveries").increment()
        tracer = self.system.tracer
        if tracer.enabled:
            tracer.record(
                self.sim.now, self.replica_id, "recovery",
                f"adopted state through {response.executed_sequence} "
                f"from {response.sender}",
            )

    # ==================================================================
    # checkpoint thread (§4.7)
    # ==================================================================
    def _checkpoint_loop(self):
        thread_id = f"{self.replica_id}.checkpoint"
        config = self.config
        costs = config.work_costs
        scheme = self.system.replica_scheme
        while True:
            message = yield self.checkpoint_queue.get()
            yield self.cpu.run(scheme.verify_cost(message.wire_bytes()), thread_id)
            if config.real_auth_tokens:
                ok, _ = scheme.check(
                    message.signable_bytes(), message.auth, message.sender,
                    self.replica_id,
                )
                if not ok:
                    self.invalid_messages += 1
                    continue
            yield self.cpu.run(costs.checkpoint_vote_ns, thread_id)
            self._record_checkpoint_vote(
                message.sequence, message.state_digest, message.sender
            )

    def _record_checkpoint_vote(self, sequence, digest, voter) -> None:
        if self.checkpoints.record_vote(sequence, digest, voter):
            tracer = self.system.tracer
            if tracer.enabled:
                tracer.record(
                    self.sim.now, self.replica_id, "checkpoint",
                    f"stable at {sequence}",
                )
            self.engine.advance_stable(self.checkpoints.stable_sequence)
            horizon = self.checkpoints.gc_horizon()
            if horizon > 0:
                self.chain.prune_before(horizon)
                self._gc_seen_requests(horizon)
            # if the cluster's stable point has moved a whole checkpoint
            # interval past our execution point, the commits we are missing
            # have been garbage-collected — only a state transfer can get
            # us back (classic PBFT checkpoint fetch)
            if (
                self.checkpoints.stable_sequence
                >= self.next_exec_sequence + self.checkpoints.interval
            ):
                self.begin_recovery()

    def _gc_seen_requests(self, horizon: int) -> None:
        # retaining every (client, request id) forever would leak; the
        # stable checkpoint bounds how far back a retransmission can reach
        if len(self._seen_requests) > 4 * self.config.num_clients:
            self._seen_requests.clear()
        if len(self._sequenced_keys) > 4 * self.config.num_clients:
            self._sequenced_keys.clear()

    # ==================================================================
    # output threads (§4.1)
    # ==================================================================
    def _output_loop(self, index: int):
        thread_id = f"{self.replica_id}.output-{index}"
        costs = self.config.work_costs
        queue = self.output_queues[index]
        while True:
            dst, message = yield queue.get()
            yield self.cpu.run(costs.output_send_ns, thread_id)
            self.system.network.send(self.replica_id, dst, message)

    # ==================================================================
    # Fig. 7 upper-bound mode: no consensus, no ordering
    # ==================================================================
    def _upper_bound_loop(self, thread_id: str):
        """Independent responder thread: verify, (optionally) execute,
        reply straight to the client."""
        config = self.config
        costs = config.work_costs
        client_scheme = self.system.client_scheme
        sequence = 0
        while True:
            request = yield self.batch_queue.get()
            yield self.cpu.run(
                client_scheme.verify_cost(request.wire_bytes()), thread_id
            )
            if config.real_auth_tokens:
                ok, _ = client_scheme.check(
                    request.signable_bytes(), request.auth, request.sender,
                    self.replica_id,
                )
                if not ok:
                    self.invalid_messages += 1
                    continue
            ops = 0
            if config.execution_enabled:
                cost = 0
                for txn in request.txns:
                    for op in txn.ops:
                        ops += 1
                        cost += costs.execute_op_ns
                        cost += (
                            config.storage_costs.memory_write_ns
                            if op.op_type is OpType.WRITE
                            else config.storage_costs.memory_read_ns
                        )
                yield self.cpu.run(cost, thread_id)
                if config.apply_state:
                    for txn in request.txns:
                        for op in txn.ops:
                            if op.op_type is OpType.WRITE:
                                self.store.write(op.key, op.value)
                            else:
                                self.store.read(op.key)
            sequence += 1
            message = ClientResponse(
                self.replica_id,
                (request.request_id,),
                view=0,
                sequence=sequence,
                result_digest="upper-bound",
            )
            metrics = self.system.metrics
            metrics.counter("replica_txns_executed").increment(len(request.txns))
            metrics.counter("replica_ops_executed").increment(ops)
            yield self.cpu.run(costs.response_create_ns, thread_id)
            yield from self._sign_and_queue(
                message, [request.sender], thread_id,
                scheme=self.system.client_scheme,
            )
