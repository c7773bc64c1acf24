"""System configuration: every knob the paper's eleven questions turn.

Defaults reproduce the paper's standard setup (§5.1): PBFT, batches of 100
transactions, checkpoints every 10K transactions, ED25519 between clients
and replicas, CMAC+AES between replicas, in-memory storage, 8-core replica
machines, one worker-thread, one execute-thread and two batch-threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.crypto.costs import CryptoCosts, DEFAULT_COSTS
from repro.crypto.schemes import SchemeName
from repro.sim.clock import millis, seconds
from repro.storage.base import StorageCosts
from repro.storage.blockchain import CertificationMode


@dataclass(frozen=True)
class WorkCosts:
    """Simulated CPU nanoseconds for non-crypto pipeline work items.

    Calibrated jointly with :class:`~repro.crypto.costs.CryptoCosts` so the
    standard configuration reproduces the paper's headline throughput
    (§5, ~175K txns/s at 32 replicas on 8 cores) and per-thread saturation
    pattern (Fig. 9).  See EXPERIMENTS.md for the calibration record.
    """

    #: input-thread: classify one inbound message and route it to a queue
    input_dispatch_ns: int = 1_000
    #: input-thread: assign a sequence number to a client request (§4.3)
    sequence_assign_ns: int = 300
    #: batch-thread: per-transaction cost of assembling a batch
    batch_per_txn_ns: int = 600
    #: batch-thread: per-operation cost (resource allocation per op —
    #: §5.4 attributes the multi-op decline to batch-threads "creating
    #: batching and allocating resources for transaction")
    batch_per_op_ns: int = 2_000
    #: batch-thread: fixed per-batch assembly cost
    batch_fixed_ns: int = 2_000
    #: worker-thread: protocol bookkeeping per handled message (state
    #: lookup, vote accounting, allocation churn)
    worker_message_ns: int = 6_000
    #: execute-thread: per-operation cost beyond the record-store access
    execute_op_ns: int = 1_000
    #: execute-thread: fixed per-batch cost (Execute message handling)
    execute_fixed_ns: int = 3_000
    #: execute-thread: building one client-response message
    response_create_ns: int = 800
    #: execute-thread: assembling a block and appending it to the chain
    block_create_ns: int = 1_500
    #: output-thread: handing one message to the NIC (syscall-ish)
    output_send_ns: int = 1_500
    #: checkpoint-thread: processing one checkpoint vote
    checkpoint_vote_ns: int = 2_000


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one deployment + workload + measurement run."""

    # -- deployment ----------------------------------------------------
    protocol: str = "pbft"  # "pbft" | "zyzzyva" | "poe" | "rcc" (extensions)
    num_replicas: int = 16
    cores_per_replica: int = 8
    #: None → maximum f for the replica count
    faults_tolerated: Optional[int] = None
    #: concurrent consensus instances for multi-primary RCC (protocol
    #: "rcc"): instance k's view-0 primary is replica k.  Ignored by the
    #: single-primary protocols.
    num_primaries: int = 1
    #: how often an RCC lane leader runs its balance pass, committing
    #: null-batch skip certificates for lanes that fell behind the merge
    rcc_balance_interval: int = millis(2)

    # -- pipeline (Figures 6a/6b) ---------------------------------------
    batch_threads: int = 2  # "B" in Fig. 8; 0 = worker does batching
    execute_threads: int = 1  # "E" in Fig. 8; 0 = worker executes inline
    input_threads: int = 3  # 1 client + 2 replica collectors (§4.1)
    output_threads: int = 2

    # -- workload (§5.1) -------------------------------------------------
    num_clients: int = 32_000
    client_groups: int = 8
    #: transactions per client request (1 = the paper's standard: the
    #: primary aggregates; >1 models client-side burst batching, §4.2)
    client_batch_txns: int = 1
    #: transactions the primary packs into one consensus batch (Fig. 10)
    batch_size: int = 100
    ops_per_txn: int = 1  # Fig. 11
    payload_padding_bytes: int = 0  # Fig. 12
    #: how long a batch-thread waits for its batch to fill before
    #: proposing a partial one.  Bounds latency at low load; under load
    #: batches always fill.  (Without it, medium loads degenerate into
    #: near-empty batches and consensus overhead explodes.)
    batch_fill_timeout: int = millis(2)
    ycsb_records: int = 600_000
    ycsb_theta: float = 0.99
    write_fraction: float = 1.0

    # -- cryptography (Fig. 13) ------------------------------------------
    client_scheme: SchemeName = SchemeName.ED25519
    replica_scheme: SchemeName = SchemeName.CMAC_AES

    # -- storage / chain (Fig. 14, §4.6, §4.7) ---------------------------
    storage_backend: str = "memory"  # "memory" | "sqlite"
    certification: CertificationMode = CertificationMode.COMMIT_CERTIFICATE
    #: checkpoint period in *transactions* ("once per 10K transactions")
    checkpoint_txns: int = 10_000
    buffer_pool: bool = True
    buffer_pool_capacity: int = 4_096

    # -- design ablations -------------------------------------------------
    #: §4.5 out-of-order consensus; False serialises the primary to one
    #: outstanding consensus at a time (the ablation bench's baseline)
    out_of_order: bool = True
    #: §4.3 ablation: hash each request individually instead of hashing
    #: one string representation of the whole batch
    per_request_digests: bool = False
    #: Fig. 7 upper-bound mode: no consensus, primary answers directly
    consensus_enabled: bool = True
    #: Fig. 7 "No Execution" vs "Execution"
    execution_enabled: bool = True

    # -- network ----------------------------------------------------------
    one_way_latency_us: float = 100.0
    #: effective per-VM goodput.  GCP c2-standard-8 is rated 16 Gbps, but
    #: sustained many-stream TCP goodput lands well below line rate; 7 Gbps
    #: reproduces where the message-size experiment becomes network-bound
    nic_gbps: float = 7.0

    # -- timers -----------------------------------------------------------
    view_change_timeout: int = seconds(5)
    #: how long a Zyzzyva client waits for all 3f+1 responses before the
    #: commit-certificate fallback ("finding an optimal amount of time a
    #: client should wait is a hard problem", §5.10)
    zyzzyva_client_timeout: int = seconds(4)

    #: PBFT client retransmission period; None disables the timer (the
    #: steady-state experiments never need it — enable for failure tests)
    client_retransmit: Optional[int] = None
    #: how often a recovering replica re-requests state transfer until it
    #: has caught up past every execution gap
    state_transfer_retry: int = millis(50)

    # -- overload protection (repro.flow) ----------------------------------
    #: back-pressure policy for bounded pipeline queues: "block" parks the
    #: producer, "shed_oldest" evicts the oldest queued item (NACKing shed
    #: client requests), "reject" refuses the new arrival with a busy-nack
    queue_policy: str = "block"
    #: per-stage queue bounds; None leaves a queue unbounded (the default,
    #: matching the paper's deployment).  The work-queue bound applies to
    #: client requests only — protocol messages are never shed.
    batch_queue_capacity: Optional[int] = None
    work_queue_capacity: Optional[int] = None
    checkpoint_queue_capacity: Optional[int] = None
    output_queue_capacity: Optional[int] = None
    inbox_capacity: Optional[int] = None
    #: primary admission control: cap consensus instances proposed but not
    #: yet executed / requests admitted per client group; requests over a
    #: cap get a busy-nack instead of queueing.  None disables the cap.
    admission_max_inflight: Optional[int] = None
    admission_max_per_client: Optional[int] = None
    #: client AIMD pending window: initial size (None → every logical
    #: client in flight, i.e. no windowing until a NACK shrinks it)
    client_window_initial: Optional[int] = None
    client_window_min: int = 1
    client_window_additive: int = 1
    client_window_decrease: float = 0.5
    #: retransmission backoff: delay(n) = min(base * factor**n, max) plus
    #: a deterministic jitter fraction; base is ``client_retransmit``
    retransmit_backoff_factor: float = 2.0
    retransmit_backoff_max: Optional[int] = None
    retransmit_jitter: float = 0.1

    # -- measurement --------------------------------------------------------
    warmup: int = millis(150)
    measure: int = millis(250)
    seed: int = 1

    # -- fidelity / speed trade-offs ------------------------------------------
    #: compute and verify real HMAC tokens on every message (integrity is
    #: then genuinely checked end to end).  Benchmarks may disable to save
    #: host CPU; simulated costs are charged either way.
    real_auth_tokens: bool = True
    #: apply operations to the record store for real (state convergence is
    #: then checkable); costs are charged either way.
    apply_state: bool = True
    #: collect a structured event trace (executions, view changes,
    #: checkpoints, recoveries) for replay debugging — see
    #: :mod:`repro.sim.tracing`
    trace: bool = False
    #: record every completed client request's (request id, sequence,
    #: result digest) on its :class:`~repro.core.clientmgr.ClientGroup` so
    #: the reply ↔ executed-log oracle (:mod:`repro.fuzz.oracles`) can
    #: cross-check replies against replica logs.  Off by default to keep
    #: long benchmark runs from accumulating per-request records.
    record_completions: bool = False

    # -- observability (repro.obs) --------------------------------------------
    #: stamp every client request at each pipeline hand-off and aggregate
    #: per-stage latency histograms (ExperimentResult.stage_latency) — see
    #: :mod:`repro.obs.spans`.  Stamps record timestamps only, so enabling
    #: spans never changes simulated results.
    lifecycle_spans: bool = False
    #: sample queue depths / CPU / network counters every this many ticks
    #: into bounded time series (None disables the sampler) — see
    #: :mod:`repro.obs.sampler`
    sample_interval: Optional[int] = None
    #: retain up to this many finished spans for Chrome-trace export
    #: (0 = aggregate only; export needs retained spans)
    span_keep_finished: int = 0

    # -- cost models ---------------------------------------------------------
    work_costs: WorkCosts = field(default_factory=WorkCosts)
    crypto_costs: CryptoCosts = field(default_factory=lambda: DEFAULT_COSTS)
    storage_costs: StorageCosts = field(default_factory=StorageCosts)

    # ------------------------------------------------------------------
    def __post_init__(self):
        from repro.engines import ENGINES

        if self.protocol not in ENGINES:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.num_replicas < 4:
            raise ValueError("BFT needs at least 4 replicas")
        if not 1 <= self.num_primaries <= self.num_replicas:
            raise ValueError("num_primaries must be in [1, num_replicas]")
        if self.rcc_balance_interval < 1:
            raise ValueError("rcc_balance_interval must be >= 1 tick")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.client_batch_txns < 1:
            raise ValueError("client_batch_txns must be >= 1")
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.client_groups < 1 or self.client_groups > self.num_clients:
            raise ValueError("client_groups must be in [1, num_clients]")
        if self.storage_backend not in ("memory", "sqlite"):
            raise ValueError(f"unknown storage backend {self.storage_backend!r}")
        if self.input_threads < 1 or self.output_threads < 1:
            raise ValueError("need at least one input and one output thread")
        if self.batch_threads < 0 or self.execute_threads < 0:
            raise ValueError("thread counts must be >= 0")
        if self.execute_threads > 1:
            # §6: "having multiple execution-threads can cause data-conflicts"
            raise ValueError("at most one execute-thread is supported")
        if self.cores_per_replica < 1:
            raise ValueError("cores_per_replica must be >= 1")
        if self.sample_interval is not None and self.sample_interval < 1:
            raise ValueError("sample_interval must be >= 1 tick")
        if self.span_keep_finished < 0:
            raise ValueError("span_keep_finished must be >= 0")
        from repro.sim.queues import QUEUE_POLICIES

        if self.queue_policy not in QUEUE_POLICIES:
            raise ValueError(
                f"unknown queue policy {self.queue_policy!r}; "
                f"expected one of {QUEUE_POLICIES}"
            )
        for knob in (
            "batch_queue_capacity",
            "work_queue_capacity",
            "checkpoint_queue_capacity",
            "output_queue_capacity",
            "inbox_capacity",
            "admission_max_inflight",
            "admission_max_per_client",
            "client_window_initial",
            "retransmit_backoff_max",
        ):
            value = getattr(self, knob)
            if value is not None and value < 1:
                raise ValueError(f"{knob} must be >= 1, got {value}")
        if self.client_window_min < 1:
            raise ValueError("client_window_min must be >= 1")
        if self.client_window_additive < 1:
            raise ValueError("client_window_additive must be >= 1")
        if not 0.0 < self.client_window_decrease < 1.0:
            raise ValueError("client_window_decrease must be in (0, 1)")
        if self.retransmit_backoff_factor < 1.0:
            raise ValueError("retransmit_backoff_factor must be >= 1.0")
        if not 0.0 <= self.retransmit_jitter <= 1.0:
            raise ValueError("retransmit_jitter must be in [0, 1]")

    # ------------------------------------------------------------------
    @property
    def f(self) -> int:
        if self.faults_tolerated is not None:
            return self.faults_tolerated
        return (self.num_replicas - 1) // 3

    @property
    def checkpoint_batches(self) -> int:
        """Checkpoint period in batches (the execute-thread's unit)."""
        return max(1, self.checkpoint_txns // max(1, self.batch_size))

    @property
    def clients_per_group(self) -> int:
        return self.num_clients // self.client_groups

    def with_options(self, **overrides) -> "SystemConfig":
        """Functional update — experiments derive variants from a base."""
        return replace(self, **overrides)
