"""The benchmark's workloads and the correctness gate every repetition passes.

All four are closed loop: each logical client waits for its reply before it
sends its next request.  Simulated windows are shortened from the figures'
settings so that one repetition takes a few host seconds on two cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.consensus.safety import SafetyViolation
from repro.core import ResilientDBSystem, SystemConfig
from repro.flow import check_flow_invariants
from repro.storage.blockchain import ChainViolation
from repro.sim.clock import millis


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    #: seed -> the deployment to simulate
    config: Callable[[int], SystemConfig]
    #: simulated time (ns) at which the view-0 primary crashes
    crash_primary_at: Optional[int] = None
    #: gate the run on repro.flow's overload invariants
    check_flow: bool = False

    @property
    def faulty(self) -> Tuple[str, ...]:
        return ("r0",) if self.crash_primary_at is not None else ()

    def prepare(self, system: ResilientDBSystem) -> None:
        """Install the workload's fault schedule before the run."""
        if self.crash_primary_at is not None:
            system.crash_primary(at_ns=self.crash_primary_at)

    @property
    def outage_start(self) -> int:
        """Where ``model_outage_ms`` starts looking for completion gaps: the
        crash, or else the start of the run (a cold start's first reply)."""
        return self.crash_primary_at or 0


def _n16(seed: int, **overrides) -> SystemConfig:
    """The ROADMAP baseline deployment: 16 replicas, 2000 clients in 8
    groups, batch 100, 2000 records, fidelity off."""
    settings = dict(
        num_replicas=16,
        num_clients=2_000,
        client_groups=8,
        batch_size=100,
        ycsb_records=2_000,
        real_auth_tokens=False,
        apply_state=False,
        seed=seed,
    )
    settings.update(overrides)
    return SystemConfig(**settings)


def _pbft_n16(seed: int) -> SystemConfig:
    # spans on without retention, as `repro run` does by default
    return _n16(
        seed,
        warmup=millis(12),
        measure=millis(12),
        lifecycle_spans=True,
        span_keep_finished=0,
    )


def _rcc_m3(seed: int) -> SystemConfig:
    return _n16(
        seed,
        protocol="rcc",
        num_primaries=3,
        warmup=millis(6),
        measure=millis(6),
    )


def _overload_10x(seed: int) -> SystemConfig:
    """fig19's protected PBFT point at 10x offered load (48 -> 480 clients)."""
    return SystemConfig(
        num_replicas=4,
        num_clients=480,
        client_groups=4,
        batch_size=8,
        batch_threads=1,
        execute_threads=1,
        ycsb_records=1_000,
        real_auth_tokens=False,
        apply_state=False,
        queue_policy="reject",
        batch_queue_capacity=64,
        admission_max_inflight=12,
        client_retransmit=millis(4),
        client_window_initial=4,
        warmup=millis(20),
        measure=millis(40),
        seed=seed,
    )


def _primary_crash(seed: int) -> SystemConfig:
    """Full fidelity: real MAC tokens and state applied to the stores."""
    return SystemConfig(
        num_replicas=4,
        num_clients=200,
        client_groups=4,
        batch_size=10,
        ycsb_records=20_000,
        real_auth_tokens=True,
        apply_state=True,
        view_change_timeout=millis(12),
        client_retransmit=millis(25),
        warmup=millis(20),
        measure=millis(95),
        seed=seed,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pbft-n16",
            "the paper's headline deployment; quadratic all-to-all messages "
            "load sim, net and consensus, and the only workload where obs "
            "(spans) does work",
            1,
            _pbft_n16,
        ),
        Workload(
            "rcc-m3",
            "the same deployment with three RCC lanes: 3x the per-second load "
            "on client manager, execute stage and the RCC global sequence; "
            "the only workload that runs repro.multi",
            1,
            _rcc_m3,
        ),
        Workload(
            "overload-10x",
            "n=4, batch 8 at 10x offered load: per-request work dominates and "
            "flow control (shed, busy-NACK, backoff, retry) runs",
            11,
            _overload_10x,
            check_flow=True,
        ),
        Workload(
            "pbft-primary-crash",
            "full fidelity with the primary crashing at 30 ms: view change, "
            "retransmit rescue, real MACs (crypto) and applied state (storage)",
            1,
            _primary_crash,
            crash_primary_at=millis(30),
        ),
    )
}


def gate(workload: Workload, system: ResilientDBSystem, result) -> List[str]:
    """The correctness checks one repetition must pass; returns the
    problems found (empty when the repetition is correct)."""
    problems: List[str] = []
    try:
        system.validate_safety(faulty=workload.faulty)
    except (SafetyViolation, ChainViolation) as exc:
        problems.append(f"validate_safety: {exc}")
    if workload.check_flow:
        problems.extend(
            f"flow invariant: {p}" for p in check_flow_invariants(system)
        )
    if workload.crash_primary_at is not None:
        for rid, replica in system.replicas.items():
            if rid not in workload.faulty and replica.engine.view < 1:
                problems.append(f"{rid} is still in view {replica.engine.view}")
    if not result.throughput_txns_per_s > 0:
        problems.append("no goodput in the measured window")
    return problems
