"""Golden digests: byte-identical modelled behaviour on small deployments.

Each scenario runs a 4-replica deployment and hashes every field of its
``ExperimentResult`` together with every replica's executed log.  The
expected values pin the simulator's behaviour: a refactor that claims to
change no modelled result must leave every digest unchanged.  A change
that moves a result on purpose updates the digest here and says why.

The scenarios cover each protocol-specific path of the replica host:
PBFT, Zyzzyva's fast and slow (certificate) paths, PoE with client
retransmits, RCC lanes with and without a failed lane primary, a PBFT
primary crash, and overload protection under PBFT and RCC.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import ResilientDBSystem, SystemConfig
from repro.sim.clock import millis


def _config(**overrides) -> SystemConfig:
    settings = dict(
        num_replicas=4,
        num_clients=48,
        client_groups=4,
        batch_size=8,
        ycsb_records=200,
        warmup=millis(10),
        measure=millis(20),
    )
    settings.update(overrides)
    return SystemConfig(**settings)


def _overload(**overrides) -> SystemConfig:
    settings = dict(
        num_clients=192,
        batch_threads=1,
        queue_policy="reject",
        batch_queue_capacity=32,
        admission_max_inflight=8,
        admission_max_per_client=16,
        client_retransmit=millis(5),
    )
    settings.update(overrides)
    return _config(**settings)


def _crash(replica_id: str, at_ms: int):
    def prepare(system):
        system.faults.crash_at(replica_id, millis(at_ms))

    return prepare


#: name -> (config, fault schedule installed before the run, or None)
SCENARIOS = {
    "pbft": (_config(), None),
    "zyzzyva": (_config(protocol="zyzzyva"), None),
    "zyzzyva-crashed-backup": (
        _config(protocol="zyzzyva", zyzzyva_client_timeout=millis(3)),
        _crash("r3", 0),
    ),
    "poe-retransmit": (
        _config(protocol="poe", client_retransmit=millis(1)),
        None,
    ),
    "rcc-m2": (_config(protocol="rcc", num_primaries=2), None),
    "rcc-m2-lane-crash": (
        _config(
            protocol="rcc",
            num_primaries=2,
            view_change_timeout=millis(6),
            client_retransmit=millis(8),
            measure=millis(40),
        ),
        _crash("r1", 15),
    ),
    "pbft-primary-crash": (
        _config(
            view_change_timeout=millis(6),
            client_retransmit=millis(8),
            measure=millis(40),
        ),
        _crash("r0", 15),
    ),
    "pbft-overload": (_overload(), None),
    "rcc-overload": (
        _overload(
            protocol="rcc",
            num_primaries=2,
            admission_max_inflight=4,
            admission_max_per_client=None,
        ),
        None,
    ),
}

GOLDEN = {
    "pbft": "59ee3a3414bacbc3",
    "zyzzyva": "3d95f36a5dd608ec",
    "zyzzyva-crashed-backup": "5f92b3bc939c706f",
    "poe-retransmit": "9295c79c1e324ebf",
    "rcc-m2": "f8478b89728a4458",
    "rcc-m2-lane-crash": "6e66d7310e0ccfce",
    "pbft-primary-crash": "e5d0ff84204bde3d",
    "pbft-overload": "503cc24e684c9f0f",
    "rcc-overload": "36b09aa3a13ab0d8",
}


def run_digest(name: str):
    config, prepare = SCENARIOS[name]
    system = ResilientDBSystem(config)
    if prepare is not None:
        prepare(system)
    result = system.run()
    payload = {
        "result": dataclasses.asdict(result),
        "executed_logs": {
            rid: list(replica.executed_log)
            for rid, replica in sorted(system.replicas.items())
        },
    }
    encoded = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return system, result, hashlib.sha256(encoded).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digest(name):
    system, result, digest = run_digest(name)
    assert result.completed_requests > 0
    assert digest == GOLDEN[name]
