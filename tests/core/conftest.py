"""Shared fixtures for full-system tests: small, fast deployments."""

import pytest

from repro.core import ResilientDBSystem, SystemConfig
from repro.sim.clock import millis


@pytest.fixture(scope="session")
def small_config():
    """A fast 4-replica deployment used by most system tests (frozen, so
    one instance serves every test)."""
    return SystemConfig(
        num_replicas=4,
        num_clients=64,
        client_groups=4,
        batch_size=8,
        ycsb_records=500,
        warmup=millis(50),
        measure=millis(100),
    )


@pytest.fixture(scope="session")
def small_pbft_run(small_config):
    """``(system, result)`` of one healthy PBFT run of ``small_config``.

    Runs are deterministic, so every test that only inspects a healthy
    ``small_config`` run reads this one instead of repeating it; such tests
    must not mutate the system.
    """
    system = ResilientDBSystem(small_config)
    result = system.run()
    yield system, result
    system.close()
