"""Full-system tests: Zyzzyva deployments, including the failure collapse."""

import pytest

from repro.core import ResilientDBSystem
from repro.sim.clock import millis


@pytest.fixture
def zyz_config(small_config):
    return small_config.with_options(
        protocol="zyzzyva", zyzzyva_client_timeout=millis(20)
    )


def test_fast_path_without_failures(zyz_config):
    system = ResilientDBSystem(zyz_config)
    result = system.run()
    assert result.completed_requests > 100
    # every request completed on the 3f+1 fast path
    assert result.slow_path_completions == 0
    assert result.fast_path_completions == result.completed_requests


def test_execution_order_consistent(zyz_config):
    system = ResilientDBSystem(zyz_config)
    system.run()
    assert system.validate_safety() > 10


def test_history_hashes_agree(zyz_config):
    system = ResilientDBSystem(zyz_config)
    system.run()
    lengths = {
        rid: len(replica.executed_log) for rid, replica in system.replicas.items()
    }
    # replicas at the same execution point share the same history hash
    by_length = {}
    for rid, replica in system.replicas.items():
        by_length.setdefault(lengths[rid], set()).add(replica.engine.exec_history_hash)
    for hashes in by_length.values():
        assert len(hashes) == 1


def test_one_crash_forces_slow_path(zyz_config):
    system = ResilientDBSystem(zyz_config)
    system.crash_replicas(1)
    result = system.run()
    assert result.completed_requests > 0
    assert result.fast_path_completions == 0
    assert result.slow_path_completions == result.completed_requests
    # every completion waited out the client timer first
    assert result.latency_mean_s >= 0.020


def test_crash_collapse_vs_healthy(zyz_config):
    healthy = ResilientDBSystem(zyz_config).run()
    crashed_system = ResilientDBSystem(zyz_config)
    crashed_system.crash_replicas(1)
    degraded = crashed_system.run()
    # Fig. 17: a single failure devastates Zyzzyva
    assert degraded.throughput_txns_per_s < healthy.throughput_txns_per_s / 2
    assert degraded.latency_mean_s > 2 * healthy.latency_mean_s


def test_pbft_unaffected_by_same_crash(small_config):
    healthy = ResilientDBSystem(small_config).run()
    crashed_system = ResilientDBSystem(small_config)
    crashed_system.crash_replicas(1)
    degraded = crashed_system.run()
    # Fig. 17: PBFT barely moves (no phase needs more than 2f+1 of 3f+1)
    assert degraded.throughput_txns_per_s > 0.8 * healthy.throughput_txns_per_s


def test_zyzzyva_matches_pbft_when_healthy(small_config, zyz_config):
    """Same pipeline, no failures: the single-phase protocol is at least
    as fast as the three-phase one."""
    pbft = ResilientDBSystem(small_config).run()
    zyz = ResilientDBSystem(zyz_config).run()
    assert zyz.throughput_txns_per_s >= 0.9 * pbft.throughput_txns_per_s


def test_fewer_protocol_messages_than_pbft(small_config, zyz_config):
    pbft_system = ResilientDBSystem(small_config)
    pbft = pbft_system.run()
    zyz_system = ResilientDBSystem(zyz_config)
    zyz = zyz_system.run()
    pbft_per_request = pbft.messages_sent / max(1, pbft.completed_requests)
    zyz_per_request = zyz.messages_sent / max(1, zyz.completed_requests)
    assert zyz_per_request < pbft_per_request
