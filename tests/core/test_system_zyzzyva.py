"""Full-system tests: Zyzzyva deployments, including the failure collapse."""

import pytest

from repro.core import ResilientDBSystem
from repro.sim.clock import millis


@pytest.fixture(scope="module")
def zyz_config(small_config):
    return small_config.with_options(
        protocol="zyzzyva", zyzzyva_client_timeout=millis(20)
    )


@pytest.fixture(scope="module")
def zyz_run(zyz_config):
    """``(system, result)`` of one healthy Zyzzyva run, shared by the tests
    that only inspect it."""
    system = ResilientDBSystem(zyz_config)
    return system, system.run()


@pytest.fixture(scope="module")
def crashed_zyz_run(zyz_config):
    """``(system, result)`` of one Zyzzyva run with one backup crashed."""
    system = ResilientDBSystem(zyz_config)
    system.crash_replicas(1)
    return system, system.run()


def test_fast_path_without_failures(zyz_run):
    _system, result = zyz_run
    assert result.completed_requests > 100
    # every request completed on the 3f+1 fast path
    assert result.slow_path_completions == 0
    assert result.fast_path_completions == result.completed_requests


def test_execution_order_consistent(zyz_run):
    system, _result = zyz_run
    assert system.validate_safety() > 10


def test_history_hashes_agree(zyz_run):
    system, _result = zyz_run
    lengths = {
        rid: len(replica.executed_log) for rid, replica in system.replicas.items()
    }
    # replicas at the same execution point share the same history hash
    by_length = {}
    for rid, replica in system.replicas.items():
        by_length.setdefault(lengths[rid], set()).add(replica.engine.exec_history_hash)
    for hashes in by_length.values():
        assert len(hashes) == 1


def test_one_crash_forces_slow_path(crashed_zyz_run):
    _system, result = crashed_zyz_run
    assert result.completed_requests > 0
    assert result.fast_path_completions == 0
    assert result.slow_path_completions == result.completed_requests
    # every completion waited out the client timer first
    assert result.latency_mean_s >= 0.020


def test_crash_collapse_vs_healthy(zyz_run, crashed_zyz_run):
    _system, healthy = zyz_run
    _crashed_system, degraded = crashed_zyz_run
    # Fig. 17: a single failure devastates Zyzzyva
    assert degraded.throughput_txns_per_s < healthy.throughput_txns_per_s / 2
    assert degraded.latency_mean_s > 2 * healthy.latency_mean_s


def test_pbft_unaffected_by_same_crash(small_config, small_pbft_run):
    _system, healthy = small_pbft_run
    crashed_system = ResilientDBSystem(small_config)
    crashed_system.crash_replicas(1)
    degraded = crashed_system.run()
    # Fig. 17: PBFT barely moves (no phase needs more than 2f+1 of 3f+1)
    assert degraded.throughput_txns_per_s > 0.8 * healthy.throughput_txns_per_s


def test_zyzzyva_matches_pbft_when_healthy(small_pbft_run, zyz_run):
    """Same pipeline, no failures: the single-phase protocol is at least
    as fast as the three-phase one."""
    _system, pbft = small_pbft_run
    _zyz_system, zyz = zyz_run
    assert zyz.throughput_txns_per_s >= 0.9 * pbft.throughput_txns_per_s


def test_fewer_protocol_messages_than_pbft(small_pbft_run, zyz_run):
    _system, pbft = small_pbft_run
    _zyz_system, zyz = zyz_run
    pbft_per_request = pbft.messages_sent / max(1, pbft.completed_requests)
    zyz_per_request = zyz.messages_sent / max(1, zyz.completed_requests)
    assert zyz_per_request < pbft_per_request
