"""Full-system tests for the PoE extension protocol."""

import pytest

from repro.core import ResilientDBSystem


@pytest.fixture(scope="module")
def poe_config(small_config):
    return small_config.with_options(protocol="poe")


@pytest.fixture(scope="module")
def poe_run(poe_config):
    """``(system, result)`` of one healthy PoE run, shared by the tests
    that only inspect it."""
    system = ResilientDBSystem(poe_config)
    return system, system.run()


def test_end_to_end_progress(poe_run):
    system, result = poe_run
    assert result.completed_requests > 100
    assert system.validate_safety() > 10


def test_clients_complete_on_commit_quorum(poe_run):
    """PoE clients need 2f+1 matching speculative responses, not 3f+1."""
    _system, result = poe_run
    assert result.fast_path_completions == result.completed_requests
    assert result.slow_path_completions == 0


def test_one_crash_does_not_collapse(poe_config, poe_run):
    _system, healthy = poe_run
    crashed_system = ResilientDBSystem(poe_config)
    crashed_system.crash_replicas(1)
    degraded = crashed_system.run()
    # unlike Zyzzyva, no timeout path: throughput stays in family
    assert degraded.throughput_txns_per_s > 0.8 * healthy.throughput_txns_per_s
    assert degraded.latency_mean_s < 2 * healthy.latency_mean_s


def test_blocks_synthesise_quorum_certificates(poe_run):
    system, _result = poe_run
    primary = system.replicas["r0"]
    primary.chain.validate()
    head = primary.chain.head()
    assert len(head.commit_certificate) >= system.quorum.commit_quorum
