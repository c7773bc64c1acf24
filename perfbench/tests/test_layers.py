"""Layer attribution on a toy call tree."""

import pytest

from perfbench.layers import LAYERS, OTHER, attribute_self_time, call_counts

PKG = "/x/src/repro"
HARNESS = "/x/perfbench"

MAIN = (f"{HARNESS}/repetition.py", 1, "repetition")
RUN = (f"{PKG}/sim/kernel.py", 60, "run")
SCHEDULE = (f"{PKG}/sim/kernel.py", 40, "schedule")
HANDLE = (f"{PKG}/consensus/pbft.py", 10, "handle_prepare")
SEND = (f"{PKG}/net/transport.py", 5, "send")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
HMAC_NEW = ("/usr/lib/python3/hmac.py", 1, "new")
DIGEST = ("~", 0, "<built-in method _hashlib.openssl_sha256>")
LEN = ("~", 0, "<built-in method builtins.len>")
CLI = (f"{PKG}/cli.py", 3, "main")


def entry(calls, self_s, cum_s, callers):
    """pstats row: (primitive calls, calls, self, cumulative, callers) where
    each caller edge is (calls, primitive calls, self, cumulative)."""
    return (calls, calls, self_s, cum_s, callers)


STATS = {
    MAIN: entry(1, 0.5, 10.0, {}),
    RUN: entry(1, 2.0, 9.0, {MAIN: (1, 1, 2.0, 9.0)}),
    SCHEDULE: entry(100, 1.0, 2.0, {RUN: (60, 60, 0.6, 1.2), HANDLE: (40, 40, 0.4, 0.8)}),
    HANDLE: entry(20, 1.5, 4.0, {RUN: (20, 20, 1.5, 4.0)}),
    SEND: entry(10, 0.5, 1.0, {HANDLE: (10, 10, 0.5, 1.0)}),
    # a builtin called from two layers: split by the per-edge self time
    HEAPPUSH: entry(100, 1.0, 1.0, {SCHEDULE: (100, 100, 1.0, 1.0)}),
    LEN: entry(30, 0.4, 0.4, {RUN: (10, 10, 0.1, 0.1), SEND: (20, 20, 0.3, 0.3)}),
    # library code called by the consensus handler, itself calling a builtin
    HMAC_NEW: entry(5, 0.2, 0.9, {HANDLE: (5, 5, 0.2, 0.9)}),
    DIGEST: entry(5, 0.7, 0.7, {HMAC_NEW: (5, 5, 0.7, 0.7)}),
    # repro modules outside the layers, and the harness, go to "other"
    CLI: entry(1, 0.3, 0.3, {MAIN: (1, 1, 0.3, 0.3)}),
}


def test_toy_call_tree_attribution():
    layers = attribute_self_time(STATS, PKG, HARNESS)
    assert set(layers) == set(LAYERS) | {OTHER}
    assert layers["sim"] == pytest.approx(2.0 + 1.0 + 1.0 + 0.1)
    assert layers["consensus"] == pytest.approx(1.5 + 0.2 + 0.7)
    assert layers["net"] == pytest.approx(0.5 + 0.3)
    assert layers[OTHER] == pytest.approx(0.5 + 0.3)
    assert layers["multi"] == 0.0
    # nothing is lost or counted twice
    assert sum(layers.values()) == pytest.approx(sum(row[2] for row in STATS.values()))


def test_library_time_splits_over_callers_by_cumulative_time():
    shared = ("/usr/lib/python3/json/encoder.py", 1, "encode")
    stats = {
        MAIN: entry(1, 0.0, 4.0, {}),
        SEND: entry(1, 0.0, 1.0, {MAIN: (1, 1, 0.0, 1.0)}),
        HANDLE: entry(1, 0.0, 3.0, {MAIN: (1, 1, 0.0, 3.0)}),
        shared: entry(2, 0.0, 4.0, {SEND: (1, 1, 0.0, 1.0), HANDLE: (1, 1, 0.0, 3.0)}),
        LEN: entry(2, 4.0, 4.0, {shared: (2, 2, 4.0, 4.0)}),
    }
    layers = attribute_self_time(stats, PKG, HARNESS)
    assert layers["net"] == pytest.approx(1.0)
    assert layers["consensus"] == pytest.approx(3.0)


def test_call_counts_match_named_functions():
    counts = call_counts(STATS, PKG)
    assert counts["sim.events"] == 100
    assert counts["consensus.handler_calls"] == 20
    assert counts["multi.handler_calls"] == 0
