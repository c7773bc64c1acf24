"""Tests for the in-memory and SQLite record stores."""

import pytest

from repro.storage import InMemoryKVStore, SqliteKVStore, StorageCosts


@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    if request.param == "memory":
        yield InMemoryKVStore()
    else:
        sql_store = SqliteKVStore()
        yield sql_store
        sql_store.close()


def test_read_missing_returns_none(store):
    value, cost = store.read("nope")
    assert value is None
    assert cost > 0


def test_write_then_read(store):
    store.write("user1", "alice")
    value, _ = store.read("user1")
    assert value == "alice"


def test_overwrite(store):
    store.write("k", "v1")
    store.write("k", "v2")
    value, _ = store.read("k")
    assert value == "v2"
    assert store.size() == 1


def test_preload_and_size(store):
    store.preload({f"key{i}": f"value{i}" for i in range(100)})
    assert store.size() == 100
    value, _ = store.read("key42")
    assert value == "value42"


def test_snapshot_and_restore_replace_every_record(store):
    store.preload({"a": "1", "b": "2"})
    snapshot = store.snapshot()
    assert snapshot == {"a": "1", "b": "2"}
    store.write("a", "changed")
    assert snapshot["a"] == "1"  # a copy, not a view
    store.restore({"b": "3", "c": "4"})
    assert store.snapshot() == {"b": "3", "c": "4"}
    assert store.read("a")[0] is None


def test_access_counters(store):
    store.write("a", "1")
    store.read("a")
    store.read("b")
    assert store.writes == 1
    assert store.reads == 2


def test_cost_gap_reproduces_off_memory_penalty():
    """The Fig. 14 premise: SQLite access is orders of magnitude dearer."""
    costs = StorageCosts()
    memory = InMemoryKVStore(costs)
    sqlite = SqliteKVStore(costs)
    try:
        _, memory_read = memory.read("k")
        memory_write = memory.write("k", "v")
        _, sqlite_read = sqlite.read("k")
        sqlite_write = sqlite.write("k", "v")
    finally:
        sqlite.close()
    assert sqlite_read > 100 * memory_read
    assert sqlite_write > 100 * memory_write


def test_sqlite_persists_to_disk(tmp_path):
    path = str(tmp_path / "chain.db")
    store = SqliteKVStore(path=path)
    store.write("durable", "yes")
    store.close()
    reopened = SqliteKVStore(path=path)
    try:
        value, _ = reopened.read("durable")
        assert value == "yes"
    finally:
        reopened.close()
