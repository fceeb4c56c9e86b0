"""Unit tests for the reloading CatalogStore."""

import dataclasses
import hashlib
import os
import threading
import types

import pytest

import repro.catalog.store as store_module
from repro.catalog import CatalogStore, SystemCatalog
from repro.catalog.store import CatalogIO
from repro.errors import CatalogError
from repro.perf.serving import FULL_CATALOG_BREADTH, provision_tenants
from repro.resilience import ResilientCatalogStore

from tests.unit.test_catalog import _stats


def _write(path, *records):
    catalog = SystemCatalog()
    for stats in records:
        catalog.put(stats)
    catalog.save(path)
    return catalog


def _touch(path, offset_ns):
    """Give ``path`` a distinct mtime without sleeping."""
    info = os.stat(path)
    os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns + offset_ns))


class TestCatalogStore:
    def test_missing_file_is_actionable(self, tmp_path):
        store = CatalogStore(tmp_path / "none.json")
        with pytest.raises(CatalogError) as exc_info:
            store.catalog()
        assert "repro fit" in str(exc_info.value)

    def test_serves_records(self, tmp_path):
        path = tmp_path / "catalog.json"
        _write(path, _stats("t.a"), _stats("t.b"))
        store = CatalogStore(path)
        assert store.get("t.a").index_name == "t.a"
        assert "t.b" in store
        assert sorted(store) == ["t.a", "t.b"]
        assert len(store) == 2

    def test_same_file_same_snapshot_object(self, tmp_path):
        path = tmp_path / "catalog.json"
        _write(path, _stats())
        store = CatalogStore(path)
        first = store.catalog()
        assert store.catalog() is first
        assert store.generation == 1

    def test_reloads_on_change(self, tmp_path):
        path = tmp_path / "catalog.json"
        _write(path, _stats("t.a"))
        store = CatalogStore(path)
        assert "t.b" not in store
        generation = store.generation
        _write(path, _stats("t.a"), _stats("t.b"))
        _touch(path, 5_000_000)
        assert "t.b" in store
        assert store.generation > generation

    def test_unchanged_file_does_not_bump_generation(self, tmp_path):
        path = tmp_path / "catalog.json"
        _write(path, _stats())
        store = CatalogStore(path)
        store.catalog()
        generation = store.generation
        for _ in range(3):
            store.catalog()
        assert store.generation == generation

    def test_invalidate_forces_reparse(self, tmp_path):
        path = tmp_path / "catalog.json"
        _write(path, _stats())
        store = CatalogStore(path)
        first = store.catalog()
        store.invalidate()
        assert store.catalog() is not first

    def test_snapshot_cache_is_bounded(self, tmp_path):
        path = tmp_path / "catalog.json"
        store = CatalogStore(path, cache_size=2)
        for i in range(4):
            _write(path, _stats(f"t.{i}"))
            _touch(path, (i + 1) * 5_000_000)
            store.catalog()
        assert len(store._snapshots) <= 2

    def test_save_round_trips_through_store(self, tmp_path):
        path = tmp_path / "catalog.json"
        store = CatalogStore(path)
        catalog = SystemCatalog()
        catalog.put(_stats("t.new"))
        store.save(catalog)
        assert store.get("t.new").index_name == "t.new"

    def test_bad_cache_size(self, tmp_path):
        with pytest.raises(CatalogError):
            CatalogStore(tmp_path / "c.json", cache_size=0)

    def test_same_size_rewrite_with_same_mtime_is_detected(self, tmp_path):
        # Regression: the old (mtime, size, inode) stamp could not see a
        # rewrite that preserved the file size and landed within mtime
        # granularity (or had its mtime restored).  The content stamp must.
        path = tmp_path / "catalog.json"
        _write(path, _stats("t.a"))
        store = CatalogStore(path)
        assert "t.a" in store
        generation = store.generation
        info = os.stat(path)

        # Same-length rewrite ("t.a" -> "t.b"), then restore the mtime so
        # every stat-based field matches the snapshot the store cached.
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("t.a", "t.b"), encoding="utf-8")
        os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns))
        after = os.stat(path)
        assert after.st_size == info.st_size
        assert after.st_mtime_ns == info.st_mtime_ns

        assert "t.b" in store
        assert "t.a" not in store
        assert store.generation > generation


# ----------------------------------------------------------------------
# Unchanged-file checks at serving scale
# ----------------------------------------------------------------------
STORES = (CatalogStore, ResilientCatalogStore)


@pytest.fixture(scope="module")
def tenant_catalog(tmp_path_factory):
    """One tenant catalog of the serving benchmark's shape: 96 records,
    about 83 KB — the size at which hashing every read showed up."""
    root = tmp_path_factory.mktemp("tenants")
    tenants = provision_tenants(
        root, tenant_count=1, records=3_000,
        catalog_breadth=FULL_CATALOG_BREADTH,
    )
    path = tenants.catalog_path("tenant-0")
    assert os.path.getsize(path) > 80_000
    return SystemCatalog.load(path)


def _renamed(catalog, old, new):
    """``catalog`` with record ``old`` renamed to ``new``."""
    renamed = SystemCatalog()
    for name in catalog:
        stats = catalog.get(name)
        if name == old:
            stats = dataclasses.replace(stats, index_name=new)
        renamed.put(stats)
    return renamed


def _same_size_versions(catalog):
    """Two catalogs whose files differ in content but not in size."""
    cold = sorted(name for name in catalog if name.endswith(".cold0"))[0]
    other = _renamed(catalog, cold, cold[:-1] + "x")
    assert len(catalog.to_json()) == len(other.to_json())
    assert catalog.to_json() != other.to_json()
    return catalog, other


class _CountingIO(CatalogIO):
    def __init__(self):
        self.reads = 0

    def read_bytes(self, path):
        self.reads += 1
        return super().read_bytes(path)


@pytest.fixture
def counters(monkeypatch):
    """Count SHA-256 digests taken by the store module and parses."""
    counts = {"digests": 0, "parses": 0}

    def sha256(data=b""):
        counts["digests"] += 1
        return hashlib.sha256(data)

    monkeypatch.setattr(
        store_module, "hashlib", types.SimpleNamespace(sha256=sha256)
    )
    parse = SystemCatalog.from_json.__func__

    def from_json(cls, text):
        counts["parses"] += 1
        return parse(cls, text)

    monkeypatch.setattr(SystemCatalog, "from_json", classmethod(from_json))
    return counts


@pytest.mark.parametrize("store_class", STORES)
def test_unchanged_file_costs_one_read_and_no_digest(
    tmp_path, tenant_catalog, counters, store_class
):
    path = tmp_path / "catalog.json"
    tenant_catalog.save(path)
    io = _CountingIO()
    store = store_class(path, io=io)
    first = store.catalog()
    assert (io.reads, counters["digests"], counters["parses"]) == (1, 1, 1)
    generation = store.generation

    for _ in range(100):
        assert store.catalog() is first
    assert io.reads == 101
    assert counters["digests"] == 1
    assert counters["parses"] == 1
    assert store.generation == generation
    if store_class is ResilientCatalogStore:
        assert store.metrics()["reads"] == 101

    _, other = _same_size_versions(tenant_catalog)
    store.save(other)
    served = store.catalog()
    assert served.to_json() == other.to_json()
    assert store.generation == generation + 1
    assert counters["digests"] == 2
    assert counters["parses"] == 2


@pytest.mark.parametrize("store_class", STORES)
def test_readers_see_only_whole_versions_while_a_writer_flips(
    tmp_path, tenant_catalog, store_class
):
    versions = _same_size_versions(tenant_catalog)
    texts = {catalog.to_json() for catalog in versions}
    path = tmp_path / "catalog.json"
    versions[0].save(path)
    store = store_class(path)
    store.catalog()
    stop = threading.Event()
    seen = {}
    errors = []

    def read():
        try:
            while not stop.is_set():
                snapshot = store.catalog()
                seen.setdefault(id(snapshot), snapshot)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    readers = [threading.Thread(target=read) for _ in range(4)]
    for thread in readers:
        thread.start()
    try:
        for flip in range(40):
            store.save(versions[flip % 2])
    finally:
        stop.set()
        for thread in readers:
            thread.join()

    assert errors == []
    assert {snapshot.to_json() for snapshot in seen.values()} <= texts
    assert store.catalog().to_json() == versions[1].to_json()
