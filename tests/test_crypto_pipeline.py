"""Keystream prefetch pipeline: determinism, hit accounting, lifecycle.

The load-bearing property is that enabling the pipeline — sync or
background — changes *nothing* observable except wall time: payloads,
disk frames, virtual clock and RNG streams must be byte/tick-identical
to a run without it.  The hit/miss counters themselves are deterministic
too (one expected miss per request: the unpredictable (k+1)-th frame).
"""

import pytest

from repro.core.database import PirDatabase
from repro.crypto.pipeline import KeystreamPipeline
from repro.crypto.rng import SecureRandom
from repro.crypto.suite import CipherSuite
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry

RECORDS = [f"page-{i:03d}".encode() * 3 for i in range(48)]
K = 8  # block size → expected steady-state hit rate k/(k+1)


def _make_db(pipeline, metrics=None, backend="aes", journal=None):
    return PirDatabase.create(
        RECORDS,
        cache_capacity=4,
        block_size=K,
        page_capacity=48,
        seed=1234,
        cipher_backend=backend,
        keystream_pipeline=pipeline,
        metrics=metrics,
        journal=journal,
    )


def _run_workload(db, queries=30):
    payloads = [db.query(i % len(RECORDS)) for i in range(queries)]
    frames = [db.disk.peek(loc) for loc in range(db.disk.num_locations)]
    return payloads, frames, db.clock.now


# -- unit behaviour ----------------------------------------------------------


def test_pipeline_take_consumes_entry():
    suite = CipherSuite(b"unit-key", backend="aes", rng=SecureRandom(3))
    pipe = KeystreamPipeline()
    nonce = bytes(12)
    pipe.note_written(0, suite, nonce)
    assert pipe.prefetch([0], 64) == 64
    expected = suite.compute_keystream(nonce, 64)
    assert pipe.take(suite, nonce, 64) == expected
    # consumed: the second take for the same entry is a miss
    assert pipe.take(suite, nonce, 64) is None
    assert pipe.counters.get("hit") == 1
    assert pipe.counters.get("miss") == 1


def test_pipeline_unknown_location_and_foreign_suite_miss():
    suite = CipherSuite(b"unit-key", backend="aes", rng=SecureRandom(3))
    other = CipherSuite(b"other-key", backend="aes", rng=SecureRandom(4))
    pipe = KeystreamPipeline()
    assert pipe.prefetch([5], 64) == 0  # nonce never recorded
    pipe.note_written(0, suite, bytes(12))
    pipe.prefetch([0], 64)
    # Entries are keyed by suite identity: another suite cannot consume them.
    assert pipe.take(other, bytes(12), 64) is None
    assert pipe.take(suite, bytes(12), 64) is not None


def test_pipeline_memory_bound_evicts_oldest():
    suite = CipherSuite(b"unit-key", backend="aes", rng=SecureRandom(3))
    pipe = KeystreamPipeline(max_bytes=3 * 64)
    for loc in range(5):
        pipe.note_written(loc, suite, loc.to_bytes(12, "big"))
    pipe.prefetch(range(5), 64)
    assert pipe.cached_bytes <= 3 * 64
    assert pipe.counters.get("evicted") == 2
    # Oldest entries went first; the newest survives.
    assert pipe.take(suite, (4).to_bytes(12, "big"), 64) is not None
    assert pipe.take(suite, (0).to_bytes(12, "big"), 64) is None


def test_pipeline_rejects_nonpositive_bound():
    with pytest.raises(ConfigurationError):
        KeystreamPipeline(max_bytes=0)


def test_pipeline_close_idempotent_and_inert():
    pipe = KeystreamPipeline(background=True)
    pipe.close()
    pipe.close()
    suite = CipherSuite(b"unit-key", backend="aes", rng=SecureRandom(3))
    pipe.note_written(0, suite, bytes(12))
    assert pipe.prefetch([0], 64) == 0  # closed: nothing scheduled


def test_database_rejects_unknown_pipeline_mode():
    with pytest.raises(ConfigurationError):
        _make_db("eager")


# -- determinism at the database level ---------------------------------------


@pytest.mark.parametrize("mode", ["sync", "background"])
def test_pipeline_is_byte_identical_to_disabled(mode):
    db_off = _make_db(None)
    base = _run_workload(db_off)
    with _make_db(mode) as db_on:
        assert db_on.cop.pipeline is not None
        result = _run_workload(db_on)
        db_on.consistency_check()
    assert result == base


def test_pipeline_hit_rate_and_counters():
    metrics = MetricsRegistry()
    with _make_db("sync", metrics=metrics) as db:
        queries = 40
        _run_workload(db, queries)
        counters = db.cop.pipeline.counters
        # Every request hits for the k scheduled block frames and misses
        # exactly once, on the unpredictable (k+1)-th frame.
        assert counters.get("hit") == queries * K
        assert counters.get("miss") == queries
        assert db.cop.pipeline.hit_rate() == pytest.approx(K / (K + 1))
        # The shared registry reads them under the pipeline prefix.
        assert metrics.count("pipeline.hit") == queries * K


def test_pipeline_survives_key_rotation_byte_identically():
    def rotate_workload(db):
        out = [db.query(i) for i in range(10)]
        db.rotate_master_key(b"fresh-key")
        out += [db.query(i % len(RECORDS)) for i in range(db.params.scan_period + 4)]
        assert db.engine.rotation_requests_remaining is None  # completed
        frames = [db.disk.peek(loc) for loc in range(db.disk.num_locations)]
        return out, frames, db.clock.now

    base = rotate_workload(_make_db(None))
    with _make_db("sync") as db:
        assert rotate_workload(db) == base
        # Post-rotation steady state keeps hitting (new-key entries).
        hits_before = db.cop.pipeline.counters.get("hit")
        db.query(0)
        assert db.cop.pipeline.counters.get("hit") == hits_before + K
        # consistency_check decrypts every location; it consumes any
        # prefetched entries (benign) but must still pass with them live.
        db.consistency_check()


def test_pipeline_with_journal_and_writes_byte_identical():
    def workload(db):
        db.update(3, b"updated!")
        db.delete(7)
        new_id = db.insert(b"fresh page")
        out = [db.query(i % len(RECORDS)) for i in range(12) if i != 7]
        out.append(db.query(new_id))
        frames = [db.disk.peek(loc) for loc in range(db.disk.num_locations)]
        return out, frames, db.clock.now

    from repro.core.journal import MemoryJournal

    base = workload(_make_db(None, journal=MemoryJournal()))
    with _make_db("sync", journal=MemoryJournal()) as db:
        assert workload(db) == base


def test_pipeline_noop_on_null_backend():
    with _make_db("sync", backend="null") as db:
        _run_workload(db, 10)
        counters = db.cop.pipeline.counters.as_dict()
        # Nothing to cache and the decrypt path never consults: all zero.
        assert counters.get("hit", 0) == 0
        assert counters.get("miss", 0) == 0
        assert counters.get("prefetched", 0) == 0


def test_pipeline_blake2_backend_hits_too():
    with _make_db("sync", backend="blake2") as db:
        queries = 20
        base_off = _make_db(None, backend="blake2")
        assert _run_workload(db, queries) == _run_workload(base_off, queries)
        assert db.cop.pipeline.counters.get("hit") == queries * K
