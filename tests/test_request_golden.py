"""Golden pin of the per-op request path.

A seeded mixed workload of all five op kinds runs through the per-op
methods (``query``/``update``/``insert``/``delete``/``touch``) on an
IBM-4764-timed database with a memory journal.  The constants below were
recorded from the serial executor the engine used to carry before every
request became a one-op window; they pin, byte for byte, the full
adversary-visible trace including each access's virtual timestamp, the
final virtual clock, the logical content digest and every reply.  Any
change to the charge order, RNG consumption or relocation logic of a
single request shows up here.
"""

from __future__ import annotations

import hashlib
import random

from repro.core.journal import MemoryJournal
from repro.hardware.specs import IBM_4764

from tests.helpers import make_db

NUM_OPS = 72
NUM_REQUESTS = 70

TRACE_SHA256 = (
    "5311064384f4e9695821625f398120ebca456bd33f6935bfce9ffb83bd75b41b"
)
CLOCK_REPR = "1.4187153399999937"
CONTENT_SHA256 = (
    "b414eb988da7c7e1c4f5e13b19ac2715d4de9d47e2e918a9c5983c9317dba8e8"
)
REPLIES_SHA256 = (
    "480f24dc9b6cfd01fbd1f5626cea7dc316ba5d31018bd5a4e30a65814d7f371b"
)


def _workload(db, rng):
    """Run NUM_OPS seeded ops of all five kinds; return each reply's repr."""
    num_pages = db.num_pages
    replies = []
    deleted = []
    for index in range(NUM_OPS):
        kind = ("query", "update", "insert", "delete", "touch")[index % 5]
        if rng.random() < 0.5:
            kind = rng.choice(("query", "query", "update", "delete", "insert"))
        page_id = rng.randrange(num_pages)
        if kind in ("query", "delete") and deleted and rng.random() < 0.25:
            page_id = deleted[-1]
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 17)))
        try:
            if kind == "query":
                reply = db.query(page_id)
            elif kind == "update":
                reply = db.update(page_id, payload)
            elif kind == "insert":
                reply = db.insert(payload)
            elif kind == "delete":
                reply = db.delete(page_id)
                deleted.append(page_id)
            else:
                reply = db.touch()
        except Exception as exc:  # noqa: BLE001 - refusals are replies too
            reply = f"{type(exc).__name__}: {exc}"
        replies.append(f"{kind}:{reply!r}")
    return replies


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_golden():
    db = make_db(num_records=40, cache_capacity=6, reserve_fraction=0.25,
                 seed=4242, spec=IBM_4764, journal=MemoryJournal())
    replies = _workload(db, random.Random(20110829))
    db.consistency_check()
    trace = [
        f"{e.op},{e.location},{e.count},{e.request_index},{e.timestamp!r}"
        for e in db.trace
    ]
    return {
        "trace": _sha256(trace),
        "clock": repr(db.clock.now),
        "content": db.content_digest().hex(),
        "replies": _sha256(replies),
        "requests": db.engine.request_count,
    }


def test_per_op_path_matches_golden_pin():
    got = run_golden()
    assert got["requests"] == NUM_REQUESTS
    assert got["replies"] == REPLIES_SHA256
    assert got["content"] == CONTENT_SHA256
    assert got["clock"] == CLOCK_REPR
    assert got["trace"] == TRACE_SHA256
