"""Graceful degradation: refusal codes, health state machine, client retry.

Satellite guarantee: *every* :class:`~repro.errors.ReproError` subclass —
including ones defined after this test was written — maps through
:func:`repro.service.health.classify` and the frontend to a deterministic,
machine-readable ``Refused`` code.
"""

from __future__ import annotations

import pytest

import repro.errors as errors_module
from repro.errors import (
    AuthenticationError,
    CapacityError,
    ConfigurationError,
    CryptoError,
    DegradedServiceError,
    PageDeletedError,
    PageNotFoundError,
    ProtocolError,
    RecoveryError,
    ReproError,
    StorageError,
    TransientChannelError,
    TransientStorageError,
)
from repro.core.journal import MemoryJournal
from repro.errors import IndexError_
from repro.faults import (
    FaultInjector,
    FaultyDiskStore,
    FlakyChannel,
    drop_messages,
    duplicate_messages,
    transient_writes,
)
from repro.faults.retry import RetryPolicy
from repro.service import (
    DEGRADED,
    FAILED,
    HEALTHY,
    HealthMonitor,
    QueryFrontend,
    ServiceClient,
    classify,
    error_for_refusal,
    protocol,
)
from repro.storage.disk import DiskStore

from tests.helpers import make_db


def all_repro_error_classes():
    """Every ReproError subclass, discovered recursively."""
    found = []
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda c: c.__name__)


def make_frontend(**db_options):
    db = make_db(num_records=20, cache_capacity=6, seed=5, **db_options)
    return QueryFrontend(db)


def serve_query(frontend, session_id, page_id=1):
    suite = frontend.session_suite(session_id)
    sealed = suite.encrypt_page(
        protocol.encode_client_message(protocol.Query(page_id))
    )
    sealed_reply = frontend.serve(session_id, sealed)
    return protocol.decode_client_message(suite.decrypt_page(sealed_reply))


class TestClassify:
    EXPECTED_CODES = {
        PageDeletedError: ("deleted", False),
        PageNotFoundError: ("not-found", False),
        TransientStorageError: ("transient-storage", True),
        StorageError: ("storage", False),
        AuthenticationError: ("auth-failure", False),
        CryptoError: ("crypto", False),
        TransientChannelError: ("transient-channel", True),
        ProtocolError: ("protocol", False),
        ConfigurationError: ("bad-request", False),
        CapacityError: ("capacity", False),
        RecoveryError: ("recovery-failed", False),
        DegradedServiceError: ("unavailable", True),
        ReproError: ("internal", False),
    }

    def test_expected_codes(self):
        for cls, (code, retryable) in self.EXPECTED_CODES.items():
            refusal = classify(cls("boom"))
            assert refusal.code == code, cls.__name__
            assert refusal.retryable == retryable, cls.__name__

    def test_every_repro_error_subclass_has_a_code(self):
        for cls in all_repro_error_classes():
            refusal = classify(cls("boom"))
            assert refusal.code, f"{cls.__name__} classified without a code"
            assert refusal.severity in ("client", "fault", "fatal")

    def test_unknown_subclass_inherits_parent_code(self):
        class BitRotError(StorageError):
            pass

        assert classify(BitRotError("x")).code == "storage"

    def test_foreign_exception_maps_to_internal(self):
        assert classify(ValueError("x")).code == "internal"

    def test_classification_is_deterministic(self):
        codes = [classify(cls("e")).code for cls in all_repro_error_classes()]
        assert codes == [
            classify(cls("e")).code for cls in all_repro_error_classes()
        ]


class TestRefusedWireFormat:
    def test_extended_roundtrip(self):
        refused = protocol.Refused("storage fault", "transient-storage", 0.25)
        blob = protocol.encode_client_message(refused)
        assert protocol.decode_client_message(blob) == refused

    def test_retryable_property(self):
        assert protocol.Refused("r", "c", 0.0).retryable
        assert protocol.Refused("r", "c", 1.5).retryable
        assert not protocol.Refused("r", "c", -1.0).retryable

    def test_default_refusal_is_non_retryable(self):
        refused = protocol.Refused("nope")
        assert refused.code == ""
        assert not refused.retryable


class TestFrontendRefusalCodes:
    def _refusal_code_for(self, exc):
        frontend = make_frontend()
        session = frontend.open_session()

        def boom(page_id):
            raise exc

        frontend.database.query = boom
        reply = serve_query(frontend, session)
        assert isinstance(reply, protocol.Refused)
        return reply

    def test_every_subclass_yields_its_classified_code(self):
        for cls in all_repro_error_classes():
            reply = self._refusal_code_for(cls("kaboom"))
            expected = classify(cls("kaboom"))
            assert reply.code == expected.code, cls.__name__
            assert reply.retryable == expected.retryable, cls.__name__
            assert cls.__name__ in reply.reason

    def test_client_errors_do_not_hurt_health(self):
        frontend = make_frontend()
        session = frontend.open_session()
        for _ in range(10):
            reply = serve_query(frontend, session, page_id=10_000)
            assert isinstance(reply, protocol.Refused)
            assert reply.code == "not-found"
        assert frontend.health.state == HEALTHY

    def test_garbage_session_traffic_does_not_hurt_health(self):
        frontend = make_frontend()
        session = frontend.open_session()
        suite = frontend.session_suite(session)
        for _ in range(10):
            sealed_reply = frontend.serve(session, b"\x00" * 48)
            reply = protocol.decode_client_message(
                suite.decrypt_page(sealed_reply)
            )
            assert isinstance(reply, protocol.Refused)
        assert frontend.health.state == HEALTHY
        assert frontend.counters.get("requests") == 10

    def test_refusal_counters(self):
        frontend = make_frontend()
        session = frontend.open_session()
        serve_query(frontend, session, page_id=10_000)
        serve_query(frontend, session, page_id=10_000)
        assert frontend.counters.get("refused.not-found") == 2


class TestHealthStateMachine:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HealthMonitor(degrade_after=0)
        with pytest.raises(ConfigurationError):
            HealthMonitor(degrade_after=5, fail_after=3)

    def test_degrades_then_fails_on_fault_streak(self):
        monitor = HealthMonitor(degrade_after=3, fail_after=8)
        for i in range(1, 9):
            monitor.record_fault()
            if i < 3:
                assert monitor.state == HEALTHY
            elif i < 8:
                assert monitor.state == DEGRADED
            else:
                assert monitor.state == FAILED

    def test_success_resets_streak_and_recovers_degraded(self):
        monitor = HealthMonitor(degrade_after=2, fail_after=8)
        monitor.record_fault()
        monitor.record_fault()
        assert monitor.state == DEGRADED
        monitor.record_success()
        assert monitor.state == HEALTHY
        assert monitor.fault_streak == 0

    def test_fatal_fault_fails_immediately(self):
        monitor = HealthMonitor()
        monitor.record_fault(fatal=True)
        assert monitor.state == FAILED

    def test_failed_is_sticky_until_recovered(self):
        monitor = HealthMonitor()
        monitor.record_fault(fatal=True)
        monitor.record_success()
        assert monitor.state == FAILED
        with pytest.raises(DegradedServiceError) as excinfo:
            monitor.check()
        assert excinfo.value.retry_after > 0.0
        monitor.mark_recovered()
        assert monitor.state == HEALTHY
        monitor.check()

    def test_retry_hint_grows_with_streak(self):
        monitor = HealthMonitor(retry_hint=0.1, max_hint=0.35)
        monitor.record_fault()
        first = monitor.retry_after
        monitor.record_fault()
        second = monitor.retry_after
        assert second > first
        for _ in range(20):
            monitor.record_fault()
        assert monitor.retry_after == 0.35


class TestFrontendDegradation:
    def _failing_frontend(self, exc_factory, **health_kwargs):
        frontend = make_frontend()
        monitor = HealthMonitor(
            frontend.database.clock,
            counters=frontend.counters,
            **health_kwargs,
        )
        frontend.health = monitor
        calls = []

        def boom(page_id):
            calls.append(page_id)
            raise exc_factory()

        frontend.database.query = boom
        return frontend, calls

    def test_failed_frontend_sheds_load(self):
        frontend, calls = self._failing_frontend(
            lambda: TransientStorageError("disk flapping"),
            degrade_after=2, fail_after=4,
        )
        session = frontend.open_session()
        for _ in range(4):
            serve_query(frontend, session)
        assert frontend.health.state == FAILED
        engine_calls = len(calls)

        reply = serve_query(frontend, session)
        assert isinstance(reply, protocol.Refused)
        assert reply.code == "unavailable"
        assert reply.retryable
        assert reply.retry_after > 0.0
        # Load shedding: the engine was never touched for the refused call.
        assert len(calls) == engine_calls

    def test_fatal_fault_fails_in_one_hit(self):
        frontend, _ = self._failing_frontend(
            lambda: RecoveryError("journal ahead of state"))
        session = frontend.open_session()
        reply = serve_query(frontend, session)
        assert reply.code == "recovery-failed"
        assert frontend.health.state == FAILED

    def test_recover_restores_service(self):
        frontend, _ = self._failing_frontend(
            lambda: RecoveryError("dead"))
        session = frontend.open_session()
        serve_query(frontend, session)
        assert frontend.health.state == FAILED

        del frontend.database.query  # un-monkeypatch: storage "repaired"
        report = frontend.recover()
        assert report.action == "clean"
        assert frontend.health.state == HEALTHY
        reply = serve_query(frontend, session, page_id=1)
        assert isinstance(reply, protocol.Result)
        assert frontend.counters.get("recoveries") == 1

    def test_health_counters(self):
        frontend, _ = self._failing_frontend(
            lambda: TransientStorageError("x"),
            degrade_after=1, fail_after=2,
        )
        session = frontend.open_session()
        serve_query(frontend, session)
        serve_query(frontend, session)
        counts = frontend.counters.as_dict()
        assert counts["health.faults"] == 2
        assert counts["health.degraded"] == 1
        assert counts["health.failed"] == 1


class TestClientRetry:
    def test_retries_dropped_messages(self):
        frontend = make_frontend()
        injector = FaultInjector(3, [drop_messages(times=2)])
        client = ServiceClient(
            frontend,
            retry=RetryPolicy(max_attempts=4, base_delay=0.05),
            channel_wrapper=lambda ch: FlakyChannel(ch, injector),
        )
        before = client.channel.clock.now
        assert client.query(1) == frontend.database.query(1)
        assert client.counters.get("retries") == 2
        # Two backoff sleeps (>= 0.05 * (1 - jitter) each) plus the dropped
        # round trips advanced the virtual clock.
        assert client.channel.clock.now - before > 2 * 0.025

    def test_without_retry_refusals_raise(self):
        frontend = make_frontend()
        client = ServiceClient(frontend)
        with pytest.raises(PageNotFoundError):
            client.query(10_000)

    def test_retryable_refusal_is_retried_to_success(self):
        frontend = make_frontend()
        real_query = frontend.database.query
        state = {"failures": 2}

        def flaky_query(page_id):
            if state["failures"] > 0:
                state["failures"] -= 1
                raise TransientStorageError("disk flapping")
            return real_query(page_id)

        frontend.database.query = flaky_query
        client = ServiceClient(
            frontend, retry=RetryPolicy(max_attempts=5, base_delay=0.01)
        )
        assert client.query(2) == real_query(2)
        assert client.counters.get("retries") == 2

    def test_non_retryable_refusal_is_not_retried(self):
        frontend = make_frontend()
        client = ServiceClient(frontend, retry=RetryPolicy(max_attempts=5))
        with pytest.raises(PageNotFoundError):
            client.query(10_000)
        assert client.counters.get("retries") == 0

    def test_retry_honours_server_hint_as_floor(self):
        frontend = make_frontend()
        frontend.health = HealthMonitor(
            frontend.database.clock, retry_hint=0.5, max_hint=10.0,
            counters=frontend.counters,
        )
        frontend.health.record_fault(fatal=True)
        client = ServiceClient(
            frontend,
            retry=RetryPolicy(max_attempts=3, base_delay=0.001),
        )
        before = client.channel.clock.now
        with pytest.raises(DegradedServiceError):
            client.query(1)
        elapsed = client.channel.clock.now - before
        # Two retry sleeps, each floored by the server's >= 0.5 s hint.
        assert elapsed >= 1.0

    def test_retried_runs_are_deterministic(self):
        def run():
            frontend = make_frontend()
            injector = FaultInjector(3, [drop_messages(times=2)])
            client = ServiceClient(
                frontend,
                retry=RetryPolicy(max_attempts=4, base_delay=0.05),
                channel_wrapper=lambda ch: FlakyChannel(ch, injector),
            )
            payload = client.query(1)
            return (
                payload,
                client.channel.clock.now,
                client.counters.as_dict(),
                frontend.counters.as_dict(),
                [(e.op, e.location, e.count, e.request_index, e.timestamp)
                 for e in frontend.database.trace],
            )

        assert run() == run()

    def test_merged_counter_report(self):
        frontend = make_frontend()
        injector = FaultInjector(3, [drop_messages(times=1)])
        client = ServiceClient(
            frontend,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            channel_wrapper=lambda ch: FlakyChannel(ch, injector),
        )
        client.query(1)
        assert client.counters.get("retries") == 1
        # The dropped message never reached the frontend; only the retry did.
        assert frontend.counters.get("requests") == 1


class TestClientErrorMapping:
    """Refusals surface to callers as their server-side error class."""

    NON_RETRYABLE = [
        (PageDeletedError, PageDeletedError),
        (PageNotFoundError, PageNotFoundError),
        (StorageError, StorageError),
        (AuthenticationError, AuthenticationError),
        (CryptoError, CryptoError),
        (ProtocolError, ProtocolError),
        (ConfigurationError, ConfigurationError),
        (CapacityError, CapacityError),
        (RecoveryError, RecoveryError),
        (IndexError_, IndexError_),
        (ReproError, ReproError),
    ]

    def _client_for(self, exc):
        frontend = make_frontend()

        def boom(page_id):
            raise exc

        frontend.database.query = boom
        return ServiceClient(frontend)

    def test_non_retryable_refusals_raise_their_class(self):
        for raised, expected in self.NON_RETRYABLE:
            client = self._client_for(raised("kaboom"))
            with pytest.raises(expected) as excinfo:
                client.query(1)
            assert type(excinfo.value) is expected, raised.__name__
            assert "kaboom" in str(excinfo.value)

    def test_retryable_refusals_raise_degraded_with_hint(self):
        for raised in (TransientStorageError, TransientChannelError):
            client = self._client_for(raised("flap"))
            with pytest.raises(DegradedServiceError) as excinfo:
                client.query(1)
            assert excinfo.value.retry_after >= 0.0, raised.__name__

    def test_error_for_refusal_unknown_and_legacy_codes(self):
        assert type(error_for_refusal("", "legacy")) is ReproError
        assert type(error_for_refusal("martian", "what")) is ReproError
        exc = error_for_refusal("transient-storage", "retry me", 0.25)
        assert isinstance(exc, DegradedServiceError)
        assert exc.retry_after == 0.25


def faulty_factory(injector):
    def build(num_locations, frame_size, timing, clock, trace):
        return FaultyDiskStore(
            DiskStore(num_locations, frame_size, timing, clock, trace),
            injector,
        )

    return build


class TestWriteFaultMidApply:
    """A transient write failure mid-apply must not corrupt the store.

    Regression for the mid-apply hazard: the trusted deltas land before
    the frame write-back, so a retryable write failure used to leave the
    pageMap pointing at never-written frames while the retry-after hint
    invited a resend that overwrote the pending journal record.
    """

    def test_client_retry_after_write_fault_heals_and_succeeds(self):
        injector = FaultInjector(0)
        db = make_db(
            num_records=20, cache_capacity=6, seed=5,
            journal=MemoryJournal(),
            disk_factory=faulty_factory(injector),
        )
        frontend = QueryFrontend(db)
        client = ServiceClient(
            frontend, retry=RetryPolicy(max_attempts=4, base_delay=0.01)
        )
        injector.add(transient_writes(times=1))
        client.update(2, b"healed")
        assert client.counters.get("retries") == 1
        assert db.engine.counters.get("recovery.rolled_forward") == 1
        assert not db.engine.write_back_pending
        assert not db.engine.journal_pending
        assert client.query(2) == b"healed"
        db.consistency_check()

    def test_pending_journal_record_survives_the_failed_request(self):
        injector = FaultInjector(0)
        journal = MemoryJournal()
        db = make_db(
            num_records=20, cache_capacity=6, seed=5, journal=journal,
            disk_factory=faulty_factory(injector),
        )
        injector.add(transient_writes(times=1))
        with pytest.raises(TransientStorageError):
            db.query(3)
        # The only record able to repair the store is still in the slot,
        # and the engine knows the write-back is unfinished.
        assert journal.read() is not None
        assert db.engine.write_back_pending
        assert db.engine.request_count == 0


class TestDuplicateSuppression:
    """At-least-once delivery never double-applies a mutating request."""

    def test_duplicate_insert_allocates_exactly_one_page(self):
        frontend = make_frontend(reserve_fraction=0.2)
        injector = FaultInjector(4, [duplicate_messages()])
        client = ServiceClient(
            frontend, channel_wrapper=lambda ch: FlakyChannel(ch, injector)
        )
        before = frontend.database.engine.request_count
        new_id = client.insert(b"exactly once")
        assert frontend.database.engine.request_count == before + 1
        assert frontend.counters.get("requests.duplicate") == 1
        assert client.query(new_id) == b"exactly once"
        frontend.database.consistency_check()

    def test_replayed_request_bytes_answered_from_cache(self):
        frontend = make_frontend()
        session = frontend.open_session()
        suite = frontend.session_suite(session)
        sealed = suite.encrypt_page(
            protocol.encode_client_message(protocol.Update(1, b"v1"))
        )
        first = frontend.serve(session, sealed)
        count = frontend.database.engine.request_count
        second = frontend.serve(session, sealed)
        assert second == first
        assert frontend.database.engine.request_count == count
        assert frontend.counters.get("requests.duplicate") == 1

    def test_distinct_transmissions_are_not_deduplicated(self):
        # The same logical request sealed twice uses fresh nonces, so both
        # transmissions execute — dedup keys on ciphertext identity only.
        frontend = make_frontend()
        session = frontend.open_session()
        suite = frontend.session_suite(session)
        message = protocol.encode_client_message(protocol.Query(1))
        first = suite.encrypt_page(message)
        second = suite.encrypt_page(message)
        assert first != second
        frontend.serve(session, first)
        frontend.serve(session, second)
        assert frontend.counters.get("requests") == 2
        assert frontend.counters.get("requests.duplicate") == 0

    def test_refused_replies_are_not_cached(self):
        frontend = make_frontend()
        session = frontend.open_session()
        garbage = b"\x00" * 48
        frontend.serve(session, garbage)
        frontend.serve(session, garbage)
        # Both deliveries re-execute (refusals mutate nothing durable).
        assert frontend.counters.get("requests") == 2
        assert frontend.counters.get("requests.duplicate") == 0

    def test_cache_dropped_with_session(self):
        frontend = make_frontend()
        client = ServiceClient(frontend)
        client.query(1)
        assert len(frontend._reply_cache) == 1
        client.close()
        assert len(frontend._reply_cache) == 0
