"""Tests for the process-per-shard engine composite.

What only :class:`~repro.engine.procshard.ProcessShardedEngine` promises
— worker lifecycle (no orphans, reaping on garbage collection), graceful
failover when a worker dies mid-run, degradation on hosts where
processes cannot help, cross-process wait-for edge mirroring for 2PL
deadlock detection, and the option-validation seams.  Equivalence with
the thread composite on the full protocol matrix lives in
``test_sharded.py`` (the ``processes`` parameterisation).
"""

from __future__ import annotations

import gc
import os
import signal
import time

import pytest

from repro.core.bounds import TransactionBounds
from repro.engine.api import create_engine, validate_protocol_options
from repro.engine.database import Database
from repro.engine.procshard import (
    REASON_SHARD_FAILOVER,
    ProcessShardedEngine,
    process_sharding_unavailable,
)
from repro.engine.results import Granted, MustWait, Rejected
from repro.engine.twopl import REASON_DEADLOCK
from repro.engine.sharded import ShardedEngine
from repro.errors import InvalidOperation, SpecificationError

pytestmark = pytest.mark.skipif(
    process_sharding_unavailable() == "no-fork",
    reason="process sharding needs the fork start method",
)


def _database(n_objects: int = 8, value: float = 100.0) -> Database:
    db = Database()
    for index in range(n_objects):
        db.create_object(index, value=value)
    return db


@pytest.fixture
def make_engine():
    created: list = []

    def make(database=None, protocol="esr", shards=2, **kwargs):
        engine = create_engine(
            database if database is not None else _database(),
            protocol,
            shards=shards,
            processes="force",
            **kwargs,
        )
        created.append(engine)
        return engine

    yield make
    for engine in created:
        engine.close()


def _wait_dead(pids, timeout=5.0):
    """Block until every pid is gone; return the stragglers."""
    deadline = time.monotonic() + timeout
    remaining = list(pids)
    while remaining and time.monotonic() < deadline:
        still = []
        for pid in remaining:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            # A zombie still responds to signal 0; reap it if it is ours.
            done, _status = os.waitpid(pid, os.WNOHANG)
            if done == 0:
                still.append(pid)
        remaining = still
        if remaining:
            time.sleep(0.02)
    return remaining


class TestWorkerLifecycle:
    def test_one_live_worker_per_shard(self, make_engine):
        engine = make_engine(shards=4)
        assert isinstance(engine, ProcessShardedEngine)
        pids = engine.worker_pids()
        assert len(pids) == 4
        assert len(set(pids)) == 4
        for pid in pids:
            os.kill(pid, 0)  # raises if the worker is not alive

    def test_close_joins_every_worker(self, make_engine):
        engine = make_engine(shards=3)
        txn = engine.begin("update", TransactionBounds(export_limit=1e9))
        for object_id in range(3):
            assert isinstance(engine.write(txn, object_id, 7.0), Granted)
        engine.commit(txn)
        pids = [pid for pid in engine.worker_pids() if pid is not None]
        engine.close()
        assert _wait_dead(pids) == []
        engine.close()  # idempotent

    def test_garbage_collection_reaps_workers(self):
        engine = create_engine(
            _database(), "esr", shards=2, processes="force"
        )
        pids = [pid for pid in engine.worker_pids() if pid is not None]
        del engine
        gc.collect()
        assert _wait_dead(pids) == []

    def test_server_close_shuts_workers_down(self):
        from repro.net.server import serve_forever

        server = serve_forever(_database(), shards=2, processes="force")
        try:
            pids = [
                pid for pid in server.manager.worker_pids() if pid is not None
            ]
            assert pids
        finally:
            server.shutdown()
            server.server_close()
        assert _wait_dead(pids) == []


class TestFailover:
    def _kill_worker(self, engine, shard):
        pid = engine.worker_pids()[shard]
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)

    def test_worker_death_aborts_and_fails_over(self, make_engine):
        engine = make_engine()
        seed = engine.begin("update", TransactionBounds(export_limit=1e9))
        assert isinstance(engine.write(seed, 0, 111.0), Granted)
        assert isinstance(engine.write(seed, 1, 222.0), Granted)
        engine.commit(seed)

        victim = engine.begin("update", TransactionBounds(export_limit=1e9))
        assert isinstance(engine.read(victim, 0), Granted)
        self._kill_worker(engine, shard=0)
        outcome = engine.write(victim, 0, 999.0)
        assert isinstance(outcome, Rejected)
        assert outcome.reason == REASON_SHARD_FAILOVER
        assert not victim.is_active
        assert victim.abort_reason == REASON_SHARD_FAILOVER
        assert engine.failed_shards() == (0,)
        assert engine.worker_pids()[0] is None

        # The shard keeps serving in-process over the mirrored committed
        # state, and the surviving worker shard is untouched.
        retry = engine.begin("update", TransactionBounds(export_limit=1e9))
        read_back = engine.read(retry, 0)
        assert isinstance(read_back, Granted)
        assert read_back.value == 111.0
        assert isinstance(engine.read(retry, 1), Granted)
        assert isinstance(engine.write(retry, 0, 999.0), Granted)
        engine.commit(retry)
        assert engine.database.get(0).committed_value == 999.0

    def test_failover_aborts_bystanders_that_touched_the_shard(
        self, make_engine
    ):
        engine = make_engine()
        bystander = engine.begin("query", TransactionBounds(import_limit=1e9))
        assert isinstance(engine.read(bystander, 0), Granted)  # shard 0
        untouched = engine.begin("query", TransactionBounds(import_limit=1e9))
        assert isinstance(engine.read(untouched, 1), Granted)  # shard 1

        self._kill_worker(engine, shard=0)
        trigger = engine.begin("query", TransactionBounds(import_limit=1e9))
        assert isinstance(engine.read(trigger, 0), Rejected)

        # The bystander's staged state died with the worker: aborted.
        assert not bystander.is_active
        assert bystander.abort_reason == REASON_SHARD_FAILOVER
        with pytest.raises(InvalidOperation):
            engine.read(bystander, 1)
        # A transaction that never touched the dead shard sails on.
        assert untouched.is_active
        engine.commit(untouched)

    def test_failover_is_counted(self, make_engine):
        from repro import perf

        engine = make_engine()
        before = perf.counters.shard_failovers
        self._kill_worker(engine, shard=1)
        probe = engine.begin("query", TransactionBounds(import_limit=1e9))
        assert isinstance(engine.read(probe, 1), Rejected)
        assert perf.counters.shard_failovers == before + 1


class TestDegradation:
    def test_single_core_degrades_to_threads(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        engine = create_engine(_database(), "esr", shards=2, processes=True)
        assert isinstance(engine, ShardedEngine)
        assert engine.process_degraded == "single-core"

    def test_force_overrides_single_core(self, monkeypatch, make_engine):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        engine = make_engine(shards=2)
        assert isinstance(engine, ProcessShardedEngine)

    def test_multi_core_builds_processes(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        engine = create_engine(_database(), "esr", shards=2, processes=True)
        try:
            assert isinstance(engine, ProcessShardedEngine)
        finally:
            engine.close()

    def test_unavailability_reasons_are_closed_set(self):
        assert process_sharding_unavailable() in (
            None,
            "single-core",
            "no-fork",
        )


class TestValidation:
    def test_snapshot_cache_incompatible_with_processes(self):
        with pytest.raises(SpecificationError):
            validate_protocol_options(
                "esr", snapshot_cache=True, shards=2, processes=True
            )
        with pytest.raises(SpecificationError):
            create_engine(
                _database(),
                "esr",
                shards=2,
                processes="force",
                snapshot_cache=True,
            )

    def test_single_shard_ignores_processes(self):
        engine = create_engine(_database(), "esr", shards=1, processes=True)
        assert not isinstance(engine, (ShardedEngine, ProcessShardedEngine))

    def test_no_snapshot_cache_surface(self, make_engine):
        engine = make_engine()
        assert engine.snapshot is None
        txn = engine.begin("query", TransactionBounds(import_limit=1e9))
        assert engine.read_cached(txn, 0) is None
        engine.commit(txn)


class TestCrossProcessWaits:
    def test_cross_shard_deadlock_detected_via_mirrored_edges(
        self, make_engine
    ):
        """2PL's deadlock walk runs inside a worker, but the wait-for
        edges are observed by the parent; the ``wait_note`` broadcast
        must make a cross-shard cycle visible to the worker."""
        engine = make_engine(protocol="2pl")
        t1 = engine.begin("update", TransactionBounds(export_limit=1e9))
        t2 = engine.begin("update", TransactionBounds(export_limit=1e9))
        assert isinstance(engine.write(t1, 0, 1.0), Granted)  # shard 0
        assert isinstance(engine.write(t2, 1, 2.0), Granted)  # shard 1

        blocked = engine.write(t1, 1, 3.0)
        assert isinstance(blocked, MustWait)
        assert blocked.blocking_transaction == t2.transaction_id
        # The server would park here; subscribing with the waiter id is
        # what records (and broadcasts) the t1 -> t2 edge.
        engine.waits.wait_event(
            blocked.blocking_transaction,
            waiter_transaction=t1.transaction_id,
        )

        outcome = engine.write(t2, 0, 4.0)  # closes the cycle on shard 0
        assert isinstance(outcome, Rejected)
        assert outcome.reason == REASON_DEADLOCK
        assert not t2.is_active
        engine.abort(t1, "test-cleanup")

    def test_wait_and_wakeup_across_processes(self, make_engine):
        """A reader blocked on an uncommitted cross-process write parks
        in the parent and is released by the writer's commit."""
        import threading

        engine = make_engine()
        writer = engine.begin("update", TransactionBounds(export_limit=1e9))
        assert isinstance(engine.write(writer, 1, 175.0), Granted)
        query = engine.begin("query", TransactionBounds(import_limit=0.0))
        outcome = engine.read(query, 1)
        assert isinstance(outcome, MustWait)
        assert outcome.blocking_transaction == writer.transaction_id

        event = engine.waits.wait_event(
            outcome.blocking_transaction,
            waiter_transaction=query.transaction_id,
        )
        threading.Timer(0.05, engine.commit, args=(writer,)).start()
        assert event.wait(5.0)
        retried = engine.read(query, 1)
        assert isinstance(retried, Granted)
        assert retried.value == 175.0
        engine.commit(query)


# -- delta sync and the fast channel ------------------------------------------


def _drive_stream(engine, seed, objects=8, steps=80):
    """One deterministic interleaved client stream; returns the trace.

    Mixed update/query transactions advance round-robin-by-rng in a
    single thread, so two engines fed the same seed execute the exact
    same operation sequence and must produce the exact same outcomes —
    the fast delta-synced channel has no semantic headroom over the
    legacy full-dump one.
    """
    import random

    rng = random.Random(seed)
    active = []
    trace = []
    for _ in range(steps):
        if not active or (len(active) < 3 and rng.random() < 0.3):
            if rng.random() < 0.5:
                txn = engine.begin(
                    "update",
                    TransactionBounds(export_limit=1e9),
                    allow_inconsistent_reads=True,
                )
                active.append((txn, True))
                trace.append("begin-update")
            else:
                txn = engine.begin(
                    "query", TransactionBounds(import_limit=1e9)
                )
                active.append((txn, False))
                trace.append("begin-query")
            continue
        index = rng.randrange(len(active))
        txn, is_update = active[index]
        roll = rng.random()
        if roll < 0.12:
            if txn.is_active:
                engine.commit(txn)
                trace.append("commit")
            active.pop(index)
            continue
        object_id = rng.randrange(objects)
        if is_update and rng.random() < 0.5:
            outcome = engine.write(txn, object_id, rng.random() * 100.0)
        else:
            outcome = engine.read(txn, object_id)
        if isinstance(outcome, Granted):
            trace.append(
                (
                    "granted",
                    object_id,
                    getattr(outcome, "value", None),
                    round(outcome.inconsistency, 9),
                    outcome.esr_case,
                )
            )
        elif isinstance(outcome, MustWait):
            trace.append(("mustwait", object_id))
            if txn.is_active:
                engine.abort(txn, "stream-blocked")
            active.pop(index)
        else:
            trace.append(("rejected", object_id, outcome.reason))
            active.pop(index)
    for txn, _ in active:
        if txn.is_active:
            engine.commit(txn)
            trace.append("commit")
    return trace


class TestDeltaSync:
    def test_sync_tag_mix_none_delta_full(self, make_engine):
        """A cross-shard update sees all three sync-in shapes: full on
        first touch, delta after another shard moved the canonical
        state, none when the shard is already current."""
        from repro import perf

        engine = make_engine(database=_database(8), shards=2)
        writer = engine.begin("update", TransactionBounds(export_limit=1e9))
        assert isinstance(engine.write(writer, 0, 50.0), Granted)
        assert isinstance(engine.write(writer, 1, 60.0), Granted)

        before = perf.counters.snapshot()
        reader = engine.begin(
            "update",
            TransactionBounds(export_limit=1e9, import_limit=1e9),
            allow_inconsistent_reads=True,
        )
        # Uncommitted reads charge import inconsistency, so every op
        # below advances the canonical account version.
        assert isinstance(engine.read(reader, 0), Granted)  # shard 0: full
        assert isinstance(engine.read(reader, 1), Granted)  # shard 1: full
        assert isinstance(engine.read(reader, 2), Granted)  # shard 0: delta
        assert isinstance(engine.read(reader, 4), Granted)  # shard 0: none
        after = perf.counters.snapshot()
        assert after["rpc_sync_full"] - before["rpc_sync_full"] >= 2
        assert after["rpc_sync_delta"] - before["rpc_sync_delta"] >= 1
        assert after["rpc_sync_none"] - before["rpc_sync_none"] >= 1
        engine.abort(reader, "test-done")
        engine.abort(writer, "test-done")

    @pytest.mark.parametrize("seed", [3, 11, 29, 5, 101])
    def test_channel_matches_unsharded_engine(self, make_engine, seed):
        """Property check: the same randomized op stream produces
        identical outcomes and identical final committed state whether
        it runs on the bare unsharded engine or crosses the shard
        channel, with account state shipped as deltas."""
        traces = {}
        finals = {}
        for shape, build in (
            ("bare", lambda db: create_engine(db, "esr")),
            ("procshard", lambda db: make_engine(database=db, shards=2)),
        ):
            db = _database(8)
            engine = build(db)
            traces[shape] = _drive_stream(engine, seed)
            finals[shape] = {
                index: db.get(index).committed_value for index in range(8)
            }
        assert traces["procshard"] == traces["bare"]
        assert finals["procshard"] == finals["bare"]

    def test_version_skew_triggers_resync_and_recovers(self, make_engine):
        """A parent whose version record lies (claims the worker is
        current when it is not) gets a resync reply, re-sends the full
        state, and the operation still succeeds."""
        from repro import perf

        engine = make_engine(database=_database(8), shards=2)
        txn = engine.begin("update", TransactionBounds(export_limit=1e9))
        assert isinstance(engine.write(txn, 0, 10.0), Granted)

        sync = engine._sync[txn.transaction_id]
        sync.version += 5  # a revision the worker has never seen
        sync.shard_versions[0] = sync.version  # ...claimed as delivered
        before = perf.counters.rpc_resyncs
        assert isinstance(engine.write(txn, 0, 11.0), Granted)
        assert perf.counters.rpc_resyncs == before + 1
        # The record healed: the next op is an ordinary in-sync frame.
        assert isinstance(engine.write(txn, 2, 12.0), Granted)
        assert perf.counters.rpc_resyncs == before + 1
        engine.commit(txn)
        assert engine.database.get(0).committed_value == 11.0

    def test_failover_serves_delta_synced_commits(self, make_engine):
        """Commits that reached the parent through the delta-sync path
        survive a worker SIGKILL: the mirrored committed state the
        failover engine adopts includes them."""
        engine = make_engine(database=_database(8), shards=2)
        writer = engine.begin("update", TransactionBounds(export_limit=1e9))
        assert isinstance(engine.write(writer, 0, 41.0), Granted)
        reader = engine.begin(
            "update",
            TransactionBounds(export_limit=1e9, import_limit=1e9),
            allow_inconsistent_reads=True,
        )
        # Charge import inconsistency across both shards so the commit
        # below rides on delta-synced account state.
        assert isinstance(engine.read(reader, 0), Granted)
        assert isinstance(engine.read(reader, 1), Granted)
        assert isinstance(engine.write(reader, 2, 43.0), Granted)
        engine.commit(reader)
        engine.commit(writer)

        pid = engine.worker_pids()[0]
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        probe = engine.begin("query", TransactionBounds(import_limit=1e9))
        assert isinstance(engine.read(probe, 0), Rejected)  # trips failover
        assert engine.failed_shards() == (0,)

        retry = engine.begin("query", TransactionBounds(import_limit=1e9))
        for object_id, expected in ((0, 41.0), (2, 43.0), (1, 100.0)):
            outcome = engine.read(retry, object_id)
            assert isinstance(outcome, Granted)
            assert outcome.value == expected
        engine.commit(retry)


# -- channel hardening ---------------------------------------------------------


class _FlakySocket:
    """recv() raises InterruptedError ``interrupts`` times, then serves."""

    def __init__(self, data: bytes, interrupts: int):
        self._data = data
        self._interrupts = interrupts

    def recv(self, n: int) -> bytes:
        if self._interrupts > 0:
            self._interrupts -= 1
            raise InterruptedError
        chunk, self._data = self._data[:n], self._data[n:]
        return chunk


class TestChannelHardening:
    def test_recv_exact_rides_out_eintr_and_partial_reads(self):
        from repro.engine.procshard import _recv_exact

        sock = _FlakySocket(b"abcdef", interrupts=5)
        assert _recv_exact(sock, 4) == b"abcd"
        assert _recv_exact(sock, 2) == b"ef"

    def test_recv_exact_bounded_retries_become_typed_error(self):
        from repro.engine.procshard import _recv_exact
        from repro.errors import ShardChannelError

        sock = _FlakySocket(b"abcd", interrupts=10_000)
        with pytest.raises(ShardChannelError) as excinfo:
            _recv_exact(sock, 4, shard=3, pending=7)
        assert excinfo.value.shard == 3
        assert excinfo.value.pending_ops == 7
        assert "shard 3" in str(excinfo.value)
        assert "7 pending ops" in str(excinfo.value)

    def test_torn_frame_header_is_typed_error(self):
        import struct

        from repro.engine.procshard import _recv_typed
        from repro.errors import ShardChannelError

        sock = _FlakySocket(struct.pack("<I", 1 << 31), interrupts=0)
        with pytest.raises(ShardChannelError) as excinfo:
            _recv_typed(sock, shard=1, pending=2)
        assert "torn" in str(excinfo.value)

    def test_worker_refuses_oversized_frame_and_survives(self, make_engine):
        """A frame past the 1 MiB cap gets a typed refusal — the worker
        drains it and keeps serving instead of dying (no failover)."""
        from repro.engine.procshard import (
            _FT_BATCH,
            _FT_ERROR,
            _recv_typed,
            _send_frame,
            MAX_FRAME_BYTES,
        )
        from repro.errors import ProtocolError

        engine = make_engine(database=_database(4), shards=2)
        channel = engine._channels[0]
        with channel.lock:
            _send_frame(channel.sock, _FT_BATCH, b"x" * (MAX_FRAME_BYTES + 64))
            ftype, payload = _recv_typed(channel.sock, shard=0, pending=1)
        assert ftype == _FT_ERROR
        import pickle

        error = pickle.loads(payload)
        assert isinstance(error, ProtocolError)
        assert "oversized" in str(error)
        # The worker lived through it: ordinary traffic still flows.
        txn = engine.begin("update", TransactionBounds(export_limit=1e9))
        assert isinstance(engine.write(txn, 0, 5.0), Granted)
        engine.commit(txn)
        assert engine.failed_shards() == ()

    def test_worker_refuses_unknown_frame_type(self, make_engine):
        import pickle

        from repro.engine.procshard import (
            _FT_ERROR,
            _recv_typed,
            _send_frame,
        )
        from repro.errors import ProtocolError

        engine = make_engine(database=_database(4), shards=2)
        channel = engine._channels[0]
        with channel.lock:
            _send_frame(channel.sock, 0x7A, b"?")
            ftype, payload = _recv_typed(channel.sock, shard=0, pending=1)
        assert ftype == _FT_ERROR
        assert isinstance(pickle.loads(payload), ProtocolError)
        txn = engine.begin("query", TransactionBounds(import_limit=1e9))
        assert isinstance(engine.read(txn, 0), Granted)
        engine.commit(txn)
        assert engine.failed_shards() == ()


# -- flat-combining batching ---------------------------------------------------


class TestBatching:
    def test_queued_callers_share_one_round_trip(self, make_engine):
        """Callers that pile up behind the channel lock ride a single
        combined batch frame when the leader drains the queue."""
        import threading

        from repro import perf

        engine = make_engine(database=_database(8), shards=2)
        channel = engine._channels[0]
        txns = [
            engine.begin("query", TransactionBounds(import_limit=1e9))
            for _ in range(6)
        ]
        outcomes = [None] * len(txns)

        def reader(slot, txn):
            outcomes[slot] = engine.read(txn, (slot % 4) * 2)  # all shard 0

        with channel.lock:  # stall the channel so callers pile up
            threads = [
                threading.Thread(target=reader, args=(slot, txn))
                for slot, txn in enumerate(txns)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            while (
                channel.pending_ops() < len(txns)
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert channel.pending_ops() == len(txns)
            before = perf.counters.snapshot()
        for thread in threads:
            thread.join()
        after = perf.counters.snapshot()
        assert all(isinstance(outcome, Granted) for outcome in outcomes)
        assert after["rpc_round_trips"] - before["rpc_round_trips"] == 1
        assert after["rpc_batched_ops"] - before["rpc_batched_ops"] == len(
            txns
        )
        for txn in txns:
            engine.commit(txn)
