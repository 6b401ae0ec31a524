"""The history seam: recording, derivation parity, exactly-once completion.

The recorder is the single choke-point every engine's lifecycle hooks go
through, so two invariants are pinned here:

* **derivation parity** — metrics derived from the recorded events equal
  the engine's own ``MetricsCollector`` snapshot (they come from the
  same hooks, so they can never disagree);
* **exactly-once completion** — every transaction gets exactly one
  commit *or* one abort event, on every protocol and engine shape and on
  every path (client abort, rejection auto-abort, composite absorption).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.bounds import ObjectBounds, TransactionBounds
from repro.engine.api import PROTOCOL_REGISTRY, create_engine
from repro.engine.database import Database
from repro.engine.history import (
    EVENT_ABORT,
    EVENT_COMMIT,
    EVENT_REJECT,
    HistoryLog,
    derive_metrics,
)
from repro.engine.procshard import process_sharding_unavailable
from repro.engine.reasons import REASON_CLIENT_ABORT, REJECTION_REASONS
from repro.engine.results import Granted, Rejected


def _bounded_db(n: int = 8) -> Database:
    db = Database()
    db.create_many(
        ((i, 100.0 * (i + 1)) for i in range(n)),
        bounds=ObjectBounds(import_limit=1e9, export_limit=1e9),
    )
    return db


def _rejects_late_reads(protocol: str) -> bool:
    """Whether a zero-bound late query read is rejected (Case 1).

    Only the timestamp-ordering engines reject it: 2PL takes an S lock
    and MVTO reads the version older than the query.
    """
    return PROTOCOL_REGISTRY[protocol].family == "tso"


def _run_mixed_load(engine, protocol: str = "esr") -> None:
    """Commits, client aborts, and (TSO) a rejection, deterministically."""
    # Plain committed update and query.
    t1 = engine.begin("update", TransactionBounds(0.0, 50.0))
    assert isinstance(engine.write(t1, 0, 123.0), Granted)
    engine.commit(t1)
    q1 = engine.begin("query", TransactionBounds(50.0, 0.0))
    assert isinstance(engine.read(q1, 0), Granted)
    engine.commit(q1)
    # Client abort.
    t2 = engine.begin("update")
    engine.write(t2, 1, 7.0)
    engine.abort(t2)
    # Rejection auto-abort: a zero-bound query whose read arrives after
    # a newer committed write (the paper's case 1) cannot absorb the
    # divergence and is rejected.
    strict = engine.begin("query", TransactionBounds(0.0, 0.0))
    writer = engine.begin("update", TransactionBounds(0.0, 1e9))
    engine.write(writer, 2, 999.0)
    engine.commit(writer)
    outcome = engine.read(strict, 2)
    if _rejects_late_reads(protocol):
        assert isinstance(outcome, Rejected)
    else:
        assert isinstance(outcome, Granted)
        engine.commit(strict)


def _completion_events(events) -> dict[int, Counter]:
    per_txn: dict[int, Counter] = {}
    for event in events:
        if event.kind in (EVENT_COMMIT, EVENT_ABORT):
            per_txn.setdefault(event.txn, Counter())[event.kind] += 1
    return per_txn


_NEEDS_FORK = pytest.mark.skipif(
    process_sharding_unavailable() == "no-fork",
    reason="process sharding needs the fork start method",
)

_SHAPES = (
    ("bare", {}),
    ("sharded", {"shards": 2}),
    ("procshard", {"shards": 2, "processes": "force"}),
)

#: Every registry protocol on every engine shape; the id names the
#: protocol unless it is the default (esr).
ENGINE_SHAPES = [
    pytest.param(
        protocol,
        shape,
        id=name if protocol == "esr" else f"{protocol}-{name}",
        marks=[_NEEDS_FORK] if name == "procshard" else [],
    )
    for protocol in PROTOCOL_REGISTRY
    for name, shape in _SHAPES
]

#: The combinations whose mixed load includes a rejection.
REJECTING_SHAPES = [
    param for param in ENGINE_SHAPES if _rejects_late_reads(param.values[0])
]


class TestRecordingParity:
    @pytest.mark.parametrize("protocol,shape", ENGINE_SHAPES)
    def test_derived_metrics_match_collector(self, protocol, shape):
        engine = create_engine(
            _bounded_db(), protocol, record_history=True, **shape
        )
        try:
            _run_mixed_load(engine, protocol)
            log = HistoryLog.from_engine(engine)
            derived = derive_metrics(log.events)
            assert derived.snapshot() == engine.metrics.snapshot()
        finally:
            close = getattr(engine, "close", None)
            if close:
                close()

    @pytest.mark.parametrize("protocol,shape", ENGINE_SHAPES)
    def test_every_transaction_completes_exactly_once(self, protocol, shape):
        engine = create_engine(
            _bounded_db(), protocol, record_history=True, **shape
        )
        try:
            _run_mixed_load(engine, protocol)
            events = HistoryLog.from_engine(engine).events
            completions = _completion_events(events)
            # 5 transactions above, each with exactly one completion.
            assert len(completions) == 5
            for txn, counter in completions.items():
                assert sum(counter.values()) == 1, (
                    f"transaction {txn} completed {dict(counter)}"
                )
            # The counters agree with the metrics the engine kept.
            snapshot = engine.metrics.snapshot()
            commits = sum(c[EVENT_COMMIT] for c in completions.values())
            aborts = sum(c[EVENT_ABORT] for c in completions.values())
            assert commits == snapshot.commits
            assert aborts == snapshot.aborts
        finally:
            close = getattr(engine, "close", None)
            if close:
                close()

    @pytest.mark.parametrize("protocol,shape", REJECTING_SHAPES)
    def test_rejection_pairs_with_one_abort(self, protocol, shape):
        engine = create_engine(
            _bounded_db(), protocol, record_history=True, **shape
        )
        try:
            _run_mixed_load(engine, protocol)
            events = HistoryLog.from_engine(engine).events
            rejected = [e for e in events if e.kind == EVENT_REJECT]
            assert len(rejected) == 1
            assert rejected[0].reason in REJECTION_REASONS
            aborts = [
                e
                for e in events
                if e.kind == EVENT_ABORT and e.txn == rejected[0].txn
            ]
            assert len(aborts) == 1
            assert aborts[0].reason == rejected[0].reason
        finally:
            close = getattr(engine, "close", None)
            if close:
                close()


class TestRecorderBasics:
    def test_disabled_recorder_keeps_metrics_but_no_events(self):
        engine = create_engine(_bounded_db(), "esr")
        _run_mixed_load(engine)
        assert engine.metrics.snapshot().commits == 3
        assert HistoryLog.from_engine(engine).events == []

    def test_roundtrip_is_exact(self):
        engine = create_engine(_bounded_db(), "esr", record_history=True)
        _run_mixed_load(engine)
        log = HistoryLog.from_engine(engine)
        assert len(log) > 0
        again = HistoryLog.loads(log.dumps())
        assert again.header == log.header
        assert again.events == log.events

    def test_save_and_load(self, tmp_path):
        engine = create_engine(_bounded_db(), "esr", record_history=True)
        _run_mixed_load(engine)
        log = HistoryLog.from_engine(engine)
        path = tmp_path / "history.jsonl"
        log.save(str(path))
        assert HistoryLog.load(str(path)).events == log.events

    def test_default_abort_reason_is_client_abort(self):
        engine = create_engine(_bounded_db(), "esr", record_history=True)
        txn = engine.begin("update")
        engine.abort(txn)
        events = HistoryLog.from_engine(engine).events
        assert events[-1].kind == EVENT_ABORT
        assert events[-1].reason == REASON_CLIENT_ABORT

    def test_reset_clears_events_and_metrics_together(self):
        engine = create_engine(_bounded_db(), "esr", record_history=True)
        _run_mixed_load(engine)
        engine.recorder.reset()
        assert HistoryLog.from_engine(engine).events == []
        assert engine.metrics.snapshot().commits == 0
        # Recording continues after the reset.
        txn = engine.begin("update")
        engine.commit(txn)
        assert len(HistoryLog.from_engine(engine).events) == 2

    def test_sharded_events_carry_shard_ids(self):
        engine = create_engine(
            _bounded_db(), "esr", shards=2, record_history=True
        )
        t1 = engine.begin("update")
        engine.write(t1, 0, 1.0)  # shard 0
        engine.write(t1, 1, 2.0)  # shard 1
        engine.commit(t1)
        shards = {
            e.shard
            for e in HistoryLog.from_engine(engine).events
            if e.kind == "write"
        }
        assert shards == {0, 1}
