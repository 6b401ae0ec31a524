"""Sharded composite engine: per-shard critical sections, one ledger.

:class:`ShardedEngine` partitions one database by object key
(``object_id % shards``) across N inner engines — each a bare manager
built by :func:`repro.engine.api.build_unsharded` over a shard-local
:class:`~repro.engine.database.Database` view that *aliases* the real
objects — and guards each shard with its own lock, so operations on
different shards proceed concurrently.  The hierarchical bound
accounting stays correct across shards:

* **OIL/OEL** charges are decided where they always were — inside the
  per-object admission the shard's inner engine runs under its shard
  lock;
* **TIL/TEL and group limits** span shards.  Every transaction carries
  its usual :class:`~repro.core.accounting.InconsistencyAccount`s, but
  the sharded engine installs one per-transaction lock on them
  (:meth:`~repro.core.accounting.InconsistencyAccount.install_lock`),
  making the object → groups → transaction check-and-charge atomic even
  when two shards admit operations for sibling transactions of the same
  client concurrently.  Exactly-at-limit semantics are untouched — the
  same ledger code runs, just under a lock.

**Sibling transactions.**  ``begin`` allocates the id and timestamp
globally and returns the *global* :class:`TransactionState` (what hosts
hold on to).  The first operation touching a shard lazily creates a
sibling ``TransactionState`` with the same id/timestamp/kind whose
``account`` / ``import_account`` / ``object_limits`` *are* the global
transaction's, and adopts it into the shard's inner engine.  Each inner
engine therefore sees a perfectly ordinary transaction; commit/abort is
decided once globally and applied to every touched shard through the
managers' ``complete`` hook (state effects per shard, metrics recorded
exactly once here).

**Waits.**  All inner engines share one :class:`_SharedWaitRegistry`.
Its ``subscribe`` checks whether the blocking transaction is still
globally active and fires the callback immediately when it is not —
closing the missed-wake-up race where a blocker completes between an
operation returning ``MustWait`` (under the shard lock) and the host
subscribing (outside it).  Completion fires waiters per shard as each
sibling completes and once more after the global cleanup; a waiter woken
early simply retries and re-subscribes (a bounded busy retry while a
multi-shard completion is in flight).

**2PL caveat.**  Deadlock detection walks the shared wait-for relation,
so cross-shard cycles are caught whenever the earlier waiter has
subscribed; two transactions parking simultaneously under different
shard locks can slip past the check, which is why the servers keep their
``wait_timeout`` guard (the standard distributed-2PL position).

With ``shards=1`` the composite is behaviourally identical to the bare
manager on deterministic workloads (pinned by the golden-determinism
equivalence tests) — it adds one lock acquisition per operation and
nothing else.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Mapping

from repro.core.bounds import EpsilonLevel, TransactionBounds
from repro.core.metric import DistanceFunction, absolute_distance
from repro.engine.api import build_unsharded, validate_protocol_options
from repro.engine.database import Database
from repro.engine.history import HistoryRecorder
from repro.engine.lifecycle import EngineCore
from repro.engine.metrics import MetricsCollector
from repro.engine.results import Granted, Outcome, Rejected
from repro.engine.scheduler import WaitRegistry
from repro.engine.timestamps import Timestamp, TimestampGenerator
from repro.engine.transactions import (
    TransactionKind,
    TransactionState,
    TransactionStatus,
)
from repro.errors import InvalidOperation

__all__ = ["ShardedEngine", "absorb_granted", "shard_sibling"]


def absorb_granted(
    txn: TransactionState, object_id: int, outcome: Granted, is_read: bool
) -> None:
    """Mirror one granted shard outcome onto the global transaction state.

    The shared absorption seam of both sharded composites (threads and
    processes): read/write sets, the operation count, and the
    inconsistent-operation tally move to the global transaction exactly
    as the bare manager would have recorded them on itself.
    """
    if is_read:
        txn.read_set.add(object_id)
    else:
        txn.write_set.add(object_id)
    txn.operations += 1
    if outcome.esr_case is not None:
        txn.inconsistent_operations += 1


def shard_sibling(
    siblings: dict[int, dict[int, TransactionState]],
    txn: TransactionState,
    shard: int,
    engine,
) -> TransactionState:
    """The in-process per-shard twin of ``txn``; created on first touch.

    Shared by both sharded composites (the process composite uses it for
    failed-over shards).  The sibling carries the global transaction's
    id, timestamp and kind, and its accounts *are* the global
    transaction's, so every shard charges the same TIL/GIL ledger.  A
    new sibling is adopted into ``engine``.
    """
    shard_map = siblings.get(txn.transaction_id)
    if shard_map is None:
        raise InvalidOperation(
            f"transaction {txn.transaction_id} is not active",
            txn.transaction_id,
        )
    sibling = shard_map.get(shard)
    if sibling is None:
        sibling = TransactionState(
            transaction_id=txn.transaction_id,
            kind=txn.kind,
            timestamp=txn.timestamp,
            bounds=txn.bounds,
            catalog=engine.database.catalog,
        )
        sibling.account = txn.account
        sibling.import_account = txn.import_account
        sibling.object_limits = txn.object_limits
        shard_map[shard] = sibling
        engine.adopt(sibling)
    return sibling


class _LockedMetrics(MetricsCollector):
    """A metrics collector safe to share across shard threads."""

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def record_read(self, esr_case: str | None) -> None:
        with self._lock:
            super().record_read(esr_case)

    def record_write(self, esr_case: str | None) -> None:
        with self._lock:
            super().record_write(esr_case)

    def record_wait(self) -> None:
        with self._lock:
            super().record_wait()

    def record_rejection(self) -> None:
        with self._lock:
            super().record_rejection()

    def record_commit(
        self, is_query: bool, imported: float, exported: float
    ) -> None:
        with self._lock:
            super().record_commit(is_query, imported, exported)

    def record_abort(self, reason: str) -> None:
        with self._lock:
            super().record_abort(reason)


#: Self-fire backoff while a multi-shard completion is in flight: first
#: retry sleeps the initial quantum, each further retry doubles it up to
#: the cap.  The cap keeps the waiter responsive (a completion holds a
#: shard lock for microseconds, not milliseconds); the growth stops the
#: subscribe-retry loop from spinning a core when the blocker's slowest
#: shard takes long to complete.
_SELF_FIRE_BACKOFF_INITIAL = 0.0001
_SELF_FIRE_BACKOFF_CAP = 0.005


class _SharedWaitRegistry(WaitRegistry):
    """One wait registry shared by every shard's inner engine.

    Thread-safe, and subscription-time aware of completion: if the
    blocking transaction is no longer globally active when a waiter
    subscribes, the callback fires immediately instead of being parked
    forever (the subscriber raced the completion).

    While the blocker's completion is still being applied shard by shard
    (``is_completing``), consecutive self-fires for the same waiter sleep
    a capped exponential backoff first — the retry loop stays a *bounded*
    busy retry instead of a core-burning spin when the blocker commits
    late on one of its other shards.
    """

    def __init__(
        self,
        is_active: Callable[[int], bool],
        is_completing: Callable[[int], bool] | None = None,
    ) -> None:
        super().__init__()
        self._lock = threading.RLock()
        self._is_active = is_active
        self._is_completing = (
            is_completing if is_completing is not None else lambda _txn: False
        )
        #: (waiter, blocker) -> consecutive self-fires against an
        #: in-flight completion, driving the backoff schedule.
        self._self_fires: dict[tuple[int | None, int], int] = {}

    def subscribe(
        self,
        blocking_transaction: int,
        callback: Callable[[], None],
        waiter_transaction: int | None = None,
    ) -> None:
        backoff = 0.0
        with self._lock:
            if self._is_active(blocking_transaction):
                self._self_fires.pop(
                    (waiter_transaction, blocking_transaction), None
                )
                super().subscribe(
                    blocking_transaction,
                    callback,
                    waiter_transaction=waiter_transaction,
                )
                return
            if self._is_completing(blocking_transaction):
                key = (waiter_transaction, blocking_transaction)
                count = self._self_fires.get(key, 0)
                self._self_fires[key] = count + 1
                backoff = min(
                    _SELF_FIRE_BACKOFF_INITIAL * (2**count),
                    _SELF_FIRE_BACKOFF_CAP,
                )
        if backoff > 0.0:
            time.sleep(backoff)
        callback()

    def fire(self, completed_transaction: int) -> int:
        with self._lock:
            callbacks = self._waiters.pop(completed_transaction, [])
            self._waiting_on.pop(completed_transaction, None)
            stale = [
                waiter
                for waiter, blocker in self._waiting_on.items()
                if blocker == completed_transaction
            ]
            for waiter in stale:
                del self._waiting_on[waiter]
            done = [
                key
                for key in self._self_fires
                if key[1] == completed_transaction
            ]
            for key in done:
                del self._self_fires[key]
        for callback in callbacks:
            callback()
        return len(callbacks)

    def waiting_on(self, waiter_transaction: int) -> int | None:
        with self._lock:
            return self._waiting_on.get(waiter_transaction)

    def pending_waiters(self) -> int:
        with self._lock:
            return sum(len(cbs) for cbs in self._waiters.values())


class _AggregateSnapshot:
    """Read-only union view over the shards' snapshot stores."""

    def __init__(self, stores: tuple) -> None:
        self.stores = stores

    def stats(self) -> dict[str, float]:
        totals = {
            "hits": 0.0,
            "misses": 0.0,
            "fallbacks": 0.0,
            "divergence_charged": 0.0,
        }
        for store in self.stores:
            for key, value in store.stats().items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    @property
    def hits(self) -> float:
        return sum(store.hits for store in self.stores)

    def __len__(self) -> int:
        return sum(len(store) for store in self.stores)

    def __repr__(self) -> str:
        return f"_AggregateSnapshot(shards={len(self.stores)})"


class ShardedEngine(EngineCore):
    """N per-shard engines behind the one :class:`~repro.engine.api.Engine`
    interface, with cross-shard hierarchical bound accounting."""

    #: Hosts holding a global engine mutex may skip it for this engine —
    #: every entry point takes the locks it needs itself.
    thread_safe = True

    def __init__(
        self,
        database: Database,
        protocol: str = "esr",
        *,
        shards: int,
        distance: DistanceFunction = absolute_distance,
        export_policy: str = "max",
        wait_policy: str = "wait",
        snapshot_cache: bool = False,
        metrics: MetricsCollector | None = None,
        timestamps: TimestampGenerator | None = None,
        recorder: HistoryRecorder | None = None,
        record_history: bool = False,
    ):
        spec = validate_protocol_options(
            protocol,
            snapshot_cache=snapshot_cache,
            wait_policy=wait_policy,
            shards=shards,
        )
        super().__init__(
            database,
            metrics=metrics if metrics is not None else _LockedMetrics(),
            timestamps=timestamps,
            recorder=recorder,
            record_history=record_history,
        )
        self.protocol = protocol
        self.shards = shards
        self.wait_policy = wait_policy
        self.export_policy = export_policy
        self.distance = distance
        #: Guards id/timestamp allocation and the global transaction maps.
        self._txn_lock = threading.Lock()
        #: Global txn id -> {shard index: sibling TransactionState}.
        self._siblings: dict[int, dict[int, TransactionState]] = {}
        #: Transactions popped from ``_active`` whose per-shard completion
        #: is still being applied — waiters self-firing against these back
        #: off instead of spinning (see :class:`_SharedWaitRegistry`).
        self._completing: set[int] = set()
        self.waits = _SharedWaitRegistry(
            self._is_globally_active, self._is_completing
        )
        # Partition: shard-local Database views aliasing the real objects
        # (and sharing the real catalog), one inner engine + lock each.
        self._databases = [
            Database(
                catalog=database.catalog,
                version_window=database.version_window,
            )
            for _ in range(shards)
        ]
        for obj in database.objects():
            self._databases[obj.object_id % shards].adopt_object(obj)
        self._locks = [threading.Lock() for _ in range(shards)]
        self._engines = []
        for shard_index, shard_db in enumerate(self._databases):
            inner = build_unsharded(
                shard_db,
                spec,
                distance=distance,
                export_policy=export_policy,
                wait_policy=wait_policy,
                snapshot_cache=snapshot_cache,
                recorder=self.recorder.for_shard(shard_index),
                timestamps=self._timestamps,
            )
            inner.waits = self.waits
            self._engines.append(inner)
        if snapshot_cache:
            self.snapshot = _AggregateSnapshot(
                tuple(engine.snapshot for engine in self._engines)
            )

    # -- routing ---------------------------------------------------------------

    def shard_of(self, object_id: int) -> int:
        return object_id % self.shards

    def _is_globally_active(self, transaction_id: int) -> bool:
        return transaction_id in self._active

    def _is_completing(self, transaction_id: int) -> bool:
        return transaction_id in self._completing

    # -- lifecycle -------------------------------------------------------------

    def begin(
        self,
        kind: TransactionKind | str,
        bounds: TransactionBounds | EpsilonLevel | None = None,
        timestamp: Timestamp | None = None,
        group_limits: Mapping[str, float] | None = None,
        object_limits: Mapping[int, float] | None = None,
        allow_inconsistent_reads: bool = False,
    ) -> TransactionState:
        with self._txn_lock:
            txn = self._new_transaction(
                kind,
                bounds,
                timestamp,
                group_limits,
                object_limits,
                allow_inconsistent_reads,
            )
            # TIL/TEL and group totals span shards: make the ledger's
            # check-and-charge atomic across concurrent shard threads.
            account_lock = threading.RLock()
            txn.account.install_lock(account_lock)
            if (
                txn.import_account is not None
                and txn.import_account is not txn.account
            ):
                txn.import_account.install_lock(account_lock)
            self._active[txn.transaction_id] = txn
            self._siblings[txn.transaction_id] = {}
        self.recorder.begin(txn)
        return txn

    # -- operations -------------------------------------------------------------

    def read(self, txn: TransactionState, object_id: int) -> Outcome:
        txn.require_active()
        shard = object_id % self.shards
        with self._locks[shard]:
            # Sibling creation for one transaction is single-threaded: a
            # transaction's operations are serialised by its connection.
            engine = self._engines[shard]
            sibling = shard_sibling(self._siblings, txn, shard, engine)
            outcome = engine.read(sibling, object_id)
        return self._absorb(txn, object_id, outcome, is_read=True)

    def write(
        self, txn: TransactionState, object_id: int, value: float
    ) -> Outcome:
        self._require_update(txn)
        shard = object_id % self.shards
        with self._locks[shard]:
            engine = self._engines[shard]
            sibling = shard_sibling(self._siblings, txn, shard, engine)
            outcome = engine.write(sibling, object_id, value)
        return self._absorb(txn, object_id, outcome, is_read=False)

    def read_cached(
        self, txn: TransactionState, object_id: int
    ) -> Granted | None:
        """Snapshot-cache fast path, pre-lock — routed to the shard's store.

        Safe without the shard lock for the same reason the unsharded
        fast path is safe without the engine mutex: the store publishes
        immutable records, the transaction's account is (here) locked,
        and one transaction's operations are serialised by its
        connection.
        """
        if self.snapshot is None:
            return None
        return self._engines[object_id % self.shards].read_cached(
            txn, object_id
        )

    def _absorb(
        self,
        txn: TransactionState,
        object_id: int,
        outcome: Outcome,
        is_read: bool,
    ) -> Outcome:
        """Mirror a shard outcome onto the global transaction state."""
        if isinstance(outcome, Granted):
            absorb_granted(txn, object_id, outcome, is_read)
        elif isinstance(outcome, Rejected):
            # The shard already recorded the rejection and aborted (and
            # finished) the sibling it saw; propagate the abort to every
            # other touched shard and close out the global transaction.
            self._finish(
                txn,
                TransactionStatus.ABORTED,
                outcome.reason,
                record=False,
                already_finished=object_id % self.shards,
            )
        return outcome

    # -- completion --------------------------------------------------------------

    def _finish(
        self,
        txn: TransactionState,
        status: TransactionStatus,
        reason: str | None,
        record: bool = True,
        already_finished: int | None = None,
    ) -> None:
        """Decide the completion once, apply it to every touched shard.

        The global maps are popped *first* (under the txn lock), so any
        waiter subscribing after this point sees the blocker as inactive
        and self-fires; waiters subscribed before it are woken by the
        per-shard fires and the final fire below.
        """
        with self._txn_lock:
            self._completing.add(txn.transaction_id)
            shard_map = self._siblings.pop(txn.transaction_id, {})
            self._active.pop(txn.transaction_id, None)
        for shard in sorted(shard_map):
            if shard == already_finished:
                continue
            sibling = shard_map[shard]
            with self._locks[shard]:
                self._engines[shard].complete(sibling, status, reason)
        if status is TransactionStatus.ABORTED:
            txn.abort_reason = reason
            if record:
                self.recorder.abort(txn, reason)
        elif record:
            self.recorder.commit(txn)
        txn.status = status
        self.waits.fire(txn.transaction_id)
        self._completing.discard(txn.transaction_id)

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(protocol={self.protocol!r}, "
            f"shards={self.shards}, active={len(self._active)}, "
            f"objects={len(self.database)})"
        )
