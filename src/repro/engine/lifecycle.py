"""The transaction lifecycle every engine shares.

The paper's ESR is the strict-TSO lifecycle unchanged: only *admission*
differs — Figure 3's cases decide whether an operation is granted, waits
or is rejected.  The code follows the same split:

* :class:`EngineCore` is the part every engine shares, bare or
  composite: the recorder / metrics / wait-registry / timestamp wiring,
  id allocation and the active map, ``begin`` (argument normalisation
  and :class:`~repro.engine.transactions.TransactionState` construction,
  exposed as :meth:`EngineCore._new_transaction` for the composites'
  own ``begin``), and ``commit`` / ``abort`` with the idempotent-abort
  and abort-after-commit guard.  Completion itself is ``_finish``, which
  the bare managers and the sharded composites each implement once;
* :class:`ManagerCore` is the lifecycle of a bare manager over one
  :class:`~repro.engine.database.Database`: the granted-read and
  granted-write effects, rejection auto-abort, and ``_finish`` —
  rollback, reader release, status, and the wait-registry fire.

A protocol (:class:`~repro.engine.manager.TransactionManager`,
:class:`~repro.engine.twopl.TwoPhaseManager`,
:class:`~repro.engine.mvto.MVTOManager`) is then an *admission policy*:
it implements ``read`` and ``write`` and at most three effect hooks —
``_promote`` on commit, ``_rollback`` of staged writes on abort, and
``_release`` of protocol state such as 2PL's locks.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.bounds import EpsilonLevel, TransactionBounds
from repro.engine.database import Database
from repro.engine.history import HistoryRecorder
from repro.engine.metrics import MetricsCollector
from repro.engine.objects import DataObject
from repro.engine.reasons import REASON_CLIENT_ABORT
from repro.engine.results import Granted, MustWait, Outcome, Rejected
from repro.engine.scheduler import WaitRegistry
from repro.engine.timestamps import Timestamp, TimestampGenerator
from repro.engine.transactions import (
    TransactionKind,
    TransactionState,
    TransactionStatus,
)
from repro.errors import InvalidOperation

__all__ = ["EngineCore", "ManagerCore"]


class EngineCore:
    """Ids, the active map, ``begin`` and the commit/abort guard."""

    #: Whether ``begin(..., allow_inconsistent_reads=True)`` gives an
    #: update ET an import account.  MVTO has no relaxed reads and drops
    #: the flag.
    _inconsistent_reads = True

    def __init__(
        self,
        database: Database,
        *,
        metrics: MetricsCollector | None = None,
        timestamps: TimestampGenerator | None = None,
        recorder: HistoryRecorder | None = None,
        record_history: bool = False,
    ):
        self.database = database
        #: The snapshot read cache, or None when the engine has none.
        self.snapshot = None
        #: The unified history seam: every decision is reported here and
        #: the metrics totals are *derived* from those reports (see
        #: :mod:`repro.engine.history`).  A sharded composite hands each
        #: inner engine a shard-tagged view of its shared recorder.
        if recorder is None:
            recorder = HistoryRecorder(metrics, record=record_history)
        self.recorder = recorder
        self.metrics = recorder.metrics
        self.waits = WaitRegistry()
        self._timestamps = (
            timestamps if timestamps is not None else TimestampGenerator()
        )
        self._next_id = 1
        self._active: dict[int, TransactionState] = {}

    # -- begin ---------------------------------------------------------------

    def _new_transaction(
        self,
        kind: TransactionKind | str,
        bounds: TransactionBounds | EpsilonLevel | None,
        timestamp: Timestamp | None,
        group_limits: Mapping[str, float] | None,
        object_limits: Mapping[int, float] | None,
        allow_inconsistent_reads: bool,
    ) -> TransactionState:
        """Normalise ``begin``'s arguments and build the transaction.

        Allocates the id (and the timestamp, when none is given); the
        composites call this under their transaction lock.
        """
        if isinstance(kind, str):
            kind = TransactionKind(kind.lower())
        if bounds is None:
            bounds = TransactionBounds()
        elif isinstance(bounds, EpsilonLevel):
            bounds = bounds.transaction
        if timestamp is None:
            timestamp = self._timestamps.next()
        txn = TransactionState(
            transaction_id=self._next_id,
            kind=kind,
            timestamp=timestamp,
            bounds=bounds,
            catalog=self.database.catalog,
            group_limits=group_limits,
            object_limits=object_limits,
            allow_inconsistent_reads=(
                allow_inconsistent_reads and self._inconsistent_reads
            ),
        )
        self._next_id += 1
        return txn

    def begin(
        self,
        kind: TransactionKind | str,
        bounds: TransactionBounds | EpsilonLevel | None = None,
        timestamp: Timestamp | None = None,
        group_limits: Mapping[str, float] | None = None,
        object_limits: Mapping[int, float] | None = None,
        allow_inconsistent_reads: bool = False,
    ) -> TransactionState:
        """Start a transaction; assigns its id and (if needed) timestamp.

        ``allow_inconsistent_reads`` opts an *update* ET into importing
        inconsistency against its import limit (an extension beyond the
        paper, whose update ETs are always consistent); it has no effect
        on queries, which always import.
        """
        txn = self._new_transaction(
            kind,
            bounds,
            timestamp,
            group_limits,
            object_limits,
            allow_inconsistent_reads,
        )
        self._active[txn.transaction_id] = txn
        self.recorder.begin(txn)
        return txn

    def active_transactions(self) -> tuple[TransactionState, ...]:
        return tuple(self._active.values())

    def read_cached(
        self, txn: TransactionState, object_id: int
    ) -> Granted | None:
        """No snapshot cache here — always fall back to ``read``."""
        return None

    @staticmethod
    def _require_update(txn: TransactionState) -> None:
        """The write-side guard: an active update ET."""
        txn.require_active()
        if not txn.is_update:
            raise InvalidOperation(
                f"query transaction {txn.transaction_id} cannot write",
                txn.transaction_id,
            )

    # -- completion ----------------------------------------------------------

    def commit(self, txn: TransactionState) -> None:
        """Commit: promote staged writes, release readers, wake waiters."""
        txn.require_active()
        self._finish(txn, TransactionStatus.COMMITTED, None)

    def abort(
        self, txn: TransactionState, reason: str = REASON_CLIENT_ABORT
    ) -> None:
        """Abort: restore shadow values, release readers, wake waiters.

        Idempotent for transactions the engine already aborted (a
        rejection auto-aborts; a client calling ``abort`` afterwards is a
        no-op).  Aborting a committed transaction is an error.
        """
        if txn.status is TransactionStatus.ABORTED:
            return
        if txn.status is TransactionStatus.COMMITTED:
            raise InvalidOperation(
                f"cannot abort committed transaction {txn.transaction_id}",
                txn.transaction_id,
            )
        self._finish(txn, TransactionStatus.ABORTED, reason)

    def _finish(
        self,
        txn: TransactionState,
        status: TransactionStatus,
        reason: str | None,
        record: bool = True,
    ) -> None:
        raise NotImplementedError


class ManagerCore(EngineCore):
    """The lifecycle of a bare manager; subclasses add admission.

    A subclass implements ``read`` and ``write`` and routes each decided
    outcome through :meth:`_granted_read` / :meth:`_granted_write` or
    :meth:`_refused`.
    """

    def adopt(self, txn: TransactionState) -> None:
        """Register an externally-built transaction as active here.

        Used by :class:`~repro.engine.sharded.ShardedEngine`, which
        allocates transaction ids and timestamps globally and hands each
        shard a sibling :class:`TransactionState` sharing the global
        transaction's accounts.
        """
        self._active[txn.transaction_id] = txn

    def complete(
        self,
        txn: TransactionState,
        status: TransactionStatus,
        reason: str | None = None,
    ) -> None:
        """Apply a completion decided elsewhere, without recording metrics.

        The sharded composites decide commit/abort once globally and then
        complete each shard's sibling through this hook: state effects
        (write promotion or shadow restore, reader release, lock release,
        wait wake-ups) happen per shard, while commit/abort counters are
        recorded exactly once by the composite.
        """
        self._finish(txn, status, reason, record=False)

    # -- outcome effects -----------------------------------------------------

    def _granted_read(
        self,
        txn: TransactionState,
        obj: DataObject,
        outcome: Granted,
        proper: float,
    ) -> Granted:
        """Apply a granted read; ``proper`` is registered for queries."""
        obj.record_read(txn.transaction_id, txn.timestamp, txn.is_query, proper)
        txn.read_set.add(obj.object_id)
        txn.operations += 1
        if outcome.esr_case is not None:
            txn.inconsistent_operations += 1
        if txn.import_account is not None and outcome.value is not None:
            txn.import_account.observe_value(obj.object_id, outcome.value)
        self.recorder.read(txn, obj.object_id, outcome)
        return outcome

    def _granted_write(
        self,
        txn: TransactionState,
        obj: DataObject,
        value: float,
        outcome: Granted,
    ) -> Granted:
        """Stage a granted write in place (shadow kept for abort)."""
        obj.stage_write(txn.transaction_id, txn.timestamp, value)
        if self.snapshot is not None:
            self.snapshot.note_pending(obj)
        txn.write_set.add(obj.object_id)
        txn.operations += 1
        if outcome.esr_case is not None:
            txn.inconsistent_operations += 1
        self.recorder.write(txn, obj.object_id, value, outcome)
        return outcome

    def _refused(
        self,
        txn: TransactionState,
        op: str,
        object_id: int,
        outcome: MustWait | Rejected,
    ) -> Outcome:
        """Record a wait, or reject (which aborts the transaction)."""
        if isinstance(outcome, MustWait):
            self.recorder.wait(txn, op, object_id, outcome.blocking_transaction)
        else:
            self._reject(txn, op, object_id, outcome)
        return outcome

    def _reject(
        self,
        txn: TransactionState,
        op: str,
        object_id: int | None,
        outcome: Rejected,
    ) -> None:
        self.recorder.rejection(txn, op, object_id, outcome)
        self._finish(txn, TransactionStatus.ABORTED, outcome.reason)

    # -- completion ----------------------------------------------------------

    def _finish(
        self,
        txn: TransactionState,
        status: TransactionStatus,
        reason: str | None,
        record: bool = True,
    ) -> None:
        if status is TransactionStatus.COMMITTED:
            self._promote(txn)
            if record:
                self.recorder.commit(txn)
        else:
            self._rollback(txn)
            txn.abort_reason = reason
            if record:
                self.recorder.abort(txn, reason)
        if txn.is_query:
            for object_id in txn.read_set:
                self.database.get(object_id).forget_reader(txn.transaction_id)
        self._release(txn)
        txn.status = status
        self._active.pop(txn.transaction_id, None)
        self.waits.fire(txn.transaction_id)

    # -- effect hooks --------------------------------------------------------

    def _promote(self, txn: TransactionState) -> None:
        """Promote staged writes to committed state (the commit effects)."""
        for object_id in txn.write_set:
            obj = self.database.get(object_id)
            obj.commit_write()
            if self.snapshot is not None:
                self.snapshot.publish(obj)

    def _rollback(self, txn: TransactionState) -> None:
        """Restore the shadow value of every write still staged."""
        for object_id in txn.write_set:
            obj = self.database.get(object_id)
            if obj.writer_id == txn.transaction_id:
                obj.abort_write()
                if self.snapshot is not None:
                    self.snapshot.clear_pending(obj)

    def _release(self, txn: TransactionState) -> None:
        """Release protocol state the transaction holds (none by default)."""
