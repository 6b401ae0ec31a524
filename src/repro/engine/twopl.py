"""Two-phase-locking divergence control — the Wu et al. alternative.

The paper builds ESR on timestamp ordering; its reference [21] builds
the same correctness notion on strict 2PL ("divergence control").  This
manager implements that engine behind the *same interface* as
:class:`~repro.engine.manager.TransactionManager` — begin / read /
write / commit / abort returning Granted / MustWait / Rejected, waits
routed through a :class:`~repro.engine.scheduler.WaitRegistry` — so the
simulator and the networked server host either engine unchanged, and
the two can be compared head-to-head on identical workloads.

Lock semantics:

* reads take S locks, writes take X locks, all held to end of
  transaction (strict 2PL); aborts restore shadow values;
* **import relaxation** — a query whose S request hits an update's X
  lock may *read through* the lock (no lock taken): it sees the staged
  value, charging ``distance(staged, committed)`` against its
  OIL/group/TIL hierarchy.  This is the lock-world twin of the paper's
  case 2;
* **export relaxation** — an update whose X request hits query S locks
  may write *past* them, charging ``distance(new value, what the
  readers saw)`` (max over readers, the paper's policy) against its
  OEL/group/TEL.  The twin of case 3;
* update reads, and write-write conflicts, are never relaxed (the
  paper's consistent-update-ET setting);
* unlike TSO's age-ordered waits, 2PL waits can deadlock.  Before a
  transaction parks, the manager walks the wait-for relation; if the
  new edge would close a cycle the requester is rejected (deadlock
  victim) and restarts with the client's usual resubmission loop.

Rejections for deadlock carry reason ``"deadlock"`` — a category the
TSO engine never produces, which the comparison benchmark surfaces.
"""

from __future__ import annotations

from repro.core.divergence import export_divergence, import_divergence
from repro.core.metric import DistanceFunction, absolute_distance
from repro.engine.database import Database
from repro.engine.history import HistoryRecorder
from repro.engine.lifecycle import ManagerCore
from repro.engine.locks import LockTable
from repro.engine.metrics import MetricsCollector
from repro.engine.reasons import REASON_DEADLOCK
from repro.engine.results import (
    CASE_LATE_WRITE,
    CASE_READ_UNCOMMITTED,
    Granted,
    MustWait,
    Outcome,
    Rejected,
)
from repro.engine.timestamps import TimestampGenerator
from repro.engine.transactions import TransactionState

__all__ = ["REASON_DEADLOCK", "TwoPhaseManager"]


class TwoPhaseManager(ManagerCore):
    """Strict-2PL divergence control over one :class:`Database`."""

    def __init__(
        self,
        database: Database,
        relaxed: bool = True,
        distance: DistanceFunction = absolute_distance,
        export_policy: str = "max",
        metrics: MetricsCollector | None = None,
        timestamps: TimestampGenerator | None = None,
        recorder: HistoryRecorder | None = None,
        record_history: bool = False,
    ):
        super().__init__(
            database,
            metrics=metrics,
            timestamps=timestamps,
            recorder=recorder,
            record_history=record_history,
        )
        #: With ``relaxed`` False this is plain strict 2PL (the SR
        #: baseline in lock form); bounds are ignored entirely.
        self.relaxed = relaxed
        #: Registry name (see :mod:`repro.engine.api`).
        self.protocol = "2pl" if relaxed else "2pl-sr"
        self.distance = distance
        self.export_policy = export_policy
        self.locks = LockTable()

    # -- deadlock handling -----------------------------------------------------------

    def _park_or_break(
        self, txn: TransactionState, blocker: int, op: str, object_id: int
    ) -> Outcome:
        """Wait on ``blocker`` unless that edge would close a cycle."""
        seen = {txn.transaction_id}
        node: int | None = blocker
        outcome: MustWait | Rejected = MustWait(blocker)
        while node is not None:
            if node in seen:
                outcome = Rejected(
                    REASON_DEADLOCK,
                    detail=(
                        f"waiting for transaction {blocker} would deadlock "
                        f"transaction {txn.transaction_id}"
                    ),
                )
                break
            seen.add(node)
            node = self.waits.waiting_on(node)
        return self._refused(txn, op, object_id, outcome)

    # -- operations -------------------------------------------------------------------

    def read(self, txn: TransactionState, object_id: int) -> Outcome:
        """Submit a read; S lock, or an import-relaxed read-through."""
        txn.require_active()
        obj = self.database.get(object_id)
        blocker = self.locks.acquire_shared(txn.transaction_id, object_id)
        if blocker is None:
            value = (
                obj.uncommitted_value
                if obj.writer_id == txn.transaction_id
                else obj.committed_value
            )
            return self._granted_read(
                txn, obj, Granted(value=value), obj.committed_value
            )
        account = txn.import_account if self.relaxed else None
        if account is not None:
            # Import relaxation: read through the writer's X lock.
            present = obj.present_value
            proper = obj.committed_value
            d = import_divergence(present, proper, self.distance)
            oil = txn.effective_object_limit(
                object_id, obj.bounds.import_limit
            )
            charge = account.admit(object_id, d, oil)
            if charge.admitted:
                case = CASE_READ_UNCOMMITTED if d > 0 else None
                return self._granted_read(
                    txn,
                    obj,
                    Granted(value=present, inconsistency=d, esr_case=case),
                    proper,
                )
        return self._park_or_break(txn, blocker, "read", object_id)

    def write(self, txn: TransactionState, object_id: int, value: float) -> Outcome:
        """Submit a write; X lock, or an export-relaxed write-past."""
        self._require_update(txn)
        obj = self.database.get(object_id)
        blocker = self.locks.acquire_exclusive(txn.transaction_id, object_id)
        if blocker is None:
            return self._granted_write(txn, obj, value, Granted())
        blocking_txn = self._active.get(blocker)
        if (
            self.relaxed
            and blocking_txn is not None
            and blocking_txn.is_query
            and self.locks.exclusive_holder(object_id)
            in (None, txn.transaction_id)
        ):
            # Export relaxation: every blocking holder is a query reader;
            # charge the worst divergence this write exports to them.
            readers = [
                self._active[holder]
                for holder in self.locks.shared_holders(object_id)
                if holder != txn.transaction_id
                and self._active.get(holder) is not None
            ]
            if all(reader.is_query for reader in readers):
                seen_values = list(obj.query_readers.values()) or [
                    obj.committed_value
                ]
                d = export_divergence(
                    value, seen_values, self.distance, self.export_policy
                )
                oel = txn.effective_object_limit(
                    object_id, obj.bounds.export_limit
                )
                charge = txn.account.admit(object_id, d, oel)
                if charge.admitted:
                    granted = self.locks.acquire_exclusive(
                        txn.transaction_id,
                        object_id,
                        ignore={r.transaction_id for r in readers},
                    )
                    assert granted is None
                    case = CASE_LATE_WRITE if d > 0 else None
                    return self._granted_write(
                        txn, obj, value, Granted(inconsistency=d, esr_case=case)
                    )
                # Export budget exhausted: unlike a late TSO write, a lock
                # conflict is curable by waiting for the readers to finish.
        return self._park_or_break(txn, blocker, "write", object_id)

    def _release(self, txn: TransactionState) -> None:
        self.locks.release_all(txn.transaction_id)

    def __repr__(self) -> str:
        return (
            f"TwoPhaseManager(relaxed={self.relaxed}, "
            f"active={len(self._active)}, objects={len(self.database)})"
        )
