"""The transaction manager: begin / read / write / commit / abort.

This is the server's brain (paper section 6): it owns the database, the
concurrency-control decisions (SR or ESR), the wait registry, and the
performance counters.  It is runtime-agnostic — purely synchronous calls
that never block; waiting and retrying are the hosting runtime's job:

* :meth:`read` / :meth:`write` return a
  :class:`~repro.engine.results.Granted`,
  :class:`~repro.engine.results.MustWait` or
  :class:`~repro.engine.results.Rejected` outcome;
* a ``MustWait`` means "retry this exact operation after the blocking
  transaction completes" — subscribe via :attr:`waits`;
* a ``Rejected`` outcome has **already aborted the transaction** (the
  paper's protocol: a failed operation aborts the transaction, which the
  client resubmits under a fresh timestamp).

Protocols: ``"esr"`` runs the enhanced decisions of
:mod:`repro.engine.esr`; ``"sr"`` runs the plain strict-TSO baseline.
ESR with all bounds at zero admits only zero-divergence relaxations and is
behaviourally the SR case of the paper's experiments.

The lifecycle (begin, commit, abort, completion effects) is the shared
:class:`~repro.engine.lifecycle.ManagerCore`; this module is the TSO
admission policy on top of it.
"""

from __future__ import annotations

from repro.core.metric import DistanceFunction, absolute_distance
from repro.engine.database import Database
from repro.engine.esr import esr_read_decision, esr_write_decision
from repro.engine.history import HistoryRecorder
from repro.engine.lifecycle import ManagerCore
from repro.engine.metrics import MetricsCollector
from repro.engine.reasons import REASON_CONFLICT_ABORT
from repro.engine.results import Granted, MustWait, Outcome, Rejected
from repro.engine.snapshot import SnapshotStore, snapshot_read
from repro.engine.timestamps import TimestampGenerator
from repro.engine.transactions import TransactionState
from repro.engine.tso import sr_read_decision, sr_write_decision
from repro.errors import SpecificationError

__all__ = ["PROTOCOLS", "TransactionManager"]

PROTOCOLS = ("esr", "sr")


class TransactionManager(ManagerCore):
    """Coordinates transactions over one :class:`Database`."""

    def __init__(
        self,
        database: Database,
        protocol: str = "esr",
        distance: DistanceFunction = absolute_distance,
        export_policy: str = "max",
        metrics: MetricsCollector | None = None,
        timestamps: TimestampGenerator | None = None,
        wait_policy: str = "wait",
        snapshot_cache: bool = False,
        recorder: HistoryRecorder | None = None,
        record_history: bool = False,
    ):
        if protocol not in PROTOCOLS:
            raise SpecificationError(
                f"unknown protocol {protocol!r}; choose from {PROTOCOLS}"
            )
        if wait_policy not in ("wait", "abort"):
            raise SpecificationError(
                f"unknown wait policy {wait_policy!r}; choose 'wait' or 'abort'"
            )
        super().__init__(
            database,
            metrics=metrics,
            timestamps=timestamps,
            recorder=recorder,
            record_history=record_history,
        )
        self.protocol = protocol
        #: The paper enforces strict ordering "by using a wait based
        #: protocol for concurrent operations that are not able to
        #: execute" (section 4) and notes it pays "some price in the form
        #: of some delay".  ``"abort"`` is the alternative it implicitly
        #: rejects — treat every such conflict like a late operation
        #: (abort with immediate restart) — kept here as an ablation.
        self.wait_policy = wait_policy
        self.distance = distance
        self.export_policy = export_policy
        #: Opt-in snapshot read cache (ESR only): committed state is
        #: published beside the live objects so bounded-staleness query
        #: reads can be served via :meth:`read_cached` without the full
        #: engine decision path (and, in the servers, without the engine
        #: critical section).
        if snapshot_cache and protocol == "esr":
            self.snapshot = SnapshotStore(database.catalog, distance)
            self.snapshot.bootstrap(database)

    # -- operations -----------------------------------------------------------------

    def read(self, txn: TransactionState, object_id: int) -> Outcome:
        """Submit a Read; applies effects on success, aborts on rejection."""
        txn.require_active()
        obj = self.database.get(object_id)
        if self.protocol == "esr":
            outcome = esr_read_decision(obj, txn, self.distance)
        else:
            outcome = sr_read_decision(obj, txn)
        outcome = self._apply_wait_policy(outcome)
        if isinstance(outcome, Granted):
            proper = (
                obj.proper_value_for(txn.timestamp) if txn.is_query else 0.0
            )
            return self._granted_read(txn, obj, outcome, proper)
        return self._refused(txn, "read", object_id, outcome)

    def read_cached(self, txn: TransactionState, object_id: int) -> Granted | None:
        """Try to serve a query read from the snapshot cache.

        Returns a :class:`Granted` when the snapshot holds the object and
        the staleness (plus any in-flight uncommitted delta) fits the
        transaction's whole bound hierarchy, charging exactly as
        :meth:`read` would; returns ``None`` when the caller should fall
        back to :meth:`read`.  Never aborts and never waits — the cache
        is a pure fast path.  Unlike :meth:`read`, a cache hit does not
        touch the live object (no read-timestamp bump, no query-reader
        registration), so it cannot trigger Case-3 export charges.
        """
        store = self.snapshot
        if store is None:
            return None
        outcome = snapshot_read(store, txn, object_id)
        if outcome is not None:
            # The event carries the staleness the cache actually charged
            # (``outcome.inconsistency``), flagged as cache-served.
            self.recorder.read(txn, object_id, outcome, cached=True)
        return outcome

    def write(self, txn: TransactionState, object_id: int, value: float) -> Outcome:
        """Submit a Write; stages it on success, aborts on rejection."""
        self._require_update(txn)
        obj = self.database.get(object_id)
        if self.protocol == "esr":
            outcome = esr_write_decision(
                obj, txn, value, self.distance, self.export_policy
            )
        else:
            outcome = sr_write_decision(obj, txn)
        outcome = self._apply_wait_policy(outcome)
        if isinstance(outcome, Granted):
            return self._granted_write(txn, obj, value, outcome)
        return self._refused(txn, "write", object_id, outcome)

    def _apply_wait_policy(self, outcome: Outcome) -> Outcome:
        """Under the ``"abort"`` policy, conflicts abort instead of waiting."""
        if self.wait_policy == "abort" and isinstance(outcome, MustWait):
            return Rejected(
                REASON_CONFLICT_ABORT,
                detail=(
                    "conflicting operation aborted instead of waiting "
                    f"for transaction {outcome.blocking_transaction} "
                    "(wait_policy='abort')"
                ),
            )
        return outcome

    def __repr__(self) -> str:
        return (
            f"TransactionManager(protocol={self.protocol!r}, "
            f"active={len(self._active)}, objects={len(self.database)})"
        )
