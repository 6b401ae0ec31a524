"""ESR-enhanced timestamp-ordering decisions (paper Figure 3).

The enhancement admits, subject to the inconsistency bounds, three kinds of
operations that plain strict TSO would reject or delay:

**Case 1 — late read of committed data.**  A query read arrives with a
timestamp older than the object's last committed write.  SR rejects it;
ESR lets it read the *present* (newer) value, charging the distance to the
*proper* value (the newest committed write older than the query).

**Case 2 — read of uncommitted data.**  A query read finds a pending
uncommitted write.  SR waits (or rejects, if the read is also late); ESR
lets it read the staged value immediately, charging the distance to the
proper value.

**Case 3 — late write past a query read.**  An update's write arrives with
a timestamp older than the object's read timestamp, where every newer read
came from a query ET.  SR rejects it; ESR lets the write proceed, charging the
update's export account with the divergence this write exports to the
still-uncommitted query readers of the object (maximum over readers under
the paper's policy).

Update-transaction *reads* are consistent by default — their writes
depend on their reads — and follow the plain SR decision; as an opt-in
extension, an update ET that declares a non-zero import limit reads
through conflicts like a query (see :mod:`repro.engine.transactions`).
Write-write conflicts are never relaxed.

Admission charges the transaction's inconsistency account (object level,
then every group on the object's path, then the transaction level) as a
side effect; a rejected admission leaves the account untouched.
"""

from __future__ import annotations

from repro.core.divergence import export_divergence, import_divergence
from repro.core.metric import DistanceFunction, absolute_distance
from repro.engine.objects import DataObject
from repro.engine.results import (
    CASE_LATE_READ,
    CASE_LATE_WRITE,
    CASE_READ_UNCOMMITTED,
    Granted,
    MustWait,
    Outcome,
    Rejected,
    REASON_BOUND_VIOLATION,
    REASON_LATE_READ,
    REASON_LATE_WRITE,
)
from repro.engine.transactions import TransactionState
from repro.engine.tso import sr_read_decision

__all__ = ["esr_read_decision", "esr_write_decision"]


def esr_read_decision(
    obj: DataObject,
    txn: TransactionState,
    distance: DistanceFunction = absolute_distance,
) -> Outcome:
    """Decide a read under ESR-enhanced TSO.

    Query ETs import against their TIL.  Update ETs are consistent by
    default (the paper's setting — their writes depend on their reads)
    and fall through to the plain SR decision; an update ET that declared
    a non-zero import limit carries an import account and reads through
    conflicts the same way a query does (the paper's section 1 notes this
    possibility without evaluating it).
    """
    account = txn.import_account
    if account is None:
        return sr_read_decision(obj, txn)

    oil = txn.effective_object_limit(obj.object_id, obj.bounds.import_limit)

    if obj.writer_id is not None and obj.writer_id != txn.transaction_id:
        # Case 2: a concurrent update has an uncommitted write staged.
        present = obj.uncommitted_value
        proper = obj.proper_value_for(txn.timestamp)
        d = import_divergence(present, proper, distance)
        charge = account.admit(obj.object_id, d, oil)
        if charge.admitted:
            case = CASE_READ_UNCOMMITTED if d > 0 else None
            return Granted(value=present, inconsistency=d, esr_case=case)
        # Bound violated: fall back to the SR behaviour — wait if the read
        # is younger than the pending write (the writer may yet abort and
        # restore a readable value), reject if it is late anyway.
        if txn.timestamp > obj.writer_ts:
            return MustWait(obj.writer_id)
        return Rejected(
            REASON_BOUND_VIOLATION,
            detail=(
                f"uncommitted read of object {obj.object_id} carries "
                f"inconsistency {d:g} past the {charge.violated_level} limit "
                f"(uncommitted write by transaction {obj.writer_id}, "
                f"delta {distance(present, obj.committed_value):g})"
            ),
            violated_level=charge.violated_level,
        )

    if obj.writer_id == txn.transaction_id:
        return Granted(value=obj.uncommitted_value)

    if txn.timestamp < obj.committed_write_ts:
        # Case 1: the read is late — a newer write already committed.
        present = obj.committed_value
        proper = obj.proper_value_for(txn.timestamp)
        d = import_divergence(present, proper, distance)
        charge = account.admit(obj.object_id, d, oil)
        if charge.admitted:
            case = CASE_LATE_READ if d > 0 else None
            return Granted(value=present, inconsistency=d, esr_case=case)
        if charge.violated_level is not None:
            return Rejected(
                REASON_BOUND_VIOLATION,
                detail=(
                    f"late read of object {obj.object_id} carries "
                    f"inconsistency {d:g} past the "
                    f"{charge.violated_level} limit"
                ),
                violated_level=charge.violated_level,
            )
        return Rejected(
            REASON_LATE_READ,
            detail=(
                f"read ts {txn.timestamp} is older than committed write "
                f"ts {obj.committed_write_ts} on object {obj.object_id}"
            ),
        )

    # In-order read of committed data: consistent, nothing to charge.
    return Granted(value=obj.committed_value)


def esr_write_decision(
    obj: DataObject,
    txn: TransactionState,
    new_value: float,
    distance: DistanceFunction = absolute_distance,
    export_policy: str = "max",
) -> Outcome:
    """Decide a write under ESR-enhanced TSO (update ETs only).

    The only relaxed situation is case 3 — a write late with respect to a
    *query* read.  Write-write conflicts and writes late with respect to
    committed writes follow the SR decision unchanged.
    """
    if obj.writer_id is not None and obj.writer_id != txn.transaction_id:
        if txn.timestamp > obj.writer_ts:
            return MustWait(obj.writer_id)
        return Rejected(
            REASON_LATE_WRITE,
            detail=(
                f"write ts {txn.timestamp} is older than pending write "
                f"ts {obj.writer_ts} on object {obj.object_id}"
            ),
        )
    if txn.timestamp < obj.committed_write_ts:
        return Rejected(
            REASON_LATE_WRITE,
            detail=(
                f"write ts {txn.timestamp} is older than committed write "
                f"ts {obj.committed_write_ts} on object {obj.object_id}"
            ),
        )
    if txn.timestamp < obj.read_ts:
        if txn.timestamp < obj.update_read_ts:
            # A newer read came from an update ET; update reads are
            # consistent (its writes depend on them), so this conflict
            # cannot be relaxed — even behind a still newer query read.
            return Rejected(
                REASON_LATE_WRITE,
                detail=(
                    f"write ts {txn.timestamp} is older than an update-ET "
                    f"read ts {obj.update_read_ts} on object {obj.object_id}"
                ),
            )
        # Case 3: the write would export inconsistency to the concurrent
        # (still uncommitted) query readers of this object.
        oel = txn.effective_object_limit(obj.object_id, obj.bounds.export_limit)
        d = export_divergence(
            new_value, obj.query_readers.values(), distance, export_policy
        )
        charge = txn.account.admit(obj.object_id, d, oel)
        if charge.admitted:
            case = CASE_LATE_WRITE if d > 0 else None
            return Granted(inconsistency=d, esr_case=case)
        return Rejected(
            REASON_BOUND_VIOLATION,
            detail=(
                f"late write on object {obj.object_id} exports "
                f"inconsistency {d:g} past the {charge.violated_level} limit"
            ),
            violated_level=charge.violated_level,
        )
    # In-order write with no pending conflict.
    return Granted()
