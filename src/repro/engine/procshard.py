"""Process-sharded composite engine: one worker process per shard.

:class:`ProcessShardedEngine` is the multi-core sibling of
:class:`~repro.engine.sharded.ShardedEngine`.  The thread-based composite
partitions work but not the GIL — its shard threads serialise on the
interpreter lock, so BENCH_net's ``speedup_sharded`` sits *below* 1 on
CPU-bound write loads.  This engine moves each shard's inner engine into
its own **process**, connected to the parent by a framed RPC over a
``socketpair``, so shards genuinely execute in parallel while the parent
keeps presenting the ordinary :class:`~repro.engine.api.Engine` surface
to every host (threaded server, asyncio server, DES, CLI, bench-net).

**The cross-process commit protocol.**  The thread-based composite makes
TIL/TEL/GIL accounting atomic across shards by installing one lock per
transaction on its :class:`~repro.core.accounting.InconsistencyAccount`.
A lock cannot span processes, but it also is not needed: every engine
decision charges only the *operating* transaction's own account, and one
transaction's operations are serialised by its client connection (the
threaded server runs a connection on one handler thread; the asyncio
server pins a connection to one dispatch lane).  So the account state
can travel with the operation.  Shipping the *full* canonical account
dump both ways on every op would make the channel cost grow with the
transaction, so the channel is built from three layers:

1. **Delta account sync.**  The parent versions each transaction's
   canonical account state and remembers which version every shard
   worker last acknowledged.  An op frame then carries one of three sync
   shapes: *none* (the worker already holds the current version — the
   common case, since a consistent operation charges nothing), *delta*
   (only the ledger levels, per-object charges and value ranges that
   changed since the worker's version; account state is monotone so a
   delta is just the changed entries), or *full* (first touch of a
   shard, or the resync fallback).  The worker checks the base version
   on every frame; on a mismatch it answers ``resync`` *without
   executing* and the parent re-sends the op with a full dump.  Reply
   state rides the same scheme: the worker diffs its sibling's account
   around the engine call and returns only the delta (or nothing).
2. **Op batching.**  :class:`_WorkerChannel` is a flat-combining point:
   concurrent callers append their op to a pending queue, and whichever
   caller takes the channel lock first becomes the leader, draining
   *every* pending op into one batch frame, paying one round-trip, and
   distributing the replies.  Under the servers' concurrency the
   syscall/framing cost amortises across the batch; a lone caller
   degenerates to exactly one op per round-trip.
3. **Binary frames.**  Hot shapes (op headers, granted/must-wait
   replies, completion headers, wait notes) are struct-packed in the
   idiom of :mod:`repro.net.protocol`'s ``binary-1`` codec — a u32
   length prefix, a type byte, fixed little-endian layouts — with pickle
   kept as the tagged long tail (descriptors, sync payloads, rejections,
   exceptions).  The channel enforces the same 1 MiB frame cap as the
   net codec: a worker answers an oversized or unknown frame with a
   typed error and keeps serving instead of dying (which would trigger
   a spurious shard failover), and torn frames surface as
   :class:`~repro.errors.ShardChannelError` rather than bare
   struct/pickle errors.

``bench-hotpath``'s ``shard_channel`` microbench measures the channel
(ops/s, bytes/op, batch occupancy).

Commit/abort is decided once by the parent and fanned out as complete
items (which ride the same batch frames); each worker applies the usual
``complete`` hook and a commit reply carries the ``{object_id: (value,
write_ts)}`` pairs the promotion produced, which the parent adopts into
its mirror database (reports, tests and failover all read coherent
committed state there).

**Waits and deadlock edges.**  Workers never park anything: ``MustWait``
propagates to the parent and hosts subscribe against the parent's shared
registry exactly as with the thread-based composite.  When a waiter
parks, the parent broadcasts the wait-for edge (a struct-packed note
frame) to every worker, and completion broadcasts a wakeup — the workers
mirror the edges into their local registries so the 2PL engines'
deadlock walk sees cross-shard cycles.  The same residual caveat as the
thread composite applies (two simultaneous parkers can slip past the
check), which is why the servers keep their ``wait_timeout`` guard.

**Metrics.**  Worker engines record into throwaway local collectors;
the parent reconstructs every counter from the outcomes it relays
(granted read/write with the ESR case, wait, rejection, abort, commit
with the synced imported/exported totals), so the composite's snapshot
matches a bare manager's on the same trace.  Worker-side
:mod:`repro.perf` counters stay in the worker and are not aggregated;
the parent's ``rpc_*`` counters meter the channel itself.

**Degradation and failure.**  ``create_engine(..., processes=True)``
falls back to the thread-based composite (tagging it with
``process_degraded``) when the host has one core or no ``fork`` start
method; ``processes="force"`` insists on real processes regardless of
core count (tests, CI).  If a worker dies mid-run the parent rebuilds
that shard in-process over the mirror database, aborts every transaction
whose staged state died with the worker (reason ``"shard-failover"``),
and keeps serving — a benchmark degrades instead of hanging.  Staged
writes, read-timestamp metadata and version history accumulated inside
the dead worker are lost; committed state survives via the mirror.

Construction forks the workers, so build the engine before starting
server threads (both servers construct their engine before binding).
The snapshot read cache is not supported in process mode — the cache
publishes from inside the engine critical section, which now lives in
another process — and ``validate_protocol_options`` rejects the combination.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import socket
import struct
import threading
import time
import weakref
from collections import deque
from typing import Callable, Mapping

from repro.core.bounds import EpsilonLevel, TransactionBounds
from repro.core.metric import DistanceFunction, absolute_distance
from repro.engine.api import (
    build_unsharded,
    protocol_spec,
    validate_protocol_options,
)
from repro.engine.database import Database
from repro.engine.history import HistoryRecorder
from repro.engine.lifecycle import EngineCore
from repro.engine.metrics import MetricsCollector
from repro.engine.reasons import REASON_SHARD_FAILOVER
from repro.engine.results import (
    CASE_LATE_READ,
    CASE_LATE_WRITE,
    CASE_READ_UNCOMMITTED,
    Granted,
    MustWait,
    Outcome,
    Rejected,
)
from repro.engine.scheduler import WaitRegistry
from repro.engine.sharded import (
    _SELF_FIRE_BACKOFF_CAP,
    _SELF_FIRE_BACKOFF_INITIAL,
    _LockedMetrics,
    _SharedWaitRegistry,
    absorb_granted,
    shard_sibling,
)
from repro.engine.timestamps import Timestamp, TimestampGenerator
from repro.engine.transactions import (
    TransactionKind,
    TransactionState,
    TransactionStatus,
)
from repro.errors import InvalidOperation, ProtocolError, ShardChannelError
from repro.net.protocol import MAX_FRAME_BYTES
from repro.perf import counters as _perf

__all__ = [
    "ProcessShardedEngine",
    "process_sharding_unavailable",
    "REASON_SHARD_FAILOVER",
]

# -- wire format ---------------------------------------------------------------
#
# Every frame is `u32le size | u8 type | payload(size-1)`; size counts the
# type byte.  Struct layouts are little-endian fixed shapes, matching the
# binary-1 net codec idiom; anything cold rides a length-prefixed pickle.

_HEADER = struct.Struct("<I")
#: Struct-packed one-way note: sub-type plus two transaction ids.
_NOTE = struct.Struct("<Bqq")
#: Items per batch frame.
_COUNT = struct.Struct("<I")
_U32 = struct.Struct("<I")
_2U32 = struct.Struct("<II")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
#: Op item header: txn id, opcode, object id, value, flags.
_OP_HEAD = struct.Struct("<qBqdB")
#: Complete item header: txn id, status, has-reason.
_COMPLETE_HEAD = struct.Struct("<qBB")

_FT_BATCH = 0x01  # parent -> worker: op/complete items
_FT_BATCH_REPLY = 0x02  # worker -> parent: one reply per item
_FT_NOTE = 0x03  # parent -> worker: wait_note / wakeup / shutdown
_FT_ERROR = 0x04  # worker -> parent: typed refusal (frame not executed)

_NOTE_WAIT = 0
_NOTE_WAKEUP = 1
_NOTE_SHUTDOWN = 2

_IT_OP = 1
_IT_COMPLETE = 2

_RT_OK = 1
_RT_COMMITTED = 2
_RT_ERR = 3
_RT_RESYNC = 4

_OUT_GRANTED = 0
_OUT_MUSTWAIT = 1
_OUT_PICKLED = 2

_SYNC_NONE = 0
_SYNC_DELTA = 1
_SYNC_FULL = 2
_SYNC_CODES = {"none": _SYNC_NONE, "delta": _SYNC_DELTA, "full": _SYNC_FULL}
_SYNC_NAMES = {code: name for name, code in _SYNC_CODES.items()}

_OP_READ = 0
_OP_WRITE = 1

_STATUS_CODES = {
    TransactionStatus.COMMITTED.value: 0,
    TransactionStatus.ABORTED.value: 1,
}
_STATUS_NAMES = {code: value for value, code in _STATUS_CODES.items()}

_CASE_CODES = {CASE_LATE_READ: 1, CASE_READ_UNCOMMITTED: 2, CASE_LATE_WRITE: 3}
_CASE_NAMES = {code: case for case, code in _CASE_CODES.items()}

#: Bounded EINTR retries before a read is declared torn.
_MAX_EINTR_RETRIES = 64
#: A claimed frame size past this is stream corruption, not a big frame —
#: the worker gives up (parent fails the shard over) instead of trying
#: to discard gigabytes.
_STREAM_CEILING = 1 << 30
#: The leader splits a combined batch so no single frame exceeds the cap
#: (headroom for the count prefix).
_BATCH_BYTE_LIMIT = MAX_FRAME_BYTES - 1024


# -- framing -------------------------------------------------------------------


def _send_frame(sock: socket.socket, ftype: int, payload: bytes) -> None:
    data = _HEADER.pack(1 + len(payload)) + bytes((ftype,)) + payload
    sock.sendall(data)
    _perf.rpc_bytes_sent += len(data)


def _recv_exact(
    sock: socket.socket, n: int, *, shard: int | None = None, pending: int = 0
) -> bytes:
    """Read exactly ``n`` bytes, tolerating EINTR and partial reads.

    A signal-interrupted read is retried up to :data:`_MAX_EINTR_RETRIES`
    times (then declared torn with a typed :class:`ShardChannelError`
    carrying the shard and pending-op context); a clean EOF raises
    ``EOFError`` as before, which the op path treats as a dead worker.
    """
    chunks: list[bytes] = []
    remaining = n
    interrupts = 0
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except InterruptedError:
            interrupts += 1
            if interrupts > _MAX_EINTR_RETRIES:
                raise ShardChannelError(
                    "shard channel read interrupted "
                    f"{interrupts} times without progress",
                    shard,
                    pending,
                ) from None
            continue
        if not chunk:
            raise EOFError("shard channel closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    if len(chunks) == 1:
        return chunks[0]
    return b"".join(chunks)


def _recv_typed(
    sock: socket.socket, *, shard: int | None = None, pending: int = 0
) -> tuple[int, bytes]:
    """Parent-side receive: one typed frame, torn frames become typed errors."""
    header = _recv_exact(sock, _HEADER.size, shard=shard, pending=pending)
    (size,) = _HEADER.unpack(header)
    if size < 1 or size > _STREAM_CEILING:
        raise ShardChannelError(
            f"torn shard frame: claimed {size} bytes", shard, pending
        )
    body = _recv_exact(sock, size, shard=shard, pending=pending)
    _perf.rpc_bytes_received += _HEADER.size + size
    return body[0], body[1:]


def _append_pickled(out: bytearray, obj: object) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    out += _U32.pack(len(payload))
    out += payload


def _read_pickled(payload: bytes, offset: int) -> tuple[object, int]:
    (length,) = _U32.unpack_from(payload, offset)
    offset += _U32.size
    obj = pickle.loads(payload[offset : offset + length])
    return obj, offset + length


# -- batch item encoding -------------------------------------------------------
#
# Parent-side items are small tagged tuples; the wire shape packs the hot
# header fields and pickles only the cold payloads (descriptor, sync
# state, rejections, exceptions).
#
#   ("op", txn_id, opcode, object_id, value, descriptor|None, sync_in)
#       sync_in: ("none", version)
#              | ("delta", from_version, to_version, (acct_delta, imp_delta))
#              | ("full", version, (acct_dump, imp_dump))
#   ("complete", txn_id, status_value, reason|None)
#
# Replies:
#   ("ok", outcome, sync_out|None)   sync_out: (acct_delta, imp_delta)
#   ("committed", {object_id: (value, write_ts)})
#   ("err", exception)
#   ("resync", worker_version|None)


def _encode_item(item: tuple) -> bytes:
    out = bytearray()
    if item[0] == "op":
        _, txn_id, opcode, object_id, value, descriptor, sync_in = item
        flags = _SYNC_CODES[sync_in[0]] << 1
        if descriptor is not None:
            flags |= 1
        out += bytes((_IT_OP,))
        out += _OP_HEAD.pack(txn_id, opcode, object_id, value, flags)
        if descriptor is not None:
            _append_pickled(out, descriptor)
        if sync_in[0] == "none":
            out += _U32.pack(sync_in[1])
        elif sync_in[0] == "delta":
            out += _2U32.pack(sync_in[1], sync_in[2])
            _append_pickled(out, sync_in[3])
        else:
            out += _U32.pack(sync_in[1])
            _append_pickled(out, sync_in[2])
    else:
        _, txn_id, status_value, reason = item
        out += bytes((_IT_COMPLETE,))
        out += _COMPLETE_HEAD.pack(
            txn_id, _STATUS_CODES[status_value], 0 if reason is None else 1
        )
        if reason is not None:
            encoded = reason.encode("utf-8")
            out += _U32.pack(len(encoded))
            out += encoded
    return bytes(out)


def _decode_batch(payload: bytes) -> list[tuple]:
    (count,) = _COUNT.unpack_from(payload, 0)
    offset = _COUNT.size
    items: list[tuple] = []
    for _ in range(count):
        itype = payload[offset]
        offset += 1
        if itype == _IT_OP:
            txn_id, opcode, object_id, value, flags = _OP_HEAD.unpack_from(
                payload, offset
            )
            offset += _OP_HEAD.size
            descriptor = None
            if flags & 1:
                descriptor, offset = _read_pickled(payload, offset)
            tag = _SYNC_NAMES[(flags >> 1) & 0x3]
            if tag == "none":
                (version,) = _U32.unpack_from(payload, offset)
                offset += _U32.size
                sync_in: tuple = ("none", version)
            elif tag == "delta":
                from_version, to_version = _2U32.unpack_from(payload, offset)
                offset += _2U32.size
                deltas, offset = _read_pickled(payload, offset)
                sync_in = ("delta", from_version, to_version, deltas)
            else:
                (version,) = _U32.unpack_from(payload, offset)
                offset += _U32.size
                dumps, offset = _read_pickled(payload, offset)
                sync_in = ("full", version, dumps)
            items.append(
                ("op", txn_id, opcode, object_id, value, descriptor, sync_in)
            )
        elif itype == _IT_COMPLETE:
            txn_id, status, has_reason = _COMPLETE_HEAD.unpack_from(
                payload, offset
            )
            offset += _COMPLETE_HEAD.size
            reason = None
            if has_reason:
                (length,) = _U32.unpack_from(payload, offset)
                offset += _U32.size
                reason = payload[offset : offset + length].decode("utf-8")
                offset += length
            items.append(("complete", txn_id, _STATUS_NAMES[status], reason))
        else:
            raise ProtocolError(f"unknown batch item type {itype}")
    return items


def _encode_outcome(out: bytearray, outcome: Outcome) -> None:
    if type(outcome) is Granted:
        case = outcome.esr_case
        code = _CASE_CODES.get(case, 0) if case is not None else 0
        packable = (case is None and outcome.inconsistency == 0.0) or code
        if not packable:
            out += bytes((_OUT_PICKLED,))
            _append_pickled(out, outcome)
            return
        flags = 0
        if outcome.value is not None:
            flags |= 1
        if case is not None:
            flags |= 2
        out += bytes((_OUT_GRANTED, flags))
        if outcome.value is not None:
            out += _F64.pack(outcome.value)
        if case is not None:
            out += _F64.pack(outcome.inconsistency)
            out += bytes((code,))
    elif type(outcome) is MustWait:
        out += bytes((_OUT_MUSTWAIT,))
        out += _I64.pack(outcome.blocking_transaction)
    else:
        out += bytes((_OUT_PICKLED,))
        _append_pickled(out, outcome)


def _decode_outcome(payload: bytes, offset: int) -> tuple[Outcome, int]:
    kind = payload[offset]
    offset += 1
    if kind == _OUT_GRANTED:
        flags = payload[offset]
        offset += 1
        value = None
        inconsistency = 0.0
        case = None
        if flags & 1:
            (value,) = _F64.unpack_from(payload, offset)
            offset += _F64.size
        if flags & 2:
            (inconsistency,) = _F64.unpack_from(payload, offset)
            offset += _F64.size
            case = _CASE_NAMES[payload[offset]]
            offset += 1
        return Granted(value, inconsistency, case), offset
    if kind == _OUT_MUSTWAIT:
        (blocker,) = _I64.unpack_from(payload, offset)
        return MustWait(blocker), offset + _I64.size
    outcome, offset = _read_pickled(payload, offset)
    return outcome, offset


def _encode_reply_item(reply: tuple) -> bytes:
    out = bytearray()
    kind = reply[0]
    if kind == "ok":
        out += bytes((_RT_OK,))
        _encode_outcome(out, reply[1])
        sync_out = reply[2]
        if sync_out is None:
            out += bytes((_SYNC_NONE,))
        else:
            out += bytes((_SYNC_DELTA,))
            _append_pickled(out, sync_out)
    elif kind == "committed":
        out += bytes((_RT_COMMITTED,))
        _append_pickled(out, reply[1])
    elif kind == "resync":
        out += bytes((_RT_RESYNC,))
        version = reply[1]
        out += bytes((0,)) if version is None else bytes((1,)) + _U32.pack(
            version
        )
    else:
        out += bytes((_RT_ERR,))
        _append_pickled(out, reply[1])
    return bytes(out)


def _decode_batch_reply(payload: bytes) -> list[tuple]:
    (count,) = _COUNT.unpack_from(payload, 0)
    offset = _COUNT.size
    replies: list[tuple] = []
    for _ in range(count):
        rtype = payload[offset]
        offset += 1
        if rtype == _RT_OK:
            outcome, offset = _decode_outcome(payload, offset)
            if payload[offset] == _SYNC_NONE:
                sync_out = None
                offset += 1
            else:
                offset += 1
                sync_out, offset = _read_pickled(payload, offset)
            replies.append(("ok", outcome, sync_out))
        elif rtype == _RT_COMMITTED:
            committed, offset = _read_pickled(payload, offset)
            replies.append(("committed", committed))
        elif rtype == _RT_RESYNC:
            if payload[offset]:
                (version,) = _U32.unpack_from(payload, offset + 1)
                offset += 1 + _U32.size
                replies.append(("resync", version))
            else:
                offset += 1
                replies.append(("resync", None))
        elif rtype == _RT_ERR:
            error, offset = _read_pickled(payload, offset)
            replies.append(("err", error))
        else:
            raise ProtocolError(f"unknown batch reply type {rtype}")
    return replies


# -- worker side ---------------------------------------------------------------


class _MirrorWaitRegistry(WaitRegistry):
    """Worker-local registry fed by the parent's wait_note/wakeup frames.

    Nothing subscribes inside a worker (waiting is the parent's job); the
    registry exists so the 2PL deadlock walk — ``waits.waiting_on(node)``
    — sees the cross-shard wait-for edges the parent observed.
    """

    def note(self, waiter: int, blocker: int) -> None:
        self._waiting_on[waiter] = blocker


def _build_sibling(
    engine, descriptor: dict, siblings: dict[int, TransactionState]
) -> TransactionState:
    sibling = TransactionState(
        transaction_id=descriptor["transaction_id"],
        kind=TransactionKind(descriptor["kind"]),
        timestamp=descriptor["timestamp"],
        bounds=descriptor["bounds"],
        catalog=engine.database.catalog,
        group_limits=descriptor["group_limits"],
        object_limits=descriptor["object_limits"],
        allow_inconsistent_reads=descriptor["allow_inconsistent_reads"],
    )
    engine.adopt(sibling)
    # Track changes incrementally so each op's reply delta costs
    # O(changed entries) — no per-op state dumps in the worker.
    sibling.account.track_changes()
    if (
        sibling.import_account is not None
        and sibling.import_account is not sibling.account
    ):
        sibling.import_account.track_changes()
    siblings[sibling.transaction_id] = sibling
    return sibling


def _has_import(txn: TransactionState) -> bool:
    """Whether ``txn`` carries an import account besides its own account."""
    return (
        txn.import_account is not None
        and txn.import_account is not txn.account
    )


def _handle_op_item(
    engine,
    siblings: dict[int, TransactionState],
    versions: dict[int, int],
    item: tuple,
) -> tuple:
    """One fast-path op: sync in, run the engine decision, delta out."""
    _, txn_id, opcode, object_id, value, descriptor, sync_in = item
    sibling = siblings.get(txn_id)
    if sibling is None:
        if descriptor is None:
            # The parent assumed we hold state we do not (e.g. its record
            # of this shard was dropped); ask for a full re-send.
            return ("resync", versions.get(txn_id))
        sibling = _build_sibling(engine, descriptor, siblings)
    has_import = _has_import(sibling)
    tag = sync_in[0]
    held = versions.get(txn_id)
    if tag == "none":
        if held != sync_in[1]:
            return ("resync", held)
    elif tag == "delta":
        if held != sync_in[1]:
            return ("resync", held)
        account_delta, import_delta = sync_in[3]
        if account_delta is not None:
            sibling.account.apply_delta(account_delta)
        if import_delta is not None and has_import:
            sibling.import_account.apply_delta(import_delta)
        held = sync_in[2]
        versions[txn_id] = held
    else:  # full
        account_state, import_state = sync_in[2]
        sibling.account.load_state(account_state)
        if import_state is not None and has_import:
            sibling.import_account.load_state(import_state)
        held = sync_in[1]
        versions[txn_id] = held
    if opcode == _OP_READ:
        outcome = engine.read(sibling, object_id)
    else:
        outcome = engine.write(sibling, object_id, value)
    if not sibling.is_active:
        # A rejection auto-aborted (and finished) the sibling.
        siblings.pop(txn_id, None)
    account_delta = sibling.account.take_delta()
    import_delta = sibling.import_account.take_delta() if has_import else None
    if account_delta is None and import_delta is None:
        sync_out = None
    else:
        sync_out = (account_delta, import_delta)
        versions[txn_id] = held + 1
    if txn_id not in siblings:
        versions.pop(txn_id, None)
    return ("ok", outcome, sync_out)


def _handle_complete(
    engine,
    siblings: dict[int, TransactionState],
    versions: dict[int, int],
    txn_id: int,
    status_value: str,
    reason: str | None,
):
    sibling = siblings.pop(txn_id, None)
    versions.pop(txn_id, None)
    if sibling is None:
        return {}
    status = TransactionStatus(status_value)
    if sibling.is_active:
        engine.complete(sibling, status, reason)
    committed: dict[int, tuple[float, Timestamp]] = {}
    if status is TransactionStatus.COMMITTED:
        for object_id in sibling.write_set:
            obj = engine.database.get(object_id)
            committed[object_id] = (obj.committed_value, obj.committed_write_ts)
    return committed


def _handle_item(engine, siblings, versions, item: tuple) -> tuple:
    try:
        if item[0] == "op":
            return _handle_op_item(engine, siblings, versions, item)
        return (
            "committed",
            _handle_complete(
                engine, siblings, versions, item[1], item[2], item[3]
            ),
        )
    except Exception as exc:  # relayed to the caller
        return ("err", exc)


def _recv_worker_frame(sock: socket.socket) -> tuple[int, bytes | None]:
    """Worker-side receive with the 1 MiB cap.

    Returns ``(type, payload)``; an oversized-but-well-framed frame is
    drained and returned as ``(type, None)`` so the loop can answer with
    a typed error instead of dying (a claimed size past the stream
    ceiling is corruption and raises, killing the worker — the parent
    then fails the shard over).
    """
    header = _recv_exact(sock, _HEADER.size)
    (size,) = _HEADER.unpack(header)
    if size < 1 or size > _STREAM_CEILING:
        raise EOFError(f"torn shard frame: claimed {size} bytes")
    ftype = _recv_exact(sock, 1)[0]
    if size > MAX_FRAME_BYTES:
        remaining = size - 1
        while remaining:
            remaining -= len(_recv_exact(sock, min(remaining, 1 << 16)))
        return ftype, None
    return ftype, _recv_exact(sock, size - 1)


def _worker_main(
    sock: socket.socket,
    inherited: list[socket.socket],
    shard_db: Database,
    protocol: str,
    distance: DistanceFunction,
    export_policy: str,
    wait_policy: str,
) -> None:
    """One shard worker: an ordinary engine behind a frame loop."""
    # Forked children inherit every socketpair created before their fork;
    # close the ones that are not ours so the parent closing a channel
    # produces EOF at its worker instead of lingering in our fd table.
    for other in inherited:
        try:
            other.close()
        except OSError:
            pass
    engine = build_unsharded(
        shard_db,
        protocol_spec(protocol),
        distance=distance,
        export_policy=export_policy,
        wait_policy=wait_policy,
    )
    engine.waits = _MirrorWaitRegistry()
    siblings: dict[int, TransactionState] = {}
    versions: dict[int, int] = {}
    try:
        while True:
            ftype, payload = _recv_worker_frame(sock)
            if payload is None:
                # Oversized.  Notes are one-way (nobody is reading a
                # reply), so they are dropped; anything else gets the
                # typed refusal its sender is waiting for.
                if ftype != _FT_NOTE:
                    _send_frame(
                        sock,
                        _FT_ERROR,
                        pickle.dumps(
                            ProtocolError(
                                "oversized shard frame refused "
                                f"(cap {MAX_FRAME_BYTES} bytes)"
                            ),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        ),
                    )
                continue
            if ftype == _FT_BATCH:
                try:
                    items = _decode_batch(payload)
                except Exception as exc:
                    _send_frame(
                        sock,
                        _FT_ERROR,
                        pickle.dumps(
                            ProtocolError(f"undecodable batch frame: {exc}"),
                            protocol=pickle.HIGHEST_PROTOCOL,
                        ),
                    )
                    continue
                replies = bytearray(_COUNT.pack(len(items)))
                for item in items:
                    replies += _encode_reply_item(
                        _handle_item(engine, siblings, versions, item)
                    )
                _send_frame(sock, _FT_BATCH_REPLY, bytes(replies))
            elif ftype == _FT_NOTE:
                sub, a, b = _NOTE.unpack(payload)
                if sub == _NOTE_WAIT:
                    engine.waits.note(a, b)
                elif sub == _NOTE_WAKEUP:
                    engine.waits.fire(a)
                else:
                    return
            else:
                _send_frame(
                    sock,
                    _FT_ERROR,
                    pickle.dumps(
                        ProtocolError(f"unknown shard frame type {ftype}"),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    ),
                )
    except (EOFError, OSError, ShardChannelError):
        return
    finally:
        try:
            sock.close()
        except OSError:
            pass


# -- parent side ---------------------------------------------------------------


class _PendingCall:
    """One caller's item waiting to ride a combined batch frame."""

    __slots__ = ("item", "reply", "error", "event")

    def __init__(self, item: tuple) -> None:
        self.item = item
        self.reply: tuple | None = None
        self.error: BaseException | None = None
        self.event = threading.Event()


class _WorkerChannel:
    """One shard's RPC endpoint: socket + process + a flat-combining lock.

    Callers append their item to the pending queue and then contend for
    the channel lock.  The winner (the *leader*) drains every pending
    item — its own and everyone else's — into one batch frame, pays one
    round-trip, and distributes the replies; the losers find their reply
    already delivered when they get the lock.  Replies pair with items
    positionally, so the lock is held across the whole round-trip and
    one-way posts interleave FIFO-safely on the same socket.
    """

    def __init__(self, sock: socket.socket, process, shard: int) -> None:
        self.sock = sock
        self.process = process
        self.shard = shard
        self.lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: deque[_PendingCall] = deque()
        self.closed = False

    def pending_ops(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    def request(self, item: tuple) -> tuple:
        """Ship one op/complete item; returns its decoded reply."""
        call = _PendingCall(item)
        with self._pending_lock:
            self._pending.append(call)
        with self.lock:
            if not call.event.is_set():
                self._service()
        if call.error is not None:
            raise call.error
        assert call.reply is not None
        return call.reply

    def _service(self) -> None:
        """Leader duty: drain the pending queue, one frame per group."""
        with self._pending_lock:
            batch = list(self._pending)
            self._pending.clear()
        if not batch:
            return
        if self.closed:
            error = EOFError("shard channel closed")
            for call in batch:
                call.error = error
                call.event.set()
            return
        # Split only when a combined frame would blow the 1 MiB cap.
        group: list[tuple[_PendingCall, bytes]] = []
        size = _COUNT.size
        for call in batch:
            encoded = _encode_item(call.item)
            if group and size + len(encoded) > _BATCH_BYTE_LIMIT:
                self._round_trip(group)
                group = []
                size = _COUNT.size
            group.append((call, encoded))
            size += len(encoded)
        if group:
            self._round_trip(group)

    def _round_trip(self, group: list[tuple[_PendingCall, bytes]]) -> None:
        calls = [call for call, _ in group]
        frame = _COUNT.pack(len(calls)) + b"".join(data for _, data in group)
        try:
            _send_frame(self.sock, _FT_BATCH, frame)
            ftype, payload = _recv_typed(
                self.sock, shard=self.shard, pending=len(calls)
            )
            if ftype == _FT_ERROR:
                # A typed refusal: the worker is alive and executed
                # nothing; surface the error without killing the channel.
                error = pickle.loads(payload)
                for call in calls:
                    call.error = error
                    call.event.set()
                return
            if ftype != _FT_BATCH_REPLY:
                raise ShardChannelError(
                    f"unexpected shard reply frame type {ftype}",
                    self.shard,
                    len(calls),
                )
            replies = _decode_batch_reply(payload)
            if len(replies) != len(calls):
                raise ShardChannelError(
                    f"batch reply count mismatch "
                    f"({len(replies)} != {len(calls)})",
                    self.shard,
                    len(calls),
                )
        except (OSError, EOFError, ShardChannelError) as exc:
            for call in calls:
                call.error = exc
                call.event.set()
            return
        except Exception as exc:  # undecodable reply bytes = torn stream
            error = ShardChannelError(
                f"undecodable batch reply: {exc}", self.shard, len(calls)
            )
            for call in calls:
                call.error = error
                call.event.set()
            return
        _perf.rpc_ops += len(calls)
        _perf.rpc_round_trips += 1
        _perf.rpc_batched_ops += len(calls)
        for call, reply in zip(calls, replies):
            call.reply = reply
            call.event.set()

    def post_note(self, sub: int, a: int = 0, b: int = 0) -> None:
        with self.lock:
            if self.closed:
                return
            _send_frame(self.sock, _FT_NOTE, _NOTE.pack(sub, a, b))

    def close(self, timeout: float = 1.0) -> None:
        with self.lock:
            if not self.closed:
                self.closed = True
                try:
                    _send_frame(
                        self.sock, _FT_NOTE, _NOTE.pack(_NOTE_SHUTDOWN, 0, 0)
                    )
                except OSError:
                    pass
                try:
                    self.sock.close()
                except OSError:
                    pass
        # Fail anything still queued behind the closed channel.
        with self._pending_lock:
            stranded = list(self._pending)
            self._pending.clear()
        if stranded:
            error = EOFError("shard channel closed")
            for call in stranded:
                call.error = error
                call.event.set()
        if self.process is not None:
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout)


def _reap(channels: list[_WorkerChannel]) -> None:
    """weakref.finalize hook: never leak worker processes."""
    for channel in channels:
        try:
            channel.close(timeout=0.5)
        except Exception:
            pass


def process_sharding_unavailable() -> str | None:
    """Why real process sharding would not help here, or None if it would.

    ``"no-fork"`` — the platform cannot fork (workers inherit their shard
    database and socket by fork; spawn cannot ship the socketpair).
    ``"single-core"`` — forking N workers onto one core only adds IPC
    cost; the thread-based composite is the better engine there.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return "no-fork"
    if (os.cpu_count() or 1) <= 1:
        return "single-core"
    return None


class _ProcessWaitRegistry(_SharedWaitRegistry):
    """The shared parent registry plus cross-process edge mirroring."""

    def __init__(
        self,
        is_active: Callable[[int], bool],
        is_completing: Callable[[int], bool],
        broadcast: Callable[[tuple], None],
    ) -> None:
        super().__init__(is_active, is_completing)
        self._broadcast = broadcast

    def subscribe(
        self,
        blocking_transaction: int,
        callback: Callable[[], None],
        waiter_transaction: int | None = None,
    ) -> None:
        parked = False
        backoff = 0.0
        with self._lock:
            if self._is_active(blocking_transaction):
                self._self_fires.pop(
                    (waiter_transaction, blocking_transaction), None
                )
                WaitRegistry.subscribe(
                    self,
                    blocking_transaction,
                    callback,
                    waiter_transaction=waiter_transaction,
                )
                parked = True
            elif self._is_completing(blocking_transaction):
                key = (waiter_transaction, blocking_transaction)
                count = self._self_fires.get(key, 0)
                self._self_fires[key] = count + 1
                backoff = min(
                    _SELF_FIRE_BACKOFF_INITIAL * (2**count),
                    _SELF_FIRE_BACKOFF_CAP,
                )
        if parked:
            if waiter_transaction is not None:
                self._broadcast(
                    ("wait_note", waiter_transaction, blocking_transaction)
                )
            return
        if backoff > 0.0:
            time.sleep(backoff)
        callback()

    def fire(self, completed_transaction: int) -> int:
        count = super().fire(completed_transaction)
        self._broadcast(("wakeup", completed_transaction))
        return count


def _merge_delta(accumulator, delta):
    """Fold one ``apply_delta``-shaped delta onto an owned accumulator.

    Delta entries carry *absolute* values (usage per level, per-object
    totals, range extremes), so folding is plain overwrite — applying
    the merged result equals applying each delta in order.  Returns the
    (possibly freshly created) accumulator, a mutable 4-list.
    """
    usage, per_object, operations, ranges = delta
    if accumulator is None:
        return [dict(usage), dict(per_object), operations, dict(ranges)]
    accumulator[0].update(usage)
    accumulator[1].update(per_object)
    if operations is not None:
        accumulator[2] = operations
    accumulator[3].update(ranges)
    return accumulator


#: Pending-delta marker: the canonical state moved in a way the parent
#: cannot express as a delta (failed-over local op) — next op on the
#: shard must carry a full dump.
_PENDING_FULL = "full"


class _TxnSync:
    """Parent-side delta-sync bookkeeping for one transaction.

    ``version`` counts the canonical account state's revisions (bumped
    whenever an op's reply delta — or a failed-over local op — changes
    it); ``shard_versions`` records the revision each worker last
    acknowledged; ``pending`` accumulates, per lagging shard, the merged
    deltas between that shard's revision and the current one, so its
    next op ships exactly the missed changes (or :data:`_PENDING_FULL`
    when the gap cannot be expressed as a delta).  A shard absent from
    ``shard_versions`` has never been touched — its first op carries the
    descriptor and a full dump.
    """

    __slots__ = ("descriptor", "version", "shard_versions", "pending")

    def __init__(self, descriptor: dict) -> None:
        self.descriptor = descriptor
        self.version = 0
        self.shard_versions: dict[int, int] = {}
        #: shard -> [account_acc, import_acc] (each None or a 4-list)
        #: or _PENDING_FULL.
        self.pending: dict[int, object] = {}


class ProcessShardedEngine(EngineCore):
    """N per-shard engines in worker processes behind the one
    :class:`~repro.engine.api.Engine` interface."""

    #: Hosts holding a global engine mutex may skip it for this engine —
    #: the per-shard channel locks are the critical sections.
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
        self._spec = validate_protocol_options(
            protocol,
            snapshot_cache=snapshot_cache,
            wait_policy=wait_policy,
            shards=shards,
            processes=True,
        )
        # No snapshot cache in process mode (see module docstring): the
        # inherited ``snapshot`` stays None.
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
        self._txn_lock = threading.Lock()
        #: Global txn id -> shards it has operated on (completion fan-out).
        self._touched: dict[int, set[int]] = {}
        #: Global txn id -> delta-sync bookkeeping (descriptor, canonical
        #: state version, per-shard acknowledged versions and dumps).
        self._sync: dict[int, _TxnSync] = {}
        #: Global txn id -> {shard: sibling} for *failed-over* (local)
        #: shards only; healthy shards keep their siblings worker-side.
        self._siblings: dict[int, dict[int, TransactionState]] = {}
        self._completing: set[int] = set()
        self.waits = _ProcessWaitRegistry(
            self._is_globally_active, self._is_completing, self._broadcast
        )
        # Shard-local database views aliasing the parent's objects.  The
        # fork below copy-on-writes them into each worker; the parent's
        # originals stay behind as the committed-state mirror and as the
        # substrate for in-process failover engines.
        self._databases = [
            Database(
                catalog=database.catalog,
                version_window=database.version_window,
            )
            for _ in range(shards)
        ]
        for obj in database.objects():
            self._databases[obj.object_id % shards].adopt_object(obj)
        #: In-process replacement engines for dead shards (None = healthy).
        self._local: list[object | None] = [None] * shards
        self._local_locks = [threading.Lock() for _ in range(shards)]
        self._failover_lock = threading.RLock()
        self._closed = False
        context = multiprocessing.get_context("fork")
        pairs = [socket.socketpair() for _ in range(shards)]
        self._channels: list[_WorkerChannel] = []
        for shard in range(shards):
            parent_sock, child_sock = pairs[shard]
            inherited = [
                endpoint
                for index, pair in enumerate(pairs)
                if index != shard
                for endpoint in pair
            ]
            process = context.Process(
                target=_worker_main,
                args=(
                    child_sock,
                    inherited,
                    self._databases[shard],
                    protocol,
                    distance,
                    export_policy,
                    wait_policy,
                ),
                name=f"repro-shard-{shard}",
                daemon=True,
            )
            process.start()
            self._channels.append(_WorkerChannel(parent_sock, process, shard))
        for _, child_sock in pairs:
            child_sock.close()
        self._finalizer = weakref.finalize(self, _reap, list(self._channels))

    # -- routing ---------------------------------------------------------------

    def shard_of(self, object_id: int) -> int:
        return object_id % self.shards

    def worker_pids(self) -> tuple[int | None, ...]:
        """Worker process ids (None once a shard has failed over)."""
        return tuple(
            None
            if channel.closed or channel.process is None
            else channel.process.pid
            for channel in self._channels
        )

    def failed_shards(self) -> tuple[int, ...]:
        return tuple(
            shard
            for shard, local in enumerate(self._local)
            if local is not None
        )

    def _is_globally_active(self, transaction_id: int) -> bool:
        return transaction_id in self._active

    def _is_completing(self, transaction_id: int) -> bool:
        return transaction_id in self._completing

    def _broadcast(self, frame: tuple) -> None:
        sub = _NOTE_WAIT if frame[0] == "wait_note" else _NOTE_WAKEUP
        a = frame[1]
        b = frame[2] if len(frame) > 2 else 0
        for channel in self._channels:
            try:
                channel.post_note(sub, a, b)
            except OSError:
                pass  # the op path notices the dead worker and fails over

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
            txn_id = txn.transaction_id
            self._active[txn_id] = txn
            self._touched[txn_id] = set()
            # What a worker needs to build its sibling on first touch.
            self._sync[txn_id] = _TxnSync(
                {
                    "transaction_id": txn_id,
                    "kind": txn.kind.value,
                    "timestamp": txn.timestamp,
                    "bounds": txn.bounds,
                    "group_limits": (
                        dict(group_limits) if group_limits is not None else None
                    ),
                    "object_limits": (
                        dict(object_limits)
                        if object_limits is not None
                        else None
                    ),
                    "allow_inconsistent_reads": allow_inconsistent_reads,
                }
            )
            self._siblings[txn_id] = {}
        self.recorder.begin(txn)
        return txn

    # -- operations -------------------------------------------------------------

    def read(self, txn: TransactionState, object_id: int) -> Outcome:
        txn.require_active()
        self.database.get(object_id)  # unknown-object parity before any RPC
        return self._operate(txn, "read", object_id, 0.0)

    def write(
        self, txn: TransactionState, object_id: int, value: float
    ) -> Outcome:
        self._require_update(txn)
        self.database.get(object_id)
        return self._operate(txn, "write", object_id, float(value))

    def _dump_accounts(
        self, txn: TransactionState, has_import: bool
    ) -> tuple:
        return (
            txn.account.dump_state(),
            txn.import_account.dump_state() if has_import else None,
        )

    def _operate(
        self, txn: TransactionState, op: str, object_id: int, value: float
    ) -> Outcome:
        txn_id = txn.transaction_id
        shard = object_id % self.shards
        sync = self._sync.get(txn_id)
        if sync is None:
            raise InvalidOperation(
                f"transaction {txn_id} is not active", txn_id
            )
        if self._local[shard] is not None:
            return self._local_op(txn, shard, op, object_id, value)
        opcode = _OP_READ if op == "read" else _OP_WRITE
        has_import = _has_import(txn)
        item = self._build_op_item(
            txn, sync, shard, opcode, object_id, value, has_import
        )
        try:
            reply = self._channels[shard].request(item)
            if reply[0] == "resync":
                # Version skew (the worker holds a different revision
                # than our record says — e.g. a dropped acknowledgement):
                # forget the record and re-send with a full dump.
                _perf.rpc_resyncs += 1
                sync.shard_versions.pop(shard, None)
                sync.pending.pop(shard, None)
                item = self._build_op_item(
                    txn, sync, shard, opcode, object_id, value, has_import
                )
                reply = self._channels[shard].request(item)
                if reply[0] == "resync":
                    raise ShardChannelError(
                        "worker refused a full-dump resync", shard, 1
                    )
        except (OSError, EOFError, ShardChannelError):
            return self._shard_failed(txn, shard)
        if reply[0] == "err":
            raise reply[1]
        outcome = reply[1]
        self._apply_sync_out(txn, sync, shard, reply[2], has_import)
        touched = self._touched.get(txn_id)
        if touched is not None:
            touched.add(shard)
        return self._absorb(
            txn, object_id, outcome, is_read=(op == "read"), value=value
        )

    def _build_op_item(
        self,
        txn: TransactionState,
        sync: _TxnSync,
        shard: int,
        opcode: int,
        object_id: int,
        value: float,
        has_import: bool,
    ) -> tuple:
        descriptor = None
        held = sync.shard_versions.get(shard)
        if held is None:
            # First touch: ship the sibling descriptor and the full state.
            descriptor = sync.descriptor
            sync_in: tuple = (
                "full",
                sync.version,
                self._dump_accounts(txn, has_import),
            )
            _perf.rpc_sync_full += 1
        elif held == sync.version:
            sync_in = ("none", sync.version)
            _perf.rpc_sync_none += 1
        else:
            entry = sync.pending.get(shard)
            if entry is None or entry is _PENDING_FULL:
                sync_in = (
                    "full",
                    sync.version,
                    self._dump_accounts(txn, has_import),
                )
                _perf.rpc_sync_full += 1
            else:
                account_acc, import_acc = entry
                sync_in = (
                    "delta",
                    held,
                    sync.version,
                    (
                        tuple(account_acc) if account_acc else None,
                        tuple(import_acc) if import_acc else None,
                    ),
                )
                _perf.rpc_sync_delta += 1
        return (
            "op",
            txn.transaction_id,
            opcode,
            object_id,
            value,
            descriptor,
            sync_in,
        )

    def _apply_sync_out(
        self,
        txn: TransactionState,
        sync: _TxnSync,
        shard: int,
        sync_out: tuple | None,
        has_import: bool,
    ) -> None:
        if sync_out is None:
            # The op charged nothing; the worker now simply holds
            # whatever revision the op frame brought it to.
            sync.shard_versions[shard] = sync.version
            sync.pending.pop(shard, None)
            return
        account_delta, import_delta = sync_out
        if account_delta is not None:
            txn.account.apply_delta(account_delta)
        if import_delta is not None and has_import:
            txn.import_account.apply_delta(import_delta)
        sync.version += 1
        sync.shard_versions[shard] = sync.version
        sync.pending.pop(shard, None)
        # Every other touched shard just fell one revision behind; fold
        # this delta into its pending accumulator so its next op ships
        # exactly the missed changes — O(changed entries), never a dump.
        for other in sync.shard_versions:
            if other == shard:
                continue
            entry = sync.pending.get(other)
            if entry is _PENDING_FULL:
                continue
            if entry is None:
                entry = [None, None]
                sync.pending[other] = entry
            if account_delta is not None:
                entry[0] = _merge_delta(entry[0], account_delta)
            if import_delta is not None:
                entry[1] = _merge_delta(entry[1], import_delta)

    def _local_op(
        self,
        txn: TransactionState,
        shard: int,
        op: str,
        object_id: int,
        value: float,
    ) -> Outcome:
        """Operate on a failed-over shard's in-process engine."""
        engine = self._local[shard]
        sync = self._sync.get(txn.transaction_id)
        with self._local_locks[shard]:
            # In-process again: the accounts are shared directly, as in
            # the thread-based composite.
            sibling = shard_sibling(self._siblings, txn, shard, engine)
            if op == "read":
                outcome = engine.read(sibling, object_id)
            else:
                outcome = engine.write(sibling, object_id, value)
        if sync is not None:
            # The local engine mutated the shared canonical account
            # directly — there is no delta to accumulate, so move the
            # revision past every worker shard and force their next op
            # to carry a full dump.
            sync.version += 1
            for other in sync.shard_versions:
                if other != shard:
                    sync.pending[other] = _PENDING_FULL
        touched = self._touched.get(txn.transaction_id)
        if touched is not None:
            touched.add(shard)
        return self._absorb(
            txn, object_id, outcome, is_read=(op == "read"), value=value
        )

    def _absorb(
        self,
        txn: TransactionState,
        object_id: int,
        outcome: Outcome,
        is_read: bool,
        value: float = 0.0,
    ) -> Outcome:
        """Mirror a shard outcome onto the global state and the recorder.

        Unlike the thread-based composite — whose inner engines share the
        composite's recorder — worker metrics are discarded, so the
        parent re-records each outcome exactly as a bare manager would.
        Outcome payloads (esr_case, charged inconsistency, values) ride
        the shard channel's reply frames, so parent-side events carry the
        same information worker-side recording would have.
        """
        shard = object_id % self.shards
        if isinstance(outcome, Granted):
            absorb_granted(txn, object_id, outcome, is_read)
            if is_read:
                self.recorder.read(txn, object_id, outcome, shard=shard)
            else:
                self.recorder.write(
                    txn, object_id, value, outcome, shard=shard
                )
        elif isinstance(outcome, MustWait):
            self.recorder.wait(
                txn,
                "read" if is_read else "write",
                object_id,
                outcome.blocking_transaction,
                shard=shard,
            )
        elif isinstance(outcome, Rejected):
            # The shard already aborted and finished the sibling it saw;
            # record as the bare manager's _reject would, then propagate
            # the abort to every other touched shard.
            self.recorder.rejection(
                txn, "read" if is_read else "write", object_id, outcome,
                shard=shard,
            )
            self._finish(
                txn,
                TransactionStatus.ABORTED,
                outcome.reason,
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
        """Decide the completion once, fan it out to every touched shard.

        Complete items ride the same batch frames as ops, so a busy
        channel coalesces completions from concurrent transactions into
        shared round-trips."""
        with self._txn_lock:
            self._completing.add(txn.transaction_id)
            touched = self._touched.pop(txn.transaction_id, set())
            local_map = self._siblings.pop(txn.transaction_id, {})
            self._sync.pop(txn.transaction_id, None)
            self._active.pop(txn.transaction_id, None)
        committing = status is TransactionStatus.COMMITTED
        for shard in sorted(touched):
            if shard == already_finished:
                continue
            engine = self._local[shard]
            if engine is not None:
                sibling = local_map.get(shard)
                if sibling is not None and sibling.is_active:
                    with self._local_locks[shard]:
                        engine.complete(sibling, status, reason)
                continue
            try:
                reply = self._channels[shard].request(
                    ("complete", txn.transaction_id, status.value, reason)
                )
            except (OSError, EOFError, ShardChannelError):
                # The shard's staged effects died with its worker; the
                # mirror below is the surviving committed state.
                self._failover(shard)
                continue
            if reply[0] == "err":
                continue
            if committing:
                for object_id, (value, write_ts) in reply[1].items():
                    self.database.get(object_id).adopt_committed(
                        value, write_ts
                    )
        if status is TransactionStatus.ABORTED:
            txn.abort_reason = reason
            if record:
                self.recorder.abort(txn, reason)
        elif record:
            self.recorder.commit(txn)
        txn.status = status
        self.waits.fire(txn.transaction_id)
        self._completing.discard(txn.transaction_id)

    # -- worker failure ----------------------------------------------------------

    def _shard_failed(self, txn: TransactionState, shard: int) -> Rejected:
        """An op hit a dead worker: fail the shard over, abort the txn."""
        self._failover(shard)
        if txn.is_active:
            self._finish(
                txn, TransactionStatus.ABORTED, REASON_SHARD_FAILOVER
            )
        return Rejected(
            REASON_SHARD_FAILOVER,
            detail=(
                f"shard {shard} worker died; the shard continues in-process"
            ),
        )

    def _failover(self, shard: int) -> None:
        """Replace a dead worker with an in-process engine over the mirror.

        Committed state survives (the parent mirrors every commit);
        whatever lived only inside the worker — staged writes, read
        timestamps, reader registries, version history — is gone, so
        every transaction that touched the shard is aborted with
        ``"shard-failover"`` and restarts under a fresh timestamp.
        """
        with self._failover_lock:
            if self._local[shard] is not None or self._closed:
                return
            self._channels[shard].close(timeout=0.2)
            _perf.shard_failovers += 1
            engine = build_unsharded(
                self._databases[shard],
                self._spec,
                distance=self.distance,
                export_policy=self.export_policy,
                wait_policy=self.wait_policy,
            )
            engine.waits = self.waits
            self._local[shard] = engine
        for txn in list(self._active.values()):
            touched = self._touched.get(txn.transaction_id)
            if touched is not None and shard in touched and txn.is_active:
                self._finish(
                    txn,
                    TransactionStatus.ABORTED,
                    REASON_SHARD_FAILOVER,
                    already_finished=shard,
                )

    # -- teardown ----------------------------------------------------------------

    def close(self) -> None:
        """Shut every worker down (idempotent); never leaves orphans."""
        if self._closed:
            return
        self._closed = True
        for channel in self._channels:
            channel.close()
        self._finalizer.detach()

    def __enter__(self) -> "ProcessShardedEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        failed = len(self.failed_shards())
        degraded = f", failed_over={failed}" if failed else ""
        return (
            f"ProcessShardedEngine(protocol={self.protocol!r}, "
            f"shards={self.shards}, active={len(self._active)}, "
            f"objects={len(self.database)}{degraded})"
        )
