"""The high-throughput asyncio transaction server.

Same engine, same wire protocol as the threaded server
(:mod:`repro.net.server`), different serving architecture.  The engine is
single-threaded by design; here the event loop *is* the critical section
— every :class:`~repro.engine.manager.TransactionManager` call happens on
the loop thread, so the threaded server's global mutex disappears
entirely.  Three throughput levers ride on top:

**Pipelining.**  Clients may keep many requests in flight per connection.
Requests carry a correlation ``id`` which the response echoes; responses
for *independent* transactions may return out of order (a parked
strict-ordering wait delays only its own response).  Requests without an
``id`` are answered untagged, so one-at-a-time clients — including the
existing :class:`~repro.net.client.RemoteConnection` — work unchanged.

**Batched dispatch.**  The transport layer is a callback-based
:class:`asyncio.Protocol` (no stream-reader coroutine per connection):
``data_received`` splits a chunk into requests and appends them to one
shared queue, and a single dispatcher task drains the *entire* queue per
loop tick, running it against the manager in one pass — per-request
overhead is amortised across the batch.  Strict-ordering waits become
``asyncio.Event`` subscriptions on the wait registry (no blocked
threads): a parked operation lives in its own small task that retries
when the blocker completes and aborts on ``wait_timeout``.

**Write coalescing and backpressure.**  Responses are buffered per
connection and flushed once per batch — many responses, one syscall.
Backpressure is two-sided: a connection that exceeds its in-flight
window (``max_inflight`` requests awaiting responses) has its socket
reads paused until responses drain, and a slow *reader* that backs up
the transport write buffer (``pause_writing``) causes responses to be
held in the connection's buffer — itself bounded by the window — until
the transport drains.

**Off-loop shard executors** (``shards > 1``).  With a sharded engine
(:class:`~repro.engine.sharded.ShardedEngine`) the loop is no longer the
critical section — the engine takes its own per-shard locks.  The
dispatcher then stops running engine calls inline: each request is handed
to one of ``shards`` single-thread executor *lanes*.  A connection is
pinned to one lane (round-robin), so a pipelined client's responses keep
request order — the same wire contract as the threaded server — while
different connections execute engine calls concurrently across lanes.
Completion callbacks marshal responses back onto the loop, which
remains the only thread that touches transports and buffers.  Wait
events are loop-affine but may be fired from executor threads, so the
sharded mode wraps them in :class:`_LoopEvent` (``set`` via
``call_soon_threadsafe``).

**Codec negotiation.**  Every connection starts in JSON line mode; a
``hello`` request may switch it to the length-prefixed binary codec
(:mod:`repro.net.protocol`), after which ``data_received`` parses frames
instead of lines — including a binary edition of the snapshot-cache
inline fast path that never builds a dict on a cache hit.  The switch is
lossless mid-chunk (binary bytes may contain ``0x0A``, so the line split
is undone exactly before the frame parser takes over).

**uvloop (optional).**  :class:`AsyncServerThread` runs its loop under
uvloop when the optional extra is importable (``pip install
repro[speed]``), falling back to stock asyncio silently otherwise;
``loop_implementation`` reports which one actually ran.

Observability: ``repro.perf.counters`` tallies requests batched, batches
drained, coalesced flushes, backpressure stalls, and ``net_codec_*``
frame/negotiation counts.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro import perf
from repro.engine.api import Engine, create_engine
from repro.engine.database import Database
from repro.engine.reasons import REASON_CLIENT_DISCONNECTED
from repro.errors import ProtocolError
from repro.net.protocol import (
    BINARY_CODEC,
    JSON_CODEC,
    MAX_FRAME_BYTES,
    MAX_LINE_BYTES,
    SUPPORTED_CODECS,
    Codec,
    decode_message,
    negotiate_hello,
)
from repro.net.requests import (
    NeedsWait,
    abort_on_timeout,
    attach_id,
    retry_operation,
    submit_batch,
    submit_request,
    try_cached_read,
)
from repro.net.server import WAIT_TIMEOUT_SECONDS

try:  # optional accelerator: a drop-in libuv event loop
    import uvloop as _uvloop
except ImportError:  # pragma: no cover - environment-dependent
    _uvloop = None

__all__ = [
    "AsyncTransactionServer",
    "AsyncServerThread",
    "serve_in_thread",
    "uvloop_available",
]

#: Per-connection cap on requests accepted but not yet answered.
DEFAULT_MAX_INFLIGHT = 128


def uvloop_available() -> bool:
    """Whether the optional ``uvloop`` extra is importable here."""
    return _uvloop is not None


class _Failure:
    """A framing-level failure, queued so it answers in request order."""

    __slots__ = ("error", "detail")

    def __init__(self, error: str, detail: str):
        self.error = error
        self.detail = detail


class _LoopEvent:
    """An awaitable event whose ``set()`` is safe from any thread.

    The sharded engine fires wait-registry callbacks from whichever
    executor thread completes the blocking transaction; a plain
    ``asyncio.Event.set`` from a foreign thread races the loop.  This
    wrapper marshals the set through ``call_soon_threadsafe`` while
    ``wait()`` stays a normal loop-side await.
    """

    __slots__ = ("_event", "_loop")

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._event = asyncio.Event()
        self._loop = loop

    def set(self) -> None:
        self._loop.call_soon_threadsafe(self._event.set)

    async def wait(self) -> None:
        await self._event.wait()


class _Connection(asyncio.Protocol):
    """One client connection: line framing, sessions, response buffer."""

    __slots__ = (
        "server",
        "transport",
        "buffer",
        "sessions",
        "out",
        "inflight",
        "pending_ops",
        "read_paused",
        "write_paused",
        "flush_pending",
        "failed",
        "closing",
        "closed",
        "lane",
        "codec",
        "binary",
    )

    def __init__(self, server: "AsyncTransactionServer"):
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.buffer = b""
        #: Wire codec in effect (starts JSON; ``hello`` may switch it).
        self.codec: Codec = JSON_CODEC
        self.binary = False  # codec is length-prefixed, not line-framed
        self.sessions: dict[int, Any] = {}
        self.out: list[bytes] = []
        self.inflight = 0
        #: Per-transaction count of requests queued for dispatch but not
        #: yet answered.  The inline cache fast path must not answer a
        #: read while an earlier operation of the *same* transaction is
        #: still queued — that would reorder the transaction's own
        #: execution (e.g. a read overtaking its own pending write).
        self.pending_ops: dict[int, int] = {}
        self.read_paused = False
        self.write_paused = False
        self.flush_pending = False
        self.failed = False  # framing failure queued; ignore further input
        self.closing = False  # error reply buffered; close once flushed
        self.closed = False
        #: Off-loop shard-executor mode: the FIFO lane serving this
        #: connection's engine calls (assigned round-robin on first use).
        self.lane: ThreadPoolExecutor | None = None

    # -- transport callbacks ---------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed = True
        self.server._connections.discard(self)
        self.server._abandon(self)

    def pause_writing(self) -> None:
        # Slow reader: hold responses in self.out (bounded by the
        # in-flight window) instead of growing the transport buffer.
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        self.flush_now()

    def eof_received(self) -> bool | None:
        if self.buffer and not self.failed:
            self.fail(
                "protocol",
                "connection closed mid-frame"
                if self.binary
                else "connection closed mid-line",
            )
        # Keep the transport open while an error response is still in
        # flight through the dispatch queue; flush_now() closes it.
        return self.failed

    def data_received(self, data: bytes) -> None:
        if self.failed:
            return
        if self.binary:
            self._binary_data(data)
        else:
            self._line_data(data)

    def _line_data(self, data: bytes) -> None:
        buffer = self.buffer + data
        if b"\n" not in data:
            if len(buffer) > MAX_LINE_BYTES:
                self.buffer = b""
                self.fail(
                    "too_large",
                    f"protocol line exceeds {MAX_LINE_BYTES} bytes",
                )
                return
            self.buffer = buffer
            return
        lines = buffer.split(b"\n")
        self.buffer = buffer = lines.pop()
        if len(buffer) > MAX_LINE_BYTES:
            self.fail(
                "too_large", f"protocol line exceeds {MAX_LINE_BYTES} bytes"
            )
            return
        server = self.server
        queue = server._queue
        manager = server.manager
        cache = manager.snapshot is not None
        pending_ops = self.pending_ops
        codec = self.codec
        queued = 0
        answered_inline = False
        for index, line in enumerate(lines):
            if len(line) > MAX_LINE_BYTES:
                self.fail(
                    "too_large",
                    f"protocol line exceeds {MAX_LINE_BYTES} bytes",
                )
                return
            if cache:
                # Inline fast path: answer a bounded-staleness read right
                # here, before batched dispatch — zero queue, zero tick,
                # and for the canonical wire shape zero JSON (the line is
                # parsed and the response formatted at the byte level).
                # Only when no earlier op of the same transaction is
                # still queued (per-transaction order must hold; ops of
                # *other* transactions may be overtaken, which pipelining
                # already allows).  Inline answers never count against
                # the in-flight window.
                parsed = codec.parse_canonical_read(line)
                if parsed is not None:
                    txn_id, object_id, rid = parsed
                    if not pending_ops.get(txn_id, 0):
                        txn = self.sessions.get(txn_id)
                        outcome = (
                            manager.read_cached(txn, object_id)
                            if txn is not None
                            else None
                        )
                        if outcome is not None:
                            self.out.append(
                                codec.encode_read_outcome(outcome, rid)
                            )
                            answered_inline = True
                            continue
            try:
                message = decode_message(line)
            except ProtocolError as exc:
                self.fail("protocol", str(exc))
                return
            if server.codecs is not None and message.get("op") == "hello":
                # Negotiate, answer on the current (JSON) codec, then —
                # on a switch — hand the remaining bytes of this chunk
                # to the binary parser losslessly: binary frames may
                # contain 0x0A, so the split must be undone exactly.
                chosen, response = negotiate_hello(message, server.codecs)
                self.out.append(codec.encode_response(attach_id(response, message)))
                answered_inline = True
                if chosen is not codec:
                    self.codec = chosen
                    self.binary = True
                    rest = b"\n".join(lines[index + 1 :] + [self.buffer])
                    self.buffer = b""
                    self._finish_ingest(queued, answered_inline)
                    if rest:
                        self._binary_data(rest)
                    return
                continue
            if cache and not pending_ops.get(message.get("txn", -1), 0):
                # Same fast path for read messages in any other wire
                # shape (different key order, extra keys): decoded
                # normally, still answered before dispatch.
                response = try_cached_read(manager, message, self.sessions)
                if response is not None:
                    self.out.append(
                        codec.encode_response(attach_id(response, message))
                    )
                    answered_inline = True
                    continue
            txn = message.get("txn")
            if txn is not None:
                pending_ops[txn] = pending_ops.get(txn, 0) + 1
            queue.append((self, message))
            queued += 1
        self._finish_ingest(queued, answered_inline)

    def _binary_data(self, data: bytes) -> None:
        buffer = self.buffer + data
        server = self.server
        queue = server._queue
        manager = server.manager
        cache = manager.snapshot is not None
        pending_ops = self.pending_ops
        codec = self.codec
        counters = perf.counters
        queued = 0
        answered_inline = False
        pos = 0
        end = len(buffer)
        while end - pos >= 4:
            size = int.from_bytes(buffer[pos : pos + 4], "little")
            if size < 1 or size > MAX_FRAME_BYTES:
                self.buffer = b""
                self._finish_ingest(queued, answered_inline)
                self.fail(
                    "too_large",
                    f"binary frame of {size} bytes exceeds "
                    f"{MAX_FRAME_BYTES} bytes",
                )
                return
            if end - pos - 4 < size:
                break
            frame = buffer[pos + 4 : pos + 4 + size]
            pos += 4 + size
            if cache:
                # Inline fast path, binary edition: a canonical read
                # frame is three struct fields — no dict is ever built
                # on a cache hit.
                parsed = codec.parse_canonical_read(frame)
                if parsed is not None:
                    txn_id, object_id, rid = parsed
                    if not pending_ops.get(txn_id, 0):
                        txn = self.sessions.get(txn_id)
                        outcome = (
                            manager.read_cached(txn, object_id)
                            if txn is not None
                            else None
                        )
                        if outcome is not None:
                            # The decode counter normally ticks inside
                            # codec.decode, which this path bypasses.
                            counters.net_codec_binary_frames_decoded += 1
                            self.out.append(
                                codec.encode_read_outcome(outcome, rid)
                            )
                            answered_inline = True
                            continue
            try:
                message = codec.decode(frame)
            except ProtocolError as exc:
                self.buffer = b""
                self._finish_ingest(queued, answered_inline)
                self.fail("protocol", str(exc))
                return
            if server.codecs is not None and message.get("op") == "hello":
                chosen, response = negotiate_hello(message, server.codecs)
                self.out.append(codec.encode_response(attach_id(response, message)))
                answered_inline = True
                if chosen is not codec:
                    self.codec = chosen
                    self.binary = False
                    self.buffer = b""
                    self._finish_ingest(queued, answered_inline)
                    rest = buffer[pos:]
                    if rest:
                        self._line_data(rest)
                    return
                continue
            if cache and not pending_ops.get(message.get("txn", -1), 0):
                response = try_cached_read(manager, message, self.sessions)
                if response is not None:
                    self.out.append(
                        codec.encode_response(attach_id(response, message))
                    )
                    answered_inline = True
                    continue
            txn = message.get("txn")
            if txn is not None:
                pending_ops[txn] = pending_ops.get(txn, 0) + 1
            queue.append((self, message))
            queued += 1
        self.buffer = buffer[pos:]
        self._finish_ingest(queued, answered_inline)

    def _finish_ingest(self, queued: int, answered_inline: bool) -> None:
        """Shared post-chunk bookkeeping for both framing modes."""
        self.inflight += queued
        if self.inflight >= self.server.max_inflight and not self.read_paused:
            # In-flight window full: stop reading until responses drain.
            perf.counters.net_backpressure_stalls += 1
            self.read_paused = True
            self.transport.pause_reading()
        if queued:
            self.server._queue_ready.set()
        if answered_inline:
            # The dispatcher only flushes connections it answers, so the
            # inline responses need their own (idempotent, coalesced)
            # flush — e.g. when nothing was queued, or every queued
            # request parked on a wait.
            self.schedule_flush()

    # -- response path ---------------------------------------------------------

    def note_answered(self, message: dict[str, Any]) -> None:
        """Drop one queued-op claim for the message's transaction."""
        txn = message.get("txn")
        if txn is None:
            return
        count = self.pending_ops.get(txn, 0) - 1
        if count > 0:
            self.pending_ops[txn] = count
        else:
            self.pending_ops.pop(txn, None)

    def enqueue(self, response: dict[str, Any]) -> None:
        """Buffer one response; reopens the read window if it was full."""
        if self.inflight > 0:
            self.inflight -= 1
        if self.read_paused and self.inflight < self.server.max_inflight:
            self.read_paused = False
            if not self.closed:
                self.transport.resume_reading()
        if self.closed:
            return
        self.out.append(self.codec.encode_response(response))

    def flush_now(self) -> None:
        """Write the buffered responses in one transport write."""
        self.flush_pending = False
        if self.closed or self.write_paused or not self.out:
            return
        if len(self.out) > 1:
            perf.counters.net_flushes_coalesced += 1
        payload = b"".join(self.out)
        self.out.clear()
        self.transport.write(payload)
        if self.closing:
            self.closed = True
            self.transport.close()

    def schedule_flush(self) -> None:
        if self.flush_pending or self.closed:
            return
        self.flush_pending = True
        self.server._loop.call_soon(self.flush_now)

    def fail(self, error: str, detail: str) -> None:
        """Queue a framing-level failure; the dispatcher answers it in
        order after any requests already queued, then the connection
        closes once the error has been flushed."""
        if self.failed:
            return
        self.failed = True
        self.server._queue.append((self, _Failure(error, detail)))
        self.server._queue_ready.set()


class AsyncTransactionServer:
    """An asyncio TCP transaction server around one database.

    Usage (on a running loop)::

        server = AsyncTransactionServer(database, wait_timeout=5.0)
        await server.start(host, port)
        ...
        await server.aclose()

    From synchronous code use :func:`serve_in_thread`, which runs the
    whole server on a dedicated loop thread.
    """

    def __init__(
        self,
        database: Database,
        protocol: str = "esr",
        export_policy: str = "max",
        wait_timeout: float = WAIT_TIMEOUT_SECONDS,
        wait_policy: str = "wait",
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        snapshot_cache: bool = False,
        shards: int = 1,
        processes: bool | str = False,
        codecs: tuple[str, ...] | None = SUPPORTED_CODECS,
        record_history: bool = False,
    ):
        self.manager: Engine = create_engine(
            database,
            protocol,
            export_policy=export_policy,
            wait_policy=wait_policy,
            snapshot_cache=snapshot_cache,
            shards=shards,
            processes=processes,
            record_history=record_history,
        )
        #: Upper bound on one strict-ordering wait, in seconds.
        self.wait_timeout = wait_timeout
        self.max_inflight = max_inflight
        #: Codecs offered to ``hello`` negotiation; None disables it
        #: (the connection then behaves like a pre-negotiation server).
        self.codecs = codecs
        self._queue: deque[tuple[_Connection, dict[str, Any]]] = deque()
        self._connections: set[_Connection] = set()
        self._queue_ready: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._dispatcher: asyncio.Task | None = None
        self._waiters: set[asyncio.Task] = set()
        # Off-loop dispatch lanes (sharded mode only): one single-thread
        # executor per shard; each connection is pinned to one lane
        # (round-robin) so its responses keep request order while
        # different connections run engine calls concurrently.  None
        # means classic mode: the loop itself is the engine critical
        # section.
        if getattr(self.manager, "thread_safe", False) and shards > 1:
            self._lanes: list[ThreadPoolExecutor] | None = [
                ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"aio-shard-{i}"
                )
                for i in range(shards)
            ]
        else:
            self._lanes = None
        self._lane_rr = 0

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    # -- lifecycle -------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue_ready = asyncio.Event()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), host, port
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections):
            conn.flush_now()
            if conn.transport is not None:
                conn.transport.close()
        for task in (self._dispatcher, *self._waiters):
            if task is not None:
                task.cancel()
        await asyncio.gather(
            *(t for t in (self._dispatcher, *self._waiters) if t is not None),
            return_exceptions=True,
        )
        if self._lanes is not None:
            # Join the lane threads: wait=False leaked one thread per
            # shard per serve/close cycle (an in-flight engine call kept
            # its worker alive past aclose, and repeated cycles in one
            # process accumulated them).  The lanes are single-thread
            # executors whose queued work is cancelled, so the join is
            # bounded by the one engine call still running.
            for lane in self._lanes:
                lane.shutdown(wait=True, cancel_futures=True)
        close = getattr(self.manager, "close", None)
        if close is not None:
            close()

    def _abandon(self, conn: _Connection) -> None:
        """Abort whatever a disconnected client left active."""
        for txn in conn.sessions.values():
            if txn.is_active:
                self.manager.abort(txn, REASON_CLIENT_DISCONNECTED)
        conn.sessions.clear()

    def history(self) -> "HistoryLog":
        """The recorded history so far (empty when recording is off)."""
        from repro.engine.history import HistoryLog

        return HistoryLog.from_engine(self.manager)

    # -- batched dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        counters = perf.counters
        queue = self._queue
        ready = self._queue_ready
        manager = self.manager
        while True:
            await ready.wait()
            ready.clear()
            if not queue:
                continue
            # Drain in place — readers hold a reference to this deque.
            batch = list(queue)
            queue.clear()
            counters.net_batches_drained += 1
            counters.net_requests_batched += len(batch)
            touched: dict[int, _Connection] = {}
            # Off-loop mode groups each drained tick's messages by
            # connection and pays ONE executor hop per group (instead of
            # one per message): the lane runs submit_batch over the
            # group, and a process-sharded engine underneath coalesces
            # the concurrent lanes' shard RPCs into shared batch frames.
            # Per-connection request order is preserved — a group keeps
            # its messages in arrival order and every group of one
            # connection lands on that connection's FIFO lane.
            groups: dict[int, tuple[_Connection, list[dict[str, Any]]]] = {}
            for conn, message in batch:
                if type(message) is _Failure:
                    # Flush this connection's pending group first so the
                    # failure reply keeps its position in the lane order.
                    pending = groups.pop(id(conn), None)
                    if pending is not None:
                        self._submit_group(*pending)
                    conn.out.append(
                        conn.codec.encode_response(
                            {
                                "ok": False,
                                "error": message.error,
                                "detail": message.detail,
                            }
                        )
                    )
                    conn.closing = True
                    touched[id(conn)] = conn
                    continue
                if self._lanes is not None:
                    group = groups.get(id(conn))
                    if group is None:
                        groups[id(conn)] = (conn, [message])
                    else:
                        group[1].append(message)
                    continue
                result = submit_request(manager, message, conn.sessions)
                if type(result) is NeedsWait:
                    # Subscribe *now*, synchronously — the blocker could
                    # complete during any await between decision and
                    # subscription, and the wake-up would be missed.
                    event = self._subscribe(result)
                    self._spawn_waiter(conn, message, result, event)
                else:
                    conn.note_answered(message)
                    if "id" in message:
                        result["id"] = message["id"]
                    conn.enqueue(result)
                    touched[id(conn)] = conn
            for conn, messages in groups.values():
                self._submit_group(conn, messages)
            for conn in touched.values():
                conn.flush_now()

    def _submit_group(
        self, conn: _Connection, messages: list[dict[str, Any]]
    ) -> None:
        """One executor hop for one connection's drained-tick messages."""
        future = self._loop.run_in_executor(
            self._lane_for(conn),
            submit_batch,
            self.manager,
            messages,
            conn.sessions,
        )
        future.add_done_callback(
            functools.partial(self._offloop_batch_done, conn, messages)
        )

    def _lane_for(self, conn: _Connection) -> ThreadPoolExecutor:
        """Pick the FIFO lane for one request: one lane per connection,
        assigned round-robin on first use.

        Routing by connection (rather than by transaction id) keeps the
        wire contract intact — a pipelined client receives its responses
        strictly in request order, the same as on the threaded server —
        because every request of one connection shares one FIFO lane.
        Per-transaction ordering follows for free: a transaction lives
        on exactly one connection.  Parallelism comes from concurrent
        connections landing on different lanes, which is how the load
        arrives in practice.
        """
        assert self._lanes is not None
        if conn.lane is None:
            conn.lane = self._lanes[self._lane_rr % len(self._lanes)]
            self._lane_rr += 1
        return conn.lane

    def _offloop_done(
        self,
        conn: _Connection,
        message: dict[str, Any],
        future: "asyncio.Future[dict[str, Any] | NeedsWait]",
    ) -> None:
        """Loop-side completion of an off-loop engine call."""
        if future.cancelled():
            return
        result = future.result()
        if type(result) is NeedsWait:
            event = self._subscribe(result)
            self._spawn_waiter(conn, message, result, event)
            return
        conn.note_answered(message)
        conn.enqueue(attach_id(result, message))
        conn.schedule_flush()

    def _offloop_batch_done(
        self,
        conn: _Connection,
        messages: list[dict[str, Any]],
        future: "asyncio.Future[list[dict[str, Any] | NeedsWait]]",
    ) -> None:
        """Loop-side completion of one connection's off-loop batch."""
        if future.cancelled():
            return
        results = future.result()
        flush = False
        for message, result in zip(messages, results):
            if type(result) is NeedsWait:
                event = self._subscribe(result)
                self._spawn_waiter(conn, message, result, event)
                continue
            conn.note_answered(message)
            conn.enqueue(attach_id(result, message))
            flush = True
        if flush:
            conn.schedule_flush()

    def _subscribe(self, pending: NeedsWait) -> Any:
        # In sharded mode the registry fires callbacks from executor
        # threads, so the event's set() must marshal onto the loop.
        factory = (
            (lambda: _LoopEvent(self._loop))
            if self._lanes is not None
            else asyncio.Event
        )
        return self.manager.waits.wait_event(
            pending.blocking_transaction,
            waiter_transaction=pending.txn.transaction_id,
            factory=factory,
        )

    def _spawn_waiter(
        self,
        conn: _Connection,
        message: dict[str, Any],
        pending: NeedsWait,
        event: Any,
    ) -> None:
        task = asyncio.create_task(
            self._wait_and_retry(conn, message, pending, event)
        )
        self._waiters.add(task)
        task.add_done_callback(self._waiters.discard)

    async def _wait_and_retry(
        self,
        conn: _Connection,
        message: dict[str, Any],
        pending: NeedsWait,
        event: Any,
    ) -> None:
        """One parked operation: wake on the blocker, retry, or time out."""
        while True:
            try:
                await asyncio.wait_for(event.wait(), self.wait_timeout)
            except asyncio.TimeoutError:
                response = await self._run_engine_call(
                    conn, message, abort_on_timeout, pending
                )
                break
            result = await self._run_engine_call(
                conn, message, retry_operation, pending
            )
            if type(result) is NeedsWait:
                event = self._subscribe(result)
                continue
            response = result
            break
        conn.note_answered(message)
        conn.enqueue(attach_id(response, message))
        conn.schedule_flush()

    async def _run_engine_call(
        self, conn: _Connection, message: dict[str, Any], fn, pending: NeedsWait
    ):
        """Run a retry/abort engine call where this server runs them: on
        the connection's lane in sharded mode, inline on the loop (the
        classic critical section) otherwise."""
        if self._lanes is None:
            return fn(self.manager, pending)
        return await self._loop.run_in_executor(
            self._lane_for(conn), fn, self.manager, pending
        )


# -- running on a background thread -------------------------------------------


class AsyncServerThread:
    """An :class:`AsyncTransactionServer` on its own loop thread.

    The synchronous counterpart of :func:`repro.net.server.serve_forever`:
    construction blocks until the server is bound, ``port`` is readable
    from any thread, and :meth:`shutdown` stops the loop and joins the
    thread.  Client code (tests, the bench-net load generator, the CLI)
    talks to it over TCP exactly as to the threaded server.
    """

    def __init__(
        self,
        server: AsyncTransactionServer,
        host: str,
        port: int,
        use_uvloop: bool | None = None,
    ):
        self.server = server
        # None = auto: take uvloop when the optional extra is importable.
        # True degrades gracefully too — the request is best-effort, and
        # ``loop_implementation`` reports what actually ran.
        self._use_uvloop = uvloop_available() if use_uvloop is None else (
            use_uvloop and uvloop_available()
        )
        #: ``"uvloop"`` or ``"asyncio"`` — the loop that actually ran.
        self.loop_implementation = "uvloop" if self._use_uvloop else "asyncio"
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, args=(host, port), daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self, host: str, port: int) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.server.start(host, port)
            except BaseException as exc:  # bind failures surface in __init__
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self._stop.wait()
            await self.server.aclose()

        if self._use_uvloop:
            # asyncio.run grew loop_factory only in 3.12; Runner has it
            # since 3.11 and is otherwise the same machinery.
            with asyncio.Runner(loop_factory=_uvloop.new_event_loop) as runner:
                runner.run(main())
        else:
            asyncio.run(main())

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def manager(self) -> Engine:
        return self.server.manager

    def shutdown(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)


def serve_in_thread(
    database: Database,
    host: str = "127.0.0.1",
    port: int = 0,
    protocol: str = "esr",
    export_policy: str = "max",
    wait_timeout: float = WAIT_TIMEOUT_SECONDS,
    wait_policy: str = "wait",
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    snapshot_cache: bool = False,
    shards: int = 1,
    processes: bool | str = False,
    codecs: tuple[str, ...] | None = SUPPORTED_CODECS,
    use_uvloop: bool | None = None,
    record_history: bool = False,
) -> AsyncServerThread:
    """Start an async server on a background loop thread (bound and live)."""
    server = AsyncTransactionServer(
        database,
        protocol=protocol,
        export_policy=export_policy,
        wait_policy=wait_policy,
        wait_timeout=wait_timeout,
        max_inflight=max_inflight,
        snapshot_cache=snapshot_cache,
        shards=shards,
        processes=processes,
        codecs=codecs,
        record_history=record_history,
    )
    return AsyncServerThread(server, host, port, use_uvloop=use_uvloop)
