"""Where the traced run attaches its spans: the public entry points of
each layer, wrapped from outside without editing the program.

=================  ==========================================================
layer              entry points
=================  ==========================================================
protocol.decode    ``decode_message`` (as the asyncio server calls it),
                   ``Codec.decode`` and ``Codec.parse_canonical_read``
protocol.encode    ``Codec.encode_response`` and ``Codec.encode_read_outcome``
requests.*         ``submit_request``, ``submit_batch``, ``try_cached_read``,
                   ``retry_operation``, ``abort_on_timeout``
engine.*           the ``Engine`` methods, through :class:`EngineProxy`
cache.read         ``Engine.read_cached``
procshard.*        the ``ProcessShardedEngine`` methods (same proxy)
ledger             ``InconsistencyAccount.admit`` / ``admit_bounded``
history            the ``HistoryRecorder`` hooks
aioserver.flush    ``transport.write`` of the asyncio socket transport
=================  ==========================================================

Besides spans the seams keep counts the per-layer metrics need: outcome
kinds, useful operations, waits, generic JSON calls and TIL use.
"""

from __future__ import annotations

import json
import types

from tracing import Tracer

__all__ = ["EngineProxy", "install_engine_layers", "install_server_layers"]

HISTORY_HOOKS = ("begin", "read", "write", "wait", "rejection", "commit", "abort")


class EngineProxy:
    """An ``Engine`` whose methods record spans; everything else forwards.

    ``prefix`` names the layer: ``"engine"`` for a bare manager,
    ``"procshard"`` for the process-sharded composite, whose methods are
    the parent side of the shard channel.
    """

    def __init__(self, inner, tracer: Tracer, prefix: str):
        from repro.engine.results import Granted, Rejected

        self._inner = inner
        self._tracer = tracer
        self._granted = Granted
        self._rejected = Rejected
        self._ops: dict[int, int] = {}
        #: Imported / TIL of every committed query with a finite TIL.
        self.til_use: list[float] = []
        wrap = tracer.wrap
        self._begin = wrap(inner.begin, f"{prefix}.begin")
        self._read = wrap(inner.read, f"{prefix}.read")
        self._write = wrap(inner.write, f"{prefix}.write")
        self._commit = wrap(inner.commit, f"{prefix}.commit")
        self._abort = wrap(inner.abort, f"{prefix}.abort")
        self._read_cached = wrap(inner.read_cached, "cache.read")

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _classify(self, txn, outcome):
        # Only the rarer outcomes are counted; granted operations are the
        # calls minus these, which keeps the common path cheap.
        kind = type(outcome)
        if kind is self._granted:
            if outcome.esr_case is not None:
                self._tracer.count("n.esr_ops")
            key = txn.transaction_id
            self._ops[key] = self._ops.get(key, 0) + 1
        elif kind is self._rejected:
            self._tracer.count("n.rejects")
            self._tracer.count("n.wasted_ops", self._ops.pop(txn.transaction_id, 0))
        else:
            self._tracer.count("n.engine_waits")
        return outcome

    def begin(self, *args, **kwargs):
        return self._begin(*args, **kwargs)

    def read(self, txn, object_id):
        return self._classify(txn, self._read(txn, object_id))

    def write(self, txn, object_id, value):
        return self._classify(txn, self._write(txn, object_id, value))

    def read_cached(self, txn, object_id):
        outcome = self._read_cached(txn, object_id)
        if outcome is None:
            self._tracer.count("n.cache_misses")
        else:
            if outcome.esr_case is not None:
                self._tracer.count("n.esr_ops")
            key = txn.transaction_id
            self._ops[key] = self._ops.get(key, 0) + 1
        return outcome

    def commit(self, txn):
        self._commit(txn)
        self._tracer.count("n.useful_ops", self._ops.pop(txn.transaction_id, 0))
        if txn.is_query:
            limit = txn.bounds.import_limit
            if 0 < limit < float("inf"):
                self.til_use.append(txn.imported / limit)

    def abort(self, txn, *args, **kwargs):
        self._tracer.count("n.wasted_ops", self._ops.pop(txn.transaction_id, 0))
        return self._abort(txn, *args, **kwargs)


def install_engine_layers(tracer: Tracer) -> None:
    """Wrap the ledger and the history hooks (class-wide, this process)."""
    from repro.core.accounting import InconsistencyAccount
    from repro.engine.history import HistoryRecorder

    for name in ("admit", "admit_bounded"):
        setattr(
            InconsistencyAccount,
            name,
            tracer.wrap(getattr(InconsistencyAccount, name), "ledger"),
        )
    for name in HISTORY_HOOKS:
        setattr(HistoryRecorder, name, tracer.wrap(getattr(HistoryRecorder, name), "history"))


def install_server_layers(tracer: Tracer, server) -> EngineProxy:
    """Wrap every serving-layer seam of one not-yet-started
    ``AsyncTransactionServer`` and put an :class:`EngineProxy` in front
    of its engine.  Returns the proxy."""
    import asyncio.selector_events

    from repro.net import aioserver, protocol

    install_engine_layers(tracer)
    wrap = tracer.wrap
    count = tracer.count

    aioserver.decode_message = wrap(aioserver.decode_message, "protocol.decode")
    for codec in (protocol.JSON_CODEC, protocol.BINARY_CODEC):
        codec.parse_canonical_read = wrap(codec.parse_canonical_read, "protocol.decode")
        codec.encode_response = wrap(codec.encode_response, "protocol.encode")
        codec.encode_read_outcome = wrap(codec.encode_read_outcome, "protocol.encode")
    protocol.BINARY_CODEC.decode = wrap(protocol.BINARY_CODEC.decode, "protocol.decode")

    def counted(fn, name):
        def call(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return call

    # The codecs reach the generic JSON machinery only through the
    # module-level ``json`` name; count those calls (the slow path).
    protocol.json = types.SimpleNamespace(
        loads=counted(json.loads, "n.json_generic"),
        dumps=counted(json.dumps, "n.json_generic"),
        JSONDecodeError=json.JSONDecodeError,
    )

    needs_wait = aioserver.NeedsWait
    submit_request = wrap(aioserver.submit_request, "requests.submit")
    submit_batch = wrap(aioserver.submit_batch, "requests.batch")

    def traced_submit_request(manager, message, sessions):
        result = submit_request(manager, message, sessions)
        if type(result) is needs_wait:
            count("n.waits")
        return result

    def traced_submit_batch(manager, messages, sessions):
        results = submit_batch(manager, messages, sessions)
        count("n.batched", len(messages))
        waits = sum(1 for result in results if type(result) is needs_wait)
        if waits:
            count("n.waits", waits)
        return results

    aioserver.submit_request = traced_submit_request
    aioserver.submit_batch = traced_submit_batch
    for name in ("try_cached_read", "retry_operation", "abort_on_timeout"):
        setattr(aioserver, name, wrap(getattr(aioserver, name), f"requests.{name}"))

    transport = asyncio.selector_events._SelectorSocketTransport
    transport.write = wrap(transport.write, "aioserver.flush")

    from repro.engine.procshard import ProcessShardedEngine

    prefix = (
        "procshard" if isinstance(server.manager, ProcessShardedEngine) else "engine"
    )
    proxy = EngineProxy(server.manager, tracer, prefix)
    server.manager = proxy
    return proxy
