"""Timed spans around the calls into each layer of the program.

:meth:`Tracer.wrap` returns a timed stand-in for a callable.  Every call
is a span, folded straight into per-layer totals: calls, inclusive time and *self* time -- the span's
duration minus the part its child spans cover, so nested layers (an
engine call inside a dispatch call inside a decode loop) are never
counted twice.  Totals are kept per thread (the sharded server runs
engine calls on executor lanes) and merged on :meth:`snapshot`; a window
is the difference of two snapshots.  No span is kept once folded in.
"""

from __future__ import annotations

import threading
import time

__all__ = ["Tracer", "diff"]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._tables: dict[int, dict[str, list[int]]] = {}
        self._tables_lock = threading.Lock()

    def _state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._tables_lock:
                self._tables[threading.get_ident()] = local.table
            return local.stack, local.table

    def wrap(self, fn, layer: str):
        """A stand-in for ``fn`` that records one ``layer`` span per call."""
        local = self._local
        state = self._state
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = state()[0]
            # The entry collects the time of this span's child spans.
            entry = [0]
            stack.append(entry)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                table = local.table
                row = table.get(layer)
                if row is None:
                    row = table[layer] = [0, 0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - entry[0]

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a plain counter kept beside the span totals."""
        try:
            table = self._local.table
        except AttributeError:
            table = self._state()[1]
        row = table.get(name)
        if row is None:
            row = table[name] = [0, 0, 0]
        row[0] += amount

    def snapshot(self, thread: int | None = None) -> dict[str, list[int]]:
        """``{layer: [calls, inclusive_ns, self_ns]}`` summed over every
        thread, or for the one thread whose ident is ``thread``."""
        merged: dict[str, list[int]] = {}
        with self._tables_lock:
            tables = [
                table
                for ident, table in self._tables.items()
                if thread is None or ident == thread
            ]
        for table in tables:
            for layer, row in list(table.items()):
                total = merged.setdefault(layer, [0, 0, 0])
                for i in range(3):
                    total[i] += row[i]
        return merged


def diff(after: dict[str, list[int]], before: dict[str, list[int]]) -> dict[str, list[int]]:
    """Per-layer totals of the window between two snapshots."""
    out = {}
    for layer, row in after.items():
        base = before.get(layer, [0, 0, 0])
        out[layer] = [row[i] - base[i] for i in range(3)]
    return out
