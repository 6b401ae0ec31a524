"""The simulated server: the engine wrapped for generator-based clients.

Two concerns meet here:

* the :class:`~repro.engine.manager.TransactionManager` never blocks — it
  returns :class:`~repro.engine.results.MustWait` and expects the runtime
  to retry.  A blocked operation subscribes an
  :class:`~repro.sim.des.Event` to the wait registry; the client process
  suspends on it, waking when the blocking transaction completes, then
  retries — the paper's wait-based strict ordering;
* the server machine has finite processing capacity.  Every operation
  (including commit/abort processing) occupies one of the server's
  service units for ``service_time`` simulated milliseconds, queueing
  FIFO when all units are busy.  This is what makes wasted work — the
  operations of transactions that later abort — degrade throughput, and
  with it the thrashing behaviour of the paper's Figures 7–10.  While a
  transaction *waits* for strict ordering it holds no service unit.
"""

from __future__ import annotations

from typing import Generator

from repro.engine.manager import TransactionManager
from repro.engine.results import MustWait, Outcome
from repro.engine.transactions import TransactionState
from repro.sim.des import Engine, Event, Resource, Timeout

__all__ = ["SimServer", "DEFAULT_SERVICE_TIME_MS", "DEFAULT_SERVER_THREADS"]

#: Per-operation server processing time.  Calibrated so the server
#: saturates around MPL 4–6 under the paper workload, which is what puts
#: the thrashing knee inside the studied MPL range of 1–10 (the paper
#: raised its conflict ratio for the same reason, accepting "reduced
#: overall throughputs").
DEFAULT_SERVICE_TIME_MS = 6.0
#: Parallel service units (the prototype server is multithreaded but the
#: protocol-critical sections serialise on one machine).
DEFAULT_SERVER_THREADS = 1


class SimServer:
    """Generator-friendly facade over a transaction manager."""

    def __init__(
        self,
        manager: TransactionManager,
        engine: Engine,
        service_time: float = DEFAULT_SERVICE_TIME_MS,
        threads: int = DEFAULT_SERVER_THREADS,
    ):
        self.manager = manager
        self.engine = engine
        self.service_time = service_time
        self.cpu = Resource(engine, threads)
        #: The one service-time yield every operation shares (a Timeout
        #: is an immutable delay); None when service is instantaneous.
        self._service: Timeout | None = (
            Timeout(service_time) if service_time > 0 else None
        )

    # -- service-station plumbing ---------------------------------------------

    def _serve(self) -> Generator[object, None, None]:
        """Occupy one service unit for one operation's processing.

        Reads and writes inline these two yields, one generator frame
        fewer per simulated operation; commit and abort use this.
        """
        yield self.cpu.acquire()
        if self._service is not None:
            yield self._service

    # -- operations --------------------------------------------------------------

    def perform_read(
        self, txn: TransactionState, object_id: int
    ) -> Generator[object, None, Outcome]:
        """Submit a read, waiting out strict-ordering blocks.

        Use as ``outcome = yield from server.perform_read(txn, oid)``;
        the final outcome is always Granted or Rejected.
        """
        if getattr(self.manager, "snapshot", None) is not None:
            # Snapshot-cache fast path: a bounded-staleness read skips
            # the service station entirely — it occupies no service unit
            # and costs zero simulated time, the DES analogue of
            # answering outside the engine critical section.
            cached = self.manager.read_cached(txn, object_id)
            if cached is not None:
                return cached
        cpu = self.cpu
        service = self._service
        while True:
            yield cpu.acquire()
            if service is not None:
                yield service
            outcome = self.manager.read(txn, object_id)
            cpu.release()
            if isinstance(outcome, MustWait):
                yield self._block_on(outcome, txn)
                continue
            return outcome

    def perform_write(
        self, txn: TransactionState, object_id: int, value: float
    ) -> Generator[object, None, Outcome]:
        """Submit a write, waiting out strict-ordering blocks."""
        cpu = self.cpu
        service = self._service
        while True:
            yield cpu.acquire()
            if service is not None:
                yield service
            outcome = self.manager.write(txn, object_id, value)
            cpu.release()
            if isinstance(outcome, MustWait):
                yield self._block_on(outcome, txn)
                continue
            return outcome

    def perform_commit(
        self, txn: TransactionState
    ) -> Generator[object, None, None]:
        """Commit processing, under the service station."""
        yield from self._serve()
        self.manager.commit(txn)
        self.cpu.release()

    def perform_abort(
        self, txn: TransactionState, reason: str = "client-abort"
    ) -> Generator[object, None, None]:
        """Abort processing, under the service station."""
        yield from self._serve()
        self.manager.abort(txn, reason)
        self.cpu.release()

    def _block_on(self, outcome: MustWait, txn: TransactionState) -> Event:
        event = Event()
        self.manager.waits.subscribe(
            outcome.blocking_transaction,
            event.trigger,
            waiter_transaction=txn.transaction_id,
        )
        return event
