"""The discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.sim.des import Engine, Event, Process, Resource, Timeout


class TestEngineBasics:
    def test_timeouts_advance_time(self):
        engine = Engine()
        log = []

        def process():
            yield Timeout(5.0)
            log.append(engine.now)
            yield Timeout(2.5)
            log.append(engine.now)

        engine.spawn(process())
        engine.run()
        assert log == [5.0, 7.5]

    def test_events_block_until_triggered(self):
        engine = Engine()
        gate = Event()
        log = []

        def waiter():
            yield gate
            log.append(("woke", engine.now))

        def trigger():
            yield Timeout(10.0)
            gate.trigger()

        engine.spawn(waiter())
        engine.spawn(trigger())
        engine.run()
        assert log == [("woke", 10.0)]

    def test_pretriggered_event_resumes_immediately(self):
        engine = Engine()
        gate = Event()
        gate.trigger()
        log = []

        def waiter():
            yield gate
            log.append(engine.now)

        engine.spawn(waiter())
        engine.run()
        assert log == [0.0]

    def test_event_trigger_is_idempotent(self):
        gate = Event()
        gate.trigger()
        gate.trigger()
        assert gate.triggered

    def test_run_until_stops_clock(self):
        engine = Engine()

        def process():
            while True:
                yield Timeout(10.0)

        engine.spawn(process())
        assert engine.run(until=35.0) == 35.0
        assert engine.now == 35.0
        assert engine.pending_events() == 1

    def test_run_until_complete_detects_deadlock(self):
        engine = Engine()
        never = Event()

        def stuck():
            yield never

        process = engine.spawn(stuck())
        with pytest.raises(RuntimeError, match="deadlock"):
            engine.run_until_complete([process])

    def test_completion_event(self):
        engine = Engine()

        def quick():
            yield Timeout(1.0)

        def joiner(target):
            yield target.completed
            log.append(engine.now)

        log = []
        target = engine.spawn(quick())
        engine.spawn(joiner(target))
        engine.run()
        assert log == [1.0]

    def test_deterministic_ordering_at_same_instant(self):
        engine = Engine()
        log = []

        def make(name):
            def process():
                yield Timeout(5.0)
                log.append(name)

            return process()

        for name in ("a", "b", "c"):
            engine.spawn(make(name))
        engine.run()
        assert log == ["a", "b", "c"]  # FIFO among simultaneous events

    def test_zero_delay_interleaves_with_due_heap_events(self):
        """Heap events due *now* run before zero-delay work scheduled now.

        The ready-queue fast path must reproduce the single-heap
        ``(time, seq)`` order: an event scheduled earlier for time T
        precedes a zero-delay callback scheduled while the clock already
        sits at T.
        """
        engine = Engine()
        log = []
        engine.call_later(5.0, lambda: log.append("due"))
        engine.call_later(
            5.0,
            lambda: engine.call_later(0.0, lambda: log.append("spawned")),
        )

        def process():
            yield Timeout(5.0)
            log.append("proc")

        engine.spawn(process())
        engine.run()
        # "due" was heap-scheduled before "proc"'s resume; the zero-delay
        # "spawned" callback was created at t=5 and so runs last.
        assert log == ["due", "proc", "spawned"]

    def test_fastpath_counters_track_dispatch(self):
        engine = Engine()

        def process():
            yield Timeout(1.0)   # heap
            yield Timeout(0.0)   # ready fast path

        engine.spawn(process())  # spawn itself is a fast-path resume
        engine.run()
        assert engine.events_dispatched == 3
        assert engine.fastpath_dispatched == 2

    def test_pending_events_counts_ready_queue(self):
        engine = Engine()
        engine.call_later(0.0, lambda: None)
        engine.call_later(3.0, lambda: None)
        assert engine.pending_events() == 2
        engine.run()
        assert engine.pending_events() == 0

    def test_run_until_leaves_ready_work_for_next_call(self):
        """run(until) past all events still runs zero-delay follow-ups."""
        engine = Engine()
        log = []

        def process():
            yield Timeout(2.0)
            yield Timeout(0.0)
            log.append(engine.now)

        engine.spawn(process())
        engine.run(until=10.0)
        assert log == [2.0]
        assert engine.now == 10.0

    def test_run_until_complete_drains_fast_path(self):
        engine = Engine()

        def chained():
            for _ in range(3):
                yield Timeout(0.0)

        process = engine.spawn(chained())
        engine.run_until_complete([process])
        assert process.completed.triggered
        assert engine.now == 0.0

    def test_bad_yield_type_raises(self):
        engine = Engine()

        def bad():
            yield 42

        engine.spawn(bad())
        with pytest.raises(TypeError, match="expected Timeout or Event"):
            engine.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)
        with pytest.raises(ValueError):
            Engine().call_later(-1.0, lambda: None)


class TestResource:
    def test_serialises_access(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        log = []

        def worker(name):
            yield resource.acquire()
            log.append((name, "start", engine.now))
            yield Timeout(10.0)
            resource.release()
            log.append((name, "end", engine.now))

        engine.spawn(worker("a"))
        engine.spawn(worker("b"))
        engine.run()
        assert log == [
            ("a", "start", 0.0),
            ("a", "end", 10.0),
            ("b", "start", 10.0),
            ("b", "end", 20.0),
        ]

    def test_capacity_two_overlaps(self):
        engine = Engine()
        resource = Resource(engine, capacity=2)
        starts = []

        def worker():
            yield resource.acquire()
            starts.append(engine.now)
            yield Timeout(10.0)
            resource.release()

        for _ in range(3):
            engine.spawn(worker())
        engine.run()
        assert starts == [0.0, 0.0, 10.0]

    def test_fifo_queueing(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        order = []

        def worker(name, arrival):
            yield Timeout(arrival)
            yield resource.acquire()
            order.append(name)
            yield Timeout(5.0)
            resource.release()

        engine.spawn(worker("late", 2.0))
        engine.spawn(worker("later", 3.0))
        engine.spawn(worker("first", 0.0))
        engine.run()
        assert order == ["first", "late", "later"]

    def test_fifo_grant_order_under_interleaved_acquire_release(self):
        """Queued waiters are granted strictly first-come first-served.

        Holders release at staggered times while new requesters keep
        arriving, so grants and fresh acquires interleave; the deque-backed
        queue must still hand units out in arrival order.
        """
        engine = Engine()
        resource = Resource(engine, capacity=2)
        granted = []

        def worker(name, arrival, hold):
            yield Timeout(arrival)
            yield resource.acquire()
            granted.append(name)
            yield Timeout(hold)
            resource.release()

        # Arrival order: a, b (granted at once), then c..g queue up while
        # releases at t=4, 6, 9, ... free units one at a time.
        for name, arrival, hold in [
            ("a", 0.0, 4.0),
            ("b", 1.0, 5.0),
            ("c", 2.0, 5.0),
            ("d", 3.0, 2.0),
            ("e", 3.5, 1.0),
            ("f", 5.0, 1.0),
            ("g", 8.0, 1.0),
        ]:
            engine.spawn(worker(name, arrival, hold))
        engine.run()
        assert granted == ["a", "b", "c", "d", "e", "f", "g"]
        assert resource.queued == 0

    def test_release_without_acquire(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_utilisation_tracking(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)

        def worker():
            yield resource.acquire()
            yield Timeout(30.0)
            resource.release()

        engine.spawn(worker())
        engine.run(until=100.0)
        assert resource.utilisation(100.0) == pytest.approx(0.3)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Resource(Engine(), capacity=0)


class TestSharedImmediateGrant:
    """A free unit is granted with one shared, already-triggered event."""

    def test_free_unit_returns_triggered_event(self):
        resource = Resource(Engine(), capacity=2)
        first = resource.acquire()
        second = resource.acquire()
        assert first.triggered and second.triggered
        assert first is second
        queued = resource.acquire()
        assert not queued.triggered
        assert queued is not first

    def test_retrigger_is_noop_and_collects_no_waiters(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        grant = resource.acquire()
        grant.trigger()
        assert grant.triggered
        assert grant._add_waiter(Process(engine, iter(()))) is False
        resumed = []

        def waiter(name):
            yield grant
            resumed.append(name)

        engine.spawn(waiter("a"))
        engine.spawn(waiter("b"))
        engine.run()
        assert resumed == ["a", "b"]
        assert grant._waiters == []
        resource.release()
        assert resource.acquire() is grant
        assert grant._waiters == []

    def test_fifo_with_capacity_two_under_free_and_queued_acquires(self):
        """Immediate and queued grants interleave; order stays FIFO."""
        engine = Engine()
        resource = Resource(engine, capacity=2)
        granted = []

        def worker(name, arrival, hold):
            yield Timeout(arrival)
            yield resource.acquire()
            granted.append((name, engine.now))
            yield Timeout(hold)
            resource.release()

        # a, b take free units; c, d queue; e arrives after a unit has
        # gone idle and takes it at once; f, g queue behind the holders.
        for name, arrival, hold in [
            ("a", 0.0, 3.0),
            ("b", 0.0, 4.0),
            ("c", 1.0, 1.0),
            ("d", 2.0, 1.0),
            ("e", 6.0, 2.0),
            ("f", 6.0, 1.0),
            ("g", 6.5, 1.0),
        ]:
            engine.spawn(worker(name, arrival, hold))
        engine.run()
        assert granted == [
            ("a", 0.0), ("b", 0.0), ("c", 3.0), ("d", 4.0),
            ("e", 6.0), ("f", 6.0), ("g", 7.0),
        ]
        assert resource.queued == 0

    def test_busy_accounting_unchanged(self):
        engine = Engine()
        resource = Resource(engine, capacity=2)
        snapshots = []

        def worker(arrival, hold):
            yield Timeout(arrival)
            yield resource.acquire()
            yield Timeout(hold)
            resource.release()

        def probe():
            yield Timeout(15.0)
            snapshots.append(resource.busy_snapshot())

        # Busy (>= 1 unit held) over [0, 20) and [50, 60).
        for arrival, hold in [(0.0, 10.0), (5.0, 15.0), (50.0, 10.0)]:
            engine.spawn(worker(arrival, hold))
        engine.spawn(probe())
        engine.run(until=100.0)
        assert snapshots == [15.0]
        assert resource.busy_snapshot() == pytest.approx(30.0)
        assert resource.utilisation(100.0) == pytest.approx(0.3)
        assert resource.utilisation(100.0, since_busy=15.0) == pytest.approx(0.15)
