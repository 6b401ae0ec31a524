"""Micro-benchmarks of the engine's hot paths.

These are throughput numbers for the building blocks every simulated
operation passes through: the DES kernel's dispatch loops (zero-delay
fast path, heap path, resource queue), the TSO/ESR decision +
bookkeeping in the transaction manager, hierarchy charging, proper-value
lookup, timestamp generation, workload generation, and the
transaction-language pipeline.

The kernel/ledger/generator workloads are the same callables ``repro bench-hotpath``
times for ``BENCH_hotpath.json``; here pytest-benchmark wraps them, so
``--benchmark-disable`` turns this file into an execution smoke test
(CI runs it that way to keep the perf harness from rotting).
"""

from __future__ import annotations

from repro.core.bounds import ObjectBounds, TransactionBounds
from repro.core.hierarchy import GroupCatalog, HierarchyLedger
from repro.engine.database import Database
from repro.engine.manager import TransactionManager
from repro.engine.objects import DataObject
from repro.engine.timestamps import Timestamp, TimestampGenerator
from repro.experiments.hotpath import (
    catalog_members_workload,
    engine_dispatch_workload,
    ledger_charge_workload,
    resource_churn_workload,
    timeout_dispatch_workload,
    workload_generate_workload,
)
from repro.lang.compiler import format_program
from repro.lang.parser import parse_program
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import WorkloadSpec


def test_kernel_zero_delay_dispatch(benchmark):
    """Event-triggered resumes through the ready-queue fast path."""
    benchmark(engine_dispatch_workload(processes=20, steps=500))


def test_kernel_timeout_dispatch(benchmark):
    """Positive-delay timeouts through the heap path."""
    benchmark(timeout_dispatch_workload(processes=20, steps=500))


def test_kernel_resource_churn(benchmark):
    """Contended acquire/release on a deque-backed FIFO resource."""
    benchmark(resource_churn_workload(workers=20, cycles=100))


def test_ledger_limited_path_charge(benchmark):
    """Admission walks over the shared limited-path cache."""
    benchmark(ledger_charge_workload(ledgers=50, objects=100))


def test_catalog_members_reverse_index(benchmark):
    """Member listing via the per-group reverse index."""
    benchmark(catalog_members_workload(calls=500, objects=2000))


def test_workload_generation(benchmark):
    """Paper-workload programs through the generator, one client's stream."""
    benchmark(workload_generate_workload(programs=500))


def _database(n: int = 200) -> Database:
    db = Database()
    db.create_many((i, 5_000.0) for i in range(n))
    return db


def test_consistent_read_throughput(benchmark):
    db = _database()
    manager = TransactionManager(db)

    def run():
        txn = manager.begin("query", TransactionBounds(import_limit=1e9))
        for object_id in range(100):
            manager.read(txn, object_id)
        manager.commit(txn)

    benchmark(run)


def test_inconsistent_read_throughput(benchmark):
    """Case-1 late reads: proper-value lookup + hierarchy charge per read."""
    db = _database()
    manager = TransactionManager(db)
    # Age every object with a committed write so old readers are late.
    writer = manager.begin("update", TransactionBounds(export_limit=1e9))
    for object_id in range(100):
        manager.write(writer, object_id, 5_500.0)
    manager.commit(writer)

    def run():
        txn = manager.begin(
            "query",
            TransactionBounds(import_limit=1e9),
            timestamp=Timestamp(-1.0, 9, run.counter),
        )
        run.counter += 1
        for object_id in range(100):
            manager.read(txn, object_id)
        manager.commit(txn)

    run.counter = 0
    benchmark(run)


def test_update_commit_throughput(benchmark):
    db = _database()
    manager = TransactionManager(db)

    def run():
        txn = manager.begin("update", TransactionBounds(export_limit=1e9))
        for object_id in range(0, 40, 2):
            value = manager.read(txn, object_id).value
            manager.write(txn, object_id, value + 1.0)
        manager.commit(txn)

    benchmark(run)


def test_hierarchy_charge_throughput(benchmark):
    catalog = GroupCatalog()
    catalog.add_group("a")
    catalog.add_group("b", parent="a")
    catalog.add_group("c", parent="b")
    for object_id in range(100):
        catalog.assign(object_id, "c")

    def run():
        ledger = HierarchyLedger(
            catalog, 1e12, {"a": 1e12, "b": 1e12, "c": 1e12}
        )
        for object_id in range(100):
            ledger.check_and_charge(object_id, 1.0, object_limit=10.0)

    benchmark(run)


def test_proper_value_lookup(benchmark):
    obj = DataObject(1, 0.0)
    for t in range(1, 21):
        obj.stage_write(t, Timestamp(float(t), 0, t), float(t))
        obj.commit_write()
    target = Timestamp(3.5, 0, 0)
    benchmark(lambda: obj.proper_value_for(target))


def test_timestamp_generation(benchmark):
    gen = TimestampGenerator(site=1)
    benchmark(gen.next)


def test_parse_format_round_trip(benchmark):
    generator = WorkloadGenerator(WorkloadSpec(), seed=1)
    source = format_program(generator.generate_query(100_000.0))
    benchmark(lambda: format_program(parse_program(source)))
