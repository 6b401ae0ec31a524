"""The hot-path benchmark suite behind ``repro bench-hotpath``.

A handful of micro-workloads exercise exactly the code every simulated
operation passes through — zero-delay event dispatch, heap-scheduled
timeouts, FIFO resource churn, the hierarchy ledger walk, and the group
member index — plus one *smoke figure*: a single representative
:func:`~repro.sim.system.run_simulation` call timed wall-clock.  The
suite writes/compares ``BENCH_hotpath.json`` so every future change to
the kernel or the admission path has a perf trajectory to answer to.

The same workload callables are wrapped by ``benchmarks/
bench_micro_engine.py`` under pytest-benchmark; this module keeps them
dependency-free so the CLI can time them with plain ``perf_counter``
(best-of-N, to shed scheduler noise) without pytest in the loop.
"""

from __future__ import annotations

import json
import platform
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.bounds import TransactionBounds
from repro.core.hierarchy import GroupCatalog, HierarchyLedger
from repro.engine.results import Granted
from repro.perf import counters as _perf
from repro.sim.des import Engine, Event, Resource, Timeout
from repro.sim.system import SimulationConfig, run_simulation

__all__ = [
    "MicroBench",
    "MICRO_BENCHES",
    "ShardChannelConfig",
    "run_shard_channel",
    "check_rpc_regression",
    "smoke_config",
    "run_suite",
    "write_baseline",
    "load_baseline",
    "format_report",
    "format_comparison",
]

#: Schema marker for BENCH_hotpath.json, bumped on incompatible changes.
SCHEMA_VERSION = 1


# -- micro workloads -----------------------------------------------------------
#
# Each builder returns a zero-argument callable performing `ops` units of
# hot-path work; calling it repeatedly is safe (fresh state per call).


def engine_dispatch_workload(processes: int = 50, steps: int = 2000) -> Callable[[], None]:
    """Chains of zero-delay resumes — the ready-queue fast path."""

    def run() -> None:
        engine = Engine()

        def proc():
            for _ in range(steps):
                event = Event()
                engine.call_later(0.0, event.trigger)
                yield event

        engine.spawn_all(proc() for _ in range(processes))
        engine.run()

    return run


def timeout_dispatch_workload(processes: int = 50, steps: int = 2000) -> Callable[[], None]:
    """Positive-delay timeouts — the heap slow path."""

    def run() -> None:
        engine = Engine()

        def proc(i: int):
            for _ in range(steps):
                yield Timeout(0.5 + (i % 7) * 0.25)

        engine.spawn_all(proc(i) for i in range(processes))
        engine.run()

    return run


def resource_churn_workload(workers: int = 40, cycles: int = 500) -> Callable[[], None]:
    """Contended acquire/hold/release on a capacity-2 FIFO resource."""

    def run() -> None:
        engine = Engine()
        resource = Resource(engine, capacity=2)

        def proc():
            for _ in range(cycles):
                yield resource.acquire()
                yield Timeout(1.0)
                resource.release()

        engine.spawn_all(proc() for _ in range(workers))
        engine.run()

    return run


def ledger_charge_workload(ledgers: int = 200, objects: int = 100) -> Callable[[], None]:
    """Bottom-up admission walks over a three-level hierarchy."""
    catalog = GroupCatalog()
    catalog.add_group("a")
    catalog.add_group("b", parent="a")
    catalog.add_group("c", parent="b")
    for object_id in range(objects):
        catalog.assign(object_id, "c")
    limits = {"a": 1e12, "b": 1e12, "c": 1e12}

    def run() -> None:
        for _ in range(ledgers):
            ledger = HierarchyLedger(catalog, 1e12, limits)
            for object_id in range(objects):
                ledger.check_and_charge(object_id, 1.0, object_limit=10.0)

    return run


def catalog_members_workload(calls: int = 2000, objects: int = 2000) -> Callable[[], None]:
    """Group member listing against the reverse index."""
    catalog = GroupCatalog()
    for group in range(10):
        catalog.add_group(f"g{group}")
    for object_id in range(objects):
        catalog.assign(object_id, f"g{object_id % 10}")

    def run() -> None:
        for _ in range(calls):
            catalog.members("g3")

    return run


@dataclass(frozen=True)
class MicroBench:
    """One micro-workload: a builder plus its operation count per call."""

    name: str
    build: Callable[[], Callable[[], None]]
    ops: int
    unit: str


MICRO_BENCHES: tuple[MicroBench, ...] = (
    MicroBench("engine_dispatch", engine_dispatch_workload, 50 * 2000, "resumes"),
    MicroBench("timeout_dispatch", timeout_dispatch_workload, 50 * 2000, "timeouts"),
    MicroBench("resource_churn", resource_churn_workload, 40 * 500, "acquire-release"),
    MicroBench("ledger_charge", ledger_charge_workload, 200 * 100, "charges"),
    MicroBench("catalog_members", catalog_members_workload, 2000, "calls"),
)


# -- the shard-channel microbench ----------------------------------------------


@dataclass(frozen=True)
class ShardChannelConfig:
    """The fixed workload behind the ``shard_channel`` figure.

    A seeded mixed read/write trace over a process-sharded engine, in
    two phases measured separately.  The *sequential* phase (one client,
    alternating export-side updates and import-side queries touching
    every shard) makes the per-op wire cost deterministic — that is the
    ``bytes_per_op`` probe the CI regression guard keys on.  The
    *concurrent* phase (many client threads) is the throughput probe:
    it gives the flat-combining channel concurrent callers to coalesce,
    and its long transactions grow the per-transaction account
    footprint that delta sync keeps off the wire."""

    shards: int = 4
    objects: int = 256
    seq_transactions: int = 8
    seq_ops_per_txn: int = 100
    threads: int = 24
    thread_transactions: int = 2
    thread_ops_per_txn: int = 300
    seed: int = 7


def _drive_rpc_transaction(engine, rng: random.Random, objects, ops) -> int:
    """One client transaction; returns the number of granted operations."""
    update = rng.random() < 0.5
    if update:
        txn = engine.begin(
            "update",
            TransactionBounds(export_limit=1e9),
            allow_inconsistent_reads=True,
        )
    else:
        txn = engine.begin("query", TransactionBounds(import_limit=1e9))
    granted = 0
    for _ in range(ops):
        object_id = rng.randrange(objects)
        if update and rng.random() < 0.5:
            outcome = engine.write(txn, object_id, rng.random() * 100.0)
        else:
            outcome = engine.read(txn, object_id)
        if isinstance(outcome, Granted):
            granted += 1
            continue
        # MustWait / Rejected: give up on this transaction (the bench
        # measures channel cost, not contention resolution).
        if txn.is_active:
            engine.abort(txn, "bench-blocked")
        return granted
    if txn.is_active:
        engine.commit(txn)
    return granted


def _rpc_delta(before: dict, after: dict) -> dict:
    return {
        key: after[key] - before[key]
        for key in after
        if key.startswith("rpc_")
    }


def run_shard_channel(config: ShardChannelConfig | None = None) -> dict | None:
    """Time the process-sharded engine's parent↔worker channel.

    Returns the figure dict —
    ``ops_per_s``/``batch_occupancy`` from the concurrent phase,
    ``bytes_per_op``/``round_trips_per_txn``/sync mix from the
    deterministic sequential phase — or ``None`` where process sharding
    is unavailable (no ``fork``).
    """
    from repro.engine.api import create_engine
    from repro.engine.database import Database
    from repro.engine.procshard import process_sharding_unavailable

    if process_sharding_unavailable() == "no-fork":
        return None
    if config is None:
        config = ShardChannelConfig()
    database = Database()
    database.create_many(
        (object_id, 100.0) for object_id in range(config.objects)
    )
    engine = create_engine(
        database,
        "esr",
        shards=config.shards,
        processes="force",
    )
    try:
        # Phase 1 — sequential bytes probe (deterministic for the seed).
        before = _perf.snapshot()
        rng = random.Random(config.seed)
        for _ in range(config.seq_transactions):
            _drive_rpc_transaction(
                engine, rng, config.objects, config.seq_ops_per_txn
            )
        seq = _rpc_delta(before, _perf.snapshot())
        # Phase 2 — concurrent throughput probe.
        before = _perf.snapshot()
        results: list[int] = []

        def client(worker: int) -> None:
            thread_rng = random.Random(config.seed + 1 + worker)
            count = 0
            for _ in range(config.thread_transactions):
                count += _drive_rpc_transaction(
                    engine,
                    thread_rng,
                    config.objects,
                    config.thread_ops_per_txn,
                )
            results.append(count)

        threads = [
            threading.Thread(target=client, args=(worker,))
            for worker in range(config.threads)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        granted = sum(results)
        conc = _rpc_delta(before, _perf.snapshot())
    finally:
        engine.close()
    seq_ops = max(seq["rpc_ops"], 1)
    round_trips = max(conc["rpc_round_trips"], 1)
    return {
        "ops_per_s": round(granted / elapsed, 1) if elapsed > 0 else 0.0,
        "bytes_per_op": round(
            (seq["rpc_bytes_sent"] + seq["rpc_bytes_received"]) / seq_ops, 1
        ),
        "batch_occupancy": round(conc["rpc_batched_ops"] / round_trips, 2),
        "round_trips_per_txn": round(
            seq["rpc_round_trips"] / config.seq_transactions, 2
        ),
        "rpc_ops": seq["rpc_ops"] + conc["rpc_ops"],
        "rpc_round_trips": seq["rpc_round_trips"] + conc["rpc_round_trips"],
        "rpc_bytes_sent": seq["rpc_bytes_sent"] + conc["rpc_bytes_sent"],
        "rpc_bytes_received": (
            seq["rpc_bytes_received"] + conc["rpc_bytes_received"]
        ),
        "sync_full": seq["rpc_sync_full"],
        "sync_delta": seq["rpc_sync_delta"],
        "sync_none": seq["rpc_sync_none"],
    }


def check_rpc_regression(
    baseline: dict, current: dict, factor: float = 1.5
) -> str | None:
    """Fail if the shard channel's bytes/op regressed vs. the baseline.

    Returns a failure message, or None when within ``factor`` of the
    recorded figure (or when either side lacks the ``shard_channel``
    section — older baselines stay usable).  Bytes/op is the guarded
    metric because it is deterministic for the fixed sequential trace;
    ops/s on shared CI hardware is too noisy to gate on.
    """
    base = baseline.get("shard_channel")
    cur = current.get("shard_channel")
    if not base or not cur:
        return None
    allowed = base["bytes_per_op"] * factor
    if cur["bytes_per_op"] > allowed:
        return (
            f"shard_channel bytes/op regressed: {cur['bytes_per_op']:.1f} "
            f"> {allowed:.1f} (baseline {base['bytes_per_op']:.1f} "
            f"x factor {factor})"
        )
    return None


def smoke_config() -> SimulationConfig:
    """The fixed single-cell simulation the suite times wall-clock."""
    return SimulationConfig(
        mpl=16,
        til=100_000.0,
        tel=10_000.0,
        protocol="esr",
        duration_ms=60_000.0,
        warmup_ms=5_000.0,
        seed=3,
    )


# -- running -------------------------------------------------------------------


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def run_suite(
    repeats: int = 5,
    smoke_repeats: int = 3,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run every micro-bench and the smoke figure; return the report dict.

    ``repeats`` is best-of-N per workload (N=1 is the CI quick mode:
    asserts the suite still *executes*, timings meaningless).
    """
    micro: dict[str, dict[str, float]] = {}
    for bench in MICRO_BENCHES:
        workload = bench.build()
        best = _best_of(workload, repeats)
        micro[bench.name] = {
            "best_s": round(best, 6),
            "ops_per_s": round(bench.ops / best, 1) if best > 0 else 0.0,
        }
        if progress is not None:
            progress(
                f"  {bench.name}: {best:.4f}s "
                f"({bench.ops / best:,.0f} {bench.unit}/s)"
            )
    channel = run_shard_channel()
    if progress is not None:
        if channel is None:
            progress("  shard_channel: skipped (no fork)")
        else:
            progress(
                f"  shard_channel: {channel['ops_per_s']:,.0f} ops/s, "
                f"{channel['bytes_per_op']:,.0f} bytes/op, "
                f"occupancy {channel['batch_occupancy']:.2f}"
            )
    config = smoke_config()
    smoke_best = _best_of(lambda: run_simulation(config), smoke_repeats)
    if progress is not None:
        progress(f"  smoke_figure: {smoke_best:.4f}s wall")
    return {
        "schema": SCHEMA_VERSION,
        "shard_channel": channel,
        "recorded": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "repeats": repeats,
        },
        "micro": micro,
        "smoke": {
            "wall_s": round(smoke_best, 6),
            "config": {
                "mpl": config.mpl,
                "protocol": config.protocol,
                "duration_ms": config.duration_ms,
                "seed": config.seed,
            },
        },
    }


# -- the baseline file ---------------------------------------------------------


def write_baseline(report: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_baseline(path: str | Path) -> dict | None:
    """The parsed baseline, or None when missing/unreadable/incompatible."""
    target = Path(path)
    if not target.is_file():
        return None
    try:
        report = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if report.get("schema") != SCHEMA_VERSION:
        return None
    return report


def format_report(report: dict) -> str:
    lines = ["hot-path suite (best-of runs):"]
    for name, entry in report["micro"].items():
        lines.append(
            f"  {name:<18} {entry['best_s']:.4f}s  ({entry['ops_per_s']:,.0f} ops/s)"
        )
    channel = report.get("shard_channel")
    if channel:
        lines.append(
            f"  {'shard_channel':<18} "
            f"{channel['ops_per_s']:,.0f} ops/s  "
            f"{channel['bytes_per_op']:,.0f} bytes/op  "
            f"occupancy {channel['batch_occupancy']:.2f}  "
            f"{channel['round_trips_per_txn']:.1f} round-trips/txn"
        )
    lines.append(f"  {'smoke_figure':<18} {report['smoke']['wall_s']:.4f}s wall")
    return "\n".join(lines)


def format_comparison(baseline: dict, current: dict) -> str:
    """Side-by-side ops/s (micro) and wall time (smoke) vs. the baseline."""
    lines = [
        f"{'benchmark':<18} {'baseline':>14} {'current':>14} {'speedup':>9}"
    ]
    for name, entry in current["micro"].items():
        base = baseline["micro"].get(name)
        if base is None:
            lines.append(f"{name:<18} {'—':>14} {entry['ops_per_s']:>14,.0f} {'new':>9}")
            continue
        ratio = entry["ops_per_s"] / base["ops_per_s"] if base["ops_per_s"] else 0.0
        lines.append(
            f"{name:<18} {base['ops_per_s']:>14,.0f} "
            f"{entry['ops_per_s']:>14,.0f} {ratio:>8.2f}x"
        )
    figure = current.get("shard_channel")
    if figure:
        name = "channel B/op"
        base = baseline.get("shard_channel")
        if base is None:
            lines.append(
                f"{name:<18} {'—':>14} {figure['bytes_per_op']:>14,.0f} {'new':>9}"
            )
        else:
            # Bytes/op is a cost: ratio > 1 means the channel got cheaper.
            ratio = (
                base["bytes_per_op"] / figure["bytes_per_op"]
                if figure["bytes_per_op"]
                else 0.0
            )
            lines.append(
                f"{name:<18} {base['bytes_per_op']:>14,.0f} "
                f"{figure['bytes_per_op']:>14,.0f} {ratio:>8.2f}x"
            )
    base_wall = baseline["smoke"]["wall_s"]
    cur_wall = current["smoke"]["wall_s"]
    ratio = base_wall / cur_wall if cur_wall else 0.0
    lines.append(
        f"{'smoke_figure (s)':<18} {base_wall:>14.4f} {cur_wall:>14.4f} {ratio:>8.2f}x"
    )
    return "\n".join(lines)
