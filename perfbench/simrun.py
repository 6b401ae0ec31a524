"""The ``sim-paper`` workload, run in a child process of its own.

Times ``run_simulation`` on the paper workload (``SIM_PAPER.variants``
simulations on seeds derived from ``--seed``, round-robin, until
``--seconds`` have passed; each variant's fastest repeat is kept),
then runs one recorded simulation for the correctness gates and saves its
history for ``repro check``.  Prints one JSON object as its last line.
With ``--setup-only`` it builds the simulation, prints ``ready`` and
exits, so the caller can time launch-to-ready like a server's.

Run from the repository root: ``PYTHONPATH=src python3 perfbench/simrun.py
--seed 1 --seconds 5 --history-out h.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import replace

import procstat
from seams import EngineProxy, install_engine_layers
from tracing import Tracer
from workloads import SIM_PAPER


def paper_config(seed: int):
    from repro.sim.system import SimulationConfig
    from repro.workload.generator import HOT_GROUP, partition_group
    from repro.workload.spec import PAPER_WORKLOAD

    w = SIM_PAPER
    limits = ((HOT_GROUP, w.hot_limit),) + tuple(
        (partition_group(i), w.partition_mult * PAPER_WORKLOAD.mean_write_change)
        for i in range(PAPER_WORKLOAD.n_partitions)
    )
    return SimulationConfig(
        mpl=w.mpl,
        til=w.til,
        tel=w.tel,
        query_group_limits=limits,
        duration_ms=w.duration_s * 1000.0,
        warmup_ms=0.0,
        seed=seed,
    )


def capture_latencies(samples: dict[str, list[float]]) -> None:
    """Record the wall milliseconds the simulator takes to carry each
    program from its first begin to its commit, restarts included, into
    ``samples[kind]`` (the caller swaps the lists between simulations)."""
    from repro.sim.client import SimClient

    run_to_commit = SimClient.run_to_commit
    clock = time.perf_counter

    def timed(self, program):
        start = clock()
        yield from run_to_commit(self, program)
        samples[program.kind].append((clock() - start) * 1000.0)

    SimClient.run_to_commit = timed


def trace_simulator(tracer: Tracer) -> list[EngineProxy]:
    """Put an :class:`EngineProxy` in front of every simulated engine;
    returns the list the proxies are collected in."""
    from repro.sim import system

    install_engine_layers(tracer)
    build = system.build_simulation
    proxies: list[EngineProxy] = []

    def traced_build(config):
        engine, server, clients, database = build(config)
        server.manager = EngineProxy(server.manager, tracer, "engine")
        proxies.append(server.manager)
        return engine, server, clients, database

    system.build_simulation = traced_build
    return proxies


def timed_runs(seed: int, seconds: float) -> dict:
    """Run the ``SIM_PAPER.variants`` simulations derived from ``seed``
    round-robin until ``--seconds`` have passed (each at least once).

    The simulator is deterministic, so every repeat of a variant does the
    same work; the repeat with the least wall time is the one the host
    disturbed least, and only it enters the timed figures (``best``, one
    entry per variant).  ``total`` sums every simulation, for the traced
    per-layer budget.
    """
    from repro.perf import counters
    from repro.sim.system import run_simulation

    config = paper_config(seed)
    samples: dict[str, list[float]] = {}
    capture_latencies(samples)
    best: dict[int, dict] = {}
    total = {"commits": 0, "aborts": 0, "des_events": 0, "wall_s": 0.0, "simulations": 0}
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    variants = SIM_PAPER.variants
    index = 0
    while index < variants or time.perf_counter() < deadline:
        variant = index % variants
        samples["query"], samples["update"] = [], []
        counters.reset()
        start = time.perf_counter()
        result = run_simulation(replace(config, seed=seed * 1000 + variant))
        elapsed = time.perf_counter() - start
        total["commits"] += result.commits
        total["aborts"] += result.aborts
        total["des_events"] += counters.events_dispatched
        total["wall_s"] += elapsed
        total["simulations"] += 1
        if variant not in best or elapsed < best[variant]["wall_s"]:
            best[variant] = {
                "wall_s": elapsed,
                "commits": result.commits,
                "aborts": result.aborts,
                "query_ms": samples["query"],
                "update_ms": samples["update"],
            }
        if peak_rss_mb is None:
            peak_rss_mb = procstat.peak_rss_mb([os.getpid()])
        index += 1
    return {
        "best": [best[v] for v in range(variants)],
        "total": total,
        "peak_rss_mb": peak_rss_mb,
    }


def recorded_run(seed: int, history_out: str) -> dict:
    """One recorded simulation from the initial state, checked here for
    the delta and TIL gates; its history is left for ``repro check``."""
    from repro.core.bounds import TransactionBounds
    from repro.engine.history import HistoryLog
    from repro.engine.results import Granted
    from repro.engine.timestamps import Timestamp
    from repro.sim.system import build_simulation

    config = replace(
        paper_config(seed), duration_ms=SIM_PAPER.recorded_s * 1000.0,
        record_history=True,
    )
    engine, server, clients, database = build_simulation(config)
    initial = database.committed_snapshot()
    processes = [engine.spawn(client.process()) for client in clients]
    engine.run(until=config.duration_ms)
    del processes
    manager = server.manager
    log = HistoryLog.from_engine(manager)
    log.save(history_out)
    for txn in manager.active_transactions():
        manager.abort(txn, "benchmark-end")
    # Younger than every simulated transaction, so no read is late.
    verify = manager.begin(
        "query",
        TransactionBounds(import_limit=0.0),
        timestamp=Timestamp(engine.now + 1.0, 0, 0),
    )
    deltas = history_deltas(log)
    final = {}
    for oid in sorted(deltas):
        outcome = manager.read(verify, oid)
        if type(outcome) is not Granted:
            raise RuntimeError(f"zero-epsilon read of {oid} refused: {outcome}")
        final[oid] = outcome.value
    manager.commit(verify)
    return {
        "initial": {str(k): initial[k] for k in deltas},
        "deltas": {str(k): v for k, v in deltas.items()},
        "final": {str(k): v for k, v in final.items()},
        "query_charges": committed_query_charges(log),
        "events": len(log),
    }


def history_deltas(log) -> dict[int, float]:
    """Per object, the sum of ``written - read`` over committed updates."""
    reads: dict[int, dict[int, float]] = {}
    writes: dict[int, dict[int, float]] = {}
    deltas: dict[int, float] = {}
    for event in log.events:
        if event.kind == "read":
            reads.setdefault(event.txn, {}).setdefault(event.object_id, event.value)
        elif event.kind == "write":
            writes.setdefault(event.txn, {})[event.object_id] = event.value
        elif event.kind == "commit":
            txn_reads = reads.pop(event.txn, {})
            for oid, value in writes.pop(event.txn, {}).items():
                deltas[oid] = deltas.get(oid, 0.0) + value - txn_reads[oid]
        elif event.kind == "abort":
            reads.pop(event.txn, None)
            writes.pop(event.txn, None)
    return deltas


def committed_query_charges(log) -> list[tuple[float, float]]:
    """``(charged, TIL)`` for every committed query in the history."""
    limits: dict[int, float] = {}
    charged: dict[int, float] = {}
    out = []
    for event in log.events:
        if event.kind == "begin" and event.txn_kind == "query":
            limits[event.txn] = event.import_limit
            charged[event.txn] = 0.0
        elif event.kind == "read" and event.txn in charged:
            charged[event.txn] += event.inconsistency
        elif event.kind == "commit" and event.txn in charged:
            out.append((charged.pop(event.txn), limits.pop(event.txn)))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--history-out")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build the simulation, print 'ready' and exit (times set-up)",
    )
    args = parser.parse_args()
    if args.setup_only:
        from repro.sim.system import build_simulation

        build_simulation(paper_config(args.seed))
        print("ready", flush=True)
        return
    tracer = None
    if args.trace:
        tracer = Tracer()
        proxies = trace_simulator(tracer)
    out = timed_runs(args.seed, args.seconds)
    if tracer is not None:
        out["layers"] = tracer.snapshot()
        out["til_use"] = [use for proxy in proxies for use in proxy.til_use]
    out["gate"] = recorded_run(args.seed, args.history_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
