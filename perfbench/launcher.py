"""Serve one database on the asyncio server with every layer traced.

The traced counterpart of ``repro serve --async``: it builds the server
through the public ``AsyncTransactionServer`` constructor, wraps the
layer seams (:mod:`seams`) before the server starts, and announces
itself on stdout with the same lines ``repro serve`` prints.  Signals
drive it from the benchmark:

* ``SIGUSR1`` opens the measurement window (snapshot of every total);
* ``SIGUSR2`` closes it and writes the window's totals (all threads, and
  the event-loop thread alone) to ``--window-out``;
* ``SIGINT``/``SIGTERM`` shut down, writing the recorded history to
  ``--history-out``.

Run from the repository root: ``PYTHONPATH=src python3 -u
perfbench/launcher.py --startup db.txt --window-out w.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import threading

from seams import install_server_layers
from tracing import Tracer, diff


def _perf_counts() -> dict[str, float]:
    from repro.perf import counters

    values = {name: getattr(counters, name) for name in type(counters).__slots__}
    return {k: v for k, v in values.items() if isinstance(v, (int, float))}


async def serve(args: argparse.Namespace) -> None:
    from repro.engine.database import Database
    from repro.engine.procshard import ProcessShardedEngine
    from repro.net.aioserver import AsyncTransactionServer

    database = Database.from_startup_file(args.startup)
    server = AsyncTransactionServer(
        database,
        snapshot_cache=args.snapshot_cache,
        shards=args.shards,
        processes=args.process_shards,
        record_history=args.record_history,
    )
    engine = server.manager
    tracer = Tracer()
    proxy = install_server_layers(tracer, server)
    await server.start(args.host, 0)
    degraded = getattr(engine, "process_degraded", None)
    if degraded is not None:
        print(f"process sharding degraded to threads ({degraded})")
    elif isinstance(engine, ProcessShardedEngine):
        pids = ", ".join(str(pid) for pid in engine.worker_pids())
        print(f"process sharding active (worker pids: {pids})")
    print(f"serving {len(database)} objects on {args.host}:{server.port} (asyncio)")

    def events() -> int:
        return len(engine.recorder.events())

    window: dict = {}
    loop_thread = threading.get_ident()

    def open_window() -> None:
        window.update(
            layers=tracer.snapshot(),
            loop_layers=tracer.snapshot(loop_thread),
            perf=_perf_counts(),
            til_use=len(proxy.til_use),
            events=events(),
        )

    def close_window() -> None:
        perf = _perf_counts()
        result = {
            "layers": diff(tracer.snapshot(), window["layers"]),
            "loop_layers": diff(tracer.snapshot(loop_thread), window["loop_layers"]),
            "perf": {k: perf[k] - window["perf"][k] for k in perf},
            "til_use": proxy.til_use[window["til_use"] :],
            "events": events() - window["events"],
        }
        tmp = args.window_out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fp:
            json.dump(result, fp)
        os.replace(tmp, args.window_out)

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGUSR1, open_window)
    loop.add_signal_handler(signal.SIGUSR2, close_window)
    loop.add_signal_handler(signal.SIGINT, stop.set)
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    try:
        await stop.wait()
    finally:
        if args.history_out and args.record_history:
            server.history().save(args.history_out)
        await server.aclose()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--startup", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--snapshot-cache", action="store_true")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--process-shards", action="store_true")
    parser.add_argument("--record-history", action="store_true")
    parser.add_argument("--history-out")
    parser.add_argument("--window-out", required=True)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
