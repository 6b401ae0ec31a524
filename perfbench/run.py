"""The benchmark of record: one workload, one run, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload cached-reads --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` spends half
the time on an untraced run and half on a traced one and reports the
per-layer budget (see ``perfbench/README.md``).  Every run checks the
program's outputs first: a failed gate exits non-zero and prints no
numbers.  The last line of stdout is the result::

    {"correct": true, "attempted": N, "failed": M, "metrics": {...}}

Earlier lines are a readable table and a ``META`` line (host
calibration, ``nproc``, CPU shares, sample counts).
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import procstat
from gates import (
    GateFailure,
    check_deltas,
    check_history,
    check_process_shards,
    check_query_charges,
)
from loadgen import LoadGenerator, verify_final_values
from workloads import WORKLOADS, ServerWorkload, SimWorkload, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOST = "127.0.0.1"

#: Server (or simulator) launches per end-to-end run; ``setup_s`` is
#: their median.  About half come before the timed window and half after
#: it, so they meet the host in more than one state.  Runs shorter than
#: ``SHORT_RUN_S`` launch once.
SETUP_REPEATS = 7
SHORT_RUN_S = 5.0
#: Warm-up before the timed window: this, or a tenth of a shorter run.
WARMUP_S = 1.5
DRAIN_TIMEOUT_S = 20.0
#: The tail percentile reported as a metric.  p99 is printed in ``META``
#: too, but over one run it rests on a few stall events (GC pauses,
#: host hiccups) and moved by 35-50% between identical runs.
TAIL = 0.9
#: A server window is cut into slices of this many seconds (at least ten
#: slices).  Each figure is worked out per slice and reported at the
#: slice quantile ``BEST``, counted from the worse end: the figure the
#: least disturbed tenth of the run reaches.  On a shared host the CPU
#: runs up to ~40% slower for seconds at a time while neighbours are
#: busy; a median over slices follows how much of the run was
#: disturbed, this quantile far less.  (The simulator, being
#: deterministic, keeps each simulation's fastest repeat instead; see
#: ``simrun.timed_runs``.)
SLICE_S = 0.5
BEST = 0.9

END_TO_END = {
    "txn_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "attempts_per_commit": "count",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "protocol.json_fallback_frac": "frac",
    "protocol.wire_bytes_per_txn": "B",
    "aioserver.loop_us_per_req": "us",
    "aioserver.requests_per_batch": "count",
    "aioserver.responses_per_flush": "count",
    "aioserver.flush_us": "us",
    "aioserver.cpu_frac": "frac",
    "requests.dispatch_us": "us",
    "requests.waits_per_ktxn": "count",
    "engine.begin_us": "us",
    "engine.read_us": "us",
    "engine.write_us": "us",
    "engine.commit_us": "us",
    "engine.esr_admit_frac": "frac",
    "engine.rejects_per_ktxn": "count",
    "engine.useful_ops_frac": "frac",
    "ledger.walks_per_txn": "count",
    "ledger.charge_us": "us",
    "ledger.til_use_p50": "frac",
    "history.hook_us": "us",
    "history.events_per_txn": "count",
    "history.bytes_per_event": "B",
    "cache.hit_frac": "frac",
    "cache.read_us": "us",
    "cache.divergence_per_hit": "count",
    "des.events_per_txn": "count",
    "des.kernel_us_per_txn": "us",
    "loadgen.cpu_frac": "frac",
    "trace.overhead_frac": "frac",
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        raise RuntimeError("no transaction of this kind committed in the window")
    index = min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))
    return ordered[index]


def favourable(values, higher_is_better: bool) -> float:
    """The ``BEST`` quantile of per-slice ``values``, counted from the
    worse end (p90 of a rate, p10 of a latency)."""
    ordered = sorted(values, reverse=not higher_is_better)
    return ordered[min(len(ordered) - 1, int(BEST * len(ordered)))]


def slice_percentile(samples, q: float, slices: int) -> float:
    """The ``q`` percentile of each of up to ``slices`` consecutive,
    equal-count chunks of ``samples`` (in completion order), taken at
    the favourable slice quantile.

    Every chunk keeps at least ten samples beyond its percentile, so a
    sparse kind falls back to fewer chunks (one chunk = the plain
    percentile).
    """
    chunks = max(1, min(slices, int(len(samples) * (1.0 - q)) // 10))
    size = len(samples) // chunks
    return favourable(
        (_percentile(samples[i * size : (i + 1) * size], q) for i in range(chunks)),
        higher_is_better=False,
    )


def slice_count(seconds: float) -> int:
    return max(10, round(seconds / SLICE_S))


def _meta_ms(samples, q: float, scale: float = 1.0) -> float | None:
    """A plain percentile over the whole window for ``META``, or None
    when nothing was sampled."""
    return scale * _percentile(samples, q) if samples else None


def calibrate_ms() -> float:
    """Best of three runs of a fixed pure-Python loop, in ms: a host-speed
    reference recorded beside every result (not a metric)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        table = {}
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


# -- the server under test --------------------------------------------------------


class Server:
    """One ``repro serve --async`` (or traced launcher) subprocess."""

    def __init__(self, workload: ServerWorkload, startup: Path, work: Path,
                 traced: bool, tag: str):
        self.history_out = work / f"history-{tag}.jsonl"
        self.window_out = work / f"window-{tag}.json"
        self.stderr_path = work / f"server-{tag}.err"
        flags = list(workload.serve_flags)
        if workload.record_history:
            flags += ["--history-out", str(self.history_out)]
        if traced:
            command = [
                sys.executable, "-u", str(ROOT / "perfbench" / "launcher.py"),
                "--startup", str(startup), "--window-out", str(self.window_out), *flags,
            ]
        else:
            command = [
                sys.executable, "-u", "-m", "repro", "serve", "--async",
                "--port", "0", "--startup", str(startup), *flags,
            ]
        self.announcement: str | None = None
        self.worker_pids: list[int] = []
        self._stderr = open(self.stderr_path, "wb")
        start = time.perf_counter()
        self.proc = launch(command, stdout=subprocess.PIPE, stderr=self._stderr)
        try:
            self.port = self._await_serving(deadline=start + 60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_serving(self, deadline: float) -> int:
        """Read the announcement lines until the port is known."""
        fd = self.proc.stdout.fileno()
        selector = selectors.DefaultSelector()
        selector.register(fd, selectors.EVENT_READ)
        pending = b""
        try:
            while time.perf_counter() < deadline:
                if not selector.select(max(0.0, deadline - time.perf_counter())):
                    continue
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"server exited early: {self._stderr_tail()}")
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for raw in lines:
                    line = raw.decode().strip()
                    if line.startswith("process sharding"):
                        self.announcement = line
                        if "worker pids:" in line:
                            pids = line.split("worker pids:", 1)[1].strip(" )")
                            self.worker_pids = [int(p) for p in pids.split(",")]
                    elif line.startswith("serving "):
                        address = line.split(" on ", 1)[1].split()[0]
                        return int(address.rsplit(":", 1)[1])
            raise RuntimeError("server did not start within 60 s")
        finally:
            selector.close()

    def _stderr_tail(self) -> str:
        self._stderr.flush()
        return self.stderr_path.read_text(errors="replace")[-2000:]

    def pids(self) -> list[int]:
        return [self.proc.pid, *self.worker_pids]

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def read_window(self) -> dict:
        deadline = time.perf_counter() + 30.0
        while not self.window_out.exists():
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"traced server wrote no window: {self._stderr_tail()}")
            time.sleep(0.01)
        return json.loads(self.window_out.read_text())

    def stop(self) -> None:
        """Interrupt (the history is written on the way out), wait, and
        make sure no shard worker outlives the server."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=90.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()
        for pid in self.worker_pids:
            deadline = time.perf_counter() + 5.0
            while _alive(pid) and time.perf_counter() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def placement() -> list[int] | None:
    """``[program CPU, benchmark CPU]``, the first two CPUs this process
    may use, or None on a single-CPU host (nothing is pinned).

    Every program process (server, shard workers, simulator, each set-up
    launch) runs on the first CPU and the load generator on the second.
    Left to the scheduler, the shard channel's cross-CPU wake-ups made
    ``sharded-writes`` vary twofold between identical runs on a 2-vCPU
    host; pinned, runs agreed within 10%.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:2] if len(cpus) >= 2 else None


def launch(command: list[str], **kwargs) -> subprocess.Popen:
    """Start a program process on the program CPU; its threads and the
    processes it starts inherit the pin."""
    cpus = placement()

    def prepare() -> None:
        # Servers are stopped with SIGINT.  A benchmark started in the
        # background by a non-interactive shell has SIGINT ignored, and a
        # child would inherit that and never stop; restore the default.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        if cpus is not None:
            os.sched_setaffinity(0, {cpus[0]})

    return subprocess.Popen(command, cwd=ROOT, env=program_env(), preexec_fn=prepare, **kwargs)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fp:
            return fp.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@dataclass
class ServerRun:
    seconds: float
    setup_s: list[float]
    commits: int
    restarts: int
    rate_buckets: list[float]
    query_s: list[float]
    update_s: list[float]
    peak_rss_mb: float
    rss_at_mark: bool
    server_cpu_s: float
    #: CPU of the server's event-loop (main) thread alone.
    loop_cpu_s: float
    worker_cpu_s: float
    loadgen_cpu_s: float
    requests: int
    responses: int
    wire_bytes: int
    attempted: int
    failed: int
    #: ``[server CPU, load-generator CPU]``, or None when not pinned.
    placement: list[int] | None = None
    #: Shard worker processes the server announced.
    workers: int = 0
    window: dict = field(default_factory=dict)
    history_bytes_per_event: float = 0.0
    history_check_s: float = 0.0


def run_server_once(workload: ServerWorkload, inputs, work: Path, seconds: float,
                    traced: bool, setups: int, warmup: float, tag: str) -> ServerRun:
    startup = work / "db.txt"
    startup.write_text(inputs.startup_text)

    def launch_and_stop(index: int) -> float:
        spare = Server(workload, startup, work, traced, f"{tag}-setup{index}")
        spare.stop()
        return spare.setup_s

    extra_before = (setups - 1) // 2
    setup_times = [launch_and_stop(index) for index in range(extra_before)]
    server = Server(workload, startup, work, traced, tag)
    setup_times.append(server.setup_s)
    own_cpus = os.sched_getaffinity(0)
    cpus = placement()
    try:
        if cpus is not None:
            os.sched_setaffinity(0, {cpus[1]})
        if workload.process_shards:
            check_process_shards(server.announcement)
        gen = LoadGenerator(HOST, server.port, workload.codec, inputs.traces)
        rss: dict = {}

        def sample_rss() -> None:
            rss["mb"] = procstat.peak_rss_mb(server.pids())

        gen.commit_mark = workload.rss_at_commits
        gen.on_commit_mark = sample_rss
        gen.run(until=time.perf_counter() + warmup)
        if traced:
            server.signal(signal.SIGUSR1)
        loop0 = procstat.cpu_seconds(server.proc.pid, server.proc.pid)
        cpu0 = [procstat.cpu_seconds(pid) for pid in server.pids()]
        own0 = time.process_time()
        traffic0 = gen.traffic()
        gen.recording = True
        start = time.perf_counter()
        gen.run(until=start + seconds)
        end = time.perf_counter()
        gen.recording = False
        own1 = time.process_time()
        cpu1 = [procstat.cpu_seconds(pid) for pid in server.pids()]
        loop1 = procstat.cpu_seconds(server.proc.pid, server.proc.pid)
        traffic1 = gen.traffic()
        if traced:
            server.signal(signal.SIGUSR2)
        gen.drain(DRAIN_TIMEOUT_S)
        rss_at_mark = "mb" in rss
        if not rss_at_mark:
            sample_rss()
        window = server.read_window() if traced else {}
        gen.close()
        written = sorted(gen.deltas)
        final = verify_final_values(HOST, server.port, written)
    finally:
        os.sched_setaffinity(0, own_cpus)
        server.stop()
    setup_times += [launch_and_stop(index) for index in range(extra_before, setups - 1)]
    check_deltas(inputs.initial, gen.deltas, final)
    if gen.til_violations:
        raise GateFailure(
            f"{len(gen.til_violations)} committed queries exceeded their TIL, "
            f"e.g. {gen.til_violations[0]}"
        )
    run = ServerRun(
        seconds=end - start,
        setup_s=setup_times,
        commits=gen.window_commits,
        restarts=gen.window_restarts,
        rate_buckets=_buckets(gen.commit_times, start, end, slice_count(end - start)),
        query_s=list(gen.window_query),
        update_s=list(gen.window_update),
        peak_rss_mb=rss["mb"],
        rss_at_mark=rss_at_mark,
        server_cpu_s=cpu1[0] - cpu0[0],
        loop_cpu_s=loop1 - loop0,
        worker_cpu_s=sum(cpu1[1:]) - sum(cpu0[1:]),
        loadgen_cpu_s=own1 - own0,
        requests=traffic1[2] - traffic0[2],
        responses=traffic1[3] - traffic0[3],
        wire_bytes=traffic1[0] + traffic1[1] - traffic0[0] - traffic0[1],
        attempted=gen.attempted,
        failed=gen.never_committed + len(gen.protocol_errors),
        placement=cpus,
        workers=len(server.worker_pids),
        window=window,
    )
    if workload.record_history:
        started = time.perf_counter()
        check_history(str(server.history_out), str(ROOT), program_env(),
                      str(work / f"check-{tag}.md"))
        run.history_check_s = time.perf_counter() - started
        with open(server.history_out, "rb") as fp:
            lines = sum(1 for _ in fp) - 1  # minus the header
        run.history_bytes_per_event = _div(server.history_out.stat().st_size, lines)
    return run


def _buckets(times, start: float, end: float, count: int) -> list[float]:
    width = (end - start) / count
    tallies = [0] * count
    for t in times:
        tallies[min(count - 1, int((t - start) / width))] += 1
    return [n / width for n in tallies]


def server_end_to_end(run: ServerRun) -> dict[str, float]:
    slices = len(run.rate_buckets)
    return {
        "txn_per_s": favourable(run.rate_buckets, higher_is_better=True),
        "query_p50_ms": 1000.0 * slice_percentile(run.query_s, 0.50, slices),
        "query_p90_ms": 1000.0 * slice_percentile(run.query_s, TAIL, slices),
        "update_p50_ms": 1000.0 * slice_percentile(run.update_s, 0.50, slices),
        "update_p90_ms": 1000.0 * slice_percentile(run.update_s, TAIL, slices),
        "attempts_per_commit": _div(run.commits + run.restarts, run.commits),
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": statistics.median(run.setup_s),
    }


def _self_us(layers: dict, prefix: str) -> tuple[float, int]:
    """Summed self time (us) and calls of every layer named ``prefix*``."""
    total, calls = 0, 0
    for name, (n, _incl, self_ns) in layers.items():
        if name.startswith(prefix) and not name.startswith("n."):
            total += self_ns
            calls += n
    return total / 1000.0, calls


def _outcomes(layers: dict) -> dict[str, float]:
    """Engine outcome ratios from span calls and the rare-outcome counts."""

    def n(name: str) -> int:
        return layers.get(name, [0, 0, 0])[0]

    cache_hits = n("cache.read") - n("n.cache_misses")
    granted = (
        sum(n(f"{p}.{op}") for p in ("engine", "procshard") for op in ("read", "write"))
        - n("n.rejects") - n("n.engine_waits") + cache_hits
    )
    return {
        "engine.esr_admit_frac": _div(n("n.esr_ops"), granted),
        # Both counts land when a transaction completes, so operations
        # granted before the window opened cannot skew the share.
        "engine.useful_ops_frac": _div(
            n("n.useful_ops"), n("n.useful_ops") + n("n.wasted_ops")
        ),
        "cache.hit_frac": _div(cache_hits, n("cache.read")),
    }


def server_per_layer(traced: ServerRun, untraced: ServerRun) -> dict[str, float]:
    w = traced.window
    layers = w["layers"]
    perf = w["perf"]
    commits = traced.commits

    def n(name: str) -> int:
        return layers.get(name, [0, 0, 0])[0]

    def per_call(prefix: str) -> float:
        total, calls = _self_us(layers, prefix)
        return _div(total, calls)

    loop_traced_us, _ = _self_us(w["loop_layers"], "")
    til_use = w["til_use"]
    return {
        "protocol.decode_us": _div(_self_us(layers, "protocol.decode")[0], traced.requests),
        "protocol.encode_us": _div(_self_us(layers, "protocol.encode")[0], traced.responses),
        "protocol.json_fallback_frac": _div(n("n.json_generic"), traced.requests + traced.responses),
        "protocol.wire_bytes_per_txn": _div(traced.wire_bytes, commits),
        "aioserver.loop_us_per_req": _div(traced.loop_cpu_s * 1e6 - loop_traced_us, traced.requests),
        "aioserver.requests_per_batch": _div(perf["net_requests_batched"], perf["net_batches_drained"]),
        "aioserver.responses_per_flush": _div(traced.responses, n("aioserver.flush")),
        "aioserver.flush_us": per_call("aioserver.flush"),
        "aioserver.cpu_frac": _div(traced.server_cpu_s, traced.seconds),
        "requests.dispatch_us": _div(
            _self_us(layers, "requests.")[0],
            n("requests.submit") + n("n.batched") + n("requests.try_cached_read"),
        ),
        "requests.waits_per_ktxn": _div(1000.0 * n("n.waits"), commits),
        "engine.begin_us": per_call("engine.begin"),
        "engine.read_us": per_call("engine.read"),
        "engine.write_us": per_call("engine.write"),
        "engine.commit_us": per_call("engine.commit"),
        "engine.rejects_per_ktxn": _div(1000.0 * n("n.rejects"), commits),
        "ledger.walks_per_txn": _div(n("ledger"), commits),
        "ledger.charge_us": per_call("ledger"),
        "ledger.til_use_p50": statistics.median(til_use) if til_use else 0.0,
        "history.hook_us": per_call("history"),
        "history.events_per_txn": _div(w["events"], commits),
        "history.bytes_per_event": traced.history_bytes_per_event,
        "cache.read_us": per_call("cache.read"),
        "cache.divergence_per_hit": _div(perf["cache_divergence_charged"], perf["cache_hits"]),
        **_outcomes(layers),
        "des.events_per_txn": 0.0,
        "des.kernel_us_per_txn": 0.0,
        "loadgen.cpu_frac": _div(traced.loadgen_cpu_s, traced.seconds),
        "trace.overhead_frac": 1.0 - _div(
            favourable(traced.rate_buckets, True), favourable(untraced.rate_buckets, True)
        ),
    }


def run_server_workload(workload: ServerWorkload, seed: int, seconds: float,
                        trace: bool, work: Path) -> tuple[dict, dict, int, int]:
    inputs = make_inputs(workload, seed)
    warmup = min(WARMUP_S, seconds / 10)
    setups = 1 if trace or seconds < SHORT_RUN_S else SETUP_REPEATS
    if trace:
        untraced = run_server_once(workload, inputs, work, seconds / 2, False, setups, warmup, "plain")
        traced = run_server_once(workload, inputs, work, seconds / 2, True, setups, warmup, "traced")
        runs = [untraced, traced]
        metrics = server_per_layer(traced, untraced)
        main = traced
    else:
        main = run_server_once(workload, inputs, work, seconds, False, setups, warmup, "plain")
        runs = [main]
        metrics = server_end_to_end(main)
    meta = {
        "server_cpu_frac": _div(main.server_cpu_s, main.seconds),
        "worker_cpu_frac": _div(main.worker_cpu_s, main.seconds * main.workers),
        "loadgen_cpu_frac": _div(main.loadgen_cpu_s, main.seconds),
        "loadgen_busier_than_server": main.loadgen_cpu_s > main.server_cpu_s,
        "window_commits": main.commits,
        "txn_per_s_slice_median": statistics.median(main.rate_buckets),
        "txn_per_s_slices": [round(r, 1) for r in main.rate_buckets],
        "query_samples": len(main.query_s),
        "update_samples": len(main.update_s),
        "query_p99_ms": _meta_ms(main.query_s, 0.99, 1000.0),
        "update_p99_ms": _meta_ms(main.update_s, 0.99, 1000.0),
        "rss_sampled_at_commits": workload.rss_at_commits if main.rss_at_mark else None,
        "history_check_s": main.history_check_s or None,
        "sessions": workload.sessions,
        "connections": 2,
        "cpus_server_loadgen": main.placement,
    }
    if meta["loadgen_busier_than_server"]:
        print("WARNING: the load generator was busier than the server; "
              "throughput may be client-bound", file=sys.stderr)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    return metrics, meta, attempted, failed


# -- the simulator ------------------------------------------------------------------


def sim_setup_s(seed: int) -> float:
    """Launch of a simulator process to a built simulation, in seconds."""
    start = time.perf_counter()
    proc = launch(
        [sys.executable, str(ROOT / "perfbench" / "simrun.py"), "--seed", str(seed),
         "--setup-only"],
        stdout=subprocess.PIPE,
    )
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("simulator set-up failed")
    return elapsed


def run_sim_workload(seed: int, seconds: float, trace: bool,
                     work: Path) -> tuple[dict, dict, int, int]:
    setups = 1 if seconds < SHORT_RUN_S else SETUP_REPEATS

    def child(run_seconds: float, traced: bool, tag: str) -> dict:
        history = work / f"sim-history-{tag}.jsonl"
        command = [
            sys.executable, str(ROOT / "perfbench" / "simrun.py"), "--seed", str(seed),
            "--seconds", str(run_seconds), "--history-out", str(history),
        ]
        if traced:
            command.append("--trace")
        own0 = time.process_time()
        started = time.perf_counter()
        proc = launch(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=170)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"simulation failed:\n{stderr[-3000:]}")
        out = json.loads(stdout.strip().splitlines()[-1])
        out["wall"] = time.perf_counter() - started
        out["own_cpu"] = time.process_time() - own0
        gate = out["gate"]
        check_deltas(
            {int(k): v for k, v in gate["initial"].items()},
            {int(k): v for k, v in gate["deltas"].items()},
            {int(k): v for k, v in gate["final"].items()},
        )
        check_query_charges([tuple(p) for p in gate["query_charges"]])
        check_history(str(history), str(ROOT), program_env(), str(work / f"sim-check-{tag}.md"))
        return out

    if trace:
        plain = child(seconds / 2, False, "plain")
        traced = child(seconds / 2, True, "traced")
        layers = traced["layers"]
        total = traced["total"]
        commits = total["commits"]

        def n(name: str) -> int:
            return layers.get(name, [0, 0, 0])[0]

        def per_call(prefix: str) -> float:
            total, calls = _self_us(layers, prefix)
            return _div(total, calls)

        traced_us, _ = _self_us(layers, "")
        til_use = traced["til_use"]
        # Layers the simulator never reaches (wire, dispatch, cache,
        # shard channel) report 0.
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update({
            "engine.begin_us": per_call("engine.begin"),
            "engine.read_us": per_call("engine.read"),
            "engine.write_us": per_call("engine.write"),
            "engine.commit_us": per_call("engine.commit"),
            "engine.rejects_per_ktxn": _div(1000.0 * n("n.rejects"), commits),
            **_outcomes(layers),
            "ledger.walks_per_txn": _div(n("ledger"), commits),
            "ledger.charge_us": per_call("ledger"),
            "ledger.til_use_p50": statistics.median(til_use) if til_use else 0.0,
            "history.hook_us": per_call("history"),
            "des.events_per_txn": _div(total["des_events"], commits),
            "des.kernel_us_per_txn": _div(total["wall_s"] * 1e6 - traced_us, commits),
            "loadgen.cpu_frac": _div(traced["own_cpu"], traced["wall"]),
            "trace.overhead_frac": 1.0 - _div(_sim_rate(traced), _sim_rate(plain)),
        })
        main, runs = traced, [plain, traced]
    else:
        setup_times = [sim_setup_s(seed) for _ in range(setups // 2)]
        main = child(seconds, False, "plain")
        setup_times += [sim_setup_s(seed) for _ in range(setups - setups // 2)]
        runs = [main]
        best = main["best"]

        def over_variants(figure) -> float:
            return statistics.median(figure(b) for b in best)

        metrics = {
            "txn_per_s": _sim_rate(main),
            "query_p50_ms": over_variants(lambda b: _percentile(b["query_ms"], 0.50)),
            "query_p90_ms": over_variants(lambda b: _percentile(b["query_ms"], TAIL)),
            "update_p50_ms": over_variants(lambda b: _percentile(b["update_ms"], 0.50)),
            "update_p90_ms": over_variants(lambda b: _percentile(b["update_ms"], TAIL)),
            "attempts_per_commit": over_variants(
                lambda b: _div(b["commits"] + b["aborts"], b["commits"])
            ),
            "peak_rss_mb": main["peak_rss_mb"],
            "setup_s": statistics.median(setup_times),
        }
    meta = {
        "query_p99_ms": _meta_ms([x for b in main["best"] for x in b["query_ms"]], 0.99),
        "update_p99_ms": _meta_ms([x for b in main["best"] for x in b["update_ms"]], 0.99),
        "simulations": main["total"]["simulations"],
        "txn_per_s_all_simulations": _div(main["total"]["commits"], main["total"]["wall_s"]),
        "simulated_commits": main["total"]["commits"],
        # The p50/p90 figures of sim-paper are DES cost, not latencies.
        "latency_clock": "wall ms the simulator spends from a program's start "
                         "to its commit, other clients' events included",
        "recorded_events_checked": main["gate"]["events"],
    }
    attempted = sum(r["total"]["commits"] + r["total"]["aborts"] for r in runs)
    return metrics, meta, attempted, 0


def _sim_rate(out: dict) -> float:
    """The median over variants of simulated commits per wall second of
    each variant's fastest repeat."""
    return statistics.median(_div(b["commits"], b["wall_s"]) for b in out["best"])


# -- entry point --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: the benchmark of record")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    calibration = calibrate_ms()
    try:
        if isinstance(workload, SimWorkload):
            metrics, meta, attempted, failed = run_sim_workload(
                args.seed, args.seconds, bool(args.trace), work
            )
        else:
            metrics, meta, attempted, failed = run_server_workload(
                workload, args.seed, args.seconds, bool(args.trace), work
            )
    except GateFailure as exc:
        print(f"perfbench: correctness gate failed on {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{args.workload:15s} {name:32s} {metrics[name]:14.6g} {unit}")
    meta.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        calibration_ms=calibration, nproc=os.cpu_count(),
        python=sys.version.split()[0],
        failed_frac=_div(failed, attempted),
    )
    print("META " + json.dumps(meta))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
