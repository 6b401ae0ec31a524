"""Tests for the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gates import (
    GateFailure,
    check_deltas,
    check_history,
    check_process_shards,
    check_query_charges,
)
from run import ROOT, SRC, program_env
from workloads import WITHHELD, WORKLOADS, make_inputs

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# Every defined workload, the withheld ones too: while the engine defect
# stands, paper-mix and sharded-writes fail their delta gate here.
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_reports_every_metric(workload: str, trace: int) -> None:
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_workloads_match_benchmark_json() -> None:
    listed = [w["name"] for w in BENCHMARK["workloads"]]
    assert listed == [name for name in WORKLOADS if name not in WITHHELD]


def test_refuses_without_program_source(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(BENCHMARK["workloads"][0]["name"], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_inputs_follow_the_seed() -> None:
    workload = WORKLOADS["paper-mix"]
    first, again, other = (make_inputs(workload, s) for s in (3, 3, 4))
    assert first.startup_text == again.startup_text
    assert first.traces == again.traces
    assert first.traces != other.traces


def test_mixed_sessions_share_write_objects() -> None:
    # Updates contend for the hot set as the paper's clients do; only
    # cached-reads keeps its writers on disjoint stripes.
    for workload in (WORKLOADS["paper-mix"], WORKLOADS["sharded-writes"]):
        writers: dict[int, set[int]] = {}
        for session, trace in enumerate(make_inputs(workload, 1).traces):
            for entry in trace:
                if entry[0] == "update":
                    for oid, _delta in entry[3]:
                        writers.setdefault(oid, set()).add(session)
        assert max(len(sessions) for sessions in writers.values()) > 1


def test_delta_gate_rejects_a_corrupted_sum() -> None:
    initial = {1: 100.0, 2: 200.0}
    deltas = {1: 7.0, 2: -3.0}
    check_deltas(initial, deltas, {1: 107.0, 2: 197.0})
    with pytest.raises(GateFailure, match="lost or gained"):
        check_deltas(initial, {1: 7.0, 2: -4.0}, {1: 107.0, 2: 197.0})


def test_til_gate_rejects_an_overcharged_query() -> None:
    check_query_charges([(10.0, 10.0), (0.0, 0.0)])
    with pytest.raises(GateFailure, match="past their TIL"):
        check_query_charges([(10.5, 10.0)])


def test_process_shard_gate_refuses_degraded_sharding() -> None:
    check_process_shards("process sharding active (worker pids: 11, 12)")
    with pytest.raises(GateFailure):
        check_process_shards("process sharding degraded to threads (single-core)")
    with pytest.raises(GateFailure):
        check_process_shards(None)


def test_history_gate_rejects_a_tampered_history(tmp_path: Path) -> None:
    sys.path.insert(0, str(SRC))
    from dataclasses import replace

    from repro.engine.history import HistoryLog
    from repro.sim.system import run_simulation
    from simrun import paper_config

    config = replace(paper_config(5), duration_ms=20_000.0, record_history=True)
    history = run_simulation(config).history
    clean = tmp_path / "clean.jsonl"
    history.save(str(clean))
    check_history(str(clean), str(ROOT), program_env(), str(tmp_path / "clean.md"))

    log = HistoryLog.load(str(clean))
    committed = {e.txn for e in log.events if e.kind == "commit"}
    read = next(
        e for e in log.events
        if e.kind == "read" and e.txn in committed and e.ts is not None
    )
    read.inconsistency += 1e9
    tampered = tmp_path / "tampered.jsonl"
    log.save(str(tampered))
    with pytest.raises(GateFailure, match="repro check"):
        check_history(str(tampered), str(ROOT), program_env(), str(tmp_path / "bad.md"))


@pytest.mark.xfail(
    strict=True,
    reason="engine defect: a Case-3 late write is admitted although a newer "
    "update ET read the object, so a concurrent update's delta is lost",
)
def test_shared_write_objects_keep_every_delta() -> None:
    sys.path.insert(0, str(SRC))
    from repro.core.bounds import TransactionBounds
    from repro.engine.api import create_engine
    from repro.engine.database import Database
    from repro.engine.results import Granted
    from repro.engine.timestamps import Timestamp

    database = Database()
    database.create_object(1, 100.0)
    engine = create_engine(database, "esr")
    loose = TransactionBounds(import_limit=1e9, export_limit=1e9)
    u1 = engine.begin("update", loose, timestamp=Timestamp(3, 1, 0))
    u2 = engine.begin("update", loose, timestamp=Timestamp(5, 2, 0))
    query = engine.begin("query", loose, timestamp=Timestamp(10, 3, 0))
    seen = engine.read(u2, 1).value
    engine.read(query, 1)
    if type(engine.write(u1, 1, 100.0 + 7)) is Granted:
        engine.commit(u1)
        expected = 100.0 + 7 + 11
    else:
        expected = 100.0 + 11
    if type(engine.write(u2, 1, seen + 11)) is Granted:
        engine.commit(u2)
    else:
        expected -= 11
    engine.commit(query)
    assert database.get(1).committed_value == expected
