"""The perf counters, the profiler wrapper, and the hot-path suite."""

from __future__ import annotations

import pytest

from repro.core.hierarchy import GroupCatalog, HierarchyLedger
from repro.experiments import hotpath
from repro.perf import PerfCounters, counters, profile_call
from repro.sim.des import Engine, Timeout


class TestPerfCounters:
    def test_engine_feeds_global_counters(self):
        counters.reset()
        engine = Engine()

        def process():
            yield Timeout(1.0)
            yield Timeout(0.0)

        engine.spawn(process())
        engine.run()
        assert counters.events_dispatched == 3
        assert counters.heap_pushes == 1
        assert counters.heap_pushes_avoided == 2

    def test_ledger_walks_and_rejections(self):
        counters.reset()
        catalog = GroupCatalog()
        catalog.add_group("g")
        catalog.assign(1, "g")
        ledger = HierarchyLedger(catalog, 100.0, {"g": 50.0})
        assert ledger.try_charge(1, 40.0).admitted
        assert not ledger.try_charge(1, 40.0).admitted
        assert counters.ledger_walks == 2
        assert counters.ledger_rejections == 1

    def test_conflict_case_tally(self):
        tally = PerfCounters()
        tally.record_conflict_case("late-write")
        tally.record_conflict_case("late-write")
        tally.record_conflict_case("read-uncommitted")
        assert tally.conflict_cases == {"late-write": 2, "read-uncommitted": 1}

    def test_snapshot_and_table(self):
        tally = PerfCounters()
        tally.events_dispatched = 7
        tally.record_conflict_case("late-write")
        snapshot = tally.snapshot()
        assert snapshot["events_dispatched"] == 7
        assert snapshot["conflict_cases"] == {"late-write": 1}
        table = tally.format_table()
        assert "events dispatched" in table
        assert "late-write" in table

    def test_reset_zeroes_everything(self):
        tally = PerfCounters()
        tally.events_dispatched = 5
        tally.record_conflict_case("x")
        tally.reset()
        assert tally.events_dispatched == 0
        assert tally.conflict_cases == {}


class TestProfileCall:
    def test_returns_result_and_report(self):
        result, report = profile_call(lambda: sum(range(1000)), top_n=5)
        assert result == sum(range(1000))
        assert "cumulative" in report

    def test_exceptions_propagate(self):
        def boom():
            raise ValueError("boom")

        try:
            profile_call(boom)
        except ValueError as exc:
            assert "boom" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


class TestHotpathSuite:
    def test_quick_suite_runs_and_reports(self):
        report = hotpath.run_suite(repeats=1, smoke_repeats=1)
        assert set(report["micro"]) == {b.name for b in hotpath.MICRO_BENCHES}
        for entry in report["micro"].values():
            assert entry["ops_per_s"] > 0
        assert report["smoke"]["wall_s"] > 0
        text = hotpath.format_report(report)
        assert "smoke_figure" in text

    def test_baseline_round_trip_and_comparison(self, tmp_path):
        report = hotpath.run_suite(repeats=1, smoke_repeats=1)
        path = tmp_path / "BENCH_hotpath.json"
        hotpath.write_baseline(report, path)
        loaded = hotpath.load_baseline(path)
        assert loaded == report
        comparison = hotpath.format_comparison(loaded, report)
        assert "1.00x" in comparison

    def test_smoke_calls_per_commit_repeats_exactly(self):
        first = hotpath.smoke_calls_per_commit()
        second = hotpath.smoke_calls_per_commit()
        third = hotpath.smoke_calls_per_commit()
        # The first run may include one-off lazy set-up; warm runs agree.
        assert second == third
        assert second["commits"] == first["commits"] > 0
        assert second["calls_per_commit"] == pytest.approx(
            second["profiled_calls"] / second["commits"], abs=0.05
        )

    def test_calls_guard_tolerance(self):
        baseline = {"smoke": {"calls_per_commit": 1000.0}}

        def current(value):
            return {"smoke": {"calls_per_commit": value}}

        assert hotpath.check_calls_regression(baseline, current(1000.0)) is None
        assert hotpath.check_calls_regression(baseline, current(900.0)) is None
        assert hotpath.check_calls_regression(baseline, current(1019.9)) is None
        problem = hotpath.check_calls_regression(baseline, current(1020.1))
        assert problem is not None and "regressed" in problem
        # A baseline without the figure fails rather than passing unchecked.
        assert hotpath.check_calls_regression({"smoke": {}}, current(1.0))

    def test_missing_or_bad_baseline_is_none(self, tmp_path):
        assert hotpath.load_baseline(tmp_path / "nope.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert hotpath.load_baseline(bad) is None
        wrong_schema = tmp_path / "old.json"
        wrong_schema.write_text('{"schema": 0}', encoding="utf-8")
        assert hotpath.load_baseline(wrong_schema) is None
