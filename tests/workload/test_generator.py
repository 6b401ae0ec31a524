"""The workload generator."""

from __future__ import annotations

import hashlib
import statistics
import tracemalloc

import pytest

from repro.lang.ast import ReadStmt, WriteStmt
from repro.lang.compiler import format_program
from repro.workload.generator import (
    WorkloadGenerator,
    build_database,
    hot_set_for,
    partition_for_site,
)
from repro.workload.spec import PAPER_WORKLOAD, WorkloadSpec

SMALL = WorkloadSpec(n_objects=50, hot_set_size=10, n_partitions=5)


class TestBuildDatabase:
    def test_size_and_value_range(self):
        db = build_database(PAPER_WORKLOAD, seed=1)
        assert len(db) == 1000
        values = [obj.committed_value for obj in db.objects()]
        assert min(values) >= 1000 and max(values) <= 9999

    def test_deterministic_for_seed(self):
        a = build_database(SMALL, seed=7).committed_snapshot()
        b = build_database(SMALL, seed=7).committed_snapshot()
        assert a == b

    def test_different_seeds_differ(self):
        a = build_database(SMALL, seed=1).committed_snapshot()
        b = build_database(SMALL, seed=2).committed_snapshot()
        assert a != b


class TestHotSetAndPartitions:
    def test_hot_set_is_deterministic_and_sized(self):
        assert hot_set_for(SMALL) == hot_set_for(SMALL)
        assert len(hot_set_for(SMALL)) == SMALL.hot_set_size

    def test_partitions_cover_hot_set_disjointly(self):
        parts = [partition_for_site(SMALL, s) for s in range(1, 6)]
        combined = [obj for part in parts for obj in part]
        assert sorted(combined) == sorted(hot_set_for(SMALL))

    def test_sites_wrap_past_partition_count(self):
        assert partition_for_site(SMALL, 1) == partition_for_site(SMALL, 6)

    def test_more_partitions_than_hot_objects(self):
        spec = WorkloadSpec(n_objects=50, hot_set_size=3, n_partitions=10)
        part = partition_for_site(spec, 5)
        assert len(part) >= 1


class TestQueryGeneration:
    def test_query_shape(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=1)
        program = generator.generate_query(til=100_000.0)
        assert program.kind == "query"
        assert program.transaction_limit == 100_000.0
        spread = PAPER_WORKLOAD.query_ops_spread
        assert (
            PAPER_WORKLOAD.query_ops_mean - spread
            <= program.read_count()
            <= PAPER_WORKLOAD.query_ops_mean + spread
        )
        assert program.write_count() == 0

    def test_query_reads_distinct_objects(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=2)
        program = generator.generate_query(til=1.0)
        touched = program.objects_touched()
        assert len(touched) == len(set(touched))

    def test_query_is_hot_biased(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=3)
        hot = set(generator.hot_set)
        hot_hits = total = 0
        for _ in range(30):
            for object_id in generator.generate_query(1.0).objects_touched():
                total += 1
                hot_hits += object_id in hot
        assert hot_hits / total > 0.6


class TestUpdateGeneration:
    def test_update_shape(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=1)
        program = generator.generate_update(tel=10_000.0)
        assert program.kind == "update"
        ops = program.read_count() + program.write_count()
        spread = PAPER_WORKLOAD.update_ops_spread
        assert (
            PAPER_WORKLOAD.update_ops_mean - spread
            <= ops
            <= PAPER_WORKLOAD.update_ops_mean + spread
        )
        assert program.write_count() <= PAPER_WORKLOAD.writes_per_update

    def test_updates_are_read_modify_write(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=1)
        program = generator.generate_update(tel=1.0)
        reads = {
            stmt.object_id: stmt.target
            for stmt in program.body
            if isinstance(stmt, ReadStmt)
        }
        for stmt in program.body:
            if isinstance(stmt, WriteStmt):
                assert stmt.object_id in reads

    def test_update_writes_stay_in_partition(self):
        partition = partition_for_site(PAPER_WORKLOAD, 3)
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=5, partition=partition)
        for _ in range(20):
            program = generator.generate_update(tel=1.0)
            for stmt in program.body:
                if isinstance(stmt, WriteStmt):
                    assert stmt.object_id in partition

    def test_mean_write_change_calibrated(self):
        spec = WorkloadSpec(large_change_fraction=0.0)
        generator = WorkloadGenerator(spec, seed=11)
        deltas = [abs(generator._write_delta()) for _ in range(2000)]
        assert statistics.mean(deltas) == pytest.approx(
            spec.mean_write_change, rel=0.1
        )

    def test_large_changes_present_when_configured(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=11)
        deltas = [abs(generator._write_delta()) for _ in range(2000)]
        w = PAPER_WORKLOAD.mean_write_change
        big = sum(1 for d in deltas if d >= PAPER_WORKLOAD.large_change_min_mult * w)
        assert 0.05 < big / len(deltas) < 0.3


class TestMixAndStream:
    def test_mix_respects_query_fraction(self):
        generator = WorkloadGenerator(PAPER_WORKLOAD, seed=4)
        programs = generator.generate_mix(400, til=1.0, tel=1.0)
        queries = sum(1 for p in programs if p.is_query)
        assert 0.2 < queries / len(programs) < 0.4

    def test_stream_is_endless(self):
        generator = WorkloadGenerator(SMALL, seed=1)
        stream = generator.stream(til=1.0, tel=1.0)
        programs = [next(stream) for _ in range(25)]
        assert len(programs) == 25

    def test_deterministic_by_seed(self):
        a = WorkloadGenerator(SMALL, seed=9).generate_mix(10, 1.0, 1.0)
        b = WorkloadGenerator(SMALL, seed=9).generate_mix(10, 1.0, 1.0)
        assert a == b


def _stream_digest(generator: WorkloadGenerator, count: int = 300) -> str:
    """SHA-256 prefix over the source text of ``count`` generated programs."""
    digest = hashlib.sha256()
    for _ in range(count):
        program = generator.generate(til=100_000.0, tel=10_000.0)
        digest.update(format_program(program).encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


#: Spec whose hot set is the whole database: the cold pool is empty.
ALL_HOT = WorkloadSpec(n_objects=40, hot_set_size=40, n_partitions=4)

#: Generator factories for the program-stream pins, one per selection path.
STREAM_CASES = {
    "paper-unpartitioned": lambda: WorkloadGenerator(PAPER_WORKLOAD, seed=1),
    "paper-partitioned": lambda: WorkloadGenerator(
        PAPER_WORKLOAD,
        seed=3 * 1_000_003 + 6,
        partition=partition_for_site(PAPER_WORKLOAD, 6),
    ),
    "paper-group-limits": lambda: WorkloadGenerator(
        PAPER_WORKLOAD,
        seed=17,
        partition=partition_for_site(PAPER_WORKLOAD, 3),
        query_group_limits={"hot": 2_000.0, "part3": 500.0},
    ),
    "empty-cold-set": lambda: WorkloadGenerator(
        ALL_HOT, seed=5, partition=partition_for_site(ALL_HOT, 2)
    ),
    "cold-partition": lambda: WorkloadGenerator(
        SMALL,
        seed=23,
        partition=(
            hot_set_for(SMALL)[:2]
            + tuple(o for o in SMALL.object_ids if o not in hot_set_for(SMALL))[:3]
        ),
    ),
}

#: Digests of the first 300 programs per case.  Any change to object
#: selection that alters an RNG draw — and with it every figure — moves
#: one of these.
STREAM_DIGESTS = {
    "paper-unpartitioned": "0764a8b0c9d52b92",
    "paper-partitioned": "f55c7377282d8fe5",
    "paper-group-limits": "34760e0ad15d0be4",
    "empty-cold-set": "2c9855c63d881e3d",
    "cold-partition": "36d34fd5f8982285",
}


class TestProgramStreamPinned:
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_program_stream_is_unchanged(self, case):
        assert _stream_digest(STREAM_CASES[case]()) == STREAM_DIGESTS[case]


class TestGenerationCostIsPerOperation:
    def test_peak_allocation_independent_of_database_size(self):
        """Generating from a huge database allocates only per-program state.

        A generator that filters the ~100,000-object cold pool per
        transaction allocates a candidate list of that size each time
        (~800 KB); the bound is far below that and far above one program.
        """
        spec = WorkloadSpec(n_objects=100_000)
        generator = WorkloadGenerator(
            spec, seed=2, partition=partition_for_site(spec, 4)
        )
        tracemalloc.start()
        try:
            for _ in range(200):
                generator.generate_update(tel=10_000.0)
                generator.generate_query(til=100_000.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"peak {peak:,} B while generating"
