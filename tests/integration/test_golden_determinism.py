"""Golden determinism: pinned end-to-end metrics for fixed configs/seeds.

The DES kernel promises bit-for-bit reproducibility, and the hot-path
work (the ready-queue fast path, the fused ledger walk) promises to be
*pure* optimisation — same results, less time.  These tests pin the
complete metric set of one run per protocol (the paper's TSO/ESR engine
with a hierarchy, strict TSO, the Wu et al. 2PL engine, strict 2PL and
MVTO) to the values the seed kernel produced.  Any future "optimisation" that reorders events,
changes a tie-break, or drifts the admission predicate fails loudly here
instead of silently warping every figure.

If a change is *meant* to alter event ordering (a semantic change to the
kernel or an engine), re-pin these values in the same commit and say so:
the goldens define the reference behaviour.
"""

from __future__ import annotations

import pytest

from repro.sim.system import SimulationConfig, run_simulation

#: (config, pinned metrics) — values captured from the single-heap seed
#: kernel (PR 1 tree) and required of every kernel since.
GOLDEN_RUNS = {
    "esr-hierarchy": (
        SimulationConfig(
            mpl=4,
            til=2_000.0,
            tel=500.0,
            protocol="esr",
            duration_ms=8_000.0,
            warmup_ms=1_000.0,
            query_group_limits=(("hot", 1_000.0),),
            seed=7,
        ),
        {
            "commits": 63,
            "aborts": 43,
            "commits_query": 18,
            "commits_update": 45,
            "inconsistent_operations": 4,
            "total_operations": 980,
            "waits": 12,
            "client_commits": (19, 20, 16, 8),
            "inconsistent_by_case": {
                "late-read-committed": 2,
                "read-uncommitted": 2,
            },
            "aborts_by_reason": {"bound-violation": 43},
        },
    ),
    "2pl": (
        SimulationConfig(
            mpl=4,
            til=2_000.0,
            tel=500.0,
            protocol="2pl",
            duration_ms=8_000.0,
            warmup_ms=1_000.0,
            seed=11,
        ),
        {
            "commits": 70,
            "aborts": 10,
            "commits_query": 14,
            "commits_update": 56,
            "inconsistent_operations": 17,
            "total_operations": 740,
            "waits": 48,
            "client_commits": (23, 17, 12, 18),
            "inconsistent_by_case": {"read-uncommitted": 17},
            "aborts_by_reason": {"deadlock": 10},
        },
    ),
    # The three strict protocols, pinned from the tree that still gave
    # each engine its own copy of the transaction lifecycle; the shared
    # lifecycle core must reproduce them bit for bit.
    "sr": (
        SimulationConfig(
            mpl=4,
            til=2_000.0,
            tel=500.0,
            protocol="sr",
            duration_ms=8_000.0,
            warmup_ms=1_000.0,
            seed=7,
        ),
        {
            "commits": 54,
            "aborts": 55,
            "commits_query": 11,
            "commits_update": 43,
            "inconsistent_operations": 0,
            "total_operations": 973,
            "waits": 13,
            "client_commits": (14, 23, 10, 7),
            "inconsistent_by_case": {},
            "aborts_by_reason": {"late-read": 49, "late-write": 6},
        },
    ),
    "2pl-sr": (
        SimulationConfig(
            mpl=4,
            til=2_000.0,
            tel=500.0,
            protocol="2pl-sr",
            duration_ms=8_000.0,
            warmup_ms=1_000.0,
            seed=11,
        ),
        {
            "commits": 54,
            "aborts": 15,
            "commits_query": 12,
            "commits_update": 42,
            "inconsistent_operations": 0,
            "total_operations": 722,
            "waits": 49,
            "client_commits": (8, 22, 11, 13),
            "inconsistent_by_case": {},
            "aborts_by_reason": {"deadlock": 15},
        },
    ),
    "mvto": (
        SimulationConfig(
            mpl=4,
            til=2_000.0,
            tel=500.0,
            protocol="mvto",
            duration_ms=8_000.0,
            warmup_ms=1_000.0,
            seed=13,
        ),
        {
            "commits": 104,
            "aborts": 1,
            "commits_query": 31,
            "commits_update": 73,
            "inconsistent_operations": 0,
            "total_operations": 1013,
            "waits": 0,
            "client_commits": (28, 23, 26, 27),
            "inconsistent_by_case": {},
            "aborts_by_reason": {"late-write": 1},
        },
    ),
}


def _observed(config: SimulationConfig) -> dict:
    result = run_simulation(config)
    metrics = result.metrics
    return {
        "commits": result.commits,
        "aborts": result.aborts,
        "commits_query": metrics.commits_query,
        "commits_update": metrics.commits_update,
        "inconsistent_operations": metrics.inconsistent_operations,
        "total_operations": metrics.total_operations,
        "waits": metrics.waits,
        "client_commits": result.client_commits,
        "inconsistent_by_case": dict(metrics.inconsistent_by_case),
        "aborts_by_reason": dict(metrics.aborts_by_reason),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_matches_pinned_golden_values(name):
    config, expected = GOLDEN_RUNS[name]
    assert _observed(config) == expected


def test_repeated_runs_are_bit_identical():
    """The same config run twice in one process yields the same metrics."""
    config, _ = GOLDEN_RUNS["esr-hierarchy"]
    assert _observed(config) == _observed(config)
