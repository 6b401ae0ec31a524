"""Correctness gates.  Any failure stops the run before a number is
reported: the benchmark exits non-zero and prints no result."""

from __future__ import annotations

import subprocess
import sys

__all__ = [
    "GateFailure",
    "check_deltas",
    "check_query_charges",
    "check_history",
    "check_process_shards",
]


class GateFailure(Exception):
    """A correctness gate failed; the run's numbers must not be used."""


def check_deltas(
    initial: dict[int, float], deltas: dict[int, float], final: dict[int, float]
) -> None:
    """Every written object must read (at zero epsilon) as its initial
    value plus the sum of the deltas its committed updates applied."""
    if not deltas:
        raise GateFailure("no update committed, so the delta gate checked nothing")
    wrong = []
    for oid, delta in deltas.items():
        expected = initial[oid] + delta
        if oid not in final or abs(final[oid] - expected) > 1e-6 * max(1.0, abs(expected)):
            wrong.append(f"object {oid}: read {final.get(oid)!r}, expected {expected!r}")
    if wrong:
        raise GateFailure(
            f"{len(wrong)} of {len(deltas)} written objects lost or gained "
            f"committed deltas, e.g. {wrong[0]}"
        )


def check_query_charges(charges: list[tuple[float, float]]) -> None:
    """Each committed query's reported inconsistency must fit its TIL."""
    over = [(c, til) for c, til in charges if c > til * (1 + 1e-12)]
    if over:
        charged, til = over[0]
        raise GateFailure(
            f"{len(over)} committed queries were charged past their TIL, "
            f"e.g. {charged:g} > {til:g}"
        )


def check_history(path: str, cwd: str, env: dict, report: str) -> None:
    """``repro check`` must find zero violations in the history."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", "check", path, "--out", report],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        try:
            with open(report, encoding="utf-8") as fp:
                detail = fp.read()[-2000:]
        except OSError:
            detail = done.stdout[-2000:] + done.stderr[-2000:]
        raise GateFailure(f"repro check rejected the history:\n{detail}")


def check_process_shards(announcement: str | None) -> None:
    """The sharded workload must really run forked shard workers."""
    if announcement is None or not announcement.startswith(
        "process sharding active"
    ):
        raise GateFailure(
            "process sharding is not active "
            f"(server said: {announcement or 'nothing'}); refusing to report"
        )

