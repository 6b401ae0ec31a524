"""Process CPU time and memory, read from ``/proc`` (Linux)."""

from __future__ import annotations

import os

__all__ = ["cpu_seconds", "peak_rss_mb"]

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int, thread: int | None = None) -> float:
    """User + system CPU seconds used so far by ``pid`` (all threads), or
    by its thread ``thread`` alone."""
    path = f"/proc/{pid}/stat" if thread is None else f"/proc/{pid}/task/{thread}/stat"
    with open(path, encoding="ascii") as fp:
        fields = fp.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at ``state`` (field 3), so
    # utime/stime (fields 14/15) sit at offsets 11/12.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def _status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fp:
        for line in fp:
            if line.startswith(key):
                return int(line.split()[1])
    raise KeyError(f"{key} missing from /proc/{pid}/status")


def peak_rss_mb(pids: list[int]) -> float:
    """Summed high-water resident set size of ``pids``, in MiB."""
    return sum(_status_kb(pid, "VmHWM:") for pid in pids) / 1024.0

