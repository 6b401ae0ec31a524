"""Run one workload on several seeds and print each metric's spread.

The spread is the distance between the first and third quartiles of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median, the figure a metric's bound in ``BENCHMARK.json`` is held to.
Each run's host calibration time is printed beside its metrics, so a
spread that follows host speed can be told from one the benchmark adds.
Run from the repository root::

    python3 perfbench/spread.py --workload cached-reads --seeds 1-10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    bounds = {
        m["name"]: m.get("bound")
        for kind in ("end_to_end", "per_layer")
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    }
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        meta = json.loads(next(line for line in lines if line.startswith("META "))[5:])
        print(f"seed {seed}: calibration_ms={meta['calibration_ms']:.1f}, " + ", ".join(
            f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()
        ), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':32s} {'median':>12s} {'IQR/median':>10s} {'bound':>6s}")
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:32s} {median:12.5g} {spread:10.4f} {bound if bound else '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
