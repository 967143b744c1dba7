"""Rebuild `pool.json`: every candidate point of every workload with its cold cost.

    python3 benchmarks/make_pool.py            # from the repository root

For each point the script runs the one-check suite the benchmark runs, with
an empty evaluation cache, and records the kernel position-terms it scanned
(`_evaluate_cached.cache_clear()` empties the cache between points).
A scan past the largest `workloads.COST_CAP` is stopped and the point
stored with cost `null` (left out of every pool).  A point whose check fails, or whose report does not
echo its parameters, stops the script: pools hold only checks that pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mzv.report  # noqa: E402
import mzv.series  # noqa: E402

import workloads  # noqa: E402


class _OverCap(Exception):
    pass


def main() -> int:
    original = mzv.series.scan_block
    cap = max(workloads.COST_CAP.values())
    scanned = [0]

    def counting_scan(factors, acc, comp):
        scanned[0] += factors.size
        if scanned[0] > cap:
            raise _OverCap
        return original(factors, acc, comp)

    mzv.series.scan_block = counting_scan
    out = {}
    try:
        for workload in workloads.FAMILIES:
            points = workloads.candidate_points(workload)
            for i, point in enumerate(points):
                mzv.series._evaluate_cached.cache_clear()
                scanned[0] = 0
                try:
                    report = mzv.report.run_suite(workloads.suite_config(point))
                except _OverCap:
                    point["cost"] = None
                else:
                    (record,) = report["checks"]
                    if not record["pass"] or record["params"] != point["params"]:
                        raise SystemExit(f"{workload}: unusable point {point}: {record}")
                    if record["identity"] != workloads.expected_identity(point):
                        raise SystemExit(f"{workload}: unexpected identity in {record}")
                    point["cost"] = scanned[0]
                print(workload, i + 1, len(points), point["family"], point["params"], point["cost"], flush=True)
            out[workload] = points
    finally:
        mzv.series.scan_block = original
    write_pool(out)
    return 0


def write_pool(pool: dict) -> None:
    """Write `pool.json` with one point per line."""
    blocks = []
    for workload in sorted(pool):
        lines = ",\n".join(json.dumps(point, sort_keys=True) for point in pool[workload])
        blocks.append(f"{json.dumps(workload)}: [\n{lines}\n]")
    with open(workloads.POOL_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
