"""The mzv benchmark: seeded batches of identity checks, timed to their verdicts.

    python3 benchmarks/run.py --workload zeta-mix --seed 20160703 --seconds 25 --trace 0

Run it from the repository root; it imports the library from `src/`.  The
seed BENCHMARK.json's command passes is the default.  Each drawn check is
handed to `mzv.report.run_suite` as a one-point, serial suite config, in
pool order (see `workloads.py`), in a fresh worker interpreter (a closed
loop with one client: the next check starts when the previous verdict is
in).  `--seconds` sets the number of drawn checks (`workloads.check_count`):
about that many seconds of checks on the 2-core reference machine, but at
least 110 checks and at most the workload's whole pool.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json: wall and CPU
time of the batch, per-check time to verdict (median and 90th percentile,
Harrell-Davis estimates), peak memory of the worker, and set-up time (median
of several fresh interpreters importing `mzv.cli` and evaluating zeta(2)).

Check times are in reference seconds.  The speed of the shared 2-core machine
this benchmark was built on drifts by 20 % and more within minutes, and its
two cores differ by up to half, which no run length averages away.  So the
benchmark pins itself to the core that is fastest at its start
(`rank_cpus`), a fixed pure-Python loop with no mzv code
(`worker.calibration_s`) is timed every tenth of a second between the
checks, and each check's time is divided by its slowdown: the loop's median
time around it over `worker.CALIBRATION_REF_S`.  Set-up time is in
reference seconds too: each launch times the loop itself once its set-up is
done.  The raw seconds and the slowdowns are in the details line.

`--trace 1` runs the same checks twice at the same time in two interpreters:
one with every layer entry wrapped in spans (see `tracing.py`) on the
fastest core, one untraced on the next.  Then the layer microbenchmarks run
in a third interpreter, and the per-layer metrics of BENCHMARK.json are
printed.  Span and microbenchmark times are raw seconds; `trace.wall_s` and
`trace.overhead_s` (traced minus untraced wall time) are in reference
seconds, as the two passes run on cores of different speed.

Every verdict is checked: each identity is proven, so a check that fails,
raises, misses its accuracy target or echoes other parameters than it was
given makes the run incorrect.  The second-to-last output line is a JSON
object with every detail (machine facts, drawn points, spreads, samples);
the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 7
WORKER_TIMEOUT_S = 170
# A set-up launch: import the CLI and evaluate zeta(2), which pays any JIT
# compile, then note the time (perf_counter is the system-wide monotonic
# clock) and time the calibration loop in the same interpreter, on the core
# the set-up ran on.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import mzv.cli; "
    "from mzv import MzvIndex, mzv; mzv(MzvIndex((2,))); done = time.perf_counter(); "
    "sys.path.insert(0, sys.argv[2]); from worker import calibration_s; "
    "print(done, min(calibration_s() for _ in range(3)))"
)


def call_worker(request: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from the start of each fresh-interpreter launch to its set-up
    being done, and the slowdown of each: the launch's own calibration time
    over `worker.CALIBRATION_REF_S`."""
    times, slowdowns = [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            check=True,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
            cwd=ROOT,
        )
        done, calibration = map(float, proc.stdout.split())
        times.append(done - start)
        slowdowns.append(calibration / worker.CALIBRATION_REF_S)
    return times, slowdowns


def rank_cpus() -> list[int]:
    """The CPUs this process may run on, fastest first by the calibration loop.

    The cores of a shared machine can differ in speed by half and more (one
    may be busy with another tenant's work), so the benchmark pins itself,
    and so every interpreter it starts, to the fastest: a check and the
    calibration around it then run on the same core.
    """
    cpus = sorted(os.sched_getaffinity(0))
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(worker.calibration_s() for _ in range(10))
    os.sched_setaffinity(0, set(cpus))
    return sorted(cpus, key=speed.__getitem__)


def check_slowdowns(run: dict) -> list[float]:
    """Each check's slowdown: the calibration times around it over the reference."""
    calibration = run["calibration_s"]
    out = []
    for rec in run["records"]:
        j = rec["calibration"]
        window = calibration[max(0, j - worker.CALIBRATION_WINDOW) : j + worker.CALIBRATION_WINDOW + 1]
        out.append(statistics.median(window) / worker.CALIBRATION_REF_S)
    return out


def reference_wall_s(run: dict) -> float:
    """The run's wall time in reference seconds."""
    return sum(r["wall_s"] / f for r, f in zip(run["records"], check_slowdowns(run)))


def verdicts(points: list[dict], records: list[dict]) -> dict:
    """Judge every record against the known answer: each check must pass."""
    failed = []
    sides = unmet = 0
    for point, rec in zip(points, records, strict=True):
        if rec["error"] is not None:
            failed.append({"point": point["params"], "family": point["family"], "error": rec["error"]})
            continue
        sides += rec["sides"]
        unmet += rec["unmet_sides"]
        if (
            rec["passed"] != [True]
            or rec["identity"] != [workloads.expected_identity(point)]
            or rec["params"] != [point["params"]]
        ):
            failed.append({"point": point["params"], "family": point["family"], "record": rec})
    return {
        "attempted": len(points),
        "failed": len(failed),
        "failed_share": len(failed) / len(points) if points else 0.0,
        "accuracy_unmet_share": unmet / sides if sides else 0.0,
        "failures": failed[:20],
    }


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  A single order statistic moves with the one check it
    lands on; zeta-mix has few checks near its median and 90th percentile."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 200 * n
    cdf = [0.0]
    for k in range(steps):
        x = (k + 0.5) / steps
        cdf.append(cdf[-1] + math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta) / steps)
    weights = [cdf[200 * (i + 1)] - cdf[200 * i] for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(run: dict, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """End-to-end metrics; check times in reference seconds (see the module doc)."""
    records = run["records"]
    slow = check_slowdowns(run)
    ms = [r["ms"] / f for r, f in zip(records, slow)]
    p90 = quantile(ms, 0.9)
    metrics = {
        "wall_s": reference_wall_s(run),
        "cpu_s": sum(r["cpu_s"] / f for r, f in zip(records, slow)),
        "check_ms_p50": quantile(ms, 0.5),
        "check_ms_p90": p90,
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(t / f for t, f in zip(*setup)),
    }
    raw_ms = [r["ms"] for r in records]
    details = {
        "raw_seconds": {
            "wall_s": run["wall_s"],
            "cpu_s": sum(r["cpu_s"] for r in records),
            "check_ms_p50": quantile(raw_ms, 0.5),
            "check_ms_p90": quantile(raw_ms, 0.9),
            "setup_s": statistics.median(setup[0]),
        },
        "slowdown_median": statistics.median(slow),
        "check_ms_samples": len(ms),
        "check_ms_beyond_p90": sum(1 for v in ms if v > p90),
        "check_ms": ms,
        "setup_s_launches": setup[0],
        "setup_slowdowns": setup[1],
    }
    return metrics, details


def per_layer(base: dict, traced: dict, micro: dict, verdict: dict, class_names: set[str]) -> dict:
    metrics = dict(traced["layers"])
    metrics.update(micro["metrics"])
    metrics["trace.wall_s"] = reference_wall_s(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - reference_wall_s(base)
    metrics["verdict.failed_share"] = verdict["failed_share"]
    metrics["verdict.accuracy_unmet_share"] = verdict["accuracy_unmet_share"]
    # classes BENCHMARK.json does not name are summed under "other"
    for name in class_names | {"other"}:
        for key in ("calls", "terms", "busy_s"):
            metrics[f"series.class.{name}.{key}"] = 0
    for name, stats in traced["facts"]["decay_classes"].items():
        for key, value in stats.items():
            metrics[f"series.class.{name if name in class_names else 'other'}.{key}"] += value
    return metrics


def class_names(spec: dict) -> set[str]:
    """The decay classes BENCHMARK.json names in `series.class.<class>.*` metrics."""
    return {m["name"].split(".")[2] for m in spec["per_layer"] if m["name"].startswith("series.class.")} - {"other"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FAMILIES))
    # the default seed is the one BENCHMARK.json's command passes
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mzv" / "__init__.py").is_file():
        print(f"no mzv package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    pool = workloads.load_pool(args.workload)
    points = workloads.draw(args.workload, args.seed, args.seconds, pool)
    request = {"src": str(SRC), "mode": "checks", "points": points, "trace": False}
    details: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    cpus = rank_cpus()
    os.sched_setaffinity(0, {cpus[0]})
    details["cpus_fastest_first"] = cpus
    details["machine"] = {"nproc": len(cpus)}
    if args.trace:
        # Both passes run at once to keep the run short: the traced one on
        # the fastest core, the untraced one on the next.
        with ThreadPoolExecutor(max_workers=2) as executor:
            untraced = executor.submit(call_worker, dict(request, cpu=cpus[1 % len(cpus)]))
            traced = executor.submit(call_worker, dict(request, trace=True))
            base, traced = untraced.result(), traced.result()
        micro = call_worker({"src": str(SRC), "mode": "micro"})
        verdict = verdicts(points, base["records"])
        traced_verdict = verdicts(points, traced["records"])
        same = [(r.get("params"), r.get("passed")) for r in base["records"]] == [
            (r.get("params"), r.get("passed")) for r in traced["records"]
        ]
        computed = per_layer(base, traced, micro, verdict, class_names(spec))
        correct = verdict["failed"] == 0 and traced_verdict["failed"] == 0 and same
        details["machine"].update(traced["machine"])
        details.update(micro_spreads=micro["spreads"], traced_untraced_agree=same)
        details["workload_facts"] = {**workloads.pool_facts(args.workload, pool, points), **traced["facts"]}
    else:
        setup = measure_setup()
        base = call_worker(request)
        verdict = verdicts(points, base["records"])
        computed, extra = end_to_end(base, setup)
        correct = verdict["failed"] == 0
        details["machine"].update(base["machine"])
        details.update(extra)
        details["workload_facts"] = workloads.pool_facts(args.workload, pool, points)
    correct = correct and verdict["accuracy_unmet_share"] == 0.0
    details["verdicts"] = verdict

    metrics = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        if m["name"] not in computed:
            raise SystemExit(f"metric {m['name']!r} of BENCHMARK.json was not measured")
        metrics[m["name"]] = {"value": computed[m["name"]], "unit": m["unit"]}
    print(json.dumps(details))
    result = {"correct": correct, "attempted": verdict["attempted"], "failed": verdict["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
