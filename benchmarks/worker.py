"""Benchmark worker: runs one request in a fresh interpreter.

    python3 benchmarks/worker.py < request.json > result.json

The request is `{"src": <dir holding the mzv package>, "mode": ...}` with
mode `"checks"` (plus `"points"` and `"trace"`) or `"micro"`, and an
optional `"cpu"` to pin the worker to.  The evaluation
cache is process-global, so every run of checks gets its own interpreter and
starts cold, as every `mzv` invocation does.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def _import_mzv(src: str) -> None:
    sys.path.insert(0, src)
    import mzv

    if not Path(mzv.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"mzv was imported from {mzv.__file__}, not from {src}")


# A calibration loop runs before the next check once this many seconds have
# passed since the last one; it takes about CALIBRATION_REF_S on the 2-core
# reference machine at its usual speed.  A check's slowdown is the median
# of the calibration times up to CALIBRATION_WINDOW samples either side of
# the last one before it, over CALIBRATION_REF_S.
CALIBRATION_EVERY_S = 0.1
CALIBRATION_TERMS = 30_000
CALIBRATION_REF_S = 0.005
CALIBRATION_WINDOW = 1


def calibration_s() -> float:
    """Seconds one fixed pure-Python compensated-sum loop takes right now.

    The loop does the kind of work the scan kernel does, with no mzv code,
    so its time follows the machine's current speed and nothing else.
    """
    start = time.perf_counter()
    acc = comp = 0.0
    for k in range(1, CALIBRATION_TERMS + 1):
        x = 1.0 / (k * k)
        t = acc + x
        comp += (acc - t) + x if abs(acc) >= abs(x) else (x - t) + acc
        acc = t
    return time.perf_counter() - start


def run_checks(points: list[dict], trace: bool) -> dict:
    """Run each point as its own `run_suite` call, in order; time each one."""
    import mzv.report
    import workloads
    from tracing import Tracer, layer_metrics

    tracer = Tracer() if trace else None
    records = []
    calibration = []
    json_s = 0.0
    json_bytes = 0
    last_calibration = float("-inf")
    with tracer or contextlib.nullcontext():
        for point in points:
            if time.perf_counter() - last_calibration >= CALIBRATION_EVERY_S:
                calibration.append(calibration_s())
                last_calibration = time.perf_counter()
            config = workloads.suite_config(point)
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                report = mzv.report.run_suite(config)
            except Exception as exc:  # a raising check is a failed verdict, not a crashed run
                end = done = time.perf_counter()
                record = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                end = time.perf_counter()
                text = json.dumps(report)
                done = time.perf_counter()
                json_s += done - end
                json_bytes += len(text)
                checks = report["checks"]
                record = {
                    "error": None,
                    "identity": [c["identity"] for c in checks],
                    "params": [c["params"] for c in checks],
                    "passed": [c["pass"] for c in checks],
                    "sides": sum(len(c["sides"]) for c in checks),
                    "unmet_sides": sum(not s["accuracy_met"] for c in checks for s in c["sides"]),
                }
            # time to verdict, and the check's share of wall and CPU time (with JSON rendering)
            record["ms"] = (end - start) * 1e3
            record["wall_s"] = done - start
            record["cpu_s"] = time.process_time() - cpu0
            record["calibration"] = len(calibration) - 1
            records.append(record)
    wall_s = sum(r["wall_s"] for r in records)
    out = {
        "records": records,
        "calibration_s": calibration,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        out["layers"], out["facts"] = layer_metrics(tracer.spans, wall_s, json_s, json_bytes)
    return out


def _timed(fn, repeats: int, min_s: float = 0.02) -> tuple[float, float]:
    """Median seconds per call over `repeats` timings, and their quartile spread
    relative to the median.  Each timing loops the call until it lasts `min_s`."""
    fn()  # warm caches and any JIT compile
    inner = 1
    while True:
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        if time.perf_counter() - start >= min_s or inner >= 1 << 16:
            break
        inner *= 2
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return median, (q3 - q1) / median


def run_micro() -> dict:
    """Microbenchmarks of the layer entry points, as medians with spreads."""
    import numpy as np
    from mzv import _kernels, quadrature
    from mzv.series import (
        ExtraPower,
        FiniteDifference,
        NestedSumSpec,
        RisingFactorial,
        ShiftedPower,
        extrapolate_tail,
        partial_sums,
    )

    metrics: dict[str, float] = {}
    spreads: dict[str, float] = {}

    def record(name: str, scale: float, result: tuple[float, float]) -> None:
        metrics[name] = result[0] * scale
        spreads[name] = result[1]

    width = 4096
    k = np.arange(1, width + 1, dtype=np.float64)
    for depth in (1, 3, 7):
        block = np.tile(k**-2.0, (depth, 1))

        def scan(block=block, depth=depth):
            _kernels.scan_block(block, np.zeros(depth), np.zeros(depth))

        record(f"kernel.ns_per_term.d{depth}", 1e9 / width, _timed(scan, 9))

    cutoff = 8192
    kinds = {
        "shifted-power": ShiftedPower(0.5, 2),
        "extra-power": ExtraPower(1, 2),
        "rising-factorial": RisingFactorial(2),
        "finite-difference": FiniteDifference(2, 2),
    }
    for kind, factor in kinds.items():
        spec = NestedSumSpec(((factor,),))
        record(
            f"series.partial_sums_ns_per_term.{kind}",
            1e9 / cutoff,
            _timed(lambda spec=spec: partial_sums(spec, [cutoff]), 9),
        )

    cutoffs = sorted({int(round(2.0 ** (j / 2.0))) for j in range(12, 33)})
    sums = np.cumsum(np.arange(1, cutoffs[-1] + 1, dtype=np.float64) ** -2.0)
    partials = [float(sums[c - 1]) for c in cutoffs]
    for log_power in (0, 3):
        record(
            f"series.extrapolate_tail_us.l{log_power}",
            1e6,
            _timed(lambda lp=log_power: extrapolate_tail(cutoffs, partials, 2, lp), 9),
        )

    # One level of the triangle rule.  `_triangle_level_value` is the only
    # entry that evaluates a single level; the public `triangle_quadrature`
    # stops at the first converged level.
    integrand = quadrature.TriangleIntegrand(pow_t2=2)
    for level in (5, 6, 7, 8):
        record(
            f"quadrature.level_ms.l{level}",
            1e3,
            _timed(lambda lv=level: quadrature._triangle_level_value(integrand, lv), 7 if level < 8 else 5),
        )
    return {"metrics": metrics, "spreads": spreads}


def machine_facts() -> dict:
    """Facts that change every kernel number: versions and the kernel in use."""
    import platform

    import numpy as np
    from mzv import _kernels

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    kernel = _kernels.scan_block
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": numba_imports,
        # a numba dispatcher type, or builtins.function for the pure-Python fallback
        "scan_block_type": f"{type(kernel).__module__}.{type(kernel).__qualname__}",
        "scan_block_name": getattr(kernel, "__qualname__", repr(kernel)),
    }


def main() -> int:
    request = json.load(sys.stdin)
    if "cpu" in request:
        os.sched_setaffinity(0, {request["cpu"]})
    _import_mzv(request["src"])
    if request["mode"] == "checks":
        result = run_checks(request["points"], bool(request["trace"]))
    elif request["mode"] == "micro":
        result = run_micro()
    else:
        raise SystemExit(f"unknown mode {request['mode']!r}")
    result["machine"] = machine_facts()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
