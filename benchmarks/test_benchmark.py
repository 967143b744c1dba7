"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
    )


@pytest.mark.parametrize("workload", sorted(workloads.FAMILIES))
def test_same_seed_gives_same_points(workload):
    pool = workloads.load_pool(workload)
    for seconds in (1, SPEC["run_seconds"]):
        first = workloads.draw(workload, 11, seconds)
        assert first == workloads.draw(workload, 11, seconds)
        assert len(first) == workloads.check_count(workload, seconds, len(pool)) >= workloads.MIN_CHECKS
        assert len({json.dumps(p, sort_keys=True) for p in first}) == len(first)
    assert workloads.draw(workload, 11, 1) != workloads.draw(workload, 12, 1)


def test_pool_points_expand_to_themselves():
    from mzv.identities import IDENTITIES
    from mzv.quadrature import QUAD_CHECKS

    for workload in workloads.FAMILIES:
        for point in workloads.load_pool(workload):
            expand = IDENTITIES[point["family"]].grid if point["kind"] == "identity" else QUAD_CHECKS[point["family"]][1]
            assert expand(workloads.point_grid(point["family"], point["params"])) == [point["params"]]


def test_tracer_restores_every_binding():
    import mzv
    import mzv.identities
    import mzv.quadrature
    import mzv.report
    import mzv.series

    modules = [m for n, m in sys.modules.items() if (n == "mzv" or n.startswith("mzv.")) and m]
    before = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    identities = dict(mzv.identities.IDENTITIES)
    quad = dict(mzv.quadrature.QUAD_CHECKS)
    with Tracer() as tracer:
        assert mzv.series.scan_block is not before[(id(mzv.series), "scan_block")]
        for module in (mzv, mzv.series, mzv.identities, mzv.quadrature):
            assert module.evaluate is not before[(id(module), "evaluate")]
        assert mzv.report.run_suite is not before[(id(mzv.report), "run_suite")]
        assert all(mzv.identities.IDENTITIES[k] is not v for k, v in identities.items())
        assert all(mzv.quadrature.QUAD_CHECKS[k] is not v for k, v in quad.items())
        trunc = next(p for p in workloads.load_pool("quad-cross") if p["family"] == "trunc")
        mzv.report.run_suite(workloads.suite_config(trunc))
        assert {s[0] for s in tracer.spans} == {
            "report.run_suite",
            "quadrature.check.trunc",
            "quadrature.triangle",
            "series.evaluate",
            "kernel.scan_block",
        }
    after = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert all(mzv.identities.IDENTITIES[k] is v for k, v in identities.items())
    assert all(mzv.quadrature.QUAD_CHECKS[k] is v for k, v in quad.items())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_listed_metric_is_emitted_with_its_unit(trace):
    proc = _bench("--workload", "quad-cross", "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == workloads.check_count("quad-cross", 0.5, len(workloads.load_pool("quad-cross")))
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in listed
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    machine = json.loads(proc.stdout.splitlines()[-2])["machine"]
    assert {"nproc", "python", "numpy", "numba_imports", "scan_block_type"} <= machine.keys()


def test_failed_and_raising_checks_are_counted_not_fatal():
    good = workloads.load_pool("zeta-mix")[0]
    failing = dict(good, tolerance=1e-30)
    raising = {"family": "duality", "kind": "identity", "params": {"index": "(2,1)"}}
    points = [good, failing, raising]
    out = run.call_worker({"src": str(run.SRC), "mode": "checks", "points": points, "trace": False})
    verdict = run.verdicts(points, out["records"])
    assert verdict["attempted"] == 3
    assert verdict["failed"] == 2
    assert verdict["failed_share"] == pytest.approx(2 / 3)
    assert out["records"][2]["error"]


def test_timed_and_traced_runs_agree():
    points = workloads.draw("zeta-mix", 5, 1)[:6]
    request = {"src": str(run.SRC), "mode": "checks", "points": points, "trace": False}
    base = run.call_worker(request)
    traced = run.call_worker(dict(request, trace=True))
    assert [(r["params"], r["passed"]) for r in base["records"]] == [
        (r["params"], r["passed"]) for r in traced["records"]
    ]
    assert traced["layers"]["series.evaluate.calls"] > 0
    assert traced["layers"]["kernel.position_terms"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "zeta-mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
