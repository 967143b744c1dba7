"""Acceptance gate: one test per criterion, each printing a verdict line.

Every criterion is checked at its stated tolerance; comparisons never reuse
a closed form across sides, and the per-check tail budgets must fit inside
the tolerance for a pass to count.
"""

import time
from fractions import Fraction
from math import comb, factorial

import numpy as np

from mzv.indices import MzvIndex, compositions, dual
from mzv.quadrature import (
    check_quad_anchor,
    zeta2_simplex_value,
)
from mzv.report import run_suite
from mzv.rng import XorShift64Star
from mzv.series import (
    ExtraPower,
    FiniteDifference,
    NestedSumSpec,
    RisingFactorial,
    ShiftedPower,
    evaluate_exact_truncated,
    finite_difference_factor,
    finite_difference_factor_exact,
    partial_sums,
)
from mzv.series import _fd_values  # engine float pipeline, the second route

ZETA2 = 1.6449340668482264


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _admissible(max_weight: int):
    out = []
    for weight in range(2, max_weight + 1):
        for depth in range(1, weight + 1):
            for alpha in compositions(weight, depth, 1):
                if alpha[-1] >= 2:
                    out.append(MzvIndex(alpha))
    return out


def _run_grid(kind, name, grid, acc, tolerance):
    """The records of a suite that runs one grid."""
    return run_suite({"accuracy": acc, "tolerance": tolerance, "checks": [{kind: name, "grid": grid}]})["checks"]


def _grid_ok(checks, expect_count=None):
    ok = all(c["pass"] for c in checks)
    ok = ok and all(c["tail_budget"] <= c["tolerance"] for c in checks)
    if expect_count is not None:
        ok = ok and len(checks) == expect_count
    worst = max((c["abs_diff"] for c in checks), default=0.0)
    return ok, worst


def test_criterion_01_dual_involution_weight_12():
    started = time.time()
    indices = _admissible(12)
    ok = len(indices) == sum(2 ** (w - 2) for w in range(2, 13))
    for k in indices:
        kd = dual(k)
        ok = ok and kd.admissible and kd.weight == k.weight
        ok = ok and kd.depth == k.weight - k.depth and dual(kd) == k
    elapsed = time.time() - started
    ok = ok and elapsed < 1.0
    _verdict(1, ok, f"dual involution exact on {len(indices)} indices ({elapsed:.2f}s)")


def test_criterion_02_numeric_duality_weight_7():
    started = time.time()
    checks = _run_grid("identity", "duality", {"max_weight": 7}, acc=1e-7, tolerance=1e-6)
    ok, worst = _grid_ok(checks, expect_count=63)
    elapsed = time.time() - started
    ok = ok and elapsed < 180.0
    _verdict(2, ok, f"duality on 63 indices, max |diff| {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_03_sum_formula():
    started = time.time()
    checks = _run_grid("identity", "sum_formula", {"m": [2, 3, 4, 5, 6, 7, 8]}, acc=1e-7, tolerance=1e-6)
    ok, worst = _grid_ok(checks, expect_count=28)
    elapsed = time.time() - started
    ok = ok and elapsed < 180.0
    _verdict(3, ok, f"sum formula on 28 (m,p) pairs, max |diff| {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_04_theorem1_grid():
    started = time.time()
    ranges = {
        "p": [1, 2, 3],
        "q": [1, 2, 3],
        "r": [0, 1, 2],
        "m": [0, 1, 2],
        "a": [-0.5, 0, 0.5, 1],
    }
    checks = _run_grid("identity", "theorem1", ranges, acc=1e-7, tolerance=1e-5)
    ok, worst = _grid_ok(checks, expect_count=324)
    elapsed = time.time() - started
    ok = ok and elapsed < 600.0
    _verdict(4, ok, f"parameterized duality on 324 instances, max |diff| {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_05_cor15_grid():
    checks = _run_grid(
        "identity", "cor15", {"p": [1, 2, 3], "r": [0, 1, 2], "m": [0, 1, 2, 3]}, acc=1e-7, tolerance=1e-5
    )
    ok, worst = _grid_ok(checks, expect_count=32)  # 36 combos minus 4 infeasible
    _verdict(5, ok, f"corollary grid on 32 feasible instances, max |diff| {worst:.2e}")


def test_criterion_06_ohno_shifts():
    checks = _run_grid(
        "identity", "ohno",
        {"indices": ["(1,2)", "(2,2)", "(3)", "(1,1,2)", "(2,3)"], "m": [0, 1, 2]},
        acc=1e-7,
        tolerance=1e-6,
    )
    ok, worst = _grid_ok(checks, expect_count=15)
    _verdict(6, ok, f"shift-sum duality on 15 instances, max |diff| {worst:.2e}")


def test_criterion_07_eq24_vectors():
    checks = _run_grid(
        "identity", "eq24", {"n": [1, 2], "entry": [1, 2], "a": [0, 0.5]}, acc=1e-7, tolerance=1e-5
    )
    ok, worst = _grid_ok(checks, expect_count=40)
    _verdict(7, ok, f"vector-block duality on 40 instances, max |diff| {worst:.2e}")


def test_criterion_08_theorem3_three_way():
    started = time.time()
    checks = _run_grid(
        "identity", "theorem3",
        {"p": [0, 1, 2], "q": [0, 1, 2], "r": [0, 1, 2], "m": [0, 1, 2]},
        acc=1e-7,
        tolerance=1e-5,
    )
    ok, worst = _grid_ok(checks, expect_count=81)
    elapsed = time.time() - started
    _verdict(8, ok, f"three-way equality on 81 instances, max pairwise |diff| {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_09_alternating_sums():
    checks = _run_grid("identity", "section4", {"m": [1, 2, 3], "p": [1, 2, 3]}, acc=1e-7, tolerance=1e-6)
    ok, worst = _grid_ok(checks, expect_count=9)
    for c in checks:
        m, p = c["params"]["m"], c["params"]["p"]
        ok = ok and c["details"]["s_p"] == comb(m + p - 1, m)
    _verdict(9, ok, f"alternating truncated sums on 9 instances, max |diff| {worst:.2e}")


def test_criterion_10_quadrature_anchors():
    started = time.time()
    anchor = check_quad_anchor(tolerance=1e-8)
    ok = anchor.passed and abs(anchor.sides[0].value - 0.75) <= 1e-8

    simplex = zeta2_simplex_value(1e-10)
    ok = ok and abs(simplex.value - ZETA2) <= 1e-8

    ones = _run_grid("quad", "ones", {"m": [0, 1], "n": [0, 1]}, 1e-8, 1e-6)
    blocks = _run_grid(
        "quad", "blocks", {"p": [0, 1], "q": [0, 1], "r": [0, 1], "ell": [0, 1]}, 1e-8, 1e-6
    )
    trunc = _run_grid(
        "quad", "trunc", {"p": [1, 2], "q": [1, 2], "a": [-0.5, 0, 0.5, 1], "r": [0, 1, 2]}, 1e-8, 1e-6
    )
    ok_ones, w1 = _grid_ok(ones, 4)
    ok_blocks, w2 = _grid_ok(blocks, 16)
    ok_trunc, w3 = _grid_ok(trunc, 48)
    ok = ok and ok_ones and ok_blocks and ok_trunc
    elapsed = time.time() - started
    _verdict(
        10,
        ok,
        "triangle anchors + 68 integral-vs-series checks, "
        f"max |diff| {max(w1, w2, w3):.2e} ({elapsed:.1f}s)",
    )


def _random_rational_spec(rng: XorShift64Star) -> NestedSumSpec:
    depth = rng.randint(1, 2)
    bundles = []
    for _ in range(depth):
        kind = rng.randint(0, 3)
        if kind == 0:
            shift = Fraction(rng.randint(0, 9), rng.randint(1, 4))
            bundles.append((ShiftedPower(shift, rng.randint(1, 2)),))
        elif kind == 1:
            bundles.append((ExtraPower(rng.randint(0, 3), rng.randint(1, 3)),))
        elif kind == 2:
            bundles.append((RisingFactorial(rng.randint(0, 2)), ExtraPower(0, 1)))
        else:
            bundles.append((FiniteDifference(rng.randint(0, 3), rng.randint(1, 2)),))
    return NestedSumSpec(tuple(bundles))


def test_criterion_11_float_vs_exact_oracle():
    started = time.time()
    rng = XorShift64Star(11)
    worst = 0.0
    for _ in range(20):
        spec = _random_rational_spec(rng)
        exact = float(evaluate_exact_truncated(spec, 1000))
        approx = partial_sums(spec, [1000])[0]
        rel = abs(approx - exact) / max(1.0, abs(exact))
        worst = max(worst, rel)
    ok = worst <= 1e-12
    elapsed = time.time() - started
    _verdict(11, ok, f"20 seeded specs at cutoff 1000, worst rel err {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_12_fd_factor_exactness():
    started = time.time()
    ok = True
    # the public factor agrees with exact rationals on the whole small grid
    for ell in range(1, 51):
        for r in range(0, 6):
            for p in range(1, 6):
                exact = finite_difference_factor_exact(ell, r, p)
                got = finite_difference_factor(ell, r, p)
                ok = ok and got == float(exact)
                # independent route: the engine's cancellation-free pipeline
                piped = float(_fd_values(np.array([float(ell)]), r, p)[0])
                ok = ok and abs(piped - float(exact)) <= 1e-13 * max(1.0, abs(float(exact)))
    # closed form at exponent 1
    for ell in range(1, 101):
        for r in range(0, 9):
            expected = Fraction(factorial(r))
            for i in range(r + 1):
                expected /= ell + i
            ok = ok and finite_difference_factor_exact(ell, r, 1) == expected
    elapsed = time.time() - started
    _verdict(12, ok, f"difference factor exact on 1500 + 900 parameter points ({elapsed:.1f}s)")


def test_criterion_13_suite_determinism():
    config = {
        "schema": 1,
        "accuracy": 1e-7,
        "checks": [
            {"identity": "duality", "grid": {"max_weight": 4}, "tolerance": 1e-6},
            {"identity": "theorem1", "fuzz": {"seed": 1234, "count": 5}},
            {"identity": "cor15", "fuzz": {"seed": 99, "count": 5}},
            {"quad": "ones", "grid": {"m": [0], "n": [0]}, "tolerance": 1e-6},
        ],
    }
    r1 = run_suite(config)
    r2 = run_suite(config)
    params1 = [(c["identity"], c["params"]) for c in r1["checks"]]
    params2 = [(c["identity"], c["params"]) for c in r2["checks"]]
    verdicts1 = [c["pass"] for c in r1["checks"]]
    verdicts2 = [c["pass"] for c in r2["checks"]]
    for r in (r1, r2):
        r["summary"].pop("runtime_seconds")
    ok = params1 == params2 and verdicts1 == verdicts2 and r1 == r2
    ok = ok and r1["summary"]["failed"] == 0 and r1["seeds"] == [1234, 99]
    _verdict(13, ok, f"suite rerun identical on {r1['summary']['total']} checks with 2 seeds")
