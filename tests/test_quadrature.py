"""Quadrature cross-checks: node rule sanity, honest errors, integral forms."""

import dataclasses
import itertools
import logging
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, exp, log2, pi, ulp

import numpy as np
import pytest

from mzv import clear_caches, quadrature
from mzv.errors import ConfigError, InvalidSpecError, PreconditionError
from mzv.indices import MzvIndex, compositions
from mzv.quadrature import (
    TriangleIntegrand,
    blocks_integrand,
    check_quad_anchor,
    check_quad_blocks,
    check_quad_ones,
    check_quad_threeway,
    check_quad_trunc,
    check_quad_zeta2,
    finite_difference_integral,
    interval_quadrature,
    ones_integrands,
    threeway_integrands,
    triangle_quadrature,
    trunc_integrands,
    zeta2_simplex_value,
)
from mzv.reference import DIGITS, mzv_reference
from mzv.report import run_suite
from mzv.series import finite_difference_factor_exact

ZETA2 = 1.6449340668482264
ZETA_1_3 = pi**4 / 360.0


def test_interval_rule_integrates_constants():
    res = interval_quadrature(lambda logx, log1mx, lw: np.exp(lw), 1e-13)
    assert res.accuracy_met
    assert res.value == pytest.approx(1.0, abs=1e-13)


def test_interval_rule_endpoint_singularity():
    # integral of x^(-1/2) over (0,1) is 2; integrable endpoint blow-up
    res = interval_quadrature(lambda logx, log1mx, lw: np.exp(lw - 0.5 * logx), 1e-12)
    assert res.value == pytest.approx(2.0, abs=1e-11)


def test_triangle_anchor_value():
    res = triangle_quadrature(TriangleIntegrand(pow_t2=2), 1e-10)
    assert res.accuracy_met
    assert res.value == pytest.approx(0.75, abs=1e-10)
    assert res.mode == "float"
    assert res.cutoff > 0


def test_zeta2_reduced_simplex():
    res = zeta2_simplex_value(1e-12)
    assert res.value == pytest.approx(ZETA2, abs=1e-11)


def test_ones_forms_against_frozen_values():
    f1, f2 = ones_integrands(0, 0)
    assert triangle_quadrature(f1, 1e-10).value == pytest.approx(ZETA2, abs=1e-9)
    f1, f2 = ones_integrands(1, 1)
    assert triangle_quadrature(f1, 1e-10).value == pytest.approx(ZETA_1_3, abs=1e-9)
    assert triangle_quadrature(f2, 1e-10).value == pytest.approx(ZETA_1_3, abs=1e-9)


def test_error_estimate_is_honest():
    # a tighter run must land within the looser run's reported bound
    for integrand in [
        TriangleIntegrand(log_inv_om_t1=1, log_inv_t2=1, constant=1.0),
        trunc_integrands(2, 2, -0.5, 1)[0],
    ]:
        loose = triangle_quadrature(integrand, 1e-6)
        tight = triangle_quadrature(integrand, 1e-12)
        assert abs(loose.value - tight.value) <= loose.tail_bound


def _audit_cases():
    """`(integrand, reference)` for both ones forms, m, n in 0..3, and every
    blocks integrand with p, q, r, ell in 0..2; the blocks reference sums the
    integrand's composition sum term by term."""
    for m in range(4):
        for n in range(4):
            ref = mzv_reference(MzvIndex((1,) * m + (n + 2,)))
            for f in ones_integrands(m, n):
                yield f, ref
    for p, q, r, ell in itertools.product(range(3), repeat=4):
        with localcontext() as ctx:
            ctx.prec = DIGITS + 15
            ref = sum(
                mzv_reference(MzvIndex((1,) * p + alpha[:-1] + (alpha[-1] + ell + 1,)))
                for alpha in compositions(q + r + 1, r + 1)
            )
        yield blocks_integrand(p, q, r, ell), ref


def test_triangle_bounds_hold_against_reference():
    # `tail_bound` is a claim: audit it against the high-precision reference,
    # independently of how a level sum is formed
    ratios = []
    for f, ref in _audit_cases():
        for target in (1e-6, 1e-8, 1e-10, 1e-12):
            res = triangle_quadrature(f, target)
            with localcontext() as ctx:
                ctx.prec = DIGITS + 15
                error = float(abs(Decimal(res.value) - ref))
            ratios.append((error / (res.tail_bound + ulp(res.value)), f, target))
    worst = max(ratios, key=lambda item: item[0])
    print(f"{len(ratios)} triangle quadratures audited; worst ratio {worst[0]:.3f} at {worst[1]}, target {worst[2]:g}")
    assert len(ratios) == 4 * (32 + 81)
    assert [item for item in ratios if not item[0] <= 1.0] == []


def test_trunc_sides_agree_within_their_bounds():
    # the direct and dual integrals and the truncated series are three
    # independent values of one sum: over the trunc grid, each pair must agree
    # to the sum of its two bounds plus an ulp
    ratios = []
    for p, q, a, r in itertools.product((1, 2, 3), (1, 2, 3), (-0.75, -0.5, -0.25, 0, 0.25, 0.5, 1, 1.5), range(4)):
        sides = check_quad_trunc(p, q, a, r, acc=1e-8).sides
        for one, other in itertools.combinations(sides, 2):
            allowed = one.tail_bound + other.tail_bound + ulp(max(abs(one.value), abs(other.value)))
            ratios.append((abs(one.value - other.value) / allowed, (p, q, a, r)))
    worst = max(ratios, key=lambda item: item[0])
    print(f"{len(ratios)} pairs of trunc sides; worst ratio {worst[0]:.3f} at (p, q, a, r) = {worst[1]}")
    assert len(ratios) == 3 * 288
    assert [item for item in ratios if not item[0] <= 1.0] == []


def test_unreachable_target_reported_as_float_floor():
    res = triangle_quadrature(ones_integrands(2, 2)[0], 1e-30)
    assert not res.accuracy_met
    assert "float-floor" in res.flags
    assert 0 < res.tail_bound < 1e-15


def test_level_exhaustion_reported():
    # an oscillatory endpoint keeps level doublings from settling
    def values(logx, log1mx, lw):
        return np.sin(np.exp(np.minimum(-logx, 700.0))) * np.exp(lw - 0.5 * logx)

    res = interval_quadrature(values, 1e-13)
    assert not res.accuracy_met
    assert "level-exhausted" in res.flags
    assert res.cutoff == quadrature._nodes(quadrature._INTERVAL_MAX_LEVEL)[0].size


def test_inputs_past_the_level_cap_are_level_exhausted_at_level_7():
    # trunc near a = -1 (whose mass below the smallest u node no level
    # samples) and blocks at ell = 120 (every level sum is not finite) never
    # converge; the rule gives up at level 7, 1,597 nodes per axis, without
    # a RuntimeWarning
    assert quadrature._MAX_LEVEL == 7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrands = (*trunc_integrands(1, 4, -0.999, 4), blocks_integrand(0, 0, 0, 120))
        results = [triangle_quadrature(f, 1e-9) for f in integrands]
    for res in results:
        assert res.flags == ("level-exhausted",) and not res.accuracy_met, res
        assert res.cutoff == quadrature._nodes(7)[0].size == 1597, res
    assert all(np.isfinite(res.value) for res in results[:2])
    assert not np.isfinite(results[2].value)


def test_integrand_validation():
    with pytest.raises(InvalidSpecError):
        TriangleIntegrand(log_inv_t2=-1)
    with pytest.raises(InvalidSpecError):
        TriangleIntegrand(log_inv_t2=1.5)
    with pytest.raises(InvalidSpecError):
        TriangleIntegrand(pow_t1_over_t2=-1)
    with pytest.raises(InvalidSpecError):
        TriangleIntegrand(pow_t2=-0.5)
    with pytest.raises(InvalidSpecError):
        TriangleIntegrand(constant=0.0)
    with pytest.raises(InvalidSpecError):
        triangle_quadrature(TriangleIntegrand(pow_t2=2), 0.0)


def test_fd_integral_matches_exact_rationals():
    for ell, r, p in [(1, 0, 1), (2, 2, 1), (2, 1, 3), (5, 3, 2), (10, 2, 4)]:
        exact = float(finite_difference_factor_exact(ell, r, p))
        res = finite_difference_integral(ell, r, p, 1e-13)
        assert res.value == pytest.approx(exact, rel=1e-11), (ell, r, p)
    with pytest.raises(PreconditionError):
        finite_difference_integral(0, 1, 1)


def test_fd_integral_fraction_value():
    # Beta moment at exponent 1 is exactly r! / (ell...(ell+r))
    assert finite_difference_factor_exact(2, 2, 1) == Fraction(1, 12)
    res = finite_difference_integral(2, 2, 1)
    assert res.value == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_check_anchor_and_zeta2():
    anchor = check_quad_anchor(1e-8)
    assert anchor.passed
    assert anchor.abs_diff <= 1e-8
    z2 = check_quad_zeta2(1e-10)
    assert z2.passed
    assert abs(z2.sides[0].value - ZETA2) <= 1e-8


@pytest.mark.parametrize("m,n", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_check_ones_grid(m, n):
    check = check_quad_ones(m, n, 1e-9)
    assert check.passed, (m, n, check.abs_diff)
    assert len(check.sides) == 3


def test_check_blocks_instance():
    check = check_quad_blocks(1, 1, 1, 0, 1e-9)
    assert check.passed
    assert check.details["terms"] == 2


def test_blocks_q_is_bounded_by_its_composition_count(monkeypatch):
    # the sum has C(q + r, r) terms; past 4,096 it used to be refused as "the
    # sum over compositions of ... takes more than 4096 series evaluations",
    # which names no key
    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran")

    monkeypatch.setattr(quadrature, "triangle_quadrature", no_integral)
    bounds = {r: max(q for q in range(4096) if comb(q + r, r) <= 4096) for r in range(1, 13)}
    assert (bounds[2], bounds[5], bounds[12]) == (89, 10, 4)
    # at r = 1 the bound, 4095, lies past the integrand constant's float range
    for q in (bounds[1], bounds[1] + 1):
        with pytest.raises(PreconditionError, match="below the float range"):
            check_quad_blocks(0, q, 1, 0)
    for r in range(2, 13):
        with pytest.raises(AssertionError, match="an integral ran"):
            check_quad_blocks(0, bounds[r], r, 0)
        with pytest.raises(PreconditionError) as refused:
            check_quad_blocks(0, bounds[r] + 1, r, 0)
        assert str(refused.value) == f"q must be <= {bounds[r]}, got {bounds[r] + 1}"


def test_check_trunc_both_forms():
    check = check_quad_trunc(2, 2, 0.5, 1, 1e-9)
    assert check.passed
    assert len(check.sides) == 3  # direct integral, dual integral, series


def test_check_trunc_huge_a_fails_without_warnings():
    # `a * log u` used to overflow with a RuntimeWarning before the failed record
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check = check_quad_trunc(1, 1, 1e308, 0)
    assert not check.passed


def test_overflowing_ucol_power_gives_a_non_finite_level_without_warnings():
    # `(-log u)^120` of `mzv quad blocks --q 120` passes the float range at the
    # ends of the u nodes, and the overflow used to leak two RuntimeWarnings
    f = blocks_integrand(0, 120, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums = quadrature._triangle_level_sums(f, 4)
    assert not np.isfinite(sums).any()


def test_check_threeway_integer_m_includes_series():
    check = check_quad_threeway(1, 1, 0, 1, 1e-8)
    assert check.passed
    assert len(check.sides) == 6
    assert check.details["series_sides"] == 3


def test_check_threeway_real_m_integrals_only():
    check = check_quad_threeway(1, 1, 1, 0.5, 1e-9)
    assert check.passed
    assert len(check.sides) == 3


def test_run_quad_grid_unknown_form():
    with pytest.raises(ConfigError, match=r"checks\[0\]: unknown quad form 'nope'"):
        run_suite({"checks": [{"quad": "nope"}]})


def test_run_quad_grid_small():
    report = run_suite({"accuracy": 1e-9, "checks": [{"quad": "ones", "grid": {"m": [0], "n": [0, 1]}}]})
    assert len(report["checks"]) == 2
    assert all(r["pass"] for r in report["checks"])


def test_max_level_validated():
    # a run that gives up reports the nodes of the last level it computed,
    # the cap, and a finite bound
    res = triangle_quadrature(TriangleIntegrand(pow_t1_over_t2=-0.999), 1e-9)
    assert res.flags == ("level-exhausted",)
    assert res.cutoff == quadrature._nodes(quadrature._MAX_LEVEL)[0].size
    assert np.isfinite(res.tail_bound)


def test_cached_arrays_are_read_only():
    def write_in_place(logx, log1mx, lw):
        lw += 1.0
        return np.exp(lw)

    with pytest.raises(ValueError, match="read-only"):
        interval_quadrature(write_in_place, 1e-12)
    # the rule still integrates 1 exactly: nothing was corrupted
    assert interval_quadrature(lambda logx, log1mx, lw: np.exp(lw), 1e-13).value == pytest.approx(1.0, abs=1e-13)
    quadrature._row_cache.cache_clear()  # a warm row cache never builds a grid
    quadrature._triangle_level_value(TriangleIntegrand(), 4)
    for arrays in (quadrature._nodes(4), quadrature._grid_cache(4)):
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


# ---------------------------------------------------------------------------
# the cached triangle grids against the uncached rule


def _reference_level_value(f: TriangleIntegrand, level: int) -> float:
    """One level of the triangle rule with every grid computed afresh and no
    floor on the exponents: the rule as it was before the integrand-free
    grids were cached and the exponents clamped."""
    logu, log_omu, lwu = quadrature._nodes(level)
    lv, l_omv, wv = (arr[:, None] for arr in quadrature._nodes(level))
    a = float(f.pow_t1_over_t2)
    rho = float(f.pow_t2)
    sigma = float(f.pow_om_ratio)
    mu = float(f.pow_om_t1)
    log_om_t1 = np.logaddexp(l_omv, lv + log_omu[None, :])
    expo = wv + lwu[None, :] - log_om_t1
    if a != 0.0:
        expo += a * logu[None, :]
    if rho != 0.0:
        expo += rho * lv
    if sigma != 0.0:
        expo += sigma * (l_omv - log_om_t1)
    if mu != 0.0:
        expo += mu * log_om_t1
    vals = np.exp(expo)
    if f.log_inv_om_t1:
        vals *= np.maximum(-log_om_t1, 0.0) ** f.log_inv_om_t1
    if f.log_ratio_om:
        vals *= np.maximum(log_om_t1 - l_omv, 0.0) ** f.log_ratio_om
    if f.log_ratio_t:
        vals *= np.maximum(-logu[None, :], 0.0) ** f.log_ratio_t
    if f.log_inv_t2:
        vals *= np.maximum(-lv, 0.0) ** f.log_inv_t2
    return f.constant * float(vals.sum())


# every field nonzero, log exponents 0-4, a in {-0.5, 0, 0.5, 1.5}
_ORACLE_INTEGRANDS = [
    TriangleIntegrand(),
    TriangleIntegrand(4, 4, 4, 4, 1.5, 2.0, 3.0, 0.75, -2.5),
    TriangleIntegrand(1, 2, 3, 4, -0.5, 1.5, 2.0, 0.25, 3.0),
    TriangleIntegrand(0, 1, 2, 3, -0.5, 0.0, 1.0, 0.0, 0.5),
    TriangleIntegrand(1, 2, 3, 4, 0.0, 2.0, 0.0, 1.5, 1.0),
    TriangleIntegrand(2, 3, 4, 0, 0.5, 0.0, 0.5, 2.0, 2.0),
    TriangleIntegrand(3, 4, 0, 1, 1.5, 1.0, 2.0, 0.0, 0.25),
    TriangleIntegrand(pow_t2=2),
    *ones_integrands(2, 1),
    *trunc_integrands(2, 2, 0.5, 1),
]


def _allowance(f: TriangleIntegrand, level: int, ref: float) -> float:
    """How far a level value may lie from `_reference_level_value`: 2^-44
    relative for the reordered products, plus the lanes whose factors were
    cut at e^-700, each at most e^-697.8 L^E (`quadrature` module docstring)."""
    e = f.log_inv_om_t1 + f.log_ratio_om + f.log_ratio_t + f.log_inv_t2
    n = quadrature._nodes(level)[0].size ** 2
    return 2.0**-44 * abs(ref) + abs(f.constant) * n * exp(-697.8) * quadrature._LOG_BOUND**e


def _assert_near_reference(f: TriangleIntegrand, level: int, value: float) -> None:
    ref = _reference_level_value(f, level)
    assert abs(value - ref) <= _allowance(f, level, ref), (f, level, value, ref)


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_level_values_bit_identical_cold_and_warm(level):
    for f in _ORACLE_INTEGRANDS:
        clear_caches()
        cold = quadrature._triangle_level_value(f, level)
        assert quadrature._triangle_level_value(f, level) == cold, f
        _assert_near_reference(f, level, cold)


_FAMILY_INTEGRANDS = [
    *ones_integrands(0, 0),
    *ones_integrands(3, 2),
    blocks_integrand(1, 1, 1, 0),
    blocks_integrand(2, 1, 0, 3),
    *trunc_integrands(1, 1, -0.9, 0),
    *trunc_integrands(2, 3, -0.5, 2),
    *trunc_integrands(4, 1, 2.5, 3),
    *threeway_integrands(1, 0, 1, 0.5),
    *threeway_integrands(2, 1, 1, 4),
]


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_floored_level_values_bit_identical_over_families(level):
    for f in _FAMILY_INTEGRANDS:
        _assert_near_reference(f, level, quadrature._triangle_level_value(f, level))


def test_tiny_total_within_the_absolute_allowance():
    # every summand is far below e^-700: the cut factors decide the total,
    # which must stay within the absolute allowance of the uncut rule
    f = TriangleIntegrand(pow_t2=1e150, pow_om_t1=1e150)
    for level in (3, 4):
        _assert_near_reference(f, level, quadrature._triangle_level_value(f, level))


def test_overflowing_log_factors_reported_unmet():
    # log factors of 801^100 overflow near the grid's corners; the level's sum
    # is then not finite, and the overflow leaks no RuntimeWarning
    f = TriangleIntegrand(log_ratio_t=100, log_inv_t2=100)
    quadrature._row_cache.cache_clear()  # the row functionals are built under the filter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(quadrature._triangle_level_value(f, 3))
        res = triangle_quadrature(f, 1e-9)
        # `(-log v)^120` of `mzv quad blocks --ell 120` overflows in the row
        # functionals themselves: their power, their sum and their product
        assert not np.isfinite(quadrature._triangle_level_sums(blocks_integrand(0, 0, 0, 120), 4)).any()
    assert not res.accuracy_met
    assert res.flags


@pytest.mark.parametrize("field", ["log_inv_om_t1", "log_ratio_om"])
def test_overflowing_power_of_m_reported_unmet_without_warnings(field):
    # L1^200 and L2^200 pass the float range in `M` itself, at the cached
    # level 4 (L2 cached), at level 5 (row-cached, L2 derived per block) and
    # at levels 6 and 7 (built per block): the sums are not finite, and no
    # RuntimeWarning leaks
    quadrature._row_cache.cache_clear()  # the row functionals are built under the filter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = triangle_quadrature(TriangleIntegrand(**{field: 200}), 1e-9)
    assert not res.accuracy_met
    assert not np.isfinite(res.value) and not np.isfinite(res.tail_bound)


def test_level_buffers_are_per_thread():
    integrands = _FAMILY_INTEGRANDS[:4]
    levels = (3, 4, 5, 3, 5)
    serial = [[quadrature._triangle_level_value(f, lvl) for lvl in levels] for f in integrands]
    quadrature._row_cache.cache_clear()  # each thread builds its own rows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(
                pool.map(lambda f: [quadrature._triangle_level_value(f, lvl) for lvl in levels], integrands)
            )
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_log_grids_bounded():
    # the absolute allowance of the cut factors counts on every log factor
    # being at most _LOG_BOUND
    worst = max(
        float(np.max(-arr)) for level in range(3, 12) for arr in quadrature._nodes(level)[:2]
    )
    assert 801.0 < worst < 801.2 < quadrature._LOG_BOUND
    _, l1, l2 = quadrature._grid_cache(4)
    for grid in (l1, l2):
        assert 0.0 <= float(np.min(grid)) and float(np.max(grid)) <= worst
    # levels 3 and 5 keep no grids: compute their rows block by block, as a build does
    for level in (3, 5):
        size = quadrature._nodes(level)[0].size
        block = quadrature._block_rows(size)
        for first in range(0, size, block):
            w, l1 = np.empty((2, min(block, size - first), size))
            quadrature._grid_rows(level, first, w, l1)
            for rows in (l1, quadrature._l2_rows(level, first, l1, np.empty_like(l1))):
                assert 0.0 <= float(np.min(rows)) and float(np.max(rows)) <= worst


def test_grid_cache_bounded():
    quadrature._grid_cache.cache_clear()
    quadrature._row_cache.cache_clear()  # a warm row cache never builds a grid
    for level in (3, 4, 5, 6):
        quadrature._triangle_level_value(_ORACLE_INTEGRANDS[2], level)
    info = quadrature._grid_cache.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (1, 1, 1)  # level 4; 3, 5 and 6 are streamed
    owned = [arr for arr in quadrature._grid_cache(4) if arr.base is None]
    # W, L1 and L2 at level 4: about 0.95 MB
    assert sum(arr.nbytes for arr in owned) == 3 * 8 * 199**2


# ---------------------------------------------------------------------------
# two levels from one grid


@pytest.mark.parametrize("level", [4, 5, 6])
def test_nodes_nest(level):
    # the previous level's nodes are the odd-indexed ones, bit for bit
    coarse, fine = quadrature._nodes(level - 1), quadrature._nodes(level)
    for coarse_logs, fine_logs in zip(coarse[:2], fine[:2]):
        assert np.array_equal(coarse_logs, fine_logs[1::2])


@pytest.mark.parametrize("level", [4, 5, 6])
def test_coarse_sum_is_the_previous_level(level):
    for f in _ORACLE_INTEGRANDS + _FAMILY_INTEGRANDS:
        coarse, fine = quadrature._triangle_level_sums(f, level)
        assert fine == quadrature._triangle_level_value(f, level), f
        _assert_near_reference(f, level - 1, coarse)


def test_coarse_sum_over_row_blocks(monkeypatch):
    # levels 4 and 5 built afresh in blocks of 7 rows: the odd rows start at
    # either parity of a block, and the sums are the natural blocks' bit for bit
    whole = {level: [quadrature._triangle_level_sums(f, level) for f in _ORACLE_INTEGRANDS] for level in (4, 5)}
    monkeypatch.setattr(quadrature, "_block_rows", lambda size: 7)
    monkeypatch.setattr(quadrature, "_ROW_CACHE_LEVEL", 3)
    built = quadrature._builds()
    for level, sums in whole.items():
        for f, want in zip(_ORACLE_INTEGRANDS, sums):
            assert quadrature._triangle_level_sums(f, level) == want, (level, f)
    assert quadrature._builds() - built == 2 * len(_ORACLE_INTEGRANDS)


def test_triangle_rule_builds_each_level_to_the_cap_once():
    # an input that never converges builds levels 4 to 7 (level 3's sum is
    # level 4's coarse sum) and no deeper; a second run reads levels 4 and 5
    # from the row cache and builds 6 and 7 again
    f = trunc_integrands(1, 4, -0.999, 4)[0]
    quadrature._row_cache.cache_clear()
    built = quadrature._builds()
    cold = triangle_quadrature(f, 1e-9)
    assert quadrature._builds() - built == quadrature._MAX_LEVEL - quadrature._MIN_LEVEL == 4
    built = quadrature._builds()
    assert triangle_quadrature(f, 1e-9) == cold
    assert quadrature._builds() - built == quadrature._MAX_LEVEL - quadrature._ROW_CACHE_LEVEL == 2


def test_cached_l2_read_only_and_level_sums_cold_as_warm():
    for f in _ORACLE_INTEGRANDS:
        clear_caches()
        cold = quadrature._triangle_level_sums(f, 4)
        assert quadrature._triangle_level_sums(f, 4) == cold, f
    _, _, l2 = quadrature._grid_cache(4)
    with pytest.raises(ValueError, match="read-only"):
        l2[0, 0] = 0.0


# ---------------------------------------------------------------------------
# the blocked grids against the unblocked rule, bit for bit


def _unblocked_grids(level: int):
    """`(w, l1, l2)` over the whole `(v, u)` grid, each built whole into a
    buffer of its own: the integrand-free grids as they were built before `M`
    was formed block by block."""
    logu, log_omu, lwu = quadrature._nodes(level)
    logv, log_omv, lwv = (arr[:, None] for arr in quadrature._nodes(level))
    y, l1, l2 = (np.empty((logu.size, logu.size)) for _ in range(3))
    np.add(logv, log_omu[None, :], out=y)
    np.abs(np.subtract(y, log_omv, out=l1), out=l1)
    np.maximum(np.negative(l1, out=l1), quadrature._EXP_FLOOR, out=l1)
    np.log1p(np.exp(l1, out=l1), out=l1)
    l1 += np.maximum(y, log_omv, out=y)
    np.negative(l1, out=l1)
    w = np.add(lwv, (lwu - logu)[None, :], out=y)
    w += l1
    np.copyto(w, -np.inf, where=w < quadrature._EXP_FLOOR)
    np.exp(w, out=w)
    np.maximum(l1, 0.0, out=l1)
    return w, l1, np.subtract(-log_omv, l1, out=l2)


def _unblocked_row_functionals(level, e1, e2, e4, rho, sigma, mu):
    """`quadrature._row_functionals` with `M` formed whole, in place of its
    `W`, with one scratch grid."""
    logx = quadrature._nodes(level)[0]
    with np.errstate(over="ignore"):
        vrow = np.exp(rho * logx)
        if e4:
            vrow *= (-logx) ** e4
        total = float(vrow.sum())
    k = int(max(1000.0 - log2(max(total, 1.0)) - (e1 + e2) * log2(quadrature._LOG_BOUND), 0.0))
    vv = np.zeros((2, logx.size))
    vv[0] = np.ldexp(vrow, k)
    vv[1, 1::2] = vv[0, 1::2]
    w, l1, l2 = _unblocked_grids(level)
    m, tmp = w, np.empty_like(w)
    if sigma != 0.0 or mu != 0.0:
        with np.errstate(over="ignore"):
            if sigma != 0.0:
                c = np.multiply(l2, -sigma, out=tmp)
                if mu != 0.0:
                    c -= mu * l1
            else:
                c = np.multiply(l1, -mu, out=tmp)
        np.maximum(c, quadrature._EXP_FLOOR, out=c)
        m = np.multiply(m, np.exp(c, out=c), out=w)
    if e1:
        m = quadrature._times_power(m, l1, e1, w, tmp)
    if e2:
        m = quadrature._times_power(m, l2, e2, w, tmp)
    with np.errstate(over="ignore", invalid="ignore"):
        rr = vv @ m
    return np.ldexp(rr[0], -k), np.ldexp(rr[1, 1::2], -k)


# `(e1, e2, e4, rho, sigma, mu)` of `_row_functionals`: each field alone, sigma
# and mu together (where `c -= mu * l1` allocates), odd and even powers, a
# saturated C, and log powers past the float range in M (e1) and in vrow (e4)
_BLOCK_KEYS = [
    (0, 0, 0, 0.0, 0.0, 0.0),
    (0, 0, 0, 2.0, 0.0, 0.0),
    (0, 0, 3, 0.0, 0.0, 0.0),
    (0, 0, 0, 0.0, 1.5, 0.0),
    (0, 0, 0, 0.0, 0.0, 0.75),
    (2, 0, 0, 0.0, 0.0, 0.0),
    (0, 3, 0, 0.0, 0.0, 0.0),
    (2, 3, 1, 0.5, 2.0, 0.5),
    (4, 4, 4, 2.0, 3.0, 0.75),
    (3, 2, 0, 1.5, 0.0, 1e150),
    (200, 0, 0, 0.0, 0.0, 0.0),
    (0, 0, 120, 0.0, 0.0, 0.0),
]


def _warned(call):
    """`(result, warnings)`: what `call()` returns, and the set of
    `(category, message)` of every warning it issues."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, {(w.category, str(w.message)) for w in caught}


def _assert_blocked_is_unblocked(level: int, keys) -> None:
    for key in keys:
        blocked, new = _warned(lambda: quadrature._row_functionals(level, *key))
        unblocked, old = _warned(lambda: _unblocked_row_functionals(level, *key))
        for got, want in zip(blocked, unblocked):
            assert got.tobytes() == want.tobytes(), (level, key)
        assert new <= old, (level, key)  # no warning the unblocked rule does not give


@pytest.mark.parametrize(
    "level, block_rows", [(3, None), (4, None), (5, None), (4, 45), (4, 1), (5, 45), (6, None), (6, 7)]
)
def test_row_functionals_equal_the_unblocked_rule(monkeypatch, level, block_rows):
    # level 3 streamed in one block, the cached level 4 in one, levels 5 and
    # 6 streamed in four and sixteen (level 5 row-cached, level 6 not); with
    # `_block_rows` patched, in blocks that start at odd rows and whose last
    # is short (one row at `(4, 1)` and `(6, 7)`)
    if block_rows is not None:
        monkeypatch.setattr(quadrature, "_block_rows", lambda size: block_rows)
    _assert_blocked_is_unblocked(level, _BLOCK_KEYS)


@pytest.mark.parametrize("level", [7])
def test_deep_row_functionals_equal_the_unblocked_rule(level):
    # the deepest level, in 64 blocks of 25 rows: blocks start at odd rows too
    assert level == quadrature._MAX_LEVEL
    _assert_blocked_is_unblocked(level, [(2, 3, 1, 0.5, 2.0, 0.5)])


def test_row_functionals_hold_one_chunk_above_the_cache_and_one_level_buffer_in_it():
    # numpy reports its arrays to tracemalloc; the key sets every field, so
    # every buffer is used and `c -= mu * l1` allocates
    key = (2, 3, 1, 0.5, 2.0, 0.5)
    for level in (4, 5, 7):
        quadrature._nodes(level)
    quadrature._level_scratch()  # this thread's pair, which every build shares
    tracemalloc.start()
    try:
        quadrature._row_functionals(7, *key)
        deep = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        quadrature._row_functionals(5, *key)
        streamed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one level's M, 1.27 MB at level 5 and 20.4 MB at level 7, two blocks
    # (L1's and the temporary of `c -= mu * l1`), and the level's vectors over
    # its nodes (`vrow`, the row weights, R): at level 7 they need a bound
    assert deep < 8 * (1597**2 + 2 * quadrature._BLOCK_DOUBLES + 8 * 1597)
    assert streamed < 8 * (399**2 + 2 * quadrature._BLOCK_DOUBLES)


def test_only_level_4_buffers_stay_resident():
    # a level-4 and a level-5 build in a fresh thread, the grid cache warm:
    # what they leave behind is the thread's buffer pair and their two
    # row-cache entries, and nothing of level-5 size (1.27 MB a grid)
    key = (2, 3, 1, 0.5, 2.0, 0.5)  # reads W, L1 and L2
    quadrature._grid_cache(4)
    quadrature._row_cache.cache_clear()
    misses = quadrature._grid_cache.cache_info().misses
    left = []

    def builds():
        tracemalloc.start()
        try:
            for level in (4, 5):
                quadrature._row_cache(level, *key)
            left.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=builds)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and left
    pair = 2 * 8 * quadrature._BLOCK_DOUBLES  # 0.71 MB
    entries = 8 * (199 + 99 + 399 + 199)
    assert pair + entries <= left[0] < pair + entries + 16_384
    # the level-5 build added no grid-cache entry, which would be 399 x 399
    assert quadrature._grid_cache.cache_info().misses == misses
    assert [arr.shape for arr in quadrature._grid_cache(4)] == [(199, 199)] * 3


def test_streamed_levels_take_their_block_buffers_from_the_thread_pair(monkeypatch):
    # one build at each of levels 4 to 7 in a fresh thread: at level 4 `M`
    # and the block of `C` and the squares, at levels 5 to 7 the blocks of
    # `L2` and of `C` and the squares, are in the one pair the thread
    # allocates; only `M` and `L1`'s block above level 4 are the build's own
    key = (2, 3, 1, 0.5, 2.0, 0.5)  # reads W, L1 and L2
    seen = []
    m_rows = quadrature._m_rows

    def spy(w, l1, l2, e1, e2, sigma, mu, out, tmp):
        seen.append((quadrature._scratch.pair, w, l1, l2, out, tmp))
        m_rows(w, l1, l2, e1, e2, sigma, mu, out, tmp)

    monkeypatch.setattr(quadrature, "_m_rows", spy)
    clear_caches()

    def builds():
        for level in (4, 5, 6, 7):
            quadrature._row_functionals(level, *key)

    thread = threading.Thread(target=builds)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(seen) == 1 + 4 + 16 + 64  # blocks: level 4 is one, level 5 four, 6 sixteen, 7 sixty-four
    pair = seen[0][0]
    assert pair is not getattr(quadrature._scratch, "pair", None)  # the thread's own
    for kept, w, l1, l2, out, tmp in seen:
        assert kept is pair  # allocated once
        assert np.shares_memory(tmp, pair[1])
        if w.shape[1] == 199:  # level 4: its grids are cached, `M` is formed in the pair
            assert np.shares_memory(out, pair[0])
        else:
            assert np.shares_memory(l2, pair[0])
            assert not any(np.shares_memory(arr, buf) for arr in (l1, out) for buf in pair)
    # the grid cache owns no array larger than a level-4 grid
    assert quadrature._grid_cache.cache_info().currsize == 1
    assert all(arr.size <= 199**2 for arr in quadrature._grid_cache(4))
    # the pair holds one block of every level, and of the level 8 that the
    # benchmark times, without building them
    assert [buf.size for buf in pair] == [quadrature._BLOCK_DOUBLES] * 2
    for level in range(quadrature._MIN_LEVEL, quadrature._MAX_LEVEL + 2):
        size = quadrature._nodes(level)[0].size
        assert min(size, quadrature._block_rows(size)) * size <= quadrature._BLOCK_DOUBLES
    assert quadrature._block_rows(size) * size == quadrature._BLOCK_DOUBLES  # level 8 fills it


# ---------------------------------------------------------------------------
# the row cache: one 2-D pass per (level, M, vrow)


def _row_key(f: TriangleIntegrand, level: int) -> tuple:
    return (level, f.log_inv_om_t1, f.log_ratio_om, f.log_inv_t2, float(f.pow_t2), float(f.pow_om_ratio), float(f.pow_om_t1))


def test_row_cache_shared_by_integrands_differing_only_in_ucol():
    base = _ORACLE_INTEGRANDS[2]
    siblings = [
        base,
        dataclasses.replace(base, pow_t1_over_t2=7.25),
        dataclasses.replace(base, log_ratio_t=0),
        dataclasses.replace(base, constant=-1e-3),
    ]
    quadrature._row_cache.cache_clear()
    for f in siblings:
        quadrature._triangle_level_sums(f, 4)
    info = quadrature._row_cache.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 3)


def test_row_cache_keys_every_field_it_reads():
    base = _ORACLE_INTEGRANDS[2]
    variants = [
        dataclasses.replace(base, log_inv_om_t1=0),
        dataclasses.replace(base, log_ratio_om=0),
        dataclasses.replace(base, log_inv_t2=0),
        dataclasses.replace(base, pow_t2=2.5),
        dataclasses.replace(base, pow_om_ratio=0.0),
        dataclasses.replace(base, pow_om_t1=1.0),
    ]
    quadrature._row_cache.cache_clear()
    for f in (base, *variants):
        quadrature._triangle_level_sums(f, 4)
    quadrature._triangle_level_sums(base, 5)
    assert quadrature._row_cache.cache_info().currsize == 2 + len(variants)
    # a parameter is keyed by its float value, whatever its type
    quadrature._triangle_level_sums(dataclasses.replace(base, pow_t2=Fraction(3, 2)), 4)
    assert quadrature._row_cache.cache_info().currsize == 2 + len(variants)


def test_row_cache_arrays_read_only():
    quadrature._row_cache.cache_clear()
    quadrature._triangle_level_sums(_ORACLE_INTEGRANDS[1], 4)
    for arr in quadrature._row_cache(*_row_key(_ORACLE_INTEGRANDS[1], 4)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_row_cache_bounded():
    quadrature._row_cache.cache_clear()
    f = _ORACLE_INTEGRANDS[2]
    for level in (3, 4, 5, 6):
        quadrature._triangle_level_value(f, level)
    assert quadrature._row_cache.cache_info().currsize == 3  # level 6 is not kept
    assert quadrature._ROW_CACHE_LEVEL == 5
    assert quadrature._row_cache.cache_parameters()["maxsize"] == 512
    # an entry is two arrays of its own: 399 + 199 doubles at level 5
    r, r_odd = quadrature._row_cache(*_row_key(f, 5))
    assert r.base is None and r_odd.base is None
    assert 512 * (r.nbytes + r_odd.nbytes) == 512 * 8 * (399 + 199)  # about 2.4 MB


def test_row_cache_cold_equals_warm():
    for f in _ORACLE_INTEGRANDS + _FAMILY_INTEGRANDS:
        # warmed by an integrand with another `ucol` and constant
        sibling = dataclasses.replace(f, pow_t1_over_t2=f.pow_t1_over_t2 + 1, log_ratio_t=f.log_ratio_t + 1, constant=2.0)
        for level in (3, 4, 5):
            quadrature._row_cache.cache_clear()
            cold = quadrature._triangle_level_sums(f, level)
            assert quadrature._triangle_level_sums(f, level) == cold, (f, level)
            quadrature._row_cache.cache_clear()
            quadrature._triangle_level_sums(sibling, level)
            assert quadrature._triangle_level_sums(f, level) == cold, (f, level)


def test_row_cache_threads_give_serial_results():
    # four integrands, two row-cache keys: threads build and read shared entries
    integrands = [
        *trunc_integrands(2, 3, -0.5, 2),
        *(dataclasses.replace(f, pow_t1_over_t2=1.5) for f in trunc_integrands(2, 3, -0.5, 2)),
    ]
    levels = (3, 4, 5, 4, 3)
    quadrature._row_cache.cache_clear()
    serial = [[quadrature._triangle_level_sums(f, lvl) for lvl in levels] for f in integrands]
    quadrature._row_cache.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(
                pool.map(lambda f: [quadrature._triangle_level_sums(f, lvl) for lvl in levels], integrands)
            )
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert quadrature._row_cache.cache_info().currsize == 2 * 3


def test_debug_log_of_level_loop_stops(caplog):
    quadrature._row_cache.cache_clear()
    with caplog.at_level(logging.INFO, logger="mzv.quadrature"):
        triangle_quadrature(TriangleIntegrand(pow_t2=2), 1e-10)
    assert caplog.records == []  # nothing below INFO is recorded or formatted
    with caplog.at_level(logging.DEBUG, logger="mzv.quadrature"):
        met = triangle_quadrature(TriangleIntegrand(pow_t2=2), 1e-10)
        floor = triangle_quadrature(ones_integrands(2, 2)[0], 1e-30)
        # the oscillatory endpoint of `test_level_exhaustion_reported`
        exhausted = interval_quadrature(
            lambda logx, log1mx, lw: np.sin(np.exp(np.minimum(-logx, 700.0))) * np.exp(lw - 0.5 * logx), 1e-13
        )
    assert all(r.name == "mzv.quadrature" and r.levelno == logging.DEBUG for r in caplog.records)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 3  # one line per call
    assert [m.rsplit(": ", 1)[1] for m in messages] == ["converged", "float-floor", "level-exhausted"]
    assert messages[0].startswith("level 5: difference ") and f"difference {met.tail_bound!r}" in messages[0]
    assert f"float floor {floor.tail_bound!r}" in messages[1]
    assert messages[2].startswith("level 11: ") and f"difference {exhausted.tail_bound!r}" in messages[2]
    # levels 3 to 5 of the second call repeat the first's; the interval rule has no row cache
    assert [m.split(", ")[2].split(":")[0] for m in messages] == [
        "row-cache hits 3 of 3 levels",
        "row-cache hits 0 of 3 levels",
        "row-cache hits 0 of 9 levels",
    ]
