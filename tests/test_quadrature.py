"""Quadrature cross-checks: node rule sanity, honest errors, integral forms."""

import dataclasses
import itertools
import logging
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext
from fractions import Fraction
from math import exp, pi, ulp

import numpy as np
import pytest

from mzv import quadrature
from mzv.errors import InvalidSpecError, PreconditionError
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
    run_quad_grid,
    threeway_integrands,
    triangle_quadrature,
    trunc_integrands,
    zeta2_simplex_value,
)
from mzv.reference import DIGITS, mzv_reference
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


def test_unreachable_target_reported_as_float_floor():
    res = triangle_quadrature(ones_integrands(2, 2)[0], 1e-30)
    assert not res.accuracy_met
    assert "float-floor" in res.flags
    assert 0 < res.tail_bound < 1e-15


def test_level_exhaustion_reported():
    # an oscillatory endpoint keeps level doublings from settling
    def values(logx, log1mx, lw):
        return np.sin(np.exp(np.minimum(-logx, 700.0))) * np.exp(lw - 0.5 * logx)

    res = interval_quadrature(values, 1e-13, max_level=6)
    assert not res.accuracy_met
    assert "level-exhausted" in res.flags


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
    with pytest.raises(PreconditionError, match="unknown quadrature form"):
        run_quad_grid("nope")


def test_run_quad_grid_small():
    checks = run_quad_grid("ones", {"m": [0], "n": [0, 1]}, 1e-9)
    assert len(checks) == 2
    assert all(c.passed for c in checks)


def test_max_level_validated():
    # max_level=2 used to return tail_bound=inf and the node count of a level
    # it never computed; no upper limit let a call sum a 2.8e9-point grid
    anchor = TriangleIntegrand(pow_t2=2)
    for bad in (2, 3, 10, 12, 5.0, True):
        with pytest.raises(InvalidSpecError, match="max_level"):
            triangle_quadrature(anchor, 1e-9, max_level=bad)
    for bad in (3, 12):
        with pytest.raises(InvalidSpecError, match="max_level"):
            interval_quadrature(lambda logx, log1mx, lw: np.exp(lw), 1e-12, max_level=bad)
    res = triangle_quadrature(anchor, 1e-30, max_level=4)
    assert res.cutoff == quadrature._nodes(4)[0].size
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
    quadrature._triangle_level_value(TriangleIntegrand(), 3)
    for arrays in (quadrature._nodes(3), *quadrature._grid_cache[3]):
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


# ---------------------------------------------------------------------------
# the cached triangle grids against the uncached rule


def _reference_level_value(f: TriangleIntegrand, level: int) -> float:
    """One level of the triangle rule with every grid computed afresh per
    chunk and no floor on the exponents: the rule as it was before the
    integrand-free grids were cached and the exponents clamped."""
    logu, log_omu, lwu = quadrature._nodes(level)
    logv, log_omv, lwv = quadrature._nodes(level)
    a = float(f.pow_t1_over_t2)
    rho = float(f.pow_t2)
    sigma = float(f.pow_om_ratio)
    mu = float(f.pow_om_t1)
    total = 0.0
    rows = max(1, quadrature._CHUNK // max(1, logu.size))
    for start in range(0, logv.size, rows):
        lv = logv[start : start + rows, None]
        l_omv = log_omv[start : start + rows, None]
        wv = lwv[start : start + rows, None]
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
        total += float(vals.sum())
    return f.constant * total


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
def test_level_values_bit_identical_cold_and_warm(level, monkeypatch):
    for f in _ORACLE_INTEGRANDS:
        monkeypatch.setattr(quadrature, "_grid_cache", {})
        quadrature._row_cache.cache_clear()
        cold = quadrature._triangle_level_value(f, level)
        assert quadrature._triangle_level_value(f, level) == cold, f
        _assert_near_reference(f, level, cold)


def test_multi_chunk_level_bit_identical():
    level = 8  # 3199^2 nodes: three row chunks of _CHUNK
    assert quadrature._nodes(level)[0].size ** 2 > 2 * quadrature._CHUNK
    f = _ORACLE_INTEGRANDS[2]
    value = quadrature._triangle_level_value(f, level)
    assert quadrature._triangle_level_value(f, level) == value
    _assert_near_reference(f, level, value)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_log_factors_reported_unmet():
    # log factors of 801^100 overflow near the grid's corners
    f = TriangleIntegrand(log_ratio_t=100, log_inv_t2=100)
    assert not np.isfinite(quadrature._triangle_level_value(f, 3))
    res = triangle_quadrature(f, 1e-9)
    assert not res.accuracy_met
    assert res.flags


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
    for level in (3, 4, 5):
        for _, l1, l2 in quadrature._triangle_grid(level):
            assert float(np.min(l1)) >= 0.0
            assert float(np.max(l1)) <= worst
            assert 0.0 <= float(np.min(l2)) and float(np.max(l2)) <= worst


def test_grid_cache_bounded(monkeypatch):
    monkeypatch.setattr(quadrature, "_grid_cache", {})
    quadrature._row_cache.cache_clear()  # a warm row cache never builds a grid
    for level in (3, 4, 5, 6):
        quadrature._triangle_level_value(_ORACLE_INTEGRANDS[2], level)
    assert set(quadrature._grid_cache) == {3, 4, 5}
    assert quadrature._GRID_CACHE_LEVEL == 5
    owned = [arr for chunks in quadrature._grid_cache.values() for chunk in chunks for arr in chunk if arr.base is None]
    assert sum(arr.nbytes for arr in owned) == 3 * 8 * (99**2 + 199**2 + 399**2)  # about 5.0 MB


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


def test_coarse_sum_over_row_chunks(monkeypatch):
    # an uncached level 4 in chunks of 7 rows: the odd rows start at either
    # parity of a chunk, and the sums match the one-chunk grid's
    whole = [quadrature._triangle_level_sums(f, 4) for f in _ORACLE_INTEGRANDS]
    monkeypatch.setattr(quadrature, "_CHUNK", 7 * 199)
    monkeypatch.setattr(quadrature, "_GRID_CACHE_LEVEL", 3)
    monkeypatch.setattr(quadrature, "_grid_cache", {})
    for f, (coarse, fine) in zip(_ORACLE_INTEGRANDS, whole):
        chunked = quadrature._triangle_level_sums(f, 4)
        assert chunked == pytest.approx((coarse, fine), rel=2.0**-44, abs=1e-300), f
    assert quadrature._grid_cache == {}


def test_only_a_one_chunk_level_is_cached(monkeypatch):
    # `_grid_chunks` reuses its buffers, so a kept level of two chunks would
    # write its second into the frozen first
    monkeypatch.setattr(quadrature, "_CHUNK", 199 * 199 - 1)
    monkeypatch.setattr(quadrature, "_grid_cache", {})
    quadrature._row_cache.cache_clear()  # a warm row cache never builds a grid
    quadrature._triangle_level_value(_ORACLE_INTEGRANDS[0], 3)
    with pytest.raises(AssertionError, match="more than one chunk"):
        quadrature._triangle_level_value(_ORACLE_INTEGRANDS[0], 4)
    assert set(quadrature._grid_cache) == {3}


def test_cached_l2_read_only_and_level_sums_cold_as_warm(monkeypatch):
    for f in _ORACLE_INTEGRANDS:
        monkeypatch.setattr(quadrature, "_grid_cache", {})
        quadrature._row_cache.cache_clear()
        cold = quadrature._triangle_level_sums(f, 4)
        assert quadrature._triangle_level_sums(f, 4) == cold, f
    for chunks in quadrature._grid_cache.values():
        for _, _, l2 in chunks:
            with pytest.raises(ValueError, match="read-only"):
                l2[0, 0] = 0.0


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
    assert quadrature._GRID_CACHE_LEVEL == 5
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
            lambda logx, log1mx, lw: np.sin(np.exp(np.minimum(-logx, 700.0))) * np.exp(lw - 0.5 * logx),
            1e-13,
            max_level=4,
        )
    assert all(r.name == "mzv.quadrature" and r.levelno == logging.DEBUG for r in caplog.records)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 3  # one line per call
    assert [m.rsplit(": ", 1)[1] for m in messages] == ["converged", "float-floor", "level-exhausted"]
    assert messages[0].startswith("level 5: difference ") and f"difference {met.tail_bound!r}" in messages[0]
    assert f"float floor {floor.tail_bound!r}" in messages[1]
    assert messages[2].startswith("level 4: ") and f"difference {exhausted.tail_bound!r}" in messages[2]
    # levels 3 to 5 of the second call repeat the first's; the interval rule has no row cache
    assert [m.split(", ")[2].split(":")[0] for m in messages] == [
        "row-cache hits 3 of 3 levels",
        "row-cache hits 0 of 3 levels",
        "row-cache hits 0 of 2 levels",
    ]
