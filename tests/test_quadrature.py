"""Quadrature cross-checks: node rule sanity, honest errors, integral forms."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import pi

import numpy as np
import pytest

from mzv import quadrature
from mzv.errors import InvalidSpecError, PreconditionError
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


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_level_values_bit_identical_cold_and_warm(level, monkeypatch):
    for f in _ORACLE_INTEGRANDS:
        monkeypatch.setattr(quadrature, "_grid_cache", {})
        expected = _reference_level_value(f, level)
        assert quadrature._triangle_level_value(f, level) == expected, (f, "cold")
        assert quadrature._triangle_level_value(f, level) == expected, (f, "warm")


def test_multi_chunk_level_bit_identical():
    level = 8  # 3199^2 nodes: three row chunks of _CHUNK
    assert quadrature._nodes(level)[0].size ** 2 > 2 * quadrature._CHUNK
    f = _ORACLE_INTEGRANDS[2]
    expected = _reference_level_value(f, level)
    assert quadrature._triangle_level_value(f, level) == expected
    assert quadrature._triangle_level_value(f, level) == expected


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
        assert quadrature._triangle_level_value(f, level) == _reference_level_value(f, level), f


def _spy_level_sum(monkeypatch) -> list[bool]:
    floors: list[bool] = []
    level_sum = quadrature._level_sum

    def spy(f, level, floor):
        floors.append(floor)
        return level_sum(f, level, floor)

    monkeypatch.setattr(quadrature, "_level_sum", spy)
    return floors


def test_guard_accepts_ordinary_totals(monkeypatch):
    floors = _spy_level_sum(monkeypatch)
    for f in _FAMILY_INTEGRANDS:
        quadrature._triangle_level_value(f, 4)
    assert floors == [True] * len(_FAMILY_INTEGRANDS)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_guard_falls_back_on_a_non_finite_total(monkeypatch):
    # log factors of 801^100 overflow the products near the grid's corners
    f = TriangleIntegrand(log_ratio_t=100, log_inv_t2=100)
    floors = _spy_level_sum(monkeypatch)
    value = quadrature._triangle_level_value(f, 3)
    assert floors == [True, False]
    assert value == _reference_level_value(f, 3) == float("inf")


def test_guard_falls_back_on_a_tiny_total(monkeypatch):
    # every summand is far below e^-700: clamping alone would invent a total
    f = TriangleIntegrand(pow_t2=1e150, pow_om_t1=1e150)
    for level in (3, 4):
        assert quadrature._level_sum(f, level, True) != quadrature._level_sum(f, level, False)
        floors = _spy_level_sum(monkeypatch)
        assert quadrature._triangle_level_value(f, level) == _reference_level_value(f, level)
        assert floors == [True, False]
        monkeypatch.undo()


def test_level_buffers_are_per_thread():
    integrands = _FAMILY_INTEGRANDS[:4]
    levels = (3, 4, 5, 3, 5)
    serial = [[quadrature._triangle_level_value(f, lvl) for lvl in levels] for f in integrands]
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
    # the floor's guard counts on every log factor being at most _LOG_BOUND
    worst = max(
        float(np.max(-arr)) for level in range(3, 12) for arr in quadrature._nodes(level)[:2]
    )
    assert 801.0 < worst < 801.2 < quadrature._LOG_BOUND
    for level in (3, 4, 5):
        for lv, l_omv, log_om_t1, _ in quadrature._triangle_grid(level):
            assert float(np.max(-log_om_t1)) <= worst
            assert float(np.max(log_om_t1 - l_omv)) <= worst


def test_grid_cache_bounded(monkeypatch):
    monkeypatch.setattr(quadrature, "_grid_cache", {})
    for level in (3, 4, 5, 6):
        quadrature._triangle_level_value(_ORACLE_INTEGRANDS[2], level)
    assert set(quadrature._grid_cache) == {3, 4, 5}
    assert quadrature._GRID_CACHE_LEVEL == 5
    owned = [arr for chunks in quadrature._grid_cache.values() for chunk in chunks for arr in chunk if arr.base is None]
    assert sum(arr.nbytes for arr in owned) == 2 * 8 * (99**2 + 199**2 + 399**2)  # about 3.3 MB
