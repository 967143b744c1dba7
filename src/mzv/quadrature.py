"""Tanh-sinh quadrature for the double-integral forms of the nested sums.

All double integrals here live on the triangle `0 < t1 < t2 < 1` with base
measure `dt1 dt2 / ((1 - t1) t2)` and integrands assembled from

    (log 1/(1-t1))^e1  (log (1-t1)/(1-t2))^e2  (log t2/t1)^e3  (log 1/t2)^e4
    (t1/t2)^a  t2^rho  ((1-t2)/(1-t1))^sigma  (1-t1)^mu

with integer `e*` and real `a > -1`, `rho, sigma, mu >= 0`.  The map
`t1 = u v, t2 = v` sends the triangle to the unit square with measure
`du dv / (1 - u v)`, and `1 - u v = (1-v) + v (1-u)` keeps endpoint
distances exact.

One-dimensional axes use the tanh-sinh substitution `x = sigma(2w)`,
`w = (pi/2) sinh(s)`, trapezoid step `h = 2^-level`: node weights are
`h pi cosh(s) x (1-x)`, stored in logs together with `log x` and
`log(1-x)` so that products of powers of endpoint distances never lose
precision.  Doubling the level roughly doubles correct digits until the
float floor; the error estimate is the last level-doubling difference,
which is honest because the next difference shrinks far faster.

Two grids of the triangle rule do not depend on the integrand: `log(1 - t1)`
over the `(v, u)` node grid, and the log of the measure times both node
weights.  They are built on first use and cached per level up to
`_GRID_CACHE_LEVEL` (levels 3-5, at most 2 x (9,801 + 39,601 + 159,201)
doubles, about 3.3 MB); higher levels, ten times larger each step, are
recomputed chunk by chunk as before.  An evaluation adds the integrand's
terms to a copy of the cached base in the same order, on the same operands,
as a fresh computation, so every level value is bit-identical either way.
The cached grids and the node arrays are read-only: a callback that wrote
into them would corrupt every later quadrature in the process.  The
integrand's terms are computed in place into two per-thread level buffers
sized to the largest cached chunk (2 x 1.27 MB); an uncached level works in
place on its fresh chunk with one extra temporary.

Tanh-sinh weights decay double-exponentially, so 6-7% of every level's grid
has summand exponents below -708, where `exp` gives 0 or a subnormal and
numpy leaves its vectorized path (at level 4, 190 us against 28 us).  The
exponent is therefore clamped at `_EXP_FLOOR = -700` before `exp`.  A
clamped lane's summand moves from somewhere in `[0, e^-700 L^E]` to
somewhere in the same interval, where `E` is the integrand's total log
exponent and `L = _LOG_BOUND = 810` bounds every log grid (the largest
`-log x` of any level is 801.1), so the `n` lanes of a level move the sum
by at most `n e^-700 L^E`.  The clamped total is accepted only if it is
finite and `ln|total| >= -700 + E ln L + ln n + 64 ln 2`: the moved lanes
then sit in partial sums that meet ones 2^54 or more times larger, and
rounding absorbs them, so the level value stays bit-identical to the
unclamped rule (the tests hold it `==` to the uncached rule over all four
integrand families).  Otherwise the level is summed again, unclamped.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isfinite, lgamma, log, pi, prod
from typing import Callable, Union

import numpy as np

from .errors import InvalidSpecError, PreconditionError
from .identities import IdentityCheck, _grid_product, _split, combine, exact_side, make_check
from .indices import MzvIndex, compositions
from .series import (
    DEFAULT_CONFIG,
    EngineConfig,
    EvalResult,
    ExtraPower,
    NestedSumSpec,
    RisingFactorial,
    ShiftedPower,
    evaluate,
    mzv,
)

__all__ = [
    "TriangleIntegrand",
    "triangle_quadrature",
    "interval_quadrature",
    "finite_difference_integral",
    "zeta2_simplex_value",
    "ones_integrands",
    "blocks_integrand",
    "trunc_integrands",
    "threeway_integrands",
    "check_quad_anchor",
    "check_quad_zeta2",
    "check_quad_ones",
    "check_quad_blocks",
    "check_quad_trunc",
    "check_quad_threeway",
    "QUAD_CHECKS",
    "run_quad_grid",
]

Real = Union[int, float, Fraction]

_S_MAX = 6.5
_LOG_WEIGHT_FLOOR = -800.0
_MIN_LEVEL = 3
_MAX_LEVEL = 9
_CHUNK = 4_000_000
_GRID_CACHE_LEVEL = 5
# summand exponents are clamped here before `exp` (module docstring)
_EXP_FLOOR = -700.0
# bounds every log grid of the triangle rule: the largest `-log x` of any level is 801.1
_LOG_BOUND = 810.0


def _check_exp(value: object, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvalidSpecError(f"{name} must be an integer >= 0, got {value!r}")
    return value


def _check_real(value: object, name: str, minimum: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise InvalidSpecError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    if not isfinite(v) or v < minimum:
        raise InvalidSpecError(f"{name} must be finite and >= {minimum}, got {value!r}")
    return v


@dataclass(frozen=True)
class TriangleIntegrand:
    """Product integrand over `0 < t1 < t2 < 1` (measure included by the rule)."""

    log_inv_om_t1: int = 0  # (log 1/(1-t1))^e
    log_ratio_om: int = 0  # (log (1-t1)/(1-t2))^e
    log_ratio_t: int = 0  # (log t2/t1)^e
    log_inv_t2: int = 0  # (log 1/t2)^e
    pow_t1_over_t2: Real = 0.0  # (t1/t2)^a, a > -1
    pow_t2: Real = 0.0  # t2^rho, rho >= 0
    pow_om_ratio: Real = 0.0  # ((1-t2)/(1-t1))^sigma, sigma >= 0
    pow_om_t1: Real = 0.0  # (1-t1)^mu, mu >= 0
    constant: float = 1.0

    def __post_init__(self) -> None:
        _check_exp(self.log_inv_om_t1, "log_inv_om_t1")
        _check_exp(self.log_ratio_om, "log_ratio_om")
        _check_exp(self.log_ratio_t, "log_ratio_t")
        _check_exp(self.log_inv_t2, "log_inv_t2")
        if not _check_real(self.pow_t1_over_t2, "pow_t1_over_t2", -np.inf) > -1.0:
            raise InvalidSpecError("pow_t1_over_t2 must be > -1")
        _check_real(self.pow_t2, "pow_t2", 0.0)
        _check_real(self.pow_om_ratio, "pow_om_ratio", 0.0)
        _check_real(self.pow_om_t1, "pow_om_t1", 0.0)
        if not isfinite(float(self.constant)) or float(self.constant) == 0.0:
            raise InvalidSpecError("constant must be finite and non-zero")


_node_cache: dict[int, tuple[np.ndarray, ...]] = {}
# level -> `_grid_chunks(level)`, read-only, for levels up to _GRID_CACHE_LEVEL
_grid_cache: dict[int, tuple[tuple[np.ndarray, ...], ...]] = {}
# per-thread level buffers (`_level_scratch`); library callers may use threads
_scratch = threading.local()


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return `(logx, log1mx, logweight)` for the tanh-sinh rule at `level`."""
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
    h = 2.0**-level
    count = int(_S_MAX / h)
    s = h * np.arange(-count, count + 1)
    w2 = pi * np.sinh(s)  # 2w
    logx = -np.logaddexp(0.0, -w2)  # log sigma(2w)
    log1mx = -np.logaddexp(0.0, w2)  # log sigma(-2w)
    logweight = logx + log1mx + np.log(pi * np.cosh(s)) + log(h)
    keep = logweight > _LOG_WEIGHT_FLOOR
    out = _frozen(logx[keep], log1mx[keep], logweight[keep])
    _node_cache[level] = out
    return out


def _grid_chunks(level: int):
    """Yield `(lv, l_omv, log_om_t1, base)` per row chunk of the `(v, u)` grid:
    `log(1 - t1)` and the log of the measure times both weights, the parts of
    the summand exponent that do not depend on the integrand."""
    _, log_omu, lwu = _nodes(level)
    logv, log_omv, lwv = _nodes(level)
    rows = max(1, _CHUNK // max(1, log_omu.size))
    for start in range(0, logv.size, rows):
        lv = logv[start : start + rows, None]
        l_omv = log_omv[start : start + rows, None]
        wv = lwv[start : start + rows, None]
        # log(1 - t1) = log((1-v) + v(1-u)), computed in logs for tiny distances
        log_om_t1 = np.logaddexp(l_omv, lv + log_omu[None, :])
        yield lv, l_omv, log_om_t1, wv + lwu[None, :] - log_om_t1


def _triangle_grid(level: int):
    """The chunks of `_grid_chunks(level)`, read-only and cached up to
    `_GRID_CACHE_LEVEL`; above it a fresh generator, built chunk by chunk."""
    cached = _grid_cache.get(level)
    if cached is not None:
        return cached
    if level > _GRID_CACHE_LEVEL:
        return _grid_chunks(level)
    cached = tuple(_frozen(*chunk) for chunk in _grid_chunks(level))
    _grid_cache[level] = cached
    return cached


def _level_scratch(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two level buffers, viewed as `shape`; each holds the
    largest cached chunk (one level-`_GRID_CACHE_LEVEL` grid, 1.27 MB)."""
    pair = getattr(_scratch, "pair", None)
    if pair is None:
        cols = _nodes(_GRID_CACHE_LEVEL)[0].size
        size = min(cols, max(1, _CHUNK // cols)) * cols  # rows per chunk as in `_grid_chunks`
        pair = _scratch.pair = (np.empty(size), np.empty(size))
    n = shape[0] * shape[1]
    return pair[0][:n].reshape(shape), pair[1][:n].reshape(shape)


def _log_power(x: np.ndarray, e: int) -> np.ndarray:
    """`max(x, 0) ** e` in place; `** 1` is a copy, so it is skipped."""
    np.maximum(x, 0.0, out=x)
    if e != 1:
        x **= e
    return x


def _level_sum(f: TriangleIntegrand, level: int, floor: bool) -> float:
    """The sum of one level's summands, before `f.constant`; with `floor`,
    summand exponents below `_EXP_FLOOR` are raised to it before `exp`."""
    logu = _nodes(level)[0]
    a = float(f.pow_t1_over_t2)
    rho = float(f.pow_t2)
    sigma = float(f.pow_om_ratio)
    mu = float(f.pow_om_t1)
    total = 0.0
    for lv, l_omv, log_om_t1, base in _triangle_grid(level):
        if base.flags.writeable:
            # a fresh chunk of an uncached level is used up in place
            expo, tmp = base, np.empty_like(base)
        else:
            expo, tmp = _level_scratch(base.shape)
            np.copyto(expo, base)
        if a != 0.0:
            expo += a * logu[None, :]
        if rho != 0.0:
            expo += rho * lv
        if sigma != 0.0:
            np.subtract(l_omv, log_om_t1, out=tmp)
            tmp *= sigma
            expo += tmp
        if mu != 0.0:
            expo += np.multiply(log_om_t1, mu, out=tmp)
        if floor:
            np.maximum(expo, _EXP_FLOOR, out=expo)
        vals = np.exp(expo, out=expo)
        if f.log_inv_om_t1:
            vals *= _log_power(np.negative(log_om_t1, out=tmp), f.log_inv_om_t1)
        if f.log_ratio_om:
            vals *= _log_power(np.subtract(log_om_t1, l_omv, out=tmp), f.log_ratio_om)
        if f.log_ratio_t:
            vals *= _log_power(-logu[None, :], f.log_ratio_t)
        if f.log_inv_t2:
            vals *= _log_power(-lv, f.log_inv_t2)
        total += float(vals.sum())
    return total


def _triangle_level_value(f: TriangleIntegrand, level: int) -> float:
    total = _level_sum(f, level, True)
    e = f.log_inv_om_t1 + f.log_ratio_om + f.log_ratio_t + f.log_inv_t2
    n = _nodes(level)[0].size ** 2
    # the clamped lanes move the sum by at most n e^_EXP_FLOOR L^e: accept it
    # only while that is 2^-64 of the total (module docstring)
    if not (
        isfinite(total)
        and total != 0.0
        and log(abs(total)) >= _EXP_FLOOR + e * log(_LOG_BOUND) + log(n) + 64 * log(2.0)
    ):
        total = _level_sum(f, level, False)
    return f.constant * total


def _level_loop(
    level_value: Callable[[int], float],
    nodes_per_axis: Callable[[int], int],
    target_accuracy: float,
    max_level: int,
    level_limit: int,
) -> EvalResult:
    target = float(target_accuracy)
    if not target > 0 or not isfinite(target):
        raise InvalidSpecError(f"target accuracy must be positive, got {target_accuracy!r}")
    # one level-doubling difference needs two levels; the limit bounds the grid
    if not isinstance(max_level, int) or not _MIN_LEVEL < max_level <= level_limit:
        raise InvalidSpecError(
            f"max_level must be an integer in ({_MIN_LEVEL}, {level_limit}], got {max_level!r}"
        )
    prev = level_value(_MIN_LEVEL)
    err = float("inf")
    for level in range(_MIN_LEVEL + 1, max_level + 1):
        cur = level_value(level)
        err = abs(cur - prev)
        floor = 8.0 * 2.0**-52 * abs(cur)
        if err <= max(target, floor):
            # converged as far as asked, or as far as doubles allow
            bound = max(err, floor)
            met = bound <= target
            flags = () if met else ("float-floor",)
            return EvalResult(cur, bound, nodes_per_axis(level), "float", met, flags)
        prev = cur
    return EvalResult(
        prev, err, nodes_per_axis(max_level), "float", False, ("level-exhausted",)
    )


def triangle_quadrature(
    integrand: TriangleIntegrand,
    target_accuracy: float = 1e-10,
    max_level: int = _MAX_LEVEL,
) -> EvalResult:
    """Integrate over the triangle; `cutoff` reports nodes per axis.

    The reported `tail_bound` is the last level-doubling difference (or the
    roundoff floor); failure to converge by `max_level` is reported with
    `accuracy_met=False`, never hidden.
    """
    return _level_loop(
        lambda lvl: _triangle_level_value(integrand, lvl),
        lambda lvl: _nodes(lvl)[0].size,
        target_accuracy,
        max_level,
        _MAX_LEVEL,
    )


def interval_quadrature(
    values: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    target_accuracy: float = 1e-12,
    max_level: int = _MAX_LEVEL + 2,
) -> EvalResult:
    """Integrate `f` over (0, 1); `values(logx, log1mx, logweight)` returns
    already-weighted summands `f(x) * weight` (use the logs for stability).
    """

    def level_value(level: int) -> float:
        logx, log1mx, lw = _nodes(level)
        return float(np.sum(values(logx, log1mx, lw)))

    return _level_loop(
        level_value, lambda lvl: _nodes(lvl)[0].size, target_accuracy, max_level, _MAX_LEVEL + 2
    )


def finite_difference_integral(
    argument: int, order: int, exponent: int, target_accuracy: float = 1e-12
) -> EvalResult:
    """The finite-difference factor as the Beta-weighted log moment
    `1/(exponent-1)! * integral_0^1 x^(argument-1) (1-x)^order (-log x)^(exponent-1) dx`,
    an independent cross-check of the series-engine closed form.
    """
    if argument < 1 or order < 0 or exponent < 1:
        raise PreconditionError("need argument >= 1, order >= 0, exponent >= 1")
    c = 1.0 / factorial(exponent - 1)

    def values(logx: np.ndarray, log1mx: np.ndarray, lw: np.ndarray) -> np.ndarray:
        out = np.exp((argument - 1) * logx + order * log1mx + lw)
        if exponent > 1:
            out = out * np.maximum(-logx, 0.0) ** (exponent - 1)
        return c * out

    return interval_quadrature(values, target_accuracy)


def zeta2_simplex_value(target_accuracy: float = 1e-12) -> EvalResult:
    """The 3-simplex integral with blocks `1/(1-t1)^2, 1/t2, 1/t3` reduced to
    one dimension: integrating out `t2, t3` leaves
    `integral_0^1 (log t)^2 / (2 (1-t)^2) dt`, evaluated with the stable
    ratio `(log t / (1-t))^2` (the measure contributes the `(1-t)^2`).
    """

    def values(logx: np.ndarray, log1mx: np.ndarray, lw: np.ndarray) -> np.ndarray:
        # (log t / (1-t))^2 assembled in logs: near t=1 both factors vanish together
        lg = np.log(np.maximum(-logx, 5e-324))
        return 0.5 * np.exp(2.0 * lg + lw - 2.0 * log1mx)

    return interval_quadrature(values, target_accuracy)


# ---------------------------------------------------------------------------
# named integrand families


def _inverse_factorials(*ns: int) -> float:
    """An integrand constant `1 / (n_1! n_2! ...)`; `PreconditionError` when
    the product is past the float range (checked in logs first, so huge
    arguments never build a huge factorial)."""
    if sum(lgamma(n + 1) for n in ns) <= 710.0:
        try:
            return 1.0 / prod(factorial(n) for n in ns)
        except OverflowError:
            pass
    shown = " ".join(f"{n}!" for n in ns)
    raise PreconditionError(f"integrand constant 1/({shown}) is below the float range")


def ones_integrands(m: int, n: int) -> tuple[TriangleIntegrand, TriangleIntegrand]:
    """Two integral forms of the ones-prefix zeta of index ({1}^m, n+2)."""
    _check_exp(m, "m")
    _check_exp(n, "n")
    c = _inverse_factorials(m, n)
    return (
        TriangleIntegrand(log_inv_om_t1=m, log_inv_t2=n, constant=c),
        TriangleIntegrand(log_ratio_om=m, log_inv_t2=n, constant=c),
    )


def blocks_integrand(p: int, q: int, r: int, ell: int) -> TriangleIntegrand:
    """Four-log-block integral equal to the sum over compositions alpha of
    q+r+1 (r+1 parts) of the zetas of ({1}^p, alpha_1..alpha_r, alpha_{r+1}+ell+1).
    """
    for name, v in (("p", p), ("q", q), ("r", r), ("ell", ell)):
        _check_exp(v, name)
    c = _inverse_factorials(p, q, r, ell)
    return TriangleIntegrand(
        log_inv_om_t1=p, log_ratio_om=r, log_ratio_t=q, log_inv_t2=ell, constant=c
    )


def trunc_integrands(
    p: int, q: int, a: Real, r: int
) -> tuple[TriangleIntegrand, TriangleIntegrand]:
    """Direct and dual double-integral forms of the parameterized truncated
    series `sum over k_1 < ... < k_p of 1/((k_1+a)...(k_p+a) (k_p+r)^q)`.
    The dual form swaps the log-block exponents and replaces the `t2^r`
    factor by `((1-t2)/(1-t1))^r`.
    """
    if not isinstance(p, int) or not isinstance(q, int) or p < 1 or q < 1:
        raise PreconditionError("need integers p, q >= 1")
    _check_exp(r, "r")
    c = _inverse_factorials(p - 1, q - 1)
    direct = TriangleIntegrand(
        log_ratio_om=p - 1, log_inv_t2=q - 1, pow_t1_over_t2=a, pow_t2=r, constant=c
    )
    dual_form = TriangleIntegrand(
        log_ratio_om=q - 1, log_inv_t2=p - 1, pow_t1_over_t2=a, pow_om_ratio=r, constant=c
    )
    return direct, dual_form


def threeway_integrands(
    p: int, q: int, r: int, m: Real
) -> tuple[TriangleIntegrand, TriangleIntegrand, TriangleIntegrand]:
    """Three equal-value integrals related by exponential changes of variable;
    the weight parameter `m` may be any real >= 0.
    """
    for name, v in (("p", p), ("q", q), ("r", r)):
        _check_exp(v, name)
    _check_real(m, "m", 0.0)
    c = _inverse_factorials(p, q, r)
    return (
        TriangleIntegrand(
            pow_t1_over_t2=m, log_inv_om_t1=p, log_ratio_om=r, log_ratio_t=q, constant=c
        ),
        TriangleIntegrand(
            pow_t2=m, log_ratio_om=p, log_ratio_t=r, log_inv_t2=q, constant=c
        ),
        TriangleIntegrand(
            pow_om_t1=m, log_inv_om_t1=q, log_ratio_om=r, log_ratio_t=p, constant=c
        ),
    )


# ---------------------------------------------------------------------------
# consistency checks pairing integrals with their series


def check_quad_anchor(tolerance: float = 1e-10) -> IdentityCheck:
    """`t2^2` over the triangle equals 3/4 and the telescoping series."""
    integral = triangle_quadrature(TriangleIntegrand(pow_t2=2), tolerance / 4)
    series = evaluate(NestedSumSpec(((ExtraPower(0, 1), ExtraPower(2, 1)),)), tolerance / 4)
    return make_check(
        "quad_anchor", {}, (integral, exact_side(0.75), series), tolerance
    )


def check_quad_zeta2(
    acc: float = 1e-10, tolerance: float | None = None, config: EngineConfig = DEFAULT_CONFIG
) -> IdentityCheck:
    """Dimension-reduced 3-simplex integral against `k * k^-3` and the
    depth-one series of exponent 2."""
    integral = zeta2_simplex_value(acc)
    series = evaluate(NestedSumSpec(((RisingFactorial(1), ExtraPower(0, 3)),)), acc, config)
    plain = mzv(MzvIndex((2,)), acc, config)
    return make_check("quad_zeta2", {}, (integral, series, plain), tolerance)


def check_quad_ones(
    m: int,
    n: int,
    acc: float = 1e-9,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """Both integral forms of the ones-prefix zeta against its series."""
    f1, f2 = ones_integrands(m, n)
    side1 = triangle_quadrature(f1, acc)
    side2 = triangle_quadrature(f2, acc)
    series = mzv(MzvIndex((1,) * m + (n + 2,)), acc, config)
    return make_check(
        "quad_ones", {"m": m, "n": n}, (side1, side2, series), tolerance
    )


def check_quad_blocks(
    p: int,
    q: int,
    r: int,
    ell: int,
    acc: float = 1e-9,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """Four-log-block integral against its composition sum of zetas."""
    integral = triangle_quadrature(blocks_integrand(p, q, r, ell), acc)
    comps = compositions(q + r + 1, r + 1, 1)
    per = _split(acc, len(comps))
    series = combine(
        (
            1.0,
            mzv(
                MzvIndex((1,) * p + alpha[:-1] + (alpha[-1] + ell + 1,)), per, config
            ),
        )
        for alpha in comps
    )
    return make_check(
        "quad_blocks",
        {"p": p, "q": q, "r": r, "ell": ell},
        (integral, series),
        tolerance,
        {"terms": len(comps)},
    )


def check_quad_trunc(
    p: int,
    q: int,
    a: Real,
    r: int,
    acc: float = 1e-9,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """Direct and dual integral forms against the truncated series."""
    direct, dual_form = trunc_integrands(p, q, a, r)
    side1 = triangle_quadrature(direct, acc)
    side2 = triangle_quadrature(dual_form, acc)
    bundles = [(ShiftedPower(a, 1),) for _ in range(p)]
    bundles[-1] = bundles[-1] + (ExtraPower(r, q),)
    series = evaluate(NestedSumSpec(tuple(bundles)), acc, config)
    return make_check(
        "quad_trunc",
        {"p": p, "q": q, "a": float(a), "r": r},
        (side1, side2, series),
        tolerance,
    )


def check_quad_threeway(
    p: int,
    q: int,
    r: int,
    m: Real,
    acc: float = 1e-9,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """The three change-of-variable integrals against each other; for integer
    `m` the three series of the matching three-way identity join the
    comparison, giving six mutually equal sides.
    """
    sides = [triangle_quadrature(f, acc) for f in threeway_integrands(p, q, r, m)]
    details: dict = {}
    if isinstance(m, int) and not isinstance(m, bool):
        from .identities import check_theorem3

        series_check = check_theorem3(p, q, r, m, acc, config=config)
        sides.extend(series_check.sides)
        details["series_sides"] = 3
    return make_check(
        "quad_threeway",
        {"p": p, "q": q, "r": r, "m": m if isinstance(m, int) else float(m)},
        tuple(sides),
        tolerance,
        details,
    )


def _quad_entry(
    check: Callable[..., IdentityCheck], defaults: dict[str, list]
) -> tuple[Callable[..., IdentityCheck], Callable[[dict], list[dict]], tuple[str, ...]]:
    """A `QUAD_CHECKS` entry whose grid is the product of the per-key value
    lists, `defaults` overridden by the config, in `defaults`' key order."""
    names = tuple(defaults)
    return check, lambda ranges: _grid_product(ranges, names, defaults), names


# form -> (check, grid, the keys `grid` reads; a suite config may use no other)
QUAD_CHECKS: dict[str, tuple[Callable[..., IdentityCheck], Callable[[dict], list[dict]], tuple[str, ...]]] = {
    "anchor": _quad_entry(check_quad_anchor, {}),
    "zeta2": _quad_entry(check_quad_zeta2, {}),
    "ones": _quad_entry(check_quad_ones, {"m": [0, 1], "n": [0, 1]}),
    "blocks": _quad_entry(check_quad_blocks, {"p": [0, 1], "q": [0, 1], "r": [0, 1], "ell": [0, 1]}),
    "trunc": _quad_entry(
        check_quad_trunc, {"p": [1, 2], "q": [1, 2], "a": [-0.5, 0, 0.5, 1], "r": [0, 1, 2]}
    ),
    "threeway": _quad_entry(
        check_quad_threeway, {"p": [0, 1], "q": [0, 1], "r": [0, 1], "m": [0, 1, 0.5]}
    ),
}


def run_quad_grid(
    form: str,
    ranges: dict | None = None,
    acc: float = 1e-9,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[IdentityCheck]:
    """Run one quadrature consistency family over its parameter grid."""
    try:
        check, grid, _ = QUAD_CHECKS[form]
    except KeyError:
        known = ", ".join(sorted(QUAD_CHECKS))
        raise PreconditionError(f"unknown quadrature form {form!r}; known: {known}") from None
    out = []
    for params in grid(dict(ranges or {})):
        if form == "anchor":
            out.append(check(tolerance=tolerance if tolerance is not None else 1e-10))
        elif form == "zeta2":
            out.append(check(acc=acc, tolerance=tolerance, config=config))
        else:
            out.append(check(acc=acc, tolerance=tolerance, config=config, **params))
    return out
