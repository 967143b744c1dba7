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

The trapezoid sum has product weights (Takahasi and Mori, Publ. RIMS 9,
1974), so a level is `vrow . (M . ucol)` per row chunk of the `(v, u)` grid,
with `ucol = u^(a+1) (-log u)^e3`, `vrow = v^rho (-log v)^e4` and
`M = W C L1^e1 L2^e2`.  Two grids do not depend on the integrand: `W`, the
measure times both weights over `u` (at most e^2.2; `u^(a+1) <= 1`), and
`L1 = max(-log(1-t1), 0)`.  They are cached read-only, like the nodes, per
level up to `_GRID_CACHE_LEVEL` (levels 3-5, 2 x (9,801 + 39,601 + 159,201)
doubles, 3.3 MB); an uncached level builds them chunk by chunk and uses
them up in place.  `L2 = -log(1-v) - L1`, and `C = exp(-sigma L2 - mu L1)`
is the only 2-D `exp` an integrand needs; `M` is formed in two per-thread
level buffers (2 x 1.27 MB).  Grid log powers are repeated squarings; `ucol`
is scaled by an exact power of two that keeps products of a tiny `W` and a
tiny `u^(a+1)` out of the slow subnormal range.

`exp` below -708 takes a slow path, so factors are cut at `_EXP_FLOOR`:
`W` is 0 below e^-700, `C`'s exponent is floored at -700, and so is
`-|x - y|` in `log(1-t1) = max(x, y) + log1p(e^-|x - y|)`.  A cut moves a
summand by at most `e^-697.8 L^E` (`E` the total log exponent, `L` =
`_LOG_BOUND` bounds every log factor), so a level of `n` lanes stays within
`n e^-697.8 L^E` of the uncut rule; the tests hold it there, plus 2^-44
relative for rounding in another order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isfinite, ldexp, lgamma, log, log2, pi, prod
from typing import Callable, Union

import numpy as np

from .errors import InvalidSpecError, PreconditionError
from .identities import IdentityCheck, _grid_product, check_theorem3, composition_sum, exact_side, make_check
from .indices import MzvIndex
from .series import (
    EvalResult,
    NestedSumSpec,
    RisingFactorial,
    ShiftedPower,
    evaluate,
    mzv,
    mzv_spec,
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
# the triangle rule cuts its factors at e^_EXP_FLOOR (module docstring)
_EXP_FLOOR = -700.0
# bounds every log factor of the triangle rule: the largest `-log x` of any level is 801.1
_LOG_BOUND = 810.0


def _check_exp(value: object, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvalidSpecError(f"{name} must be an integer >= 0, got {value!r}")
    return value


def _check_real(value: object, name: str, minimum: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise InvalidSpecError(f"{name} must be a real number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer past the float range
        v = float("inf")
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
    """Yield `(l_omv, w, l1)` per row chunk of the `(v, u)` grid: the rows'
    `log(1 - v)` and the integrand-free grids `W` and `L1` (module docstring)."""
    logu, log_omu, lwu = _nodes(level)
    logv, log_omv, lwv = _nodes(level)
    rows = max(1, _CHUNK // max(1, logu.size))
    for start in range(0, logv.size, rows):
        l_omv = log_omv[start : start + rows]
        # log(1 - t1) = log((1-v) + v(1-u)) = max(x, y) + log1p(e^-|x - y|),
        # x = log(1-v), y = log(v(1-u)), in logs for tiny distances; e^-|x - y|
        # is floored at e^_EXP_FLOOR, which moves L1 by at most that much
        y = np.add(logv[start : start + rows, None], log_omu[None, :])
        l1 = np.abs(np.subtract(y, l_omv[:, None]))
        np.maximum(np.negative(l1, out=l1), _EXP_FLOOR, out=l1)
        np.log1p(np.exp(l1, out=l1), out=l1)
        l1 += np.maximum(y, l_omv[:, None], out=y)
        np.negative(l1, out=l1)
        w = np.add(lwv[start : start + rows, None], (lwu - logu)[None, :], out=y)
        w += l1
        np.copyto(w, -np.inf, where=w < _EXP_FLOOR)
        np.exp(w, out=w)
        yield l_omv, w, np.maximum(l1, 0.0, out=l1)


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


def _times_power(m: np.ndarray, x: np.ndarray, e: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """`m * x**e` into `out` (which may be `m`) by repeated squaring, the
    squares in `tmp` (which may be `x`); `e >= 1`."""
    while True:
        if e & 1:
            m = np.multiply(m, x, out=out)
        e >>= 1
        if not e:
            return m
        x = np.multiply(x, x, out=tmp)


def _triangle_level_value(f: TriangleIntegrand, level: int) -> float:
    """One level's sum `vrow . (M . ucol)`, row chunk by row chunk, times
    `f.constant` (module docstring)."""
    logx = _nodes(level)[0]
    sigma = float(f.pow_om_ratio)
    mu = float(f.pow_om_t1)
    with np.errstate(over="ignore"):
        # a power past the float range saturates to -inf, and `exp` to 0
        ucol = np.exp((float(f.pow_t1_over_t2) + 1.0) * logx)
        vrow = np.exp(float(f.pow_t2) * logx)
    if f.log_ratio_t:
        ucol *= (-logx) ** f.log_ratio_t
    if f.log_inv_t2:
        vrow *= (-logx) ** f.log_inv_t2
    # a tiny W times a tiny u^(a+1) underflows, on a slow path: raise `ucol`
    # by 2^k, which is exact, as far as the level sum stays below 2^1000
    # (M <= e^2.2 L^(e1+e2), vrow <= L^e4, at most 2^24 rows)
    e = f.log_inv_om_t1 + f.log_ratio_om + f.log_inv_t2
    k = int(max(1000.0 - log2(max(float(ucol.sum()), 1.0)) - e * log2(_LOG_BOUND), 0.0))
    ucol = np.ldexp(ucol, k)
    total = 0.0
    row = 0
    for l_omv, w, l1 in _triangle_grid(level):
        # a fresh chunk of an uncached level is used up in place
        buf, tmp = (w, np.empty_like(w)) if w.flags.writeable else _level_scratch(w.shape)
        m = w
        if sigma != 0.0 or mu != 0.0:
            # C = exp(-sigma L2 - mu L1), the exponent floored at _EXP_FLOOR
            if sigma != 0.0:
                c = np.add(l1, l_omv[:, None], out=tmp)  # -L2
                c *= sigma
                if mu != 0.0:
                    c -= mu * l1
            else:
                c = np.multiply(l1, -mu, out=tmp)
            np.maximum(c, _EXP_FLOOR, out=c)
            m = np.multiply(m, np.exp(c, out=c), out=buf)
        if f.log_inv_om_t1:
            m = _times_power(m, l1, f.log_inv_om_t1, buf, tmp)
        if f.log_ratio_om:
            # L2 = log((1-t1)/(1-t2)) = -log(1-v) - L1 >= 0, as L1 <= -log(1-v)
            l2 = np.subtract(-l_omv[:, None], l1, out=tmp)
            m = _times_power(m, l2, f.log_ratio_om, buf, tmp)
        total += float(vrow[row : row + len(w)] @ (m @ ucol))
        row += len(w)
    return f.constant * ldexp(total, -k)


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
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in (p, q)):
        raise PreconditionError(f"need integers p, q >= 1, got p={p!r}, q={q!r}")
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


def check_quad_anchor(tolerance: float | None = 1e-10, acc: float = 1e-9) -> IdentityCheck:
    """`t2^2` over the triangle equals 3/4 and the telescoping series.

    Both computed sides are evaluated to a quarter of `tolerance` (1e-10
    when None), so that each must land close to the exact 3/4.  `acc` is
    accepted so that every quad check takes the same keywords; it is not
    used.
    """
    if tolerance is None:
        tolerance = 1e-10
    integral = triangle_quadrature(TriangleIntegrand(pow_t2=2), tolerance / 4)
    series = evaluate(NestedSumSpec(((ShiftedPower(0, 1), ShiftedPower(2, 1)),)), tolerance / 4)
    return make_check(
        "quad_anchor", {}, (integral, exact_side(0.75), series), tolerance
    )


def check_quad_zeta2(acc: float = 1e-10, tolerance: float | None = None) -> IdentityCheck:
    """Dimension-reduced 3-simplex integral against `k * k^-3` and the
    depth-one series of exponent 2."""
    integral = zeta2_simplex_value(acc)
    series = evaluate(NestedSumSpec(((RisingFactorial(1), ShiftedPower(0, 3)),)), acc)
    plain = mzv(MzvIndex((2,)), acc)
    return make_check("quad_zeta2", {}, (integral, series, plain), tolerance)


def check_quad_ones(
    m: int,
    n: int,
    acc: float = 1e-9,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Both integral forms of the ones-prefix zeta against its series."""
    f1, f2 = ones_integrands(m, n)
    side1 = triangle_quadrature(f1, acc)
    side2 = triangle_quadrature(f2, acc)
    series = mzv(MzvIndex((1,) * m + (n + 2,)), acc)
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
) -> IdentityCheck:
    """Four-log-block integral against its composition sum of zetas."""
    integral = triangle_quadrature(blocks_integrand(p, q, r, ell), acc)
    series = composition_sum(
        q + r + 1,
        r + 1,
        lambda alpha: mzv_spec(MzvIndex((1,) * p + alpha[:-1] + (alpha[-1] + ell + 1,))),
        acc,
    )
    return make_check(
        "quad_blocks",
        {"p": p, "q": q, "r": r, "ell": ell},
        (integral, series),
        tolerance,
        {"terms": comb(q + r, r)},
    )


def check_quad_trunc(
    p: int,
    q: int,
    a: Real,
    r: int,
    acc: float = 1e-9,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Direct and dual integral forms against the truncated series."""
    direct, dual_form = trunc_integrands(p, q, a, r)
    side1 = triangle_quadrature(direct, acc)
    side2 = triangle_quadrature(dual_form, acc)
    bundles = [(ShiftedPower(a, 1),) for _ in range(p)]
    bundles[-1] = bundles[-1] + (ShiftedPower(r, q),)
    series = evaluate(NestedSumSpec(tuple(bundles)), acc)
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
) -> IdentityCheck:
    """The three change-of-variable integrals against each other; for integer
    `m` the three series of the matching three-way identity join the
    comparison, giving six mutually equal sides.
    """
    sides = [triangle_quadrature(f, acc) for f in threeway_integrands(p, q, r, m)]
    details: dict = {}
    if isinstance(m, int) and not isinstance(m, bool):
        series_check = check_theorem3(p, q, r, m, acc)
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
) -> list[IdentityCheck]:
    """Run one quadrature consistency family over its parameter grid."""
    try:
        check, grid, _ = QUAD_CHECKS[form]
    except KeyError:
        known = ", ".join(sorted(QUAD_CHECKS))
        raise PreconditionError(f"unknown quadrature form {form!r}; known: {known}") from None
    return [check(acc=acc, tolerance=tolerance, **params) for params in grid(dict(ranges or {}))]
