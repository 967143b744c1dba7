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
1974), so a level is `R . ucol` with the row functional `R = vrow . M`,
summed row chunk by row chunk of the `(v, u)` grid, with
`ucol = u^(a+1) (-log u)^e3`, `vrow = v^rho (-log v)^e4` and
`M = W C L1^e1 L2^e2`.  Three grids do not depend on the integrand: `W`, the
measure times both weights over `u` (at most e^2.2; `u^(a+1) <= 1`),
`L1 = max(-log(1-t1), 0)` and `L2 = -log(1-v) - L1 >= 0`.  They are cached
read-only, like the nodes, per level up to `_GRID_CACHE_LEVEL` (levels 3-5,
3 x (9,801 + 39,601 + 159,201) doubles, 5.0 MB); an uncached level builds
them chunk by chunk into three buffers it reuses, and uses them up in place
with one scratch buffer per call.
`C = exp(-sigma L2 - mu L1)` is the only 2-D `exp` an integrand needs; `M` is
formed in two per-thread level buffers (2 x 1.27 MB).  Grid log powers are
repeated squarings.  `vrow` is scaled by an exact power of two, taken from
`vrow` and `e1 + e2` alone, that keeps products of a tiny `M` and a tiny
`v^rho` out of the slow subnormal range; `R` is stored unscaled, so
`R . ucol`, a sum of non-negative terms, overflows only where the level does
(an entry of `R` below the normal range moves its lane by at most
`2^-1075 L^e3`, far inside the allowance below).

The parameter `a`, `e3` and the constant enter only through `ucol`, so the
2-D work is one pass per `(level, M, vrow)`: a level's `(R, R_odd)`, with
`R_odd = vrow[odd] . M[odd, odd]` for the coarse sum below, is cached by
`(level, e1, e2, e4, rho, sigma, mu)` for levels up to `_GRID_CACHE_LEVEL` in
an LRU of 512 read-only entries (at most 399 + 199 doubles each, 2.4 MB);
higher levels run the same builder and keep nothing.  Summing
`(vrow . M) . ucol` rather than `vrow . (M . ucol)` rounds in another order,
which the 2^-44 relative allowance below covers.

A level's nodes of odd index (from 0) are the previous level's, at half the
weight (Bailey, Jeyabalan and Li, Experimental Math. 14, 2005); for levels 4
to 6 `log x` and `log(1-x)` nest bit for bit, while the weight floor cuts
higher levels at other nodes.  So the first level-doubling difference,
`|S4 - S3|`, comes from one pass over the level-4 grid: `S3` is four times
the sum over its odd-indexed rows and columns, equal to the level-3 rule up
to the rounding of the weights' `log h`.

`exp` below -708 takes a slow path, so factors are cut at `_EXP_FLOOR`:
`W` is 0 below e^-700, `C`'s exponent is floored at -700, and so is
`-|x - y|` in `log(1-t1) = max(x, y) + log1p(e^-|x - y|)`.  A cut moves a
summand by at most `e^-697.8 L^E` (`E` the total log exponent, `L` =
`_LOG_BOUND` bounds every log factor), so a level of `n` lanes stays within
`n e^-697.8 L^E` of the uncut rule; the tests hold it there, plus 2^-44
relative for rounding in another order.
"""

from __future__ import annotations

import functools
import logging
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import factorial, isfinite, lgamma, log, log2, pi, prod
from typing import Callable, Iterator, Union

import numpy as np

from .errors import InvalidSpecError, PreconditionError, check_int, check_real, shown
from .identities import (
    IdentityCheck, _grid_product, check_params, check_theorem3, composition_terms, exact_side, make_check, side
)
from .indices import MzvIndex
from .series import (
    EvalResult,
    NestedSumSpec,
    RisingFactorial,
    ShiftedPower,
    _parts_spec,
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
# the triangle rule cuts its factors at e^_EXP_FLOOR (module docstring)
_EXP_FLOOR = -700.0
# bounds every log factor of the triangle rule: the largest `-log x` of any level is 801.1
_LOG_BOUND = 810.0

_log = logging.getLogger("mzv.quadrature")


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
        check_int(self.log_inv_om_t1, "log_inv_om_t1", 0)
        check_int(self.log_ratio_om, "log_ratio_om", 0)
        check_int(self.log_ratio_t, "log_ratio_t", 0)
        check_int(self.log_inv_t2, "log_inv_t2", 0)
        check_real(self.pow_t1_over_t2, "pow_t1_over_t2", -1.0, strict=True)
        check_real(self.pow_t2, "pow_t2", 0.0)
        check_real(self.pow_om_ratio, "pow_om_ratio", 0.0)
        check_real(self.pow_om_t1, "pow_om_t1", 0.0)
        if not isfinite(float(self.constant)) or float(self.constant) == 0.0:
            raise InvalidSpecError("constant must be finite and non-zero")


_node_cache: dict[int, tuple[np.ndarray, ...]] = {}
# level -> `_grid_chunks(level)`, read-only, for levels up to _GRID_CACHE_LEVEL
_grid_cache: dict[int, tuple[tuple[np.ndarray, ...], ...]] = {}
# per-thread level buffers (`_level_scratch`) and count of `_row_functionals`
# runs (`_builds`); library callers may use threads
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
    """Yield `(w, l1, l2)` per row chunk of the `(v, u)` grid: the
    integrand-free grids `W`, `L1` and `L2` (module docstring).  Every chunk
    is written into the same buffers, so a caller uses a chunk up before it
    asks for the next."""
    logu, log_omu, lwu = _nodes(level)
    logv, log_omv, lwv = _nodes(level)
    rows = min(logv.size, max(1, _CHUNK // max(1, logu.size)))
    full = [np.empty((rows, logu.size)) for _ in range(3)]
    for start in range(0, logv.size, rows):
        n = min(rows, logv.size - start)
        y, l1, l2 = full if n == rows else [buf[:n] for buf in full]
        l_omv = log_omv[start : start + n, None]
        # log(1 - t1) = log((1-v) + v(1-u)) = max(x, y) + log1p(e^-|x - y|),
        # x = log(1-v), y = log(v(1-u)), in logs for tiny distances; e^-|x - y|
        # is floored at e^_EXP_FLOOR, which moves L1 by at most that much
        np.add(logv[start : start + n, None], log_omu[None, :], out=y)
        np.abs(np.subtract(y, l_omv, out=l1), out=l1)
        np.maximum(np.negative(l1, out=l1), _EXP_FLOOR, out=l1)
        np.log1p(np.exp(l1, out=l1), out=l1)
        l1 += np.maximum(y, l_omv, out=y)
        np.negative(l1, out=l1)
        w = np.add(lwv[start : start + n, None], (lwu - logu)[None, :], out=y)
        w += l1
        np.copyto(w, -np.inf, where=w < _EXP_FLOOR)
        np.exp(w, out=w)
        np.maximum(l1, 0.0, out=l1)
        # L2 = log((1-t1)/(1-t2)) = -log(1-v) - L1 >= 0, as L1 <= -log(1-v)
        yield w, l1, np.subtract(-l_omv, l1, out=l2)


def _triangle_grid(level: int):
    """The chunks of `_grid_chunks(level)`, read-only and cached up to
    `_GRID_CACHE_LEVEL`; above it a fresh generator, built chunk by chunk."""
    cached = _grid_cache.get(level)
    if cached is not None:
        return cached
    if level > _GRID_CACHE_LEVEL:
        return _grid_chunks(level)
    # `_grid_chunks` reuses its buffers, so only a level of one chunk can be kept
    assert _nodes(level)[0].size ** 2 <= _CHUNK, f"level {level} is more than one chunk"
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
    squares in `tmp`; `e >= 1`."""
    while True:
        if e & 1:
            m = np.multiply(m, x, out=out)
        e >>= 1
        if not e:
            return m
        x = np.multiply(x, x, out=tmp)


def _row_functionals(
    level: int, e1: int, e2: int, e4: int, rho: float, sigma: float, mu: float
) -> tuple[np.ndarray, np.ndarray]:
    """`(R, R_odd)`, read-only: the row functional `R = vrow . M` over the u
    nodes, and `R_odd = vrow[odd] . M[odd, odd]` over the odd-indexed ones,
    for an integrand with `log_inv_om_t1 = e1`, `log_ratio_om = e2`,
    `log_inv_t2 = e4`, `pow_t2 = rho`, `pow_om_ratio = sigma` and
    `pow_om_t1 = mu` (module docstring); summed row chunk by row chunk."""
    _scratch.builds = _builds() + 1
    logx = _nodes(level)[0]
    with np.errstate(over="ignore"):
        # a power past the float range saturates to -inf, and `exp` to 0
        vrow = np.exp(rho * logx)
    if e4:
        vrow *= (-logx) ** e4
    # a tiny W times a tiny v^rho underflows, on a slow path: raise `vrow` by
    # 2^k, which is exact, as far as R stays below 2^1004 (M <= e^2.2 L^(e1+e2))
    k = int(max(1000.0 - log2(max(float(vrow.sum()), 1.0)) - (e1 + e2) * log2(_LOG_BOUND), 0.0))
    # the row weights of R, and of R_odd: `vrow` on the odd-indexed rows, 0 elsewhere
    vv = np.zeros((2, logx.size))
    vv[0] = np.ldexp(vrow, k)
    vv[1, 1::2] = vv[0, 1::2]
    rr = np.zeros((2, logx.size))
    row = 0
    spare = None  # an uncached level's scratch, one for all its chunks
    for w, l1, l2 in _triangle_grid(level):
        if w.flags.writeable:
            # a chunk of an uncached level is used up in place; the first is the largest
            if spare is None:
                spare = np.empty(w.size)
            buf, tmp = w, spare[: w.size].reshape(w.shape)
        else:
            buf, tmp = _level_scratch(w.shape)
        m = w
        if sigma != 0.0 or mu != 0.0:
            # C = exp(-sigma L2 - mu L1), the exponent floored at _EXP_FLOOR; it is
            # <= 0, so a huge weight saturates it to -inf, which the floor takes back
            with np.errstate(over="ignore"):
                if sigma != 0.0:
                    c = np.multiply(l2, -sigma, out=tmp)
                    if mu != 0.0:
                        c -= mu * l1
                else:
                    c = np.multiply(l1, -mu, out=tmp)
            np.maximum(c, _EXP_FLOOR, out=c)
            m = np.multiply(m, np.exp(c, out=c), out=buf)
        if e1:
            m = _times_power(m, l1, e1, buf, tmp)
        if e2:
            m = _times_power(m, l2, e2, buf, tmp)
        rr += vv[:, row : row + len(m)] @ m
        row += len(m)
    return _frozen(np.ldexp(rr[0], -k), np.ldexp(rr[1, 1::2], -k))


# `_row_functionals` for levels up to _GRID_CACHE_LEVEL: at most 512 entries
# of 399 + 199 doubles (level 5), 2.4 MB
_row_cache = functools.lru_cache(maxsize=512)(_row_functionals)


def _builds() -> int:
    """How many times this thread has run `_row_functionals`."""
    return getattr(_scratch, "builds", 0)


def _triangle_level_sums(f: TriangleIntegrand, level: int) -> tuple[float, float]:
    """`(coarse, fine)` from one level's row functionals, each times
    `f.constant`: `fine` is the level's sum `R . ucol`; `coarse` is four times
    `R_odd . ucol[odd]`, the previous level's rule where the nodes nest
    (module docstring)."""
    key = (
        level,
        f.log_inv_om_t1,
        f.log_ratio_om,
        f.log_inv_t2,
        float(f.pow_t2),
        float(f.pow_om_ratio),
        float(f.pow_om_t1),
    )
    r, r_odd = (_row_cache if level <= _GRID_CACHE_LEVEL else _row_functionals)(*key)
    logx = _nodes(level)[0]
    # a power past the float range saturates to inf, and a zero times it is
    # NaN: the level's sum, and so the check's difference, is then not finite
    with np.errstate(over="ignore", invalid="ignore"):
        ucol = np.exp((float(f.pow_t1_over_t2) + 1.0) * logx)
        if f.log_ratio_t:
            ucol *= (-logx) ** f.log_ratio_t
    return 4.0 * f.constant * float(r_odd @ ucol[1::2]), f.constant * float(r @ ucol)


def _triangle_level_value(f: TriangleIntegrand, level: int) -> float:
    """One level's sum `R . ucol` times `f.constant`."""
    return _triangle_level_sums(f, level)[1]


# the one DEBUG line of a `_level_loop` call: final level, |S_L - S_(L-1)|,
# float floor, the levels read from the row cache out of those evaluated, why
# it stopped
_STOP = "level %d: difference %r, float floor %r, row-cache hits %d of %d levels: %s"


def _level_loop(
    level_sums: Iterator[tuple[float, bool]],
    target_accuracy: float,
    max_level: int,
    level_limit: int,
) -> EvalResult:
    """Run a rule's levels until the level-doubling difference meets the
    target; `level_sums` yields `(sum, read from the row cache)` at levels
    `_MIN_LEVEL`, `_MIN_LEVEL + 1`, ..., each computed when it is asked for.
    The result's `cutoff` is the final level's nodes per axis."""
    target = float(target_accuracy)
    if not target > 0 or not isfinite(target):
        raise InvalidSpecError(f"target accuracy must be positive, got {shown(target_accuracy)}")
    # one level-doubling difference needs two levels; the limit bounds the grid
    check_int(max_level, "max_level", _MIN_LEVEL + 1, level_limit)
    prev, hits = next(level_sums)
    for level in range(_MIN_LEVEL + 1, max_level + 1):
        cur, hit = next(level_sums)
        hits += hit
        err = abs(cur - prev)
        floor = 8.0 * 2.0**-52 * abs(cur)
        evaluated = level - _MIN_LEVEL + 1
        if err <= max(target, floor):
            # converged as far as asked, or as far as doubles allow
            bound = max(err, floor)
            met = bound <= target
            flags = () if met else ("float-floor",)
            _log.debug(_STOP, level, err, floor, hits, evaluated, flags[0] if flags else "converged")
            return EvalResult(cur, bound, _nodes(level)[0].size, "float", met, flags)
        prev = cur
    _log.debug(_STOP, max_level, err, floor, hits, evaluated, "level-exhausted")
    return EvalResult(prev, err, _nodes(max_level)[0].size, "float", False, ("level-exhausted",))


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

    def level_sums() -> Iterator[tuple[float, bool]]:
        # the first two levels from one level's row functionals (module
        # docstring); a level is a row-cache hit when it built none
        for level in count(_MIN_LEVEL + 1):
            built = _builds()
            sums = _triangle_level_sums(integrand, level)
            hit = _builds() == built
            for value in sums if level == _MIN_LEVEL + 1 else sums[1:]:
                yield value, hit

    return _level_loop(level_sums(), target_accuracy, max_level, _MAX_LEVEL)


def interval_quadrature(
    values: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    target_accuracy: float = 1e-12,
    max_level: int = _MAX_LEVEL + 2,
) -> EvalResult:
    """Integrate `f` over (0, 1); `values(logx, log1mx, logweight)` returns
    already-weighted summands `f(x) * weight` (use the logs for stability).
    """

    level_sums = ((float(np.sum(values(*_nodes(level)))), False) for level in count(_MIN_LEVEL))
    return _level_loop(level_sums, target_accuracy, max_level, _MAX_LEVEL + 2)


def finite_difference_integral(
    argument: int, order: int, exponent: int, target_accuracy: float = 1e-12
) -> EvalResult:
    """The finite-difference factor as the Beta-weighted log moment
    `1/(exponent-1)! * integral_0^1 x^(argument-1) (1-x)^order (-log x)^(exponent-1) dx`,
    an independent cross-check of the series-engine closed form.
    """
    check_int(argument, "argument", 1, error=PreconditionError)
    check_int(order, "order", 0, error=PreconditionError)
    check_int(exponent, "exponent", 1, error=PreconditionError)
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


def _inverse_factorials(*factors: tuple[str, int]) -> float:
    """An integrand constant `1 / (n_1! n_2! ...)`, each `n` given with the
    parameter expression it is, as in `("p - 1", p - 1)`; `PreconditionError`
    when the product is past the float range (checked in logs first, so huge
    arguments never build a huge factorial)."""
    ns = [n for _, n in factors]
    try:
        fits = sum(lgamma(n + 1) for n in ns) <= 710.0
    except OverflowError:  # an integer past the float range
        fits = False
    if fits:
        try:
            return 1.0 / prod(factorial(n) for n in ns)
        except OverflowError:
            pass
    # a factorial too long to print is shown by its parameter
    product_text = " ".join(
        f"{n}!" if n < 10**20 else f"({name})!" if " " in name else f"{name}!" for name, n in factors
    )
    huge = "".join(f", {name} is {shown(n)}" for name, n in factors if n >= 10**20)
    raise PreconditionError(f"integrand constant 1/({product_text}) is below the float range{huge}")


def ones_integrands(m: int, n: int) -> tuple[TriangleIntegrand, TriangleIntegrand]:
    """Two integral forms of the ones-prefix zeta of index ({1}^m, n+2)."""
    check_int(m, "m", 0)
    check_int(n, "n", 0)
    c = _inverse_factorials(("m", m), ("n", n))
    return (
        TriangleIntegrand(log_inv_om_t1=m, log_inv_t2=n, constant=c),
        TriangleIntegrand(log_ratio_om=m, log_inv_t2=n, constant=c),
    )


def blocks_integrand(p: int, q: int, r: int, ell: int) -> TriangleIntegrand:
    """Four-log-block integral equal to the sum over compositions alpha of
    q+r+1 (r+1 parts) of the zetas of ({1}^p, alpha_1..alpha_r, alpha_{r+1}+ell+1).
    """
    for name, v in (("p", p), ("q", q), ("r", r), ("ell", ell)):
        check_int(v, name, 0)
    c = _inverse_factorials(("p", p), ("q", q), ("r", r), ("ell", ell))
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
    try:
        for v in (p, q):
            check_int(v, "p, q", 1, error=PreconditionError)
    except PreconditionError:
        raise PreconditionError(f"need integers p, q >= 1, got p={shown(p)}, q={shown(q)}") from None
    check_int(r, "r", 0)
    # under the user's names, not the integrand fields they become
    check_real(r, "r", 0.0)
    check_real(a, "a", -1.0, strict=True)
    c = _inverse_factorials(("p - 1", p - 1), ("q - 1", q - 1))
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
        check_int(v, name, 0)
    check_real(m, "m", 0.0)
    c = _inverse_factorials(("p", p), ("q", q), ("r", r))
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
    integrand = blocks_integrand(p, q, r, ell)
    terms = composition_terms(
        q + r + 1,
        r + 1,
        lambda alpha: _parts_spec((1,) * p + alpha[:-1] + (alpha[-1] + ell + 1,)),
        acc,
    )
    integral = triangle_quadrature(integrand, acc)
    return make_check(
        "quad_blocks",
        {"p": p, "q": q, "r": r, "ell": ell},
        (integral, side(terms)),
        tolerance,
        {"terms": len(terms)},
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
    integrands = threeway_integrands(p, q, r, m)
    details: dict = {}
    series_sides: tuple[EvalResult, ...] = ()
    if isinstance(m, int) and not isinstance(m, bool):
        # before any integral, so the series' bounds on p, q, r and m refuse first
        series_sides = check_theorem3(p, q, r, m, acc).sides
        details["series_sides"] = 3
    sides = tuple(triangle_quadrature(f, acc) for f in integrands) + series_sides
    return make_check(
        "quad_threeway",
        {"p": p, "q": q, "r": r, "m": m if isinstance(m, int) else float(m)},
        sides,
        tolerance,
        details,
    )


def _quad_entry(
    check: Callable[..., IdentityCheck], defaults: dict[str, list]
) -> tuple[Callable[..., IdentityCheck], Callable[[dict], list[dict]]]:
    """A `QUAD_CHECKS` entry whose grid is the product of the per-key value
    lists, `defaults` overridden by the config; its keys are the checker's
    parameters, in signature order."""
    names = tuple(defaults)
    assert names == check_params(check)[0], (check.__name__, names)
    return check, lambda ranges: _grid_product(ranges, names, defaults)


# form -> (check, grid); the grid reads the checker's parameters and no other key
QUAD_CHECKS: dict[str, tuple[Callable[..., IdentityCheck], Callable[[dict], list[dict]]]] = {
    "anchor": _quad_entry(check_quad_anchor, {}),
    "zeta2": _quad_entry(check_quad_zeta2, {}),
    "ones": _quad_entry(check_quad_ones, {"m": [0, 1], "n": [0, 1]}),
    "blocks": _quad_entry(check_quad_blocks, {"p": [0, 1], "q": [0, 1], "r": [0, 1], "ell": [0, 1]}),
    "trunc": _quad_entry(check_quad_trunc, {"p": [1, 2], "q": [1, 2], "a": [-0.5, 0, 0.5, 1], "r": [0, 1, 2]}),
    "threeway": _quad_entry(check_quad_threeway, {"p": [0, 1], "q": [0, 1], "r": [0, 1], "m": [0, 1, 0.5]}),
}


def run_quad_grid(
    form: str,
    ranges: dict | None = None,
    acc: float = 1e-9,
    tolerance: float | None = None,
) -> list[IdentityCheck]:
    """Run one quadrature consistency family over its parameter grid."""
    try:
        check, grid = QUAD_CHECKS[form]
    except KeyError:
        known = ", ".join(sorted(QUAD_CHECKS))
        raise PreconditionError(f"unknown quadrature form {shown(form)}; known: {known}") from None
    return [check(acc=acc, tolerance=tolerance, **params) for params in grid(dict(ranges or {}))]
