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
1974), so a level is `R . ucol` with the row functional `R = vrow . M`
over the `(v, u)` grid, with
`ucol = u^(a+1) (-log u)^e3`, `vrow = v^rho (-log v)^e4` and
`M = W C L1^e1 L2^e2`.  Three grids do not depend on the integrand: `W`, the
measure times both weights over `u` (at most e^2.2; `u^(a+1) <= 1`),
`L1 = max(-log(1-t1), 0)` and `L2 = -log(1-v) - L1 >= 0`.  `_grid_rows`
computes any block of rows of `W` and `L1`, and `_l2_rows` those of `L2`
from `L1`'s.  `C = exp(-sigma L2 - mu L1)` is the only 2-D `exp` an
integrand needs.  `M` is formed block by block, a block being the fewest
rows that hold one level-4 grid (39,601 doubles, 0.32 MB, small enough to
stay in a core's cache; at any level at most `_BLOCK_DOUBLES`, 0.33 MB).
Level 4, the first level the rule builds, is one block: its grids are
cached, read-only like the nodes (3 x 39,601 doubles, 0.95 MB), and its
builds form `M` in the first of a per-thread pair of block-sized buffers,
with `C` and the squares in the second (0.66 MB the pair).  Every other
level is streamed: a build allocates a buffer for the level's `M` (1.27 MB
at level 5, 20.4 MB at level 7), into which `W` is computed and `M` formed
in place, and a block buffer for `L1`; the blocks of `L2`, derived where
the integrand reads it (`e2 > 0` or `sigma != 0`), and of `C` and the
squares are the thread's pair.  A level is one matmul, whatever the blocks,
so the sums are those of the unblocked rule bit for bit.

The rule stops at `_MAX_LEVEL`, 7, the deepest level that any passing check
of the packaged suite, the benchmark pools, the quad forms' fuzz boxes or
the `ones` and `blocks` sweeps reaches; an integrand not converged there is
reported `level-exhausted` and unmet.  On a 2-core x86 machine
`mzv quad trunc --p 1 --q 4 --a -0.999 --r 4` and
`mzv quad blocks --p 0 --q 0 --r 0 --ell 120`, which run out there, peak at
54.5 and 54.0 MB RSS (66.6 and 65.6 MB when the rule ran on to level 9 in
32 MB row chunks).  Grid log powers are repeated squarings, under the
same silenced overflow as the rest of the rule.  `vrow` is scaled by an
exact power of two, taken from `vrow` and `e1 + e2` alone, that keeps
products of a tiny `M` and a tiny `v^rho` out of the slow subnormal range;
`R` is stored unscaled, so `R . ucol`, a sum of non-negative terms,
overflows only where the level does (an entry of `R` below the normal range
moves its lane by at most `2^-1075 L^e3`, far inside the allowance below).

The parameter `a`, `e3` and the constant enter only through `ucol`, so the
2-D work is one pass per `(level, M, vrow)`: a level's `(R, R_odd)`, with
`R_odd = vrow[odd] . M[odd, odd]` for the coarse sum below, is cached by
`(level, e1, e2, e4, rho, sigma, mu)` for levels up to `_ROW_CACHE_LEVEL` in
an LRU of 512 read-only entries (at most 399 + 199 doubles each, 2.4 MB);
higher levels run the same builder and keep nothing.  Summing
`(vrow . M) . ucol` rather than `vrow . (M . ucol)` rounds in another order,
which the 2^-44 relative allowance below covers.  The nodes, the grids and
the row functionals are memos of the package's cache registry (`mzv._memo`):
`mzv.clear_caches()` empties them and `mzv.cache_stats()` reports them.

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

import logging
import threading
from dataclasses import dataclass
from functools import partial
from itertools import count
from math import comb, factorial, inf, lgamma, log, log2, pi, prod
from typing import Callable, Iterator, Sequence

import numpy as np

from ._memo import memo
from .errors import InvalidSpecError, PreconditionError, check_int, check_real, shown
from .identities import (
    MAX_TERMS, IdentityCheck, IdentityInfo, Term, _check_prefix_lengths, _ones_prefix_terms, _product_info,
    _theorem3_sides, make_check,
)
from .series import (
    _MAX_LOG_POWER,
    EvalResult,
    Real,
    RisingFactorial,
    ShiftedPower,
    _readonly,
    _spec,
    evaluate,  # not called here: benchmarks/test_benchmark.py requires the tracer to rebind it in this module
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
    "QUAD_ACCURACY",
]

_S_MAX = 6.5
_LOG_WEIGHT_FLOOR = -800.0
_MIN_LEVEL = 3
_MAX_LEVEL = 7
# the interval rule's deepest level; it also sizes the `_nodes` memo
_INTERVAL_MAX_LEVEL = 11
# doubles in one block of any level up to _MAX_LEVEL (`_block_rows`), and of
# level 8, which only the benchmark's level-8 microbenchmark builds: 13 rows
# of 3,193 (level 7's 25 rows of 1,597 need 39,925)
_BLOCK_DOUBLES = 41_509
_ROW_CACHE_LEVEL = 5
# the triangle rule cuts its factors at e^_EXP_FLOOR (module docstring)
_EXP_FLOOR = -700.0
# bounds every log factor of the triangle rule: the largest `-log x` of any level is 801.1
_LOG_BOUND = 810.0
# the default accuracy of the quad forms but zeta2, and of `mzv quad`
QUAD_ACCURACY = 1e-9

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
        if check_real(self.constant, "constant", -inf) == 0:
            raise InvalidSpecError("constant must be finite and non-zero")


# per-thread buffer pair (`_level_scratch`) and count of `_row_functionals`
# runs (`_builds`); library callers may use threads
_scratch = threading.local()


# levels 3 to 11, the deepest the interval rule reaches
# Without it: cold suite +4 %; cold zeta-mix / param-sums / quad-cross draws -2 / +0 / +49 %.
@memo(_INTERVAL_MAX_LEVEL + 1 - _MIN_LEVEL)
def _nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return `(logx, log1mx, logweight)` for the tanh-sinh rule at `level`."""
    h = 2.0**-level
    count = int(_S_MAX / h)
    s = h * np.arange(-count, count + 1)
    w2 = pi * np.sinh(s)  # 2w
    logx = -np.logaddexp(0.0, -w2)  # log sigma(2w)
    log1mx = -np.logaddexp(0.0, w2)  # log sigma(-2w)
    logweight = logx + log1mx + np.log(pi * np.cosh(s)) + log(h)
    keep = logweight > _LOG_WEIGHT_FLOOR
    return _readonly(logx[keep]), _readonly(log1mx[keep]), _readonly(logweight[keep])


def _block_rows(size: int) -> int:
    """Rows of the `(v, u)` grid with `size` nodes per axis in one block: the
    fewest that hold one level-4 grid, the first level the triangle rule
    builds, so levels 3 and 4 are one block each (100 rows of 399 at level 5,
    50 of 799 at level 6, 25 of 1,597 at level 7: at most `_BLOCK_DOUBLES`)."""
    return -(-_nodes(_MIN_LEVEL + 1)[0].size ** 2 // size)


def _grid_rows(level: int, start: int, w: np.ndarray, l1: np.ndarray) -> None:
    """Write the rows from `start` of the `(v, u)` grid at `level` of the
    integrand-free grids `W` and `L1` (module docstring) into `w` and `l1`,
    as many rows as they have."""
    logu, log_omu, lwu = _nodes(level)
    logv, l_omv, lwv = (arr[start : start + len(w), None] for arr in _nodes(level))
    # log(1 - t1) = log((1-v) + v(1-u)) = max(x, y) + log1p(e^-|x - y|),
    # x = log(1-v), y = log(v(1-u)), in logs for tiny distances; e^-|x - y|
    # is floored at e^_EXP_FLOOR, which moves L1 by at most that much
    y = np.add(logv, log_omu[None, :], out=w)
    np.abs(np.subtract(y, l_omv, out=l1), out=l1)
    np.maximum(np.negative(l1, out=l1), _EXP_FLOOR, out=l1)
    np.log1p(np.exp(l1, out=l1), out=l1)
    l1 += np.maximum(y, l_omv, out=y)
    np.negative(l1, out=l1)
    np.add(lwv, (lwu - logu)[None, :], out=w)
    w += l1
    np.copyto(w, -np.inf, where=w < _EXP_FLOOR)
    np.exp(w, out=w)
    np.maximum(l1, 0.0, out=l1)


def _l2_rows(level: int, start: int, l1: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rows from `start` of `L2 = log((1-t1)/(1-t2)) = -log(1-v) - L1 >= 0`
    (as `L1 <= -log(1-v)`) at `level`, from those of `L1`, into `out`."""
    return np.subtract(-_nodes(level)[1][start : start + len(l1), None], l1, out=out)


# Without it: cold suite -3 %; cold zeta-mix / param-sums / quad-cross draws -0 / -5 / +70 %.
@memo(1)  # level 4, the one cached level (`_row_functionals`)
def _grid_cache(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`(W, L1, L2)` over the whole `(v, u)` grid at a level of one block,
    read-only (0.95 MB at level 4)."""
    size = _nodes(level)[0].size
    w, l1 = np.empty((size, size)), np.empty((size, size))
    _grid_rows(level, 0, w, l1)
    return _readonly(w), _readonly(l1), _readonly(_l2_rows(level, 0, l1, np.empty((size, size))))


def _level_scratch() -> tuple[np.ndarray, np.ndarray]:
    """This thread's pair of flat buffers, each `_BLOCK_DOUBLES` long, one
    block of any level (0.33 MB, 0.66 MB the pair): the cached level's `M`
    and the block of `C` and the squares; a streamed level's blocks of `L2`
    and of `C` and the squares."""
    pair = getattr(_scratch, "pair", None)
    if pair is None:
        pair = _scratch.pair = (np.empty(_BLOCK_DOUBLES), np.empty(_BLOCK_DOUBLES))
    return pair


def _front(buf: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The front of the flat buffer `buf`, in the shape of `rows`."""
    return buf[: rows.size].reshape(rows.shape)


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


def _m_rows(
    w: np.ndarray, l1: np.ndarray, l2: np.ndarray | None, e1: int, e2: int, sigma: float, mu: float, out: np.ndarray, tmp: np.ndarray
) -> None:
    """Rows of `M = W C L1^e1 L2^e2` (module docstring) from those of `W`,
    `L1` and `L2` (None if neither `sigma` nor `e2` reads it) into `out`,
    which may be `w` (and must be, for an `M` of no factor but `W`); `tmp` is
    scratch of their shape."""
    m = w
    # C's exponent is <= 0, so a huge weight saturates it to -inf, which the
    # floor takes back; a log power past the float range saturates to inf, and
    # inf times a zero `W` is NaN, which leaves R, and so the level's sum, not
    # finite (see `_triangle_level_sums`)
    with np.errstate(over="ignore", invalid="ignore"):
        if sigma != 0.0 or mu != 0.0:
            # C = exp(-sigma L2 - mu L1), the exponent floored at _EXP_FLOOR
            if sigma != 0.0:
                c = np.multiply(l2, -sigma, out=tmp)
                if mu != 0.0:
                    c -= mu * l1
            else:
                c = np.multiply(l1, -mu, out=tmp)
            np.maximum(c, _EXP_FLOOR, out=c)
            m = np.multiply(m, np.exp(c, out=c), out=out)
        if e1:
            m = _times_power(m, l1, e1, out, tmp)
        if e2:
            _times_power(m, l2, e2, out, tmp)


def _row_functionals(
    level: int, e1: int, e2: int, e4: int, rho: float, sigma: float, mu: float
) -> tuple[np.ndarray, np.ndarray]:
    """`(R, R_odd)`, read-only: the row functional `R = vrow . M` over the u
    nodes, and `R_odd = vrow[odd] . M[odd, odd]` over the odd-indexed ones,
    for an integrand with `log_inv_om_t1 = e1`, `log_ratio_om = e2`,
    `log_inv_t2 = e4`, `pow_t2 = rho`, `pow_om_ratio = sigma` and
    `pow_om_t1 = mu` (module docstring); one matmul over the level's `M`,
    formed block by block."""
    _scratch.builds = _builds() + 1
    logx = _nodes(level)[0]
    with np.errstate(over="ignore"):
        # a power past the float range saturates: `exp` to 0, and `(-logx)^e4`
        # and the sum of `vrow` to inf, which leaves R, and so the level's
        # sum, not finite (see `_triangle_level_sums`)
        vrow = np.exp(rho * logx)
        if e4:
            vrow *= (-logx) ** e4
        total = float(vrow.sum())
    # a tiny W times a tiny v^rho underflows, on a slow path: raise `vrow` by
    # 2^k, which is exact, as far as R stays below 2^1004 (M <= e^2.2 L^(e1+e2))
    k = int(max(1000.0 - log2(max(total, 1.0)) - (e1 + e2) * log2(_LOG_BOUND), 0.0))
    # the row weights of R, and of R_odd: `vrow` on the odd-indexed rows, 0 elsewhere
    size = logx.size
    vv = np.zeros((2, size))
    vv[0] = np.ldexp(vrow, k)
    vv[1, 1::2] = vv[0, 1::2]
    block = min(size, _block_rows(size))
    grids = _grid_cache(level) if level == _MIN_LEVEL + 1 else ()
    if grids:  # the cached level, one block: `M` in this thread's pair
        buf, tmp = _level_scratch()
    else:
        # streamed: `M` and `L1`'s block are this build's; `L2`'s block,
        # derived where it is read, and that of `C` and the squares are the pair
        buf, l1_buf = np.empty(size * size), np.empty(block * size)
        l2_buf, tmp = _level_scratch()
    if grids and sigma == 0.0 and mu == 0.0 and not e1 and not e2:
        m = grids[0]  # M = W, read where it is cached
    else:
        m = buf[: size * size].reshape(size, size)
        for first in range(0, size, block):
            out = m[first : first + block]
            if grids:
                w, l1, l2 = (grid[first : first + len(out)] for grid in grids)
            else:
                w, l1 = out, _front(l1_buf, out)
                _grid_rows(level, first, w, l1)
                l2 = _l2_rows(level, first, l1, _front(l2_buf, out)) if e2 or sigma != 0.0 else None
            _m_rows(w, l1, l2, e1, e2, sigma, mu, out, _front(tmp, out))
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite weight times 0 is NaN
        rr = vv @ m
    return _readonly(np.ldexp(rr[0], -k)), _readonly(np.ldexp(rr[1, 1::2], -k))


# `_row_functionals` for levels up to _ROW_CACHE_LEVEL: at most 512 entries
# of 399 + 199 doubles (level 5), 2.4 MB.
# Without it: cold suite +15 %; cold zeta-mix / param-sums / quad-cross draws +2 / -0 / +166 %.
_row_cache = memo(512)(_row_functionals)


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
    r, r_odd = (_row_cache if level <= _ROW_CACHE_LEVEL else _row_functionals)(*key)
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


def _level_loop(level_sums: Iterator[tuple[float, bool]], target_accuracy: float, limit: int) -> EvalResult:
    """Run a rule's levels, up to `limit`, until the level-doubling
    difference meets the target; `level_sums` yields `(sum, read from the row
    cache)` at levels `_MIN_LEVEL`, `_MIN_LEVEL + 1`, ..., each computed when
    it is asked for.  The result's `cutoff` is the final level's nodes per
    axis."""
    target = float(check_real(target_accuracy, "target accuracy", 0.0, strict=True))
    prev, hits = next(level_sums)
    for level in range(_MIN_LEVEL + 1, limit + 1):
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
    _log.debug(_STOP, limit, err, floor, hits, evaluated, "level-exhausted")
    return EvalResult(prev, err, _nodes(limit)[0].size, "float", False, ("level-exhausted",))


def triangle_quadrature(integrand: TriangleIntegrand, target_accuracy: float = 1e-10) -> EvalResult:
    """Integrate over the triangle; `cutoff` reports nodes per axis.

    The reported `tail_bound` is the last level-doubling difference (or the
    roundoff floor); failure to converge by `_MAX_LEVEL` is reported with
    `accuracy_met=False` and the flag `level-exhausted`, never hidden.
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

    return _level_loop(level_sums(), target_accuracy, _MAX_LEVEL)


def interval_quadrature(
    values: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray], target_accuracy: float = 1e-12
) -> EvalResult:
    """Integrate `f` over (0, 1), up to level `_INTERVAL_MAX_LEVEL`;
    `values(logx, log1mx, logweight)` returns already-weighted summands
    `f(x) * weight` (use the logs for stability).
    """

    level_sums = ((float(np.sum(values(*_nodes(level)))), False) for level in count(_MIN_LEVEL))
    return _level_loop(level_sums, target_accuracy, _INTERVAL_MAX_LEVEL)


def finite_difference_integral(
    argument: int, order: int, exponent: int, target_accuracy: float = 1e-12
) -> EvalResult:
    """The finite-difference factor as the Beta-weighted log moment
    `1/(exponent-1)! * integral_0^1 x^(argument-1) (1-x)^order (-log x)^(exponent-1) dx`,
    an independent cross-check of the series-engine closed form, for an
    order from 0 to 64 and an exponent from 1 to 64, the bounds of the
    factor (`PreconditionError` past them: `1/(exponent-1)!` leaves the
    float range at an exponent of 171).
    """
    check_int(argument, "argument", 1, error=PreconditionError)
    check_int(order, "order", 0, 64, error=PreconditionError)
    check_int(exponent, "exponent", 1, 64, error=PreconditionError)
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
#
# An integral is a term of a side like a spec (`identities.side`): the rule
# bound to its integrand, called with the term's accuracy when `make_check`
# evaluates the side.


def _integrals(integrands: Sequence[TriangleIntegrand], acc: float) -> list[list[Term]]:
    """One side per integrand, its integral to `acc`.  `triangle_quadrature`
    is looked up when a checker runs, so a wrapper bound in its place (a
    tracer's) is the one called."""
    return [[(1.0, partial(triangle_quadrature, f), acc)] for f in integrands]


def check_quad_anchor(acc: float = QUAD_ACCURACY, tolerance: float | None = None) -> IdentityCheck:
    """`t2^2` over the triangle equals the exact 3/4 and the telescoping
    series, the integral and the series each evaluated to `acc`."""
    series = _spec((1,), 2, first=(ShiftedPower(0, 1),))
    sides = (*_integrals((TriangleIntegrand(pow_t2=2),), acc), [(1.0, 0.75, 0.0)], [(1.0, series, acc)])
    return make_check("quad_anchor", {}, sides, tolerance)


def check_quad_zeta2(acc: float = 1e-10, tolerance: float | None = None) -> IdentityCheck:
    """Dimension-reduced 3-simplex integral against `k * k^-3` and the
    depth-one series of exponent 2, each side evaluated to `acc`."""
    series = _spec((3,), first=(RisingFactorial(1),))
    sides = ([(1.0, zeta2_simplex_value, acc)], [(1.0, series, acc)], [(1.0, _spec((2,)), acc)])
    return make_check("quad_zeta2", {}, sides, tolerance)


def check_quad_ones(
    m: int,
    n: int,
    acc: float = QUAD_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Both integral forms of the ones-prefix zeta against its series, each
    side evaluated to `acc`."""
    integrands = ones_integrands(m, n)
    # each of the m ones adds a log column to the series' tail expansion
    check_int(m, "m", 0, _MAX_LOG_POWER, error=PreconditionError)
    series = [(1.0, _spec((1,) * m + (n + 2,)), acc)]
    return make_check("quad_ones", {"m": m, "n": n}, (*_integrals(integrands, acc), series), tolerance)


def check_quad_blocks(
    p: int,
    q: int,
    r: int,
    ell: int,
    acc: float = QUAD_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Four-log-block integral against its composition sum of zetas, the
    integral evaluated to `acc` and the sum's terms to a share of it."""
    integrand = blocks_integrand(p, q, r, ell)
    # a spec begins with p ones, then a composition into r + 1 parts, as restricted_sum's does
    _check_prefix_lengths(p, 0, r)
    # the sum has C(q + r, r) terms, at most MAX_TERMS: a bound on q for r >= 1
    if comb(q + r, r) > MAX_TERMS:
        check_int(q, "q", 0, next(v for v in count() if comb(v + 1 + r, r) > MAX_TERMS), error=PreconditionError)
    terms = _ones_prefix_terms(p, q, r, acc, ell)
    sides = (*_integrals((integrand,), acc), terms)
    return make_check("quad_blocks", {"p": p, "q": q, "r": r, "ell": ell}, sides, tolerance, {"terms": len(terms)})


def check_quad_trunc(
    p: int,
    q: int,
    a: Real,
    r: int,
    acc: float = QUAD_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Direct and dual integral forms against the truncated series, each
    side evaluated to `acc`."""
    integrands = trunc_integrands(p, q, a, r)
    # the p positions but the last have exponent 1, each a log column of the tail expansion
    check_int(p, "p", 1, _MAX_LOG_POWER + 1, error=PreconditionError)
    series = [(1.0, _spec((1,) * p, a, last=(ShiftedPower(r, q),)), acc)]
    params = {"p": p, "q": q, "a": float(a), "r": r}
    return make_check("quad_trunc", params, (*_integrals(integrands, acc), series), tolerance)


def check_quad_threeway(
    p: int,
    q: int,
    r: int,
    m: Real,
    acc: float = QUAD_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """The three change-of-variable integrals against each other, each
    evaluated to `acc`; for integer `m` the three series of the matching
    three-way identity join the comparison, giving six mutually equal sides;
    an integral float `m` is taken as an int.
    """
    m = int(m) if isinstance(m, float) and m.is_integer() else m
    integrands = threeway_integrands(p, q, r, m)
    # an int `m` is not a bool, which `threeway_integrands` refuses
    series = _theorem3_sides(p, q, r, m, acc) if isinstance(m, int) else ()
    params = {"p": p, "q": q, "r": r, "m": m if isinstance(m, int) else float(m)}
    details = {"series_sides": 3} if series else {}
    return make_check("quad_threeway", params, (*_integrals(integrands, acc), *series), tolerance, details)


# the default fuzz box of each form spans its default grid; threeway's is
# integral, so every draw has the series sides of its integer `m`
QUAD_CHECKS: dict[str, IdentityInfo] = {
    "anchor": _product_info(check_quad_anchor, {}, {}),
    "zeta2": _product_info(check_quad_zeta2, {}, {}),
    "ones": _product_info(check_quad_ones, {"m": [0, 1], "n": [0, 1]}, {"m": (0, 1), "n": (0, 1)}),
    "blocks": _product_info(
        check_quad_blocks,
        {"p": [0, 1], "q": [0, 1], "r": [0, 1], "ell": [0, 1]},
        {"p": (0, 1), "q": (0, 1), "r": (0, 1), "ell": (0, 1)},
    ),
    "trunc": _product_info(
        check_quad_trunc,
        {"p": [1, 2], "q": [1, 2], "a": [-0.5, 0, 0.5, 1], "r": [0, 1, 2]},
        {"p": (1, 2), "q": (1, 2), "a": (-0.5, 1), "r": (0, 2)},
    ),
    "threeway": _product_info(
        check_quad_threeway,
        {"p": [0, 1], "q": [0, 1], "r": [0, 1], "m": [0, 1, 0.5]},
        {"p": (0, 1), "q": (0, 1), "r": (0, 1), "m": (0, 1)},
    ),
}
