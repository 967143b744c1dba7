"""Evaluation engine for parameterized truncated nested sums.

A nested-sum spec assigns to each summation position `i` (innermost first)
a bundle of factors of `k_i`.  The evaluated object is

    sum over 1 <= k_1 < k_2 < ... < k_d (<= N)  of  prod_i f_i(k_i)

where each `f_i` is a product of the supported factor kinds:

* ``ShiftedPower(shift, exponent)``  -> `(k + shift)^-exponent`, real shift > -1
* ``RisingFactorial(degree)``        -> `C(k + degree - 1, degree)`
* ``FiniteDifference(order, exponent)``
      -> `sum_{j=0}^{order} (-1)^j C(order, j) (k + j)^-exponent`

``ExtraPower(shift, exponent)`` builds the ``ShiftedPower`` of an integer
shift >= 0, the paper's additional factor `(k + r)^-q`.

Convergence bookkeeping.  Every factor has an integer effective decay
exponent (`exponent` for powers, `-degree` for the rising factorial,
`order + exponent` for the finite difference, by its `O(k^-(order+exponent))`
asymptotics).  Let `e_i` be the bundle total at position `i`.  Inner partial
sums grow like `k^t (ln k)^L` where `t, L` follow

    u = t + 1 - e_i:   u > 0 -> t = u;   u = 0 -> t = 0, L += 1;
                       u < 0 -> t = 0, L = 0.

The outermost terms then decay like `k^-s (ln k)^L` with
`s = e_d - t_{d-1}`; the sum converges iff `s >= 2`.

Accuracy.  Write `S_j(n)` for position `j`'s partial sum up to `n`
(`S_{-1} = 1`).  One scan, with Neumaier compensation (see `_kernels`),
gives every `S_j` at a cutoff `N` and at `N/2`.  `N` is 1,024, raised to
the next power of two of at least 64 times the spec's largest |shift| or
finite-difference order: the factor series converge like `(shift / N)^m`,
and so fast only once `N` is far past the shift.  A spec that would need
more than 2^24 terms is not scanned: a scan cut short could meet no
target, so its result is unmet at once, with value NaN, an infinite bound,
cutoff 2^24 and the `cutoff-exhausted` flag.  So the worst single
evaluation scans 2^24 terms at depth 64, 2^30 position-terms: about 18 s,
at 16 ns per position-term with the factors, on a 2-core machine.  Going
outward, each position gets an asymptotic expansion

    S_j(n) = C_j + G_j(n),   G_j(n) = sum c[o, l] n^-(r_j + o) (ln n)^l,

from three fixed linear maps on the `(o, l)` grid (Crandall, "Fast
evaluation of multiple zeta sums", Math. Comp. 67, 1998): the shift
`S_{j-1}(k - 1)` written in `k`, the product with the bundle's factor
series (built exactly, then rounded), and the Euler-Maclaurin sum.  Then
`C_j = S_j(N) - G_j(N)`, and the value is `C_d`: the limit, as `G_d`
vanishes at infinity.  Each grid keeps `_ORDERS` orders past its own lead,
so exponents up to 1024 and growth like `k^16` neither lose precision nor
overflow.  The reported `tail_bound` is derived, not fitted: the
compensated scan's roundoff (bounded factor by factor, `_roundoff_units`),
twice the last two orders of each expansion at `N` (the first omitted
order and the Euler-Maclaurin remainder), the roundoff of `S_j(N) - G_j(N)`,
and the inner positions' relative errors carried into the outer tail; and
it is never below `|value(N) - value(N/2)|`.  `accuracy_met` is
`tail_bound <= target`, and false for a spec past the 2^24 cap (the
`cutoff-exhausted` flag).  `mzv.reference` audits these bounds
against independent 45-digit MZVs.

Caching.  One scan serves every target, so a spec has one result, as an
object for targets its bound meets and one for those it does not.  Specs
share inner positions: the sides of an identity differ in their outer
parts.  Position `j`'s compensated prefixes over `k = 1..n` and its
expansion state depend only on the bundles `0..j` and on `n` (the nested
sums of Moch, Uwer and Weinzierl, J. Math. Phys. 43, 2002, are one shared
recursion), so one store, `_evaluate_cached`, keeps them, keyed by
`(bundles 0..j, n)` in a trie with one level per position.  A node holds
the state after its position: constant, lead, log columns and grid at `n`
and `n/2`, the running scan roundoff and inner relative error, and the
truncation bound of a spec that ends there; that spec and its results, once
it was evaluated; and the position's prefix row (read-only, 8 KiB at 1,024
terms) when the scan was one kernel block (`_BLOCK`, 2^14 terms) and some
spec extended the prefix past the position.  A spec's last position keeps
no row: the sides of an identity differ mostly in their last part, where
the additional factors and the parameter sit, so those rows are rarely
extended: in one benchmark run each, 2 of the 223 rows that quad-cross
stored for a spec's last position were, and 23 of 108 on zeta-mix.  An
index of the finished specs maps each to its nodes, so a repeated spec
costs one dictionary lookup and the LRU touch of its nodes: no scan
length, no trie walk, no convergence check, and the same object for the
same answer.  A spec, and each of its factors, computes its hash once,
when it is built, as the keys of the store and of every memo below; the
index entry goes when the spec's last node is evicted.  Any other spec is outlined (`_outline`: decay, log
degree, reach and flags in one pass over its bundles' facts), checked for
convergence (a divergent spec's inner positions may be stored for a
longer one) and scanned past the longest stored prefix.  The kernel scans
only the positions past the last stored node with a row, the first of them
multiplied by that row shifted one column, the product the kernel forms
itself, so every result is bit-identical to a scan from position 0,
whichever spec stored the prefix.  The stored nodes past that row keep
their states, and the rescan gives them the rows they lacked.  A scan of
more than one block stores its nodes without rows: they answer their own
specs, and a longer spec scans from position 0.  The store is an LRU of at
most 1.6 MB (`_PREFIX_BYTES`), each state counted with its arrays and its
Python objects (`_STATE_BYTES`), under one lock;
`mzv.clear_caches()` empties it and every memo.  Two threads that miss on one
spec may both scan it; the store keeps the first node stored, and the
results are bit-identical either way.  Column `i` of an expansion map
depends only on the input exponent `r = lead + i` and the log indices, so
the maps are cut from tiles: a tile holds the columns of 32 consecutive `r`
from a multiple of 16, each at its 16 output orders (the band of its maps'
order squares, which are zero elsewhere), at 4, 8 or 13 log columns, the
narrowest that covers the map, and each map is cut from one tile.  Tiles
(16 of each map) and maps (128 of each) are built lazily and kept in LRUs;
the Euler-Maclaurin map is kept with the powers of `n` and `ln n` that its
output grid is evaluated at (`_em_step`), as a step always asks for both.
Two things that depend only on a factor or a bundle are kept too.  A factor's
facts (`_factor`, 256 factors) are its series and its values over
`k = 1.._START_CUTOFF`, the length of most scans: a read-only row of 8 KiB,
from which each scan of at most that length cuts rows and multiplies them
into rows of its own; a longer scan computes its rows.  A bundle's facts
(`_bundle_facts`, 1,024 bundles) are its decay exponent, its series as the
Toeplitz matrix `_step` multiplies by (one gather of the series), its
reach and its slow flag.
One builder, `_spec`, makes the checkers' specs (an MZV's, or one with
the parameter added to every variable and additional factors at its first
and last part) and keeps the last 4,096, as the sides of many checks share
terms: a repeated term is the same object, found in the store by identity.
The store, in bytes, and these seven LRUs are in the package's cache
registry (`mzv._memo`), which `mzv.cache_stats()` reads; each states its
measured gain where it is made.

Each evaluation's stop decision (cutoff, value, the parts of its bound and
the number of positions it reused from the store) is logged at DEBUG level
under ``mzv.series``, and so is each tile build (the map, the `r` range, the
log columns, the bytes and the microseconds) and each scan longer than
`_START_CUTOFF` (the factor whose shift or finite-difference order set its
length, its position and that reach).
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, factorial, inf, isfinite, nan
from time import perf_counter
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from ._kernels import scan_block
from ._memo import memo, register
from .errors import AdmissibilityError, DivergentSeriesError, InvalidSpecError, check_int, check_real, shown
from .indices import MAX_DEPTH, MAX_EXPONENT, MzvIndex

__all__ = [
    "ShiftedPower",
    "ExtraPower",
    "RisingFactorial",
    "FiniteDifference",
    "PositionFactor",
    "NestedSumSpec",
    "EvalResult",
    "decay_model",
    "evaluate",
    "partial_sums",
    "evaluate_exact_truncated",
    "extrapolate_tail",
    "finite_difference_factor",
    "finite_difference_factor_exact",
    "mzv",
    "mzv_spec",
]

RISING_DEGREE_MAX = 16

_log = logging.getLogger("mzv.series")

Real = Union[int, float, Fraction]


@dataclass(frozen=True)
class ShiftedPower:
    """`(k + shift)^-exponent` with a real (possibly non-integer) shift > -1."""

    shift: Real
    exponent: int

    def __post_init__(self) -> None:
        check_real(self.shift, "shift", -1.0, strict=True)
        check_int(self.exponent, "exponent", 1, MAX_EXPONENT)
        # a factor keys the store and every per-bundle memo, so each factor
        # kind hashes once, to the value the dataclass would compute
        object.__setattr__(self, "_hash", hash((self.shift, self.exponent)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def effective_exponent(self) -> int:
        return self.exponent


def ExtraPower(shift: int, exponent: int) -> ShiftedPower:
    """`(k + shift)^-exponent` with an integer shift >= 0, as a `ShiftedPower`."""
    check_int(shift, "shift", 0)
    return ShiftedPower(shift, exponent)


@dataclass(frozen=True)
class RisingFactorial:
    """`C(k + degree - 1, degree)`, i.e. `k (k+1) ... (k+degree-1) / degree!`."""

    degree: int

    def __post_init__(self) -> None:
        check_int(self.degree, "degree", 0, RISING_DEGREE_MAX)
        object.__setattr__(self, "_hash", hash((self.degree,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def effective_exponent(self) -> int:
        return -self.degree


@dataclass(frozen=True)
class FiniteDifference:
    """`sum_j (-1)^j C(order, j) (k + j)^-exponent`, positive and `O(k^-(order+exponent))`."""

    order: int
    exponent: int

    def __post_init__(self) -> None:
        check_int(self.order, "order", 0, 64)
        # the Bell recurrence of `_fd_values` costs exponent^2 / 2 vector ops
        check_int(self.exponent, "exponent", 1, 64)
        object.__setattr__(self, "_hash", hash((self.order, self.exponent)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def effective_exponent(self) -> int:
        return self.order + self.exponent


PositionFactor = Union[ShiftedPower, RisingFactorial, FiniteDifference]

_FACTOR_KINDS = {
    ShiftedPower: "shifted-power",
    RisingFactorial: "rising-factorial",
    FiniteDifference: "finite-difference",
}


@dataclass(frozen=True)
class NestedSumSpec:
    """One factor bundle per summation position, innermost first."""

    factors: tuple[tuple[PositionFactor, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.factors, tuple):
            object.__setattr__(self, "factors", tuple(tuple(b) for b in self.factors))
        if len(self.factors) == 0:
            raise InvalidSpecError("spec needs at least one position")
        if len(self.factors) > MAX_DEPTH:
            raise InvalidSpecError(f"spec depth {len(self.factors)} exceeds {MAX_DEPTH}")
        for pos, bundle in enumerate(self.factors):
            if not isinstance(bundle, tuple) or len(bundle) == 0:
                raise InvalidSpecError(f"position {pos} needs a non-empty factor tuple")
            for f in bundle:
                if type(f) not in _FACTOR_KINDS:
                    raise InvalidSpecError(f"unsupported factor {f!r} at position {pos}")
        # a spec keys the store, so it hashes each bundle and factor once
        object.__setattr__(self, "_hash", hash(self.factors))

    def __hash__(self) -> int:
        return self._hash

    @property
    def depth(self) -> int:
        return len(self.factors)

    def as_dict(self) -> dict:
        return {"factors": [[_factor_to_json(f) for f in bundle] for bundle in self.factors]}

    @classmethod
    def from_dict(cls, data: dict) -> "NestedSumSpec":
        if not isinstance(data, dict) or "factors" not in data:
            raise InvalidSpecError("spec document must be an object with a 'factors' key")
        extra = set(data) - {"factors", "tail_log_power"}
        if extra:
            raise InvalidSpecError(f"unknown spec keys: {sorted(extra)}")
        # earlier versions wrote "tail_log_power": null into every spec
        retired = data.get("tail_log_power")
        if retired is not None:
            raise InvalidSpecError(f"'tail_log_power' is retired and must be null, got {shown(retired)}")
        bundles = data["factors"]
        if not isinstance(bundles, list) or not all(isinstance(b, list) for b in bundles):
            raise InvalidSpecError("'factors' must be a list of factor lists")
        factors = tuple(
            tuple(_factor_from_json(f) for f in bundle) for bundle in bundles
        )
        return cls(factors)


def _shift_to_json(shift: Real) -> object:
    if isinstance(shift, Fraction):
        return f"{shift.numerator}/{shift.denominator}"
    return shift


def _shift_from_json(value: object) -> Real:
    if isinstance(value, str):
        num, _, den = value.partition("/")
        try:
            return Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidSpecError(f"bad rational shift {shown(value)}") from exc
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise InvalidSpecError(f"bad shift value {shown(value)}")


def _factor_to_json(f: PositionFactor) -> dict:
    kind = _FACTOR_KINDS[type(f)]
    if isinstance(f, ShiftedPower):
        return {"kind": kind, "shift": _shift_to_json(f.shift), "exponent": f.exponent}
    if isinstance(f, RisingFactorial):
        return {"kind": kind, "degree": f.degree}
    return {"kind": kind, "order": f.order, "exponent": f.exponent}


def _factor_from_json(data: object) -> PositionFactor:
    if not isinstance(data, dict) or "kind" not in data:
        raise InvalidSpecError(f"factor must be an object with a 'kind', got {data!r}")
    kind = data["kind"]
    fields = {k: v for k, v in data.items() if k != "kind"}
    try:
        if kind == "shifted-power":
            if "shift" in fields:
                fields["shift"] = _shift_from_json(fields["shift"])
            return ShiftedPower(**fields)
        if kind == "extra-power":  # input alias: an integer shift >= 0
            return ExtraPower(**fields)
        if kind == "rising-factorial":
            return RisingFactorial(**fields)
        if kind == "finite-difference":
            return FiniteDifference(**fields)
    except TypeError as exc:
        raise InvalidSpecError(f"bad fields for factor kind {shown(kind)}: {exc}") from exc
    raise InvalidSpecError(f"unknown factor kind {shown(kind)}")


@dataclass(frozen=True, init=False)
class EvalResult:
    """A numeric value plus an honest account of how it was obtained.

    `mode` is one of:

    * ``"float"`` - plain compensated summation: the tail is below an ulp
      of the value (or could not be derived);
    * ``"float-extrapolated"`` - compensated partial sums plus the derived tail.

    `tail_bound` bounds `|value - limit|` for convergent targets;
    `accuracy_met` records whether the bound meets the requested target
    within the cutoff ceiling.
    """

    value: float
    tail_bound: float
    cutoff: int
    mode: str
    accuracy_met: bool = True
    flags: tuple[str, ...] = ()

    def __init__(
        self, value: float, tail_bound: float, cutoff: int, mode: str, accuracy_met: bool = True, flags: tuple[str, ...] = ()
    ) -> None:
        # the fields go straight into the instance dict: a frozen dataclass's
        # own `__init__` sets each through `object.__setattr__`, at more than
        # twice the cost, and every side of every check builds a result
        fields = self.__dict__
        fields["value"] = value
        fields["tail_bound"] = tail_bound
        fields["cutoff"] = cutoff
        fields["mode"] = mode
        fields["accuracy_met"] = accuracy_met
        fields["flags"] = flags

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "tail_bound": self.tail_bound,
            "cutoff": self.cutoff,
            "mode": self.mode,
            "accuracy_met": self.accuracy_met,
            "flags": list(self.flags),
        }


class _Outline(NamedTuple):
    """What the engine reads of a spec before it scans, from one pass over
    the facts of its bundles: the decay model `(s, log_power)`; the highest
    log degree of the expansions `_step` builds; the reach, the largest
    |shift| or finite-difference order, with the position and factor that
    set it (None for a reach of 0); and whether a shift lies within
    `_SLOW_SHIFT_MARGIN` of -1."""

    decay: tuple[int, int]
    log_degree: int
    reach: float
    widest: tuple[int, PositionFactor] | None
    slow: bool


def _outline(spec: NestedSumSpec) -> _Outline:
    """The outline of `spec` (see `_Outline`).  Each position updates the
    growth `t` of the sums it passes outward, as in the module docstring, and
    its expansion's lead and log columns: a summand lead of at most 1 adds a
    column, and a grid whose lead is past `_ORDERS` starts again from one."""
    t = logdeg = 0
    lead, logs, most = _ORDERS, 1, 1
    reach, widest, slow = 0.0, None, False
    for pos, facts in enumerate(map(_bundle_facts, spec.factors)):
        e = facts.exponent
        decay = e - t, logdeg  # the spec's, if this position is its last
        u = t + 1 - e
        t, logdeg = (u, logdeg) if u > 0 else (0, logdeg + 1) if u == 0 else (0, 0)
        h_lead, h_logs = (0, 1) if lead >= _ORDERS else (min(lead, 0), logs)
        s_lead = e + h_lead
        lead, logs = s_lead - 1, h_logs + (s_lead <= 1)
        most = max(most, logs)
        if facts.reach > reach:
            reach, widest = facts.reach, (pos, facts.widest)
        slow = slow or facts.slow
    return _Outline(decay, most - 1, reach, widest, slow)


def decay_model(spec: NestedSumSpec) -> tuple[int, int]:
    """Return `(s, log_power)`: outer terms decay like `k^-s (ln k)^log_power`.

    The series converges iff `s >= 2`.
    """
    return _outline(spec).decay


# The largest log degree an expansion of `_step` may reach.  Each log
# column widens its maps, so the cap bounds their size; it is the limit
# specs, configs and reports were written against.
_MAX_LOG_POWER = 12


def _log_degree(spec: NestedSumSpec) -> int:
    """The highest log degree of the expansions `_step` builds for `spec`."""
    return _outline(spec).log_degree


def _require_convergent(spec: NestedSumSpec, outline: _Outline | None = None) -> None:
    """Refuse a divergent spec, and one whose expansions pass the log cap;
    `outline` is the spec's, when the caller has it."""
    outline = outline or _outline(spec)
    s, _ = outline.decay
    if s < 2:
        raise DivergentSeriesError(
            f"nested sum diverges: outer terms decay like k^-{s} times logs "
            "(need exponent >= 2)"
        )
    if outline.log_degree > _MAX_LOG_POWER:
        raise InvalidSpecError(
            f"the tail expansion reaches (ln k)^{outline.log_degree}; the engine takes "
            f"log degrees up to {_MAX_LOG_POWER}"
        )


# ---------------------------------------------------------------------------
# float factor evaluation


def _fd_values(k: np.ndarray, order: int, exponent: int) -> np.ndarray:
    """Cancellation-free finite-difference values.

    Writing the factor as the Beta-weighted moment
    `FD = integral_0^1 x^(k-1) (1-x)^order (-ln x)^(exponent-1)/(exponent-1)! dx`,
    the cumulants of `-ln x` under that measure are
    `x_m = (m-1)! * sum_{i=0}^{order} (k+i)^-m`, all positive, so the moment
    follows from the complete Bell recurrence
    `Y_0 = 1, Y_{n+1} = sum_i C(n, i) x_{i+1} Y_{n-i}` as
    `FD = B * Y_{exponent-1} / (exponent-1)!` with
    `B = order! / (k (k+1) ... (k+order))`.  Every intermediate is positive.
    """
    if order == 0:
        return k ** float(-exponent)
    b = np.full_like(k, float(factorial(order)))
    for i in range(order + 1):
        b /= k + float(i)
    if exponent == 1:
        return b
    inv = [1.0 / (k + float(i)) for i in range(order + 1)]
    powers = list(inv)
    l_sums = [sum(powers)]
    for _ in range(exponent - 2):
        powers = [v0 * v1 for v0, v1 in zip(powers, inv)]
        l_sums.append(sum(powers))
    # cumulants x_{m} = (m-1)! * L_m; x[i] holds x_{i+1}
    x = [float(factorial(m)) * l_sums[m] for m in range(exponent - 1)]
    bell = [np.ones_like(k)]
    for n in range(exponent - 1):
        nxt = np.zeros_like(k)
        for i in range(n + 1):
            nxt += float(comb(n, i)) * x[i] * bell[n - i]
        bell.append(nxt)
    return b * bell[exponent - 1] / float(factorial(exponent - 1))


def _factor_values(f: PositionFactor, k: np.ndarray) -> np.ndarray:
    if isinstance(f, ShiftedPower):
        return (k + float(f.shift)) ** float(-f.exponent)
    if isinstance(f, RisingFactorial):
        if f.degree == 0:
            return np.ones_like(k)
        v = np.ones_like(k)
        for i in range(f.degree):
            v *= k + float(i)
        return v / float(factorial(f.degree))
    return _fd_values(k, f.order, f.exponent)


def _rows(spec: NestedSumSpec, lo: int, hi: int, start: int = 0) -> np.ndarray:
    """Factor rows of the positions from `start` over `k = lo+1..hi`, each
    bundle's factors multiplied left to right.  A row from `k = 1` of at most
    `_START_CUTOFF` terms is cut from the factor's memoised row: every
    factor kind is elementwise in `k`, so the cut has the same bits."""
    from_memo = lo == 0 and hi <= _START_CUTOFF
    k = None if from_memo else np.arange(lo + 1, hi + 1, dtype=np.float64)
    rows = np.empty((spec.depth - start, hi - lo))
    for row, bundle in zip(rows, spec.factors[start:]):
        values = [_factor(f).row[:hi] if from_memo else _factor_values(f, k) for f in bundle]
        row[:] = values[0]
        for v in values[1:]:
            row *= v
    return rows


# The widest block the scan kernel takes at once; its prefix buffer and work
# arrays are this wide.
_BLOCK = 1 << 14


def _scan(
    spec: NestedSumSpec, marks: Sequence[int], start: int = 0, inner: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The compensated sums of the positions from `start` at each of the
    ascending `marks`, row `i` at `marks[i]`, from one scan of
    `k = 1..marks[-1]` in blocks of at most `_BLOCK` columns, and the last
    block's prefixes (None for no block).

    Each block copies the marks that fall in it out of the kernel's prefixes,
    so no earlier block's buffer outlives it; a mark of 0 reads the zero
    start.  `inner`, position `start - 1`'s compensated prefixes over a scan
    of one block, stands in for the positions inside `start`: it multiplies
    position `start`'s factors shifted one column, led by the zero start,
    which is the product the kernel forms itself.
    """
    acc, comp = np.zeros((2, spec.depth - start))
    sums = np.zeros((len(marks), spec.depth - start))
    done = marks.count(0)
    prefixes = None
    lo = 0
    while done < len(marks):
        top = min(marks[-1], lo + _BLOCK)
        rows = _rows(spec, lo, top, start)
        if inner is not None:
            rows[0, 1:] *= inner[:-1]
            rows[0, 0] *= 0.0
        prefixes = scan_block(rows, acc, comp)
        while done < len(marks) and marks[done] <= top:
            sums[done] = prefixes[:, marks[done] - lo - 1]
            done += 1
        lo = top
    return sums, prefixes


def partial_sums(spec: NestedSumSpec, cutoffs: Sequence[int]) -> list[float]:
    """Compensated float partial sums at the given ascending cutoffs."""
    cuts = [check_int(c, "cutoff", 0) for c in cutoffs]
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise InvalidSpecError("cutoffs must be strictly ascending")
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite sum
        return _scan(spec, cuts)[0][:, -1].tolist()


# ---------------------------------------------------------------------------
# tail extrapolation as a standalone operation


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _fit_window(log_power: int) -> int:
    return 2 * (log_power + 1) + 11


def _fit_tail(ns: np.ndarray, ss: np.ndarray, s: int, log_power: int) -> float:
    """Least-squares limit of the tail model on the trailing checkpoint window.

    Model blocks: `N^(1-s) * z^j` and `N^-s * z^j` for `j <= log_power`,
    with `z` the centered and scaled `ln N`.  Rows are weighted by
    `(N / N_max)^2` so the asymptotic regime dominates the fit; the second
    block is dropped, then the log degree lowered, when points run short.
    """
    window = min(len(ns), _fit_window(log_power))
    na = ns[-window:]
    deg = log_power
    blocks = 2
    while 1 + blocks * (deg + 1) > window:
        if blocks == 2:
            blocks = 1
        elif deg > 0:
            deg -= 1
        else:
            break
    z = np.log(na)
    z = z - z.mean()
    scale = np.abs(z).max()
    if scale > 0:
        z = z / scale
    cols = [np.ones(window)]
    for extra in range(blocks):
        base = (na / na[-1]) ** float(-(s - 1 + extra))
        for j in range(deg + 1):
            cols.append(base * z**j)
    weights = (na / na[-1]) ** 2.0
    design = np.array(cols).T * weights[:, None]
    coef, *_ = np.linalg.lstsq(design, ss[-window:] * weights, rcond=None)
    return float(coef[0])


def extrapolate_tail(
    cutoffs: Sequence[int],
    partials: Sequence[float],
    decay_exponent: int,
    max_log_power: int = 0,
) -> EvalResult:
    """Extrapolate compensated partial sums to their limit by a least-squares
    fit of `S(N) ~ S_inf - N^(1-s) P_L(ln N) - N^-s Q_L(ln N)`.

    `evaluate` does not use it: it derives the tail instead.  Needs at least
    three strictly ascending cutoffs whose partial sums are nondecreasing
    (all supported factor kinds are positive, so a decrease signals a broken
    caller).  The tail bound is four times the change of the fitted limit
    when the last point is withheld, plus a one-ulp-per-term roundoff
    allowance; it is an estimate, not a derived bound.
    """
    ns = [int(c) for c in cutoffs]
    ss = [float(v) for v in partials]
    if len(ns) != len(ss):
        raise InvalidSpecError("cutoffs and partials must have equal length")
    if len(ns) < 3:
        raise InvalidSpecError("need at least three partial sums to extrapolate")
    if any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise InvalidSpecError("cutoffs must be strictly ascending positive integers")
    if any(not isfinite(v) for v in ss):
        raise InvalidSpecError("partial sums must be finite")
    if any(b < a for a, b in zip(ss, ss[1:])):
        raise InvalidSpecError(
            "partial sums decreased; nested sums of the supported factors "
            "are nondecreasing, so the inputs are inconsistent"
        )
    check_int(decay_exponent, "decay_exponent", 2)
    check_int(max_log_power, "max_log_power", 0)
    if ss[-1] == ss[0]:
        return EvalResult(ss[-1], 0.0, ns[-1], "float")
    na = np.array(ns, dtype=np.float64)
    sa = np.array(ss, dtype=np.float64)
    full = _fit_tail(na, sa, decay_exponent, max_log_power)
    prev = _fit_tail(na[:-1], sa[:-1], decay_exponent, max_log_power)
    bound = 4.0 * abs(full - prev) + ns[-1] * 2.0**-52 * abs(full)
    return EvalResult(full, bound, ns[-1], "float-extrapolated")


# ---------------------------------------------------------------------------
# the derived tail: asymptotic expansions on an (order, log) grid
#
# An expansion is a lead `r0` and a grid `c[o, l]` of shape (_ORDERS, logs)
# standing for  sum_{o, l} c[o, l] n^-(r0 + o) (ln n)^l.  The maps below
# act on the flattened grid.  Column `i` of a map depends only on the input
# exponent `r = r0 + i` and the log indices, so the columns are built in
# tiles over consecutive `r` and each map, at a lead and a number of log
# columns, is a slice of one tile; maps and tiles are built once, in float,
# and shared read-only.

# Orders each expansion keeps past its own lead.  At the shortest scan
# (64 terms, a shift of at most a sixty-fourth of it) the first omitted
# order is below 2^-96 of the lead term.
_ORDERS = 16

_GAP = np.subtract.outer(np.arange(_ORDERS), np.arange(_ORDERS))  # _GAP[a, b] = a - b

# A series `c` padded with one zero, `np.append(c, 0.0)`, gathered at this
# index is its lower-triangular Toeplitz matrix: `c[a - b]`, zero above the diagonal.
_TOEPLITZ = np.where(_GAP >= 0, _GAP, _ORDERS)

# `B_2p / (2p)!` for `p = 1, ..., 8`: the Euler-Maclaurin weights of the odd derivatives
_EM_WEIGHTS = (
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000, 1 / 74724249600,
    -3617 / 10670622842880000,
)

# A tile holds the columns of `2 * _ORDERS` consecutive exponents `r` from a
# multiple of `_ORDERS`, so the `_ORDERS` columns of any map lie in one tile
# (see `_from_tile`).  Its log columns are the narrowest of these widths that
# covers the map's: a wider tile costs more to build and to keep, and the
# widest is the log cap's.
_TILE_WIDTHS = (4, 8, _MAX_LOG_POWER + 1)


def _ratio(num: int, den: int) -> float:
    """`num / den` correctly rounded, as `float(Fraction(num, den))`, and
    infinite past the float range (a shift far past _MAX_CUTOFF; the scan
    length is capped)."""
    try:
        return num / den
    except OverflowError:
        return float("inf") if num > 0 else float("-inf")


class _Factor(NamedTuple):
    """What the engine reads of one factor: `lead` and `series`, with
    `f(k) = sum_m series[m] k^-(lead + m)`, and `row`, its values over
    `k = 1.._START_CUTOFF`, the length of most scans (both read-only)."""

    lead: int
    series: np.ndarray
    row: np.ndarray


# At most 256 factors, each with a row of 8 KiB: 2 MiB.
# Without it: cold suite +47 %; cold zeta-mix / param-sums / quad-cross draws +11 / +56 / +13 %.
@memo(256)
def _factor(f: PositionFactor) -> _Factor:
    """The facts of `f` (see `_Factor`).  The series is built exactly and
    rounded once:

    * `(k + a)^-x = sum_m C(-x, m) a^m k^-(x + m)`;
    * the rising factorial is a polynomial of degree `d` in `k`;
    * the finite difference is `sum_m C(-x, m) k^-(x + m) sum_i (-1)^i C(o, i) i^m`,
      whose inner sums vanish below `m = o`, so no float cancels.
    """
    if isinstance(f, ShiftedPower):
        num, den = f.shift.as_integer_ratio()
        lead = f.exponent
        exact = [((-num) ** m * comb(f.exponent + m - 1, m), den**m) for m in range(_ORDERS)]
    elif isinstance(f, RisingFactorial):
        poly = [1]  # k(k+1)...(k+d-1), highest power first
        for i in range(f.degree):
            poly = [p + i * q for p, q in zip(poly + [0], [0] + poly)]
        lead = -f.degree
        exact = [(c, factorial(f.degree)) for c in poly[:_ORDERS]]
    else:
        o, x = f.order, f.exponent
        lead = o + x
        exact = [
            ((-1) ** (o + m) * comb(x + o + m - 1, o + m) * sum((-1) ** i * comb(o, i) * i ** (o + m) for i in range(o + 1)), 1)
            for m in range(_ORDERS)
        ]
    c = np.zeros(_ORDERS)
    c[: len(exact)] = [_ratio(num, den) for num, den in exact]
    # the row is built for every factor an outline reads, scanned or not, so
    # a value past the float range shows in the result, not as a warning
    with np.errstate(all="ignore"):
        row = _factor_values(f, np.arange(1, _START_CUTOFF + 1, dtype=np.float64))
    return _Factor(lead, _readonly(c), _readonly(row))


class _BundleFacts(NamedTuple):
    """What the engine reads of a factor bundle: its effective decay
    exponent, which is the lead of its series; that series as the
    lower-triangular Toeplitz matrix that multiplies a grid by it, order by
    order (read-only); its reach, the largest |shift| or finite-difference
    order of its factors, and the first factor with that reach (None for a
    reach of 0); and whether a shift lies within `_SLOW_SHIFT_MARGIN` of -1."""

    exponent: int
    toeplitz: np.ndarray
    reach: float
    widest: PositionFactor | None
    slow: bool


# Without it: cold suite +18 %; cold zeta-mix / param-sums / quad-cross draws +11 / +13 / +5 %.
@memo(1024)
def _bundle_facts(bundle: tuple[PositionFactor, ...]) -> _BundleFacts:
    """The facts of a bundle, built once (see `_BundleFacts`)."""
    lead, series, _ = _factor(bundle[0])
    for f in bundle[1:]:
        f_lead, c, _ = _factor(f)
        lead += f_lead
        series = np.convolve(series, c)[:_ORDERS]
    reach, widest, slow = 0.0, None, False
    for f in bundle:
        if isinstance(f, ShiftedPower):
            shift = float(f.shift)
            slow = slow or shift <= -1.0 + _SLOW_SHIFT_MARGIN
            if abs(shift) > reach:
                reach, widest = abs(shift), f
        elif isinstance(f, FiniteDifference) and f.order > reach:
            reach, widest = float(f.order), f
    return _BundleFacts(lead, _readonly(np.append(series, 0.0)[_TOEPLITZ]), reach, widest, slow)


def _as_tile(name: str, start: int, columns: np.ndarray, began: float) -> np.ndarray:
    """The tile of a map's `columns[j, q, l', l]`, the column of the input
    exponent `r = start + j` at its output order `q` and log `l'`, stored
    as given: the band of the map's order square (see `_from_tile`)."""
    size, _, _, width = columns.shape
    _log.debug(
        "%s tile: r %d..%d, %d log columns, %d bytes, %.0f us",
        name, start, start + size - 1, width, columns.nbytes, (perf_counter() - began) * 1e6,
    )
    return _readonly(columns)


# Without it: cold suite +0 %; cold zeta-mix / param-sums / quad-cross draws +12 / +5 / +3 %.
@memo(16)
def _shift_tile(start: int, width: int) -> np.ndarray:
    """The shift map's tile from `start`: its columns `S[j, q, l - t, l]`
    hold what it makes of the input term `n^-r (ln n)^l`, `r = start + j`,
    at output order `r + q`:

        (k-1)^-r ln(k-1)^l = k^-r (1-u)^-r sum_t C(l, t) ln(1-u)^t (ln k)^(l-t),  u = 1/k.
    """
    began = perf_counter()
    n, size = _ORDERS, 2 * _ORDERS
    r = np.arange(start, start + size, dtype=np.float64)
    binom = np.ones((size, n))  # binom[j, m]: the coefficient of u^m in (1-u)^-r
    for m in range(1, n):
        binom[:, m] = binom[:, m - 1] * (r + m - 1) / m
    lam = np.zeros((width, n))  # lam[t, m]: the coefficient of u^m in ln(1-u)^t
    lam[0, 0] = 1.0
    for t in range(1, width):
        lam[t, 1:] = -np.convolve(lam[t - 1], 1.0 / np.arange(1, n))[: n - 1]
    toeplitz = np.where(_GAP.T >= 0, lam[:, _GAP.T.clip(0)], 0.0)  # [t, m, q] = lam[t, q - m]
    series = binom @ toeplitz  # [t, j, q]: (1-u)^-r ln(1-u)^t, up to u^q
    t, l = np.nonzero(np.arange(width)[:, None] <= np.arange(width))
    binoms = np.array([comb(b, a) for a, b in zip(t, l)], dtype=np.float64)
    columns = np.zeros((size, n, width, width))
    columns[:, :, l - t, l] = binoms * np.moveaxis(series[t], 0, -1)
    return _as_tile("shift", start, columns, began)


# Without it: cold suite +7 %; cold zeta-mix / param-sums / quad-cross draws +39 / +11 / -2 %.
@memo(16)
def _em_tile(start: int, width: int) -> np.ndarray:
    """The Euler-Maclaurin map's tile from `start`: its columns
    `E[j, q, l', l]` hold what it makes of the summand term `n^-r (ln n)^l`,
    `r = start + j`, at output order `r - 1 + q` and log `l'` (of
    `width + 1`: a term of order 1 integrates to one more log):

        sum_{k<=n} g(k) = C + integral^n g + g(n)/2 + sum_p B_2p/(2p)! g^(2p-1)(n).

    The output's order-0, log-0 entry belongs to the constant and is left out.
    """
    began = perf_counter()
    n, size, rows = _ORDERS, 2 * _ORDERS, width + 1
    r = np.arange(start, start + size)
    columns = np.zeros((size, n, rows, width))
    # d[j, s, l', l]: D^s of the input term (j, l), which sits at output order q = 1 + s;
    # D x^-r (ln x)^l = -r x^-(r+1) (ln x)^l + l x^-(r+1) (ln x)^(l-1)
    d = columns[:, 1:]
    d[:, 0, range(width), range(width)] = 1.0
    lower = np.arange(1.0, rows)[:, None]
    for step in range(1, n - 1):
        d[:, step, :-1] = lower * d[:, step - 1, 1:]
        d[:, step] -= (r + float(step - 1))[:, None, None] * d[:, step - 1]
    weights = np.zeros(n - 1)  # g(n)/2, then B_2p/(2p)! for D^(2p-1)
    weights[0] = 0.5
    weights[1::2] = _EM_WEIGHTS[: len(weights[1::2])]
    d *= weights[:, None, None]
    # integral x^-r (ln x)^l = x^(1-r) sum_t (-1)^t l!/(l-t)! (ln x)^(l-t) / (1-r)^(t+1),
    # and (ln x)^(l+1) / (l+1) at r = 1
    base = np.where(r == 1, 1.0, 1.0 - r)[:, None]
    logs = np.arange(width)
    coef = np.empty((size, width, width))  # coef[j, t, l]: the term of (ln x)^(l-t)
    coef[:, 0] = np.where(r == 1, 0.0, 1.0 / base[:, 0])[:, None]
    for t in range(1, width):
        coef[:, t] = coef[:, t - 1] * (-(logs - t + 1) / base)
    t, l = np.nonzero(logs[:, None] <= logs)
    columns[:, 0, l - t, l] += coef[:, t, l]
    if start <= 1 < start + size:
        columns[1 - start, 0, logs + 1, logs] += 1.0 / (logs + 1)
    constant = np.nonzero((r <= 1) & (1 - r < n))[0]  # the output order of n^0
    columns[constant, 1 - r[constant], 0] = 0.0
    return _as_tile("em", start, columns, began)


def _from_tile(tile_of: Callable[[int, int], np.ndarray], lead: int, logs: int, out_logs: int) -> np.ndarray:
    """A map at `lead` from grids of `logs` log columns to grids of
    `out_logs`, flattened `[(o, l'), (i, l)]`: cut from the tile that holds
    it, whose column `offset + i` (`offset = lead % _ORDERS`) at output
    order `o - i` is the map's `[o, :, i, :]` for `o >= i`; a map takes an
    input term to its own order and later ones only, so the rest is zero."""
    offset = lead % _ORDERS
    tile = tile_of(lead - offset, next(w for w in _TILE_WIDTHS if w >= logs))
    size, _, rows, width = tile.shape
    column, order, log_out, log_in = tile.strides
    # the order square of the tile's maps, `square[j + q, l', j, l] = tile[j, q, l', l]`,
    # as a view; above a map's diagonal it reads other columns, which are zeroed
    square = np.ndarray((size, rows, size, width), tile.dtype, tile, 0, (order, log_out, column - order, log_in))
    block = np.ascontiguousarray(square[offset : offset + _ORDERS, :out_logs, offset : offset + _ORDERS, :logs])
    by_order = block.reshape(_ORDERS, out_logs, _ORDERS * logs)
    np.copyto(by_order, 0.0, where=np.repeat(_GAP < 0, logs, axis=1)[:, None])  # input column i > o
    return _readonly(block.reshape(_ORDERS * out_logs, _ORDERS * logs))


# Without it: cold suite +13 %; cold zeta-mix / param-sums / quad-cross draws +9 / +13 / +5 %.
@memo(128)
def _shift_table(lead: int, logs: int) -> np.ndarray:
    """The map from an expansion in `n` to the same function at `n = k - 1`,
    expanded in `k` at the same lead (see `_shift_tile`)."""
    return _from_tile(_shift_tile, lead, logs, logs)


# Without it: cold suite +31 %; cold zeta-mix / param-sums / quad-cross draws +15 / +35 / +12 %.
@memo(128)
def _em_step(lead: int, logs: int, n: int) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """`(E, out_logs, root, logp)`: the Euler-Maclaurin map from a summand's
    grid at `lead` to the non-constant part of its partial sums, at
    `lead - 1` (see `_em_tile`), with `out_logs = logs + 1` when the summand
    grid reaches order 1; and, flattened like that grid, `[(o, l), cutoff]`,
    `n^-(lead-1+o) (ln n)^l = root[o, l]^2 logp[o, l]` at `(n, n // 2)`.  The
    square root keeps a large growth from overflowing before it meets its
    small coefficient; both are as large as a grid, so nothing broadcasts."""
    out_logs = logs + (lead <= 1)
    ns = np.array((n, n // 2), dtype=np.float64)
    orders = lead - 1 + np.arange(_ORDERS, dtype=np.float64)
    root = ns[None, None, :] ** (-0.5 * orders)[:, None, None]
    logp = np.log(ns)[None, None, :] ** np.arange(out_logs, dtype=np.float64)[None, :, None]
    root = np.repeat(root, out_logs, axis=1).reshape(_ORDERS * out_logs, 2)
    logp = np.tile(logp, (_ORDERS, 1, 1)).reshape(_ORDERS * out_logs, 2)
    return _from_tile(_em_tile, lead, logs, out_logs), out_logs, _readonly(root), _readonly(logp)


def _roundoff_units(f: PositionFactor, cutoff: int) -> int:
    """A bound, in units of 2^-53, on the relative error of `_factor_values(f)`
    for `k <= cutoff`."""
    if isinstance(f, ShiftedPower):
        # libm pow is within one ulp; a base `k + shift` that float does not
        # hold exactly is amplified by the exponent
        num, den = f.shift.as_integer_ratio()
        exact = den & (den - 1) == 0 and abs(num) + cutoff * den < 2**53
        return 4 if exact else 2 * f.exponent + 4
    if isinstance(f, RisingFactorial):
        return f.degree + 2
    # the positive products, sums and Bell recurrence of `_fd_values`
    return (f.exponent + 1) * (f.exponent + f.order + 4)


_UNIT = 2.0**-53


class _State:
    """The expansion after one position of a scan of `n` terms, which
    depends only on the bundles up to it and on `n`: `constant` and `grid`
    at the cutoffs `(n, n // 2)` (the last grid axis), `lead` and `logs`,
    the position's sum at `n`, the running `scan_units` and `inner_rel`
    (the relative error it carries outward as an inner position), and the
    truncation part of the bound of a spec that ends at the position.  A
    stored state also holds the states of the positions past it,
    `children`, keyed by bundle; the position's compensated prefixes over
    `k = 1..n`, `row`, when the scan was one block and a spec extended the
    prefix past the position; and, once a spec that ends at it was
    evaluated, that `spec` and its `results`."""

    __slots__ = (
        "constant", "lead", "logs", "grid", "sum_n", "scan_units", "inner_rel", "truncation", "row", "children",
        "spec", "results",
    )

    def __init__(self, constant, lead, logs, grid, sum_n, scan_units, inner_rel, truncation) -> None:
        self.constant, self.lead, self.logs, self.grid = constant, lead, logs, grid
        self.sum_n, self.scan_units, self.inner_rel, self.truncation = sum_n, scan_units, inner_rel, truncation
        self.row: np.ndarray | None = None
        self.children: dict = {}
        self.spec: NestedSumSpec | None = None
        self.results: tuple[EvalResult, EvalResult] | None = None

    @property
    def nbytes(self) -> int:
        row = 0 if self.row is None else self.row.nbytes
        return _STATE_BYTES + row + self.grid.nbytes + self.constant.nbytes


# A stored state's Python objects (state, children, array headers, LRU and
# index entries, results): what `cache_clear()` frees under tracemalloc, less
# the arrays' data, is 1.24 KB a state after a cold pass of each benchmark
# draw and 1.37 KB after the cold packaged suite.
_STATE_BYTES = 1280


# S_{-1} = 1: a constant, and a G whose lead is past any grid
_EMPTY = _State(_readonly(np.ones(2)), _ORDERS, 1, None, 1.0, 0, 0.0, 0.0)


def _step(state: _State, bundle: tuple[PositionFactor, ...], sums: np.ndarray, n: int) -> _State:
    """Run the expansion of one position from the state after the positions
    inside it and the position's scanned sums `sums` at `n` and `n // 2`."""
    constant, lead, logs, grid = state.constant, state.lead, state.logs, state.grid
    # H(k) = S_{j-1}(k - 1) = C_{j-1} + G_{j-1}(k - 1), at lead min(lead, 0);
    # grid is G_{j-1} flattened: [(o, l), cutoff]
    if lead >= _ORDERS:
        h_lead, h = 0, np.zeros((_ORDERS, 1, 2))
        h[0, 0] = constant
    else:
        shifted = (_shift_table(lead, logs) @ grid).reshape(_ORDERS, logs, 2)
        if lead > 0:
            h_lead, h = 0, np.zeros((_ORDERS, logs, 2))
            h[lead:] = shifted[: _ORDERS - lead]
            h[0, 0] = constant
        else:
            h_lead, h = lead, shifted
            if -lead < _ORDERS:
                h[-lead, 0] += constant
    facts = _bundle_facts(bundle)
    s_lead = facts.exponent + h_lead
    summand = facts.toeplitz @ h.reshape(_ORDERS, -1)
    em, logs, root, logp = _em_step(s_lead, h.shape[1], n)
    grid = em @ summand.reshape(-1, 2)
    lead = s_lead - 1
    terms = grid * root
    terms *= root
    terms *= logp
    constant = sums - np.add.reduce(terms, axis=0)
    # this position's share of the bound, at n
    sum_n = float(sums[0])
    size = np.add.reduce(np.abs(terms[:, 0]).reshape(_ORDERS, logs), axis=1)
    total = float(np.add.reduce(size))
    own = 2.0 * float(size[-2] + size[-1]) + 2 * _UNIT * (abs(sum_n) + 4 * _ORDERS * total)
    truncation = own + (state.inner_rel * total if total else 0.0)
    # the bound of `_roundoff_units` for what the position adds to its partial
    # sums: its factors, their products, the product with the inner sum, and
    # the compensated sum
    units = sum(_roundoff_units(f, n) + 1 for f in bundle) + 3
    inner_rel = state.inner_rel
    if own:
        inner_rel += own / abs(sum_n) if sum_n else float("inf")
    inner_rel += units * _UNIT
    return _State(
        _readonly(constant), lead, logs, _readonly(grid), sum_n, state.scan_units + units, inner_rel, truncation
    )


# ---------------------------------------------------------------------------
# evaluation


# The scan length before the shift rule of `_scan_length` raises it, and the
# cap on that rule (see the module docstring); the cap is a power of two.
_START_CUTOFF = 1 << 10
_MAX_CUTOFF = 1 << 24


def _scan_length(spec: NestedSumSpec, outline: _Outline | None = None) -> tuple[int, bool]:
    """`(n, capped)`: the scan length for a spec, and whether `_MAX_CUTOFF`
    cut it; `outline` is the spec's, when the caller has it.  A scan longer
    than `_START_CUTOFF` is logged at DEBUG level with the factor whose
    reach set it."""
    outline = outline or _outline(spec)
    reach = outline.reach
    if 64.0 * reach > _MAX_CUTOFF:  # tested before `ceil`, which an infinite product overflows
        n, capped = _MAX_CUTOFF, True
    else:
        need = ceil(64.0 * reach)
        if need <= _START_CUTOFF:
            return _START_CUTOFF, False
        n, capped = 1 << (need - 1).bit_length(), False  # within the cap, a power of two
    position, factor = outline.widest
    _log.debug(
        "%s: scan length %d%s, set by %r at position %d, reach %r",
        spec, n, " (capped)" if capped else "", factor, position, reach,
    )
    return n, capped


# Shifts within this margin of -1 are flagged: the first term `(1 + shift)^-e` dwarfs the rest.
_SLOW_SHIFT_MARGIN = 1e-3


def _results(spec: NestedSumSpec, n: int, slow: bool, last: _State, reused: int) -> tuple[EvalResult, EvalResult]:
    """The results of a spec whose last position's state is `last`, for a
    target its bound meets and for one it does not (the same object for a
    non-finite bound); `slow` flags a shift near -1."""
    (value, half_value), partial = last.constant.tolist(), last.sum_n
    scan, truncation = last.scan_units * _UNIT * abs(partial), last.truncation
    halving = abs(value - half_value)
    bound = max(scan + truncation, halving)
    mode = "float" if value == partial else "float-extrapolated"
    flags = ("slow-convergence",) if slow else ()
    if not (isfinite(value) and isfinite(bound)):
        value, bound, mode = partial, float("inf"), "float"
    _log.debug(
        "%s: cutoff %d, value %r, bound %r (scan %r, truncation %r, halving %r), prefix %d of %d positions reused",
        spec, n, value, bound, scan, truncation, halving, reused, spec.depth,
    )
    unmet = EvalResult(value, bound, n, mode, False, flags)
    if not isfinite(bound):
        return unmet, unmet
    return EvalResult(value, bound, n, mode, True, flags), unmet


# Bytes the store keeps, least recently used evicted first, each state
# counted with its Python objects (`_STATE_BYTES`): 1.6 MB, some 450 states
# of 1,024-term scans after the packaged suite, 90 of them with rows of
# 8 KiB, about as many as 1 MiB of their arrays alone held.
_PREFIX_BYTES = 1_600_000


class _PrefixStore:
    """The evaluation cache: a bounded LRU of `_State`s keyed by
    `(n, bundle_0, ..., bundle_j)`, a trie with one root per scan length, so
    a lookup hashes each bundle once, and an index of the finished specs,
    each to the stored states of its positions, the last holding its
    results.  Called as `(spec, target)`, it answers a finished spec from
    its index entry alone; any other spec it looks up in the trie and scans
    only the positions past the longest stored prefix.

    A state is touched after the states past it, so it is always more
    recent than they are, and the least recently used state has none.  So
    while the last state of a finished spec is stored, all of its states
    are, and its index entry goes when that state is evicted."""

    def __init__(self) -> None:
        self._roots: dict[int, dict] = {}
        self._lru: OrderedDict[_State, tuple[dict, tuple]] = OrderedDict()  # state -> (its dict, its bundle)
        self._finished: dict[NestedSumSpec, tuple[_State, ...]] = {}
        self._lock = threading.Lock()
        self.nbytes = 0

    def __call__(self, spec: NestedSumSpec, target: float) -> EvalResult:
        with self._lock:
            try:
                path = self._finished.get(spec)
            except TypeError:  # unhashable, so no spec: refused below
                path = None
            if path is not None:
                for state in reversed(path):
                    self._lru.move_to_end(state)
                met, unmet = path[-1].results
        if path is None:
            if not isinstance(spec, NestedSumSpec):
                raise InvalidSpecError(f"can only evaluate a NestedSumSpec, got {shown(spec)}")
            outline = _outline(spec)
            n, capped = _scan_length(spec, outline)
            found = self._lookup(spec.factors, n)
            # a spec is finished only once it was found convergent, so
            # every other lookup checks
            _require_convergent(spec, outline)
            if capped:
                # a scan the cap cuts short is unmet whatever it finds (module
                # docstring), so none is run and nothing is stored
                _log.debug("evaluate %s target %g: capped at %d terms, not scanned", spec, target, n)
                flags = ("slow-convergence",) if outline.slow else ()
                return EvalResult(nan, inf, n, "float", False, flags + ("cutoff-exhausted",))
            _log.debug("evaluate %s target %g: cold", spec, target)
            met, unmet = self._evaluate(spec, n, outline.slow, found)
        elif _log.isEnabledFor(logging.DEBUG):  # one call, not two, when not logging
            _log.debug("evaluate %s target %g: cache", spec, target)
        return met if met.tail_bound <= target and met.accuracy_met else unmet

    def _evaluate(self, spec: NestedSumSpec, n: int, slow: bool, path: list[_State]) -> tuple[EvalResult, EvalResult]:
        """Scan the positions of `spec` past `path`, its longest stored
        prefix, store their states, index the spec and return the results
        that the state ending the spec keeps.  The scan starts past the last
        stored state with a row, so the stored states after it (each the
        last of some spec, or of a scan of more than one block, which keeps
        no rows) are scanned again for their rows alone; the rows of the
        spec's inner positions are stored, as a longer spec extends them."""
        start = len(path)
        if start < spec.depth:
            first = start
            while first and path[first - 1].row is None:
                first -= 1
            with np.errstate(all="ignore"):  # an overflow shows as a non-finite value or bound
                sums, prefixes = _scan(spec, (n // 2, n), first, path[first - 1].row if first else None)
                # sums[::-1].T is [position, cutoff], at (n, n // 2)
                for bundle, pair in zip(spec.factors[start:], sums[::-1].T[start - first :]):
                    path.append(_step(path[-1] if path else _EMPTY, bundle, pair, n))
            rows = [_readonly(row.copy()) for row in prefixes[:-1]] if n <= _BLOCK else []
            path = self._store(spec.factors, n, path, first, rows)
        last = path[-1]
        results = last.results or _results(spec, n, slow, last, start)
        with self._lock:  # the first results attached are kept, as the first states stored are
            if last.results is None:
                last.spec, last.results = spec, results
            if last in self._lru:  # not evicted since it was stored
                self._finished[spec] = tuple(path)
        return last.results

    def _lookup(self, factors: tuple, n: int) -> list[_State]:
        """The stored states of the longest stored prefix of `factors` at `n`."""
        path = []
        with self._lock:
            children = self._roots.get(n, {})
            for bundle in factors:
                state = children.get(bundle)
                if state is None:
                    break
                path.append(state)
                children = state.children
            for state in reversed(path):
                self._lru.move_to_end(state)
        return path

    def _store(self, factors: tuple, n: int, path: list[_State], first: int, rows: list[np.ndarray]) -> list[_State]:
        """Store the states of the positions of `factors` at `n`, keeping any
        state already stored for the same prefix, give the kept states of
        the positions from `first` the `rows` they lack, then evict; return
        the states kept."""
        with self._lock:
            children = self._roots.setdefault(n, {})
            kept = []
            for position, (bundle, state) in enumerate(zip(factors, path)):
                state = children.setdefault(bundle, state)
                if state.row is None and first <= position < first + len(rows):
                    state.row = rows[position - first]
                    if state in self._lru:
                        self.nbytes += state.row.nbytes
                if state not in self._lru:  # just stored: new, or evicted since the lookup
                    state.children = {}  # a state stored before a `cache_clear` may still hold some
                    self._lru[state] = (children, bundle)
                    self.nbytes += state.nbytes
                kept.append(state)
                children = state.children
            for state in reversed(kept):
                self._lru.move_to_end(state)
            while self.nbytes > _PREFIX_BYTES:
                state, (home, bundle) = self._lru.popitem(last=False)
                del home[bundle]
                if state.spec is not None:
                    self._finished.pop(state.spec, None)
                self.nbytes -= state.nbytes
        return kept

    def __len__(self) -> int:
        return len(self._lru)

    def cache_clear(self) -> None:
        """Empty the store."""
        with self._lock:
            self._roots.clear()
            self._lru.clear()
            self._finished.clear()
            self.nbytes = 0

    def cache_info(self) -> tuple[None, None, int, int]:
        """As a memo's, in bytes; the store counts no hits or misses."""
        return None, None, _PREFIX_BYTES, self.nbytes


# Without it (a bound of 0): cold suite +61 %; cold zeta-mix / param-sums / quad-cross draws +183 / +23 / +9 %.
_evaluate_cached = _PrefixStore()
register("mzv.series._evaluate_cached", _evaluate_cached, _PREFIX_BYTES, "bytes")


def evaluate(spec: NestedSumSpec, target_accuracy: float = 1e-10) -> EvalResult:
    """Evaluate a convergent nested sum to the requested absolute accuracy.

    The spec is scanned once, to the length `_scan_length` picks, and its
    tail is derived (see the module docstring); `accuracy_met` is
    `tail_bound <= target_accuracy`.  A spec whose scan would pass the 2^24
    cap is not scanned: its result is unmet, with value NaN and an infinite
    bound.  Results are kept in the store of shared prefixes, by
    spec, not by target, and the same object is returned for the same
    answer while the spec stays stored.  Raises `DivergentSeriesError` for
    specs whose outer decay exponent is below 2, and `InvalidSpecError`
    for specs whose expansions reach a log degree above 12, for a `spec`
    that is not a `NestedSumSpec` (index text, a list of parts, None) and
    for a target that is not a real number above 0, finite as a float
    (`check_real`).
    """
    target = target_accuracy
    if not (isinstance(target, float) and 0.0 < target < inf):  # one comparison for the common, valid float
        target = float(check_real(target_accuracy, "target accuracy", 0.0, strict=True))
    return _evaluate_cached(spec, target)


# ---------------------------------------------------------------------------
# exact rational oracle


def _as_fraction(shift: Real) -> Fraction:
    return shift if isinstance(shift, Fraction) else Fraction(shift)


def _factor_exact(f: PositionFactor, k: int) -> Fraction:
    if isinstance(f, ShiftedPower):
        return 1 / (k + _as_fraction(f.shift)) ** f.exponent
    if isinstance(f, RisingFactorial):
        return Fraction(comb(k + f.degree - 1, f.degree))
    total = Fraction(0)
    for j in range(f.order + 1):
        total += (-1) ** j * Fraction(comb(f.order, j), (k + j) ** f.exponent)
    return total


def evaluate_exact_truncated(spec: NestedSumSpec, cutoff: int) -> Fraction:
    """Exact rational partial sum over `1 <= k_1 < ... < k_d <= cutoff`.

    Float shifts enter as their exact binary rational values, so this is a
    bit-for-bit oracle for the float engine's truncations.  Cost grows
    quickly with the cutoff; intended for cutoffs up to about a thousand.
    """
    check_int(cutoff, "cutoff", 0)
    depth = spec.depth
    acc = [Fraction(0)] * depth
    for k in range(1, cutoff + 1):
        for i in range(depth - 1, -1, -1):
            term = Fraction(1)
            for f in spec.factors[i]:
                term *= _factor_exact(f, k)
            if i > 0:
                term *= acc[i - 1]
            acc[i] += term
    return acc[-1]


# ---------------------------------------------------------------------------
# finite-difference factor as a standalone operation


def finite_difference_factor_exact(argument: int, order: int, exponent: int) -> Fraction:
    """Exact `sum_j (-1)^j C(order, j) (argument + j)^-exponent`, for an
    order from 0 to 64 and an exponent from 1 to 64, the bounds of
    `FiniteDifference`."""
    check_int(argument, "argument", 1)
    return _factor_exact(FiniteDifference(order, exponent), argument)


def finite_difference_factor(argument: int, order: int, exponent: int) -> float:
    """Float finite-difference factor, accurate for any argument size, for
    an order from 0 to 64 and an exponent from 1 to 64, the bounds of
    `FiniteDifference`, which are checked before either form is taken.

    Small arguments go through exact rationals; large ones through the
    cancellation-free product/Bell form of `_fd_values` (the alternating
    definition loses O(order * log2(argument)) bits and is useless there).
    """
    check_int(argument, "argument", 1)
    factor = FiniteDifference(order, exponent)
    if argument <= 10_000:
        return float(_factor_exact(factor, argument))
    return float(_fd_values(np.array([float(argument)]), order, exponent)[0])


# ---------------------------------------------------------------------------
# multiple zeta values


# Without it: cold suite -2 %; cold zeta-mix / param-sums / quad-cross draws +16 / -5 / +1 %.
@memo(4096)
def _spec(
    parts: tuple[int, ...], shift: Real = 0, ones: int = 0, first: tuple = (), last: tuple = ()
) -> NestedSumSpec:
    """`ones` positions of `1/k`, then `(k + shift)^-x` for each of the
    parts, `first` in front of the first part's bundle and `last` after the
    last part's: the nested sum of the paper's identities, and with the
    defaults an MZV spec.  Memoised: the sides of many checks share terms.
    With no shift and no additional factor the ones are parts, so that an
    MZV spec is one object however it was asked for."""
    if shift == 0 and ones and not first + last:
        return _spec((1,) * ones + parts)
    bundles = [(ShiftedPower(0, 1),)] * ones + [(ShiftedPower(shift, x),) for x in parts]
    bundles[ones] = first + bundles[ones]
    bundles[-1] += last
    return NestedSumSpec(tuple(bundles))


def mzv_spec(index: MzvIndex) -> NestedSumSpec:
    """The nested-sum spec of a (not necessarily admissible) index."""
    return _spec(index.parts)


def mzv(index: MzvIndex, target_accuracy: float = 1e-10) -> EvalResult:
    """Evaluate the multiple zeta value of an admissible index."""
    if not index.admissible:
        raise AdmissibilityError(
            f"index {index} is not admissible (last part must be >= 2), "
            "its zeta series diverges"
        )
    return evaluate(mzv_spec(index), target_accuracy)
