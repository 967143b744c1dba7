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
more than 2^24 terms is scanned to 2^24 and flagged.  Going outward, each
position gets an asymptotic expansion

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
`tail_bound <= target`, and false when the 2^24 cap cut the scan short
(the `cutoff-exhausted` flag).  `mzv.reference` audits these bounds
against independent 45-digit MZVs.

Caching.  `evaluate` keys its cache by spec, not by target:
one scan serves every target, so an entry holds the spec's one result, as
an object for targets its bound meets and one for those it does not, and
a hit only picks between them.  The cache is a bounded LRU
(`_CACHE_SPECS` entries) with one lock per entry, so threads that share a
spec scan it once.  The expansion maps, which depend only on a lead and a
number of log columns, and the factor series are built lazily and cached.
Each evaluation's stop decision (cutoff, value and the parts of its bound)
is logged at DEBUG level under ``mzv.series``.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial, isfinite
from typing import Sequence, Union

import numpy as np

from ._kernels import scan_block
from .errors import AdmissibilityError, DivergentSeriesError, InvalidSpecError
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


def _check_int(value: object, name: str, minimum: int, maximum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidSpecError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise InvalidSpecError(f"{name} must be <= {maximum}, got {value}")
    return value


def _check_shift(value: object, name: str, minimum_exclusive: float) -> Real:
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise InvalidSpecError(
            f"{name} must be a rational-representable number "
            f"(int, float or Fraction), got {type(value).__name__}"
        )
    try:
        finite = isfinite(float(value))
    except OverflowError:
        finite = False
    if not finite:
        raise InvalidSpecError(f"{name} must be finite as a float, got {value!r}")
    if not value > minimum_exclusive:
        raise InvalidSpecError(f"{name} must be > {minimum_exclusive}, got {value}")
    return value


@dataclass(frozen=True)
class ShiftedPower:
    """`(k + shift)^-exponent` with a real (possibly non-integer) shift > -1."""

    shift: Real
    exponent: int

    def __post_init__(self) -> None:
        _check_shift(self.shift, "shift", -1.0)
        _check_int(self.exponent, "exponent", 1, MAX_EXPONENT)

    @property
    def effective_exponent(self) -> int:
        return self.exponent


def ExtraPower(shift: int, exponent: int) -> ShiftedPower:
    """`(k + shift)^-exponent` with an integer shift >= 0, as a `ShiftedPower`."""
    _check_int(shift, "shift", 0)
    return ShiftedPower(shift, exponent)


@dataclass(frozen=True)
class RisingFactorial:
    """`C(k + degree - 1, degree)`, i.e. `k (k+1) ... (k+degree-1) / degree!`."""

    degree: int

    def __post_init__(self) -> None:
        _check_int(self.degree, "degree", 0)
        if self.degree > RISING_DEGREE_MAX:
            raise InvalidSpecError(
                f"rising-factorial degree {self.degree} exceeds the supported "
                f"bound {RISING_DEGREE_MAX}"
            )

    @property
    def effective_exponent(self) -> int:
        return -self.degree


@dataclass(frozen=True)
class FiniteDifference:
    """`sum_j (-1)^j C(order, j) (k + j)^-exponent`, positive and `O(k^-(order+exponent))`."""

    order: int
    exponent: int

    def __post_init__(self) -> None:
        _check_int(self.order, "order", 0)
        # the Bell recurrence of `_fd_values` costs exponent^2 / 2 vector ops
        _check_int(self.exponent, "exponent", 1, 64)
        if self.order > 64:
            raise InvalidSpecError(f"finite-difference order {self.order} exceeds 64")

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
            raise InvalidSpecError(f"'tail_log_power' is retired and must be null, got {retired!r}")
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
            raise InvalidSpecError(f"bad rational shift {value!r}") from exc
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise InvalidSpecError(f"bad shift value {value!r}")


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
        raise InvalidSpecError(f"bad fields for factor kind {kind!r}: {exc}") from exc
    raise InvalidSpecError(f"unknown factor kind {kind!r}")


@dataclass(frozen=True)
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

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "tail_bound": self.tail_bound,
            "cutoff": self.cutoff,
            "mode": self.mode,
            "accuracy_met": self.accuracy_met,
            "flags": list(self.flags),
        }


def _bundle_exponent(bundle: tuple[PositionFactor, ...]) -> int:
    return sum(f.effective_exponent for f in bundle)


def decay_model(spec: NestedSumSpec) -> tuple[int, int]:
    """Return `(s, log_power)`: outer terms decay like `k^-s (ln k)^log_power`.

    The series converges iff `s >= 2`.
    """
    t = 0
    logdeg = 0
    for bundle in spec.factors[:-1]:
        u = t + 1 - _bundle_exponent(bundle)
        if u > 0:
            t = u
        elif u == 0:
            t = 0
            logdeg += 1
        else:
            t = 0
            logdeg = 0
    s = _bundle_exponent(spec.factors[-1]) - t
    return s, logdeg


# The largest log degree an expansion of `_derive` may reach.  Each log
# column widens its maps, so the cap bounds their size; it is the limit
# specs, configs and reports were written against.
_MAX_LOG_POWER = 12


def _log_degree(spec: NestedSumSpec) -> int:
    """The highest log degree of the expansions `_derive` builds for `spec`:
    a position whose summand lead is at most 1 adds a column, and a grid
    whose lead is past `_ORDERS` starts again from one."""
    lead, logs, most = _ORDERS, 1, 1
    for bundle in spec.factors:
        h_lead, h_logs = (0, 1) if lead >= _ORDERS else (min(lead, 0), logs)
        s_lead = _bundle_exponent(bundle) + h_lead
        lead, logs = s_lead - 1, h_logs + (s_lead <= 1)
        most = max(most, logs)
    return most - 1


def _require_convergent(spec: NestedSumSpec) -> None:
    s, _ = decay_model(spec)
    if s < 2:
        raise DivergentSeriesError(
            f"nested sum diverges: outer terms decay like k^-{s} times logs "
            "(need exponent >= 2)"
        )
    degree = _log_degree(spec)
    if degree > _MAX_LOG_POWER:
        raise InvalidSpecError(
            f"the tail expansion reaches (ln k)^{degree}; the engine takes "
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


def _rows(spec: NestedSumSpec, lo: int, hi: int) -> np.ndarray:
    """Factor rows of every position over `k = lo+1..hi`, each bundle's
    factors multiplied left to right."""
    k = np.arange(lo + 1, hi + 1, dtype=np.float64)
    rows = np.empty((spec.depth, hi - lo))
    for row, bundle in zip(rows, spec.factors):
        row[:] = _factor_values(bundle[0], k)
        for f in bundle[1:]:
            row *= _factor_values(f, k)
    return rows


# The widest block the scan kernel takes at once; its prefix buffer and work
# arrays are this wide.
_BLOCK = 1 << 14


def _scan(spec: NestedSumSpec, marks: Sequence[int]) -> list[np.ndarray]:
    """Every position's compensated sums at each of the ascending `marks`,
    from one scan of `k = 1..marks[-1]` in blocks of at most `_BLOCK` columns.

    Each block copies the marks that fall in it out of the kernel's prefixes,
    so no block's buffer outlives the block; a mark of 0 reads the zero start.
    """
    acc = np.zeros(spec.depth)
    comp = np.zeros(spec.depth)
    sums = [acc + comp for m in marks if m == 0]
    lo = 0
    while len(sums) < len(marks):
        top = min(marks[-1], lo + _BLOCK)
        prefixes = scan_block(_rows(spec, lo, top), acc, comp)
        sums += [prefixes[:, m - lo - 1].copy() for m in marks[len(sums) :] if m <= top]
        lo = top
    return sums


def partial_sums(spec: NestedSumSpec, cutoffs: Sequence[int]) -> list[float]:
    """Compensated float partial sums at the given ascending cutoffs."""
    cuts = [_check_int(c, "cutoff", 0) for c in cutoffs]
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise InvalidSpecError("cutoffs must be strictly ascending")
    return [float(s[-1]) for s in _scan(spec, cuts)]


# ---------------------------------------------------------------------------
# tail extrapolation as a standalone operation


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _fit_window(log_power: int) -> int:
    return 2 * (log_power + 1) + 11


@lru_cache(maxsize=256)
def _fit_design(ns: tuple[float, ...], s: int, log_power: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted design matrix and row weights of the tail fit on checkpoints
    `ns`; they do not depend on the sums, so each is built once (read-only)."""
    na = np.array(ns)
    n = len(ns)
    deg = log_power
    blocks = 2
    while 1 + blocks * (deg + 1) > n:
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
    cols = [np.ones(n)]
    for extra in range(blocks):
        base = (na / na[-1]) ** float(-(s - 1 + extra))
        for j in range(deg + 1):
            cols.append(base * z**j)
    weights = (na / na[-1]) ** 2.0
    design = np.array(cols).T * weights[:, None]
    return _readonly(design), _readonly(weights)


def _fit_tail(ns: np.ndarray, ss: np.ndarray, s: int, log_power: int) -> float:
    """Least-squares limit of the tail model on the trailing checkpoint window.

    Model blocks: `N^(1-s) * z^j` and `N^-s * z^j` for `j <= log_power`,
    with `z` the centered and scaled `ln N`.  Rows are weighted by
    `(N / N_max)^2` so the asymptotic regime dominates the fit; the second
    block is dropped, then the log degree lowered, when points run short.
    """
    window = min(len(ns), _fit_window(log_power))
    design, weights = _fit_design(tuple(ns[-window:].tolist()), s, log_power)
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
    if not isinstance(decay_exponent, int) or decay_exponent < 2:
        raise InvalidSpecError("decay_exponent must be an integer >= 2")
    _check_int(max_log_power, "max_log_power", 0)
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
# act on the flattened grid; each depends only on the lead and the number
# of log columns, so each is built once, in float, and shared read-only.

# Orders each expansion keeps past its own lead.  At the shortest scan
# (64 terms, a shift of at most a sixty-fourth of it) the first omitted
# order is below 2^-96 of the lead term.
_ORDERS = 16

_GAP = np.subtract.outer(np.arange(_ORDERS), np.arange(_ORDERS))  # _GAP[a, b] = a - b


def _to_float(v: Fraction | int) -> float:
    try:
        return float(v)
    except OverflowError:  # a shift far past _MAX_CUTOFF; the scan length is capped
        return float("inf") if v > 0 else float("-inf")


@lru_cache(maxsize=None)
def _em_weights() -> tuple[float, ...]:
    """`B_2p / (2p)!` for `p = 1, 2, ...`: the Euler-Maclaurin weights of
    the odd derivatives, from the exact Bernoulli numbers."""
    bern = [Fraction(1)]
    for m in range(1, _ORDERS + 1):
        bern.append(-sum(comb(m + 1, j) * b for j, b in enumerate(bern) if b) / (m + 1))
    return tuple(float(bern[2 * p] / factorial(2 * p)) for p in range(1, _ORDERS // 2 + 1))


@lru_cache(maxsize=1024)
def _factor_series(f: PositionFactor) -> tuple[int, np.ndarray]:
    """`(lead, c)` with `f(k) = sum_m c[m] k^-(lead + m)`, built exactly
    and rounded once.

    * `(k + a)^-x = sum_m C(-x, m) a^m k^-(x + m)`;
    * the rising factorial is a polynomial of degree `d` in `k`;
    * the finite difference is `sum_m C(-x, m) k^-(x + m) sum_i (-1)^i C(o, i) i^m`,
      whose inner sums vanish below `m = o`, so no float cancels.
    """
    if isinstance(f, ShiftedPower):
        a = _as_fraction(f.shift)
        lead = f.exponent
        exact = [(-1) ** m * comb(f.exponent + m - 1, m) * a**m for m in range(_ORDERS)]
    elif isinstance(f, RisingFactorial):
        poly = [1]  # k(k+1)...(k+d-1), highest power first
        for i in range(f.degree):
            poly = [p + i * q for p, q in zip(poly + [0], [0] + poly)]
        lead = -f.degree
        exact = [Fraction(c, factorial(f.degree)) for c in poly[:_ORDERS]]
    else:
        o, x = f.order, f.exponent
        lead = o + x
        exact = [
            (-1) ** (o + m) * comb(x + o + m - 1, o + m) * sum((-1) ** i * comb(o, i) * i ** (o + m) for i in range(o + 1))
            for m in range(_ORDERS)
        ]
    c = np.zeros(_ORDERS)
    c[: len(exact)] = [_to_float(v) for v in exact]
    return lead, _readonly(c)


@lru_cache(maxsize=1024)
def _bundle_product(bundle: tuple[PositionFactor, ...]) -> tuple[int, np.ndarray]:
    """`(lead, T)`: the bundle's series as the lower-triangular Toeplitz
    matrix that multiplies a grid by it, order by order."""
    lead, series = _factor_series(bundle[0])
    for f in bundle[1:]:
        f_lead, c = _factor_series(f)
        lead += f_lead
        series = np.convolve(series, c)[:_ORDERS]
    return lead, _readonly(np.where(_GAP >= 0, series[_GAP.clip(0)], 0.0))


@lru_cache(maxsize=128)
def _shift_table(lead: int, logs: int) -> np.ndarray:
    """The map from an expansion in `n` to the same function at `n = k - 1`,
    expanded in `k` at the same lead:

        (k-1)^-r ln(k-1)^l = k^-r (1-u)^-r sum_t C(l, t) ln(1-u)^t (ln k)^(l-t),  u = 1/k.
    """
    n = _ORDERS
    r = lead + np.arange(n, dtype=np.float64)
    binom = np.ones((n, n))  # binom[i, m]: the coefficient of u^m in (1-u)^-(lead+i)
    for m in range(1, n):
        binom[:, m] = binom[:, m - 1] * (r + m - 1) / m
    lam = np.zeros((logs, n))  # lam[t, m]: the coefficient of u^m in ln(1-u)^t
    lam[0, 0] = 1.0
    for t in range(1, logs):
        lam[t, 1:] = -np.convolve(lam[t - 1], 1.0 / np.arange(1, n))[: n - 1]
    gap = _GAP
    toeplitz = np.where(gap.T >= 0, lam[:, gap.T.clip(0)], 0.0)  # [t, m, q] = lam[t, q - m]
    series = binom[None] @ toeplitz  # [t, i, q]: (1-u)^-r ln(1-u)^t for input row i, up to u^q
    placed = np.where(gap >= 0, series[:, np.arange(n)[None, :], gap.clip(0)], 0.0)  # [t, o, i], o = i + q
    table = np.zeros((n, logs, n, logs))
    for l in range(logs):
        for t in range(l + 1):
            table[:, l - t, :, l] = comb(l, t) * placed[t]
    return _readonly(table.reshape(n * logs, n * logs))


@lru_cache(maxsize=128)
def _em_table(lead: int, logs: int) -> tuple[np.ndarray, int]:
    """`(E, out_logs)`: the Euler-Maclaurin map from a summand's grid at
    `lead` to the non-constant part of its partial sums, at `lead - 1`:

        sum_{k<=n} g(k) = C + integral^n g + g(n)/2 + sum_p B_2p/(2p)! g^(2p-1)(n).

    A summand term of order 1 integrates to one more log, so `out_logs` is
    `logs + 1` when the summand grid reaches order 1.  The output's order-0,
    log-0 entry belongs to the constant and is left out.
    """
    n = _ORDERS
    out_logs = logs + (lead <= 1)
    rows = np.arange(n)
    # d[s, i, l', l]: D^s of the input term (i, l), which sits at output row i + 1 + s;
    # D x^-r (ln x)^l = -r x^-(r+1) (ln x)^l + l x^-(r+1) (ln x)^(l-1)
    d = np.zeros((n - 1, n, out_logs, logs))
    d[0][:, range(logs), range(logs)] = 1.0
    lower = np.diag(np.arange(1.0, out_logs), 1)
    for step in range(1, n - 1):
        d[step] = lower @ d[step - 1] - (lead + rows + step - 1)[:, None, None] * d[step - 1]
    weights = np.zeros(n - 1)  # g(n)/2, then B_2p/(2p)! for D^(2p-1)
    weights[0] = 0.5
    weights[1::2] = _em_weights()[: len(weights[1::2])]
    steps, inputs = np.nonzero(rows[None, :] + np.arange(1, n)[:, None] < n)
    table = np.zeros((n, out_logs, n, logs))
    table[inputs + 1 + steps, :, inputs, :] = weights[steps, None, None] * d[steps, inputs]
    # integral x^-r (ln x)^l = x^(1-r) sum_t (-1)^t l!/(l-t)! (ln x)^(l-t) / (1-r)^(t+1),
    # and (ln x)^(l+1) / (l+1) at r = 1
    r = lead + rows
    base = np.where(r == 1, 1.0, 1.0 - r)
    for l in range(logs):
        coef = np.where(r == 1, 0.0, 1.0 / base)
        for t in range(l + 1):
            table[rows, l - t, rows, l] += coef
            coef = coef * (-(l - t) / base)
        if 0 <= 1 - lead < n:
            table[1 - lead, l + 1, 1 - lead, l] += 1.0 / (l + 1)
    if 0 <= 1 - lead < n:
        table[1 - lead, 0] = 0.0
    return _readonly(table.reshape(n * out_logs, n * logs)), out_logs


@lru_cache(maxsize=256)
def _basis(lead: int, logs: int, cutoffs: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """`(root, logp)` with `n^-(lead+o) (ln n)^l = root[o]^2 logp[l]` at each cutoff
    (the last axis).  The square root keeps a large growth from overflowing
    before it meets its small coefficient."""
    ns = np.array(cutoffs, dtype=np.float64)
    orders = lead + np.arange(_ORDERS, dtype=np.float64)
    root = ns[None, None, :] ** (-0.5 * orders)[:, None, None]
    logp = np.log(ns)[None, None, :] ** np.arange(logs, dtype=np.float64)[None, :, None]
    return _readonly(root), _readonly(logp)


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


@lru_cache(maxsize=1024)
def _position_units(bundle: tuple[PositionFactor, ...], cutoff: int) -> int:
    """The same bound for what a position adds to its partial sums: its
    factors, their products, the product with the inner sum, and the
    compensated sum."""
    return sum(_roundoff_units(f, cutoff) + 1 for f in bundle) + 3


_UNIT = 2.0**-53


def _derive(spec: NestedSumSpec, at_n: np.ndarray, at_half: np.ndarray, n: int, half: int) -> tuple[float, ...]:
    """Run the expansions outward from the scanned partial sums of every
    position at `n` and at `half`, both at once (the last grid axis).
    Returns the values at `n` and `half`, and the scan and truncation
    parts of the bound."""
    cutoffs = (n, half)
    sums = np.stack([at_n, at_half], axis=1)  # [position, cutoff]
    scan_units = 0  # relative scan roundoff of the positions so far, in units of 2^-53
    inner_rel = 0.0  # relative error of the inner positions' expansions
    truncation = 0.0
    # S_{-1} = 1: a constant, and a G whose lead is past any grid
    constant, lead, logs = np.ones(2), _ORDERS, 1
    for j, bundle in enumerate(spec.factors):
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
        e_lead, toeplitz = _bundle_product(bundle)
        s_lead = e_lead + h_lead
        summand = toeplitz @ h.reshape(_ORDERS, -1)
        em, out_logs = _em_table(s_lead, h.shape[1])
        grid = em @ summand.reshape(-1, 2)
        lead, logs = s_lead - 1, out_logs
        root, logp = _basis(lead, logs, cutoffs)
        terms = grid.reshape(_ORDERS, logs, 2) * root * root * logp
        tail = terms.sum(axis=(0, 1))
        constant = sums[j] - tail
        # this position's share of the bound, at n
        size = np.abs(terms[:, :, 0]).sum(axis=1)
        total = float(size.sum())
        own = 2.0 * float(size[-2:].sum()) + 2 * _UNIT * (abs(at_n[j]) + 4 * _ORDERS * total)
        units = _position_units(bundle, n)
        scan_units += units
        if j == spec.depth - 1:
            truncation = own + (inner_rel * total if total else 0.0)
        else:
            if own:
                inner_rel += own / abs(at_n[j]) if at_n[j] else float("inf")
            inner_rel += units * _UNIT
    return float(constant[0]), float(constant[1]), scan_units * _UNIT * abs(float(at_n[-1])), float(truncation)


# ---------------------------------------------------------------------------
# evaluation


# The scan length before the shift rule of `_scan_length` raises it, and the
# cap on that rule (see the module docstring); the cap is a power of two.
_START_CUTOFF = 1 << 10
_MAX_CUTOFF = 1 << 24


def _scan_length(spec: NestedSumSpec) -> tuple[int, bool]:
    """`(n, capped)`: the scan length for a spec, and whether `_MAX_CUTOFF` cut it."""
    reach = 0.0
    for bundle in spec.factors:
        for f in bundle:
            if isinstance(f, ShiftedPower):
                reach = max(reach, abs(float(f.shift)))
            elif isinstance(f, FiniteDifference):
                reach = max(reach, float(f.order))
    if 64.0 * reach > _MAX_CUTOFF:  # tested before `ceil`, which an infinite product overflows
        return _MAX_CUTOFF, True
    need = ceil(64.0 * reach)
    if need <= _START_CUTOFF:
        return _START_CUTOFF, False
    return 1 << (need - 1).bit_length(), False  # within the cap, a power of two


# Shifts within this margin of -1 are flagged: the first term `(1 + shift)^-e` dwarfs the rest.
_SLOW_SHIFT_MARGIN = 1e-3


def _slow_flags(spec: NestedSumSpec) -> tuple[str, ...]:
    for bundle in spec.factors:
        for f in bundle:
            if isinstance(f, ShiftedPower) and float(f.shift) <= -1.0 + _SLOW_SHIFT_MARGIN:
                return ("slow-convergence",)
    return ()


def _evaluate_spec(spec: NestedSumSpec) -> tuple[EvalResult, EvalResult]:
    """The results of one spec for a target its bound meets and for one it
    does not (the same object when the scan length was capped)."""
    n, capped = _scan_length(spec)
    half = n // 2
    at_half, at_n = _scan(spec, (half, n))
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite value or bound
        value, half_value, scan, truncation = _derive(spec, at_n, at_half, n, half)
    halving = abs(value - half_value)
    bound = max(scan + truncation, halving)
    partial = float(at_n[-1])
    mode = "float" if value == partial else "float-extrapolated"
    flags = _slow_flags(spec) + (("cutoff-exhausted",) if capped else ())
    if not (isfinite(value) and isfinite(bound)):
        value, bound, mode = partial, float("inf"), "float"
    _log.debug(
        "%s: cutoff %d%s, value %r, bound %r (scan %r, truncation %r, halving %r)",
        spec, n, " (capped)" if capped else "", value, bound, scan, truncation, halving,
    )
    unmet = EvalResult(value, bound, n, mode, False, flags)
    if capped or not isfinite(bound):
        return unmet, unmet
    return EvalResult(value, bound, n, mode, True, flags), unmet


# Entries the evaluation cache keeps, least recently used evicted first.  The
# packaged suite evaluates 1,930 distinct specs.
_CACHE_SPECS = 4096


class _Entry:
    """One spec's results; `lock` lets the first of the threads that share
    it evaluate while the others wait."""

    __slots__ = ("lock", "met", "unmet")

    def __init__(self, spec: NestedSumSpec) -> None:
        _require_convergent(spec)
        self.lock = threading.Lock()
        self.met: EvalResult | None = None
        self.unmet: EvalResult | None = None


class _EvaluationCache:
    """Bounded LRU of evaluation results keyed by spec."""

    def __init__(self) -> None:
        self._entries: OrderedDict[NestedSumSpec, _Entry] = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, spec: NestedSumSpec, target: float) -> EvalResult:
        with self._lock:
            entry = self._entries.get(spec)
            if entry is None:
                entry = self._entries[spec] = _Entry(spec)
                while len(self._entries) > _CACHE_SPECS:
                    self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(spec)
        with entry.lock:
            if entry.met is None:
                _log.debug("evaluate %s target %g: cold", spec, target)
                entry.met, entry.unmet = _evaluate_spec(spec)
            else:
                _log.debug("evaluate %s target %g: cache", spec, target)
        met = entry.met
        return met if met.tail_bound <= target and met.accuracy_met else entry.unmet

    def __len__(self) -> int:
        return len(self._entries)

    def cache_clear(self) -> None:
        """Empty the evaluation cache."""
        with self._lock:
            self._entries.clear()


_evaluate_cached = _EvaluationCache()


def evaluate(spec: NestedSumSpec, target_accuracy: float = 1e-10) -> EvalResult:
    """Evaluate a convergent nested sum to the requested absolute accuracy.

    The spec is scanned once, to the length `_scan_length` picks, and its
    tail is derived (see the module docstring); `accuracy_met` is
    `tail_bound <= target_accuracy`, and false whenever the 2^24 cap cut
    the scan short.  Results are cached by spec, not by target, and the
    same object is returned for the same answer.  The cache holds
    the `_CACHE_SPECS` most recently used specs.  Raises
    `DivergentSeriesError` for specs whose outer decay exponent is below 2,
    and `InvalidSpecError` for specs whose expansions reach a log degree
    above 12.
    """
    target = float(target_accuracy)
    if not target > 0.0 or not isfinite(target):
        raise InvalidSpecError(f"target accuracy must be a positive number, got {target_accuracy!r}")
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
    _check_int(cutoff, "cutoff", 0)
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
    """Exact `sum_j (-1)^j C(order, j) (argument + j)^-exponent`."""
    _check_int(argument, "argument", 1)
    _check_int(order, "order", 0)
    _check_int(exponent, "exponent", 1)
    return _factor_exact(FiniteDifference(order, exponent), argument)


def finite_difference_factor(argument: int, order: int, exponent: int) -> float:
    """Float finite-difference factor, accurate for any argument size.

    Small arguments go through exact rationals; large ones through the
    cancellation-free product/Bell form of `_fd_values` (the alternating
    definition loses O(order * log2(argument)) bits and is useless there).
    """
    _check_int(argument, "argument", 1)
    _check_int(order, "order", 0)
    _check_int(exponent, "exponent", 1)
    if argument <= 10_000:
        return float(finite_difference_factor_exact(argument, order, exponent))
    return float(_fd_values(np.array([float(argument)]), order, exponent)[0])


# ---------------------------------------------------------------------------
# multiple zeta values


def mzv_spec(index: MzvIndex) -> NestedSumSpec:
    """The nested-sum spec of a (not necessarily admissible) index."""
    return NestedSumSpec(tuple((ShiftedPower(0, a),) for a in index.parts))


def mzv(index: MzvIndex, target_accuracy: float = 1e-10) -> EvalResult:
    """Evaluate the multiple zeta value of an admissible index."""
    if not index.admissible:
        raise AdmissibilityError(
            f"index {index} is not admissible (last part must be >= 2), "
            "its zeta series diverges"
        )
    return evaluate(mzv_spec(index), target_accuracy)
