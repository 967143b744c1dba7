"""Evaluation engine for parameterized truncated nested sums.

A nested-sum spec assigns to each summation position `i` (innermost first)
a bundle of factors of `k_i`.  The evaluated object is

    sum over 1 <= k_1 < k_2 < ... < k_d (<= N)  of  prod_i f_i(k_i)

where each `f_i` is a product of the supported factor kinds:

* ``ShiftedPower(shift, exponent)``  -> `(k + shift)^-exponent`, real shift > -1
* ``ExtraPower(shift, exponent)``    -> `(k + shift)^-exponent`, integer shift >= 0
* ``RisingFactorial(degree)``        -> `C(k + degree - 1, degree)`
* ``FiniteDifference(order, exponent)``
      -> `sum_{j=0}^{order} (-1)^j C(order, j) (k + j)^-exponent`

Convergence bookkeeping.  Every factor has an integer effective decay
exponent (`exponent` for powers, `-degree` for the rising factorial,
`order + exponent` for the finite difference, by its `O(k^-(order+exponent))`
asymptotics).  Let `e_i` be the bundle total at position `i`.  Inner partial
sums grow like `k^t (ln k)^L` where `t, L` follow

    u = t + 1 - e_i:   u > 0 -> t = u;   u = 0 -> t = 0, L += 1;
                       u < 0 -> t = 0, L = 0.

The outermost terms then decay like `k^-s (ln k)^L` with
`s = e_d - t_{d-1}`; the sum converges iff `s >= 2` and its tail from `N`
is `N^(1-s)` times a degree-`L` polynomial in `ln N`, which is exactly the
model the tail extrapolation fits.

Accuracy.  Partial sums are accumulated with Neumaier compensation (see
`_kernels`), sampled at cutoffs in ratio sqrt(2), and extrapolated by a
linear fit of

    S(N) ~ S_inf - N^(1-s) * P_L(ln N) - N^-s * Q_L(ln N).

The reported `tail_bound` is four times the change of `S_inf` across the
last cutoff doubling plus a crude roundoff inflation `d * N * 2^-52 * |value|`;
the compensated scan keeps the true roundoff far below that term.

Caching.  `evaluate` keys its cache by `(spec, config)`, not by target.  An
entry is the resumable record of that spec's evaluation: scan state,
partial sums, the result of every fitted stage and the final result once
the loop has ended.  A target an earlier stage met is answered from the
record; a tighter one resumes the stage loop where it stopped, with the
same stage boundaries, scans and fits, so every result is bit-identical to
a cold evaluation at that target.  The cache is a bounded LRU
(`_CACHE_SPECS` entries) with one lock per entry, so threads that share a
spec scan it once.  Stop decisions are logged at DEBUG level under
``mzv.series``.
"""

from __future__ import annotations

import logging
import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isfinite
from typing import Sequence, Union

import numpy as np

from ._kernels import scan_block
from .errors import AdmissibilityError, DivergentSeriesError, InvalidSpecError
from .indices import MzvIndex

__all__ = [
    "ShiftedPower",
    "ExtraPower",
    "RisingFactorial",
    "FiniteDifference",
    "PositionFactor",
    "NestedSumSpec",
    "EvalResult",
    "EngineConfig",
    "DEFAULT_CONFIG",
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


def _check_int(value: object, name: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidSpecError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidSpecError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_shift(value: object, name: str, minimum_exclusive: float) -> Real:
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise InvalidSpecError(
            f"{name} must be a rational-representable number "
            f"(int, float or Fraction), got {type(value).__name__}"
        )
    if isinstance(value, float) and not isfinite(value):
        raise InvalidSpecError(f"{name} must be finite, got {value!r}")
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
        _check_int(self.exponent, "exponent", 1)

    @property
    def effective_exponent(self) -> int:
        return self.exponent


@dataclass(frozen=True)
class ExtraPower:
    """`(k + shift)^-exponent` with an integer shift >= 0."""

    shift: int
    exponent: int

    def __post_init__(self) -> None:
        _check_int(self.shift, "shift", 0)
        _check_int(self.exponent, "exponent", 1)

    @property
    def effective_exponent(self) -> int:
        return self.exponent


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
        _check_int(self.exponent, "exponent", 1)
        if self.order > 64:
            raise InvalidSpecError(f"finite-difference order {self.order} exceeds 64")

    @property
    def effective_exponent(self) -> int:
        return self.order + self.exponent


PositionFactor = Union[ShiftedPower, ExtraPower, RisingFactorial, FiniteDifference]

_FACTOR_KINDS = {
    ShiftedPower: "shifted-power",
    ExtraPower: "extra-power",
    RisingFactorial: "rising-factorial",
    FiniteDifference: "finite-difference",
}


@dataclass(frozen=True)
class NestedSumSpec:
    """One factor bundle per summation position, innermost first.

    `tail_log_power`, when set, overrides the log degree the tail model
    derives from the growth bookkeeping (useful only for experiments; the
    derived degree is exact for the supported factor kinds).
    """

    factors: tuple[tuple[PositionFactor, ...], ...]
    tail_log_power: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.factors, tuple):
            object.__setattr__(self, "factors", tuple(tuple(b) for b in self.factors))
        if len(self.factors) == 0:
            raise InvalidSpecError("spec needs at least one position")
        for pos, bundle in enumerate(self.factors):
            if not isinstance(bundle, tuple) or len(bundle) == 0:
                raise InvalidSpecError(f"position {pos} needs a non-empty factor tuple")
            for f in bundle:
                if type(f) not in _FACTOR_KINDS:
                    raise InvalidSpecError(f"unsupported factor {f!r} at position {pos}")
        if self.tail_log_power is not None:
            _check_int(self.tail_log_power, "tail_log_power", 0)

    @property
    def depth(self) -> int:
        return len(self.factors)

    def as_dict(self) -> dict:
        return {
            "factors": [[_factor_to_json(f) for f in bundle] for bundle in self.factors],
            "tail_log_power": self.tail_log_power,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NestedSumSpec":
        if not isinstance(data, dict) or "factors" not in data:
            raise InvalidSpecError("spec document must be an object with a 'factors' key")
        extra = set(data) - {"factors", "tail_log_power"}
        if extra:
            raise InvalidSpecError(f"unknown spec keys: {sorted(extra)}")
        bundles = data["factors"]
        if not isinstance(bundles, list):
            raise InvalidSpecError("'factors' must be a list of factor lists")
        factors = tuple(
            tuple(_factor_from_json(f) for f in bundle) for bundle in bundles
        )
        return cls(factors, data.get("tail_log_power"))


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
    if isinstance(f, ExtraPower):
        return {"kind": kind, "shift": f.shift, "exponent": f.exponent}
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
            return ShiftedPower(_shift_from_json(fields.pop("shift")), **fields)
        if kind == "extra-power":
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

    * ``"float"`` - plain compensated summation (converged or truncated);
    * ``"float-extrapolated"`` - compensated partial sums plus tail fit;
    * ``"exact-truncated"`` - exact rational arithmetic, reported as float.

    `tail_bound` bounds `|value - limit|` for convergent targets (0 for
    exact truncations); `accuracy_met` records whether the engine reached
    the requested target before its cutoff ceiling.
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


@dataclass(frozen=True)
class EngineConfig:
    """Evaluation-engine knobs.  The defaults suit every shipped check."""

    start_cutoff: int = 1 << 14
    max_cutoff: int = 1 << 24
    block_size: int = 1 << 14
    slow_shift_margin: float = 1e-3

    def __post_init__(self) -> None:
        _check_int(self.start_cutoff, "start_cutoff", 64)
        _check_int(self.max_cutoff, "max_cutoff", 1)
        if self.max_cutoff < 2 * self.start_cutoff:
            # a tail bound compares the fits of two stages, so two must fit
            raise InvalidSpecError(
                f"max_cutoff must be >= 2 * start_cutoff = {2 * self.start_cutoff}, got {self.max_cutoff}"
            )
        _check_int(self.block_size, "block_size", 1024)


DEFAULT_CONFIG = EngineConfig()


def _bundle_exponent(bundle: tuple[PositionFactor, ...]) -> int:
    return sum(f.effective_exponent for f in bundle)


def decay_model(spec: NestedSumSpec) -> tuple[int, int]:
    """Return `(s, log_power)`: outer terms decay like `k^-s (ln k)^log_power`.

    The series converges iff `s >= 2`; `log_power` is replaced by the
    spec's `tail_log_power` when that override is set.
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
    if spec.tail_log_power is not None:
        logdeg = spec.tail_log_power
    return s, logdeg


# The tail fit models at most this log degree; a spec whose decay needs more
# would be fitted with too few logs and get a bound that does not hold.
_MAX_LOG_POWER = 12


def _require_convergent(spec: NestedSumSpec) -> tuple[int, int]:
    s, logdeg = decay_model(spec)
    if s < 2:
        raise DivergentSeriesError(
            f"nested sum diverges: outer terms decay like k^-{s} times logs "
            "(need exponent >= 2)"
        )
    if logdeg > _MAX_LOG_POWER:
        raise InvalidSpecError(
            f"the tail decays like k^-{s} (ln k)^{logdeg}; the tail model fits "
            f"log degrees up to {_MAX_LOG_POWER}"
        )
    return s, logdeg


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
    if isinstance(f, (ShiftedPower, ExtraPower)):
        return (k + float(f.shift)) ** float(-f.exponent)
    if isinstance(f, RisingFactorial):
        if f.degree == 0:
            return np.ones_like(k)
        v = np.ones_like(k)
        for i in range(f.degree):
            v *= k + float(i)
        return v / float(factorial(f.degree))
    return _fd_values(k, f.order, f.exponent)


def _bundle_values(bundle: tuple[PositionFactor, ...], k: np.ndarray) -> np.ndarray:
    v = _factor_values(bundle[0], k)
    for f in bundle[1:]:
        v = v * _factor_values(f, k)
    return v


class _ScanState:
    __slots__ = ("acc", "comp", "k")

    def __init__(self, depth: int) -> None:
        self.acc = np.zeros(depth)
        self.comp = np.zeros(depth)
        self.k = 0


def _advance(spec: NestedSumSpec, state: _ScanState, cutoffs: Sequence[int], block_size: int) -> list[float]:
    """Scan on to the last of the ascending `cutoffs`; return the compensated
    partial sum at each of them (cutoffs already passed read the current sum)."""
    out = [float(state.acc[-1] + state.comp[-1]) for c in cutoffs if c <= state.k]
    pending = cutoffs[len(out):]
    while pending:
        lo = state.k
        hi = min(pending[-1], lo + block_size)
        k = np.arange(lo + 1, hi + 1, dtype=np.float64)
        block = np.empty((spec.depth, k.size))
        for i, bundle in enumerate(spec.factors):
            block[i] = _bundle_values(bundle, k)
        prefix = scan_block(block, state.acc, state.comp)
        state.k = hi
        done = bisect_right(pending, hi)
        out.extend(float(prefix[c - lo - 1]) for c in pending[:done])
        pending = pending[done:]
    return out


def partial_sums(
    spec: NestedSumSpec,
    cutoffs: Sequence[int],
    config: EngineConfig = DEFAULT_CONFIG,
) -> list[float]:
    """Compensated float partial sums at the given ascending cutoffs."""
    cuts = [int(c) for c in cutoffs]
    for c in cuts:
        _check_int(c, "cutoff", 0)
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise InvalidSpecError("cutoffs must be strictly ascending")
    return _advance(spec, _ScanState(spec.depth), cuts, config.block_size)


# ---------------------------------------------------------------------------
# tail extrapolation


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
    ns = ns[-window:]
    ss = ss[-window:]
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
    z = np.log(ns)
    z = z - z.mean()
    scale = np.abs(z).max()
    if scale > 0:
        z = z / scale
    cols = [np.ones(n)]
    for extra in range(blocks):
        base = (ns / ns[-1]) ** float(-(s - 1 + extra))
        for j in range(deg + 1):
            cols.append(base * z**j)
    weights = (ns / ns[-1]) ** 2.0
    design = np.array(cols).T * weights[:, None]
    coef, *_ = np.linalg.lstsq(design, ss * weights, rcond=None)
    return float(coef[0])


def extrapolate_tail(
    cutoffs: Sequence[int],
    partials: Sequence[float],
    decay_exponent: int,
    max_log_power: int = 0,
) -> EvalResult:
    """Extrapolate compensated partial sums to their limit.

    Needs at least three strictly ascending cutoffs whose partial sums are
    nondecreasing (all supported factor kinds are positive, so a decrease
    signals a broken caller).  The tail bound is four times the change of
    the fitted limit when the last point is withheld, plus a one-ulp-per-term
    roundoff allowance.
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
# the evaluation loop


@lru_cache(maxsize=16)
def _checkpoint_ladder(limit: int) -> tuple[int, ...]:
    """Checkpoint cutoffs up to `limit`, in ratio sqrt(2); one shared tuple per limit."""
    ns: list[int] = []
    j = 12  # 2^6 = 64
    while True:
        n = int(round(2.0 ** (j / 2.0)))
        if n > limit:
            break
        if not ns or n > ns[-1]:
            ns.append(n)
        j += 1
    return tuple(ns)


def _slow_flags(spec: NestedSumSpec, config: EngineConfig) -> tuple[str, ...]:
    for bundle in spec.factors:
        for f in bundle:
            if isinstance(f, ShiftedPower) and float(f.shift) <= -1.0 + config.slow_shift_margin:
                return ("slow-convergence",)
    return ()


# Entries the evaluation cache keeps, least recently used evicted first.  The
# packaged suite evaluates 2,137 distinct specs; an entry is about 3 KB.
_CACHE_SPECS = 4096


class _Evaluation:
    """The resumable record of one spec's evaluation under one config.

    Stages double the cutoff from `start_cutoff` up to `max_cutoff`; every
    stage that fits the tail for the second time or later records its
    result in `stages`, and `final` holds the result that ends the loop
    (float-converged or cutoff-exhausted).  A cold evaluation at target `t`
    returns the first stage whose bound is `<= t`, else `final`, so any
    target can be answered from the stages run so far, and a tighter one
    resumes the loop from the saved scan state with the same stage
    boundaries.  `lock` serialises threads that share the entry.
    """

    __slots__ = (
        "lock", "spec", "config", "s", "log_power", "flags", "state",
        "sums", "stage_end", "prev_fit", "best", "stages", "final",
    )

    def __init__(self, spec: NestedSumSpec, config: EngineConfig) -> None:
        s, log_power = _require_convergent(spec)
        self.lock = threading.Lock()
        self.spec = spec
        self.config = config
        self.s = s
        self.log_power = log_power
        self.flags = _slow_flags(spec, config)
        self.state: _ScanState | None = _ScanState(spec.depth)
        self.sums: list[float] = []  # partial sums at the ladder's first len(sums) cutoffs
        self.stage_end = config.start_cutoff
        self.prev_fit: float | None = None
        self.best: EvalResult | None = None
        self.stages: list[EvalResult] = []
        self.final: EvalResult | None = None

    def _lookup(self, target: float) -> EvalResult | None:
        for res in self.stages:
            if res.tail_bound <= target:
                return res
        return self.final

    def result(self, target: float) -> EvalResult:
        with self.lock:
            res = self._lookup(target)
            if res is not None:
                _log.debug("evaluate %s target %g: cache", self.spec, target)
                return res
            _log.debug("evaluate %s target %g: %s", self.spec, target, "resumed" if self.sums else "cold")
            while res is None:
                self._stage()
                res = self._lookup(target)
            return res

    def _stage(self) -> None:
        """Run the next stage of the loop; set `final` when it ends the loop."""
        spec, config, ss = self.spec, self.config, self.sums
        ladder = _checkpoint_ladder(config.max_cutoff)
        stage = ladder[len(ss) : bisect_right(ladder, self.stage_end)]
        # A stage without a new checkpoint would refit the same points and
        # claim a zero change; it can only be the last one, capped by
        # max_cutoff, so it falls through to the best earlier bound.
        if stage:
            ss.extend(_advance(spec, self.state, stage, config.block_size))
            if len(ss) >= 3 and ss[-1] == ss[-3]:
                # float-converged: further terms vanish at working precision
                _log.debug("%s stage: cutoff %d, float-converged", spec, stage[-1])
                self._finish(EvalResult(ss[-1], 0.0, stage[-1], "float", True, self.flags))
                return
            fit = _fit_tail(np.array(ladder[: len(ss)], dtype=np.float64), np.array(ss), self.s, self.log_power)
            bound = None
            if self.prev_fit is not None:
                bound = 4.0 * abs(fit - self.prev_fit) + spec.depth * stage[-1] * 2.0**-52 * abs(fit)
                res = EvalResult(fit, bound, stage[-1], "float-extrapolated", True, self.flags)
                self.stages.append(res)
                if self.best is None or bound < self.best.tail_bound:
                    self.best = res
            _log.debug("%s stage: cutoff %d, fit %r, bound %r", spec, stage[-1], fit, bound)
            self.prev_fit = fit
        if self.stage_end >= config.max_cutoff:
            # max_cutoff >= 2 * start_cutoff, so at least two stages have fit
            best = self.best
            self._finish(
                EvalResult(
                    best.value,
                    best.tail_bound,
                    best.cutoff,
                    "float-extrapolated",
                    False,
                    self.flags + ("cutoff-exhausted",),
                )
            )
            return
        self.stage_end = min(self.stage_end * 2, config.max_cutoff)

    def _finish(self, final: EvalResult) -> None:
        self.final = final
        self.state = None  # nothing resumes past the end
        self.sums = []


class _EvaluationCache:
    """Bounded LRU of `_Evaluation` records keyed by `(spec, config)`."""

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple[NestedSumSpec, EngineConfig], _Evaluation] = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, spec: NestedSumSpec, target: float, config: EngineConfig) -> EvalResult:
        key = (spec, config)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _Evaluation(spec, config)
                while len(self._entries) > _CACHE_SPECS:
                    self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(key)
        return entry.result(target)

    def __len__(self) -> int:
        return len(self._entries)

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()


_evaluate_cached = _EvaluationCache()


def evaluate(
    spec: NestedSumSpec,
    target_accuracy: float = 1e-10,
    config: EngineConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Evaluate a convergent nested sum to the requested absolute accuracy.

    Evaluations are cached by `(spec, config)`, not by target: the cache
    keeps each spec's scan state, partial sums and per-stage results, so a
    target that an earlier stage already met is answered without scanning,
    and a tighter one resumes the scan where it stopped.  The result is
    bit-identical to a cold evaluation at that target, and the same object
    is returned for the same answer.  The cache holds the `_CACHE_SPECS`
    most recently used specs.  Raises `DivergentSeriesError` for specs
    whose outer decay exponent is below 2, and `InvalidSpecError` for specs
    whose tail log degree (derived, or `tail_log_power`) is above 12.
    """
    target = float(target_accuracy)
    if not target > 0.0 or not isfinite(target):
        raise InvalidSpecError(f"target accuracy must be a positive number, got {target_accuracy!r}")
    return _evaluate_cached(spec, target, config)


# ---------------------------------------------------------------------------
# exact rational oracle


def _as_fraction(shift: Real) -> Fraction:
    return shift if isinstance(shift, Fraction) else Fraction(shift)


def _factor_exact(f: PositionFactor, k: int) -> Fraction:
    if isinstance(f, ShiftedPower):
        return 1 / (k + _as_fraction(f.shift)) ** f.exponent
    if isinstance(f, ExtraPower):
        return Fraction(1, (k + f.shift) ** f.exponent)
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
    return NestedSumSpec(tuple((ExtraPower(0, a),) for a in index.parts))


def mzv(
    index: MzvIndex,
    target_accuracy: float = 1e-10,
    config: EngineConfig = DEFAULT_CONFIG,
) -> EvalResult:
    """Evaluate the multiple zeta value of an admissible index."""
    if not index.admissible:
        raise AdmissibilityError(
            f"index {index} is not admissible (last part must be >= 2), "
            "its zeta series diverges"
        )
    return evaluate(mzv_spec(index), target_accuracy, config)
