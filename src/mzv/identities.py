"""Numeric checks of nested-sum duality identities.

Every checker builds the two (or three) sides of an identity as
independent nested-sum specs, evaluates them through the series engine,
and returns an `IdentityCheck` whose verdict is honest: a check passes
only when the observed max pairwise difference is inside the tolerance
and the accumulated tail bounds are small enough that the comparison at
that tolerance is meaningful.

The checkers never reuse a closed form across sides - each side is the
sum the identity literally states, so agreement is evidence.

Identity names (the `identity` field and the registry keys) are a stable
wire contract used by the CLI, configs and reports:

    duality, sum_formula, ohno, eq12, theorem1, cor15, eq24, theorem3,
    restricted_sum, section4
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb, isfinite
from typing import Callable, Iterable, Sequence, Union

from .errors import PreconditionError
from .indices import MzvIndex, ShiftVector, compositions, dual
from .rng import XorShift64Star
from .series import (
    DEFAULT_CONFIG,
    EngineConfig,
    EvalResult,
    ExtraPower,
    FiniteDifference,
    NestedSumSpec,
    RisingFactorial,
    ShiftedPower,
    evaluate,
    mzv,
)

__all__ = [
    "IdentityCheck",
    "Theorem1Params",
    "check_duality",
    "check_sum_formula",
    "check_ohno",
    "check_eq12",
    "check_theorem1",
    "check_cor15",
    "check_eq24",
    "check_theorem3",
    "check_restricted_sum",
    "check_section4",
    "IDENTITIES",
    "run_grid",
    "draw_params",
    "check_ranges",
    "admissible_indices",
    "DEFAULT_ACCURACY",
]

DEFAULT_ACCURACY = 1e-8

Real = Union[int, float, Fraction]
IndexLike = Union[MzvIndex, str, Sequence[int]]


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one identity instance.

    `sides` holds the independently computed values in the order the
    identity states them; `abs_diff` is the largest pairwise difference
    and `tail_budget` the largest pairwise sum of tail bounds.  The check
    passes iff both stay within `tolerance` - a tiny difference proves
    nothing if the sides were not computed tightly enough to resolve it.
    """

    identity: str
    params: dict
    sides: tuple[EvalResult, ...]
    abs_diff: float
    tolerance: float
    tail_budget: float
    passed: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "sides": [s.as_dict() for s in self.sides],
            "abs_diff": self.abs_diff,
            "tolerance": self.tolerance,
            "tail_budget": self.tail_budget,
            "pass": self.passed,
            "details": self.details,
        }


def make_check(
    identity: str,
    params: dict,
    sides: Sequence[EvalResult],
    tolerance: float | None,
    details: dict | None = None,
) -> IdentityCheck:
    """Assemble an `IdentityCheck` with the shared pass/fail semantics."""
    if len(sides) < 2:
        raise ValueError("a check needs at least two sides")
    abs_diff = 0.0
    tail_budget = 0.0
    for i in range(len(sides)):
        for j in range(i + 1, len(sides)):
            abs_diff = max(abs_diff, abs(sides[i].value - sides[j].value))
            tail_budget = max(tail_budget, sides[i].tail_bound + sides[j].tail_bound)
    if tolerance is None:
        scale = max(abs(s.value) for s in sides)
        tolerance = tail_budget + 1e-12 * (1.0 + scale)
    tolerance = float(tolerance)
    if not tolerance > 0 or not isfinite(tolerance):
        raise PreconditionError(f"tolerance must be a positive number, got {tolerance!r}")
    passed = abs_diff <= tolerance and tail_budget <= tolerance
    return IdentityCheck(
        identity,
        dict(params),
        tuple(sides),
        abs_diff,
        tolerance,
        tail_budget,
        passed,
        dict(details or {}),
    )


def combine(terms: Iterable[tuple[float, EvalResult]]) -> EvalResult:
    """Signed linear combination of results; tail bounds add with |coeff|."""
    value = 0.0
    tail = 0.0
    cutoff = 0
    met = True
    flags: set[str] = set()
    extrapolated = False
    for coeff, res in terms:
        value += coeff * res.value
        tail += abs(coeff) * res.tail_bound
        cutoff = max(cutoff, res.cutoff)
        met = met and res.accuracy_met
        flags.update(res.flags)
        extrapolated = extrapolated or res.mode == "float-extrapolated"
    mode = "float-extrapolated" if extrapolated else "float"
    return EvalResult(value, tail, cutoff, mode, met, tuple(sorted(flags)))


def exact_side(value: float) -> EvalResult:
    return EvalResult(float(value), 0.0, 0, "float")


def _as_index(index: IndexLike) -> MzvIndex:
    if isinstance(index, MzvIndex):
        return index
    if isinstance(index, str):
        return MzvIndex.parse(index)
    return MzvIndex(tuple(index))


def _check_count(name: str, value: object, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise PreconditionError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise PreconditionError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_shift_param(value: object, name: str = "a") -> Real:
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise PreconditionError(f"{name} must be a real number > -1, got {value!r}")
    if not float(value) > -1.0:
        raise PreconditionError(f"{name} must be > -1, got {value}")
    return value


def _split(acc: float, count: int) -> float:
    return float(acc) / max(1, count)


# ---------------------------------------------------------------------------
# the ten identities


def check_duality(
    index: IndexLike,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """zeta(k) = zeta(k') for the run-reversal dual k' of an admissible k."""
    k = _as_index(index)
    kd = dual(k)
    lhs = mzv(k, acc, config)
    rhs = lhs if kd == k else mzv(kd, acc, config)
    return make_check(
        "duality",
        {"index": str(k)},
        (lhs, rhs),
        tolerance,
        {"dual": str(kd), "self_dual": kd == k},
    )


def check_sum_formula(
    m: int,
    p: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """Sum of zeta over all weight-(m+1) depth-p admissible indices = zeta(m+1)."""
    _check_count("m", m, 2)
    _check_count("p", p, 1)
    if not m > p:
        raise PreconditionError(f"need m > p, got m={m}, p={p}")
    comps = compositions(m, p, 1)
    per = _split(acc, len(comps))
    lhs = combine(
        (1.0, mzv(MzvIndex(alpha[:-1] + (alpha[-1] + 1,)), per, config)) for alpha in comps
    )
    rhs = mzv(MzvIndex((m + 1,)), acc, config)
    return make_check(
        "sum_formula", {"m": m, "p": p}, (lhs, rhs), tolerance, {"terms": len(comps)}
    )


def check_ohno(
    index: IndexLike,
    m: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """Equal sums of zeta over all weight-m entrywise shifts of k and of its dual."""
    k = _as_index(index)
    _check_count("m", m, 0)
    kd = dual(k)
    sides = []
    for base in (k, kd):
        shifts = compositions(m, base.depth, 0)
        per = _split(acc, len(shifts))
        sides.append(
            combine(
                (1.0, mzv(base.shifted(ShiftVector(c)), per, config)) for c in shifts
            )
        )
    return make_check(
        "ohno", {"index": str(k), "m": m}, tuple(sides), tolerance, {"dual": str(kd)}
    )


def check_eq12(
    p: int,
    q: int,
    m: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """Symmetric pair of composition-summed zetas with crossed last exponents.

    Sum over |alpha| = p + m (p parts) of zeta(alpha_1..alpha_{p-1}, alpha_p + q)
    equals the same with p and q exchanged.  With p = q the two enumerations
    are literally identical, so the difference is exactly zero by construction.
    """
    _check_count("p", p, 1)
    _check_count("q", q, 1)
    _check_count("m", m, 0)
    sides = []
    for outer, inner in ((p, q), (q, p)):
        comps = compositions(outer + m, outer, 1)
        per = _split(acc, len(comps))
        sides.append(
            combine(
                (1.0, mzv(MzvIndex(alpha[:-1] + (alpha[-1] + inner,)), per, config))
                for alpha in comps
            )
        )
    return make_check("eq12", {"p": p, "q": q, "m": m}, tuple(sides), tolerance)


@dataclass(frozen=True)
class Theorem1Params:
    """Parameters of the shifted-power duality with rising and difference factors.

    `p`, `q` are positive depths, `r >= 0` the factor order, `m >= 0` the
    composition budget, and `a > -1` a real shift applied to every
    summation variable.
    """

    p: int
    q: int
    r: int
    m: int
    a: Real = 0

    def __post_init__(self) -> None:
        _check_count("p", self.p, 1)
        _check_count("q", self.q, 1)
        _check_count("r", self.r, 0)
        _check_count("m", self.m, 0)
        _check_shift_param(self.a)
        if isinstance(self.a, float) and self.a.is_integer():
            object.__setattr__(self, "a", int(self.a))


def check_theorem1(
    params: Theorem1Params | dict,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """Composition sum of shifted powers with an integer-shifted last factor
    against its dual composition sum carrying rising-factorial and
    finite-difference factors.
    """
    if isinstance(params, dict):
        params = Theorem1Params(**params)
    p, q, r, a, m = params.p, params.q, params.r, params.a, params.m

    lhs_terms = []
    comps = compositions(p + m, p, 1)
    per = _split(acc, len(comps))
    for alpha in comps:
        bundles = [(ShiftedPower(a, x),) for x in alpha]
        bundles[-1] = bundles[-1] + (ExtraPower(r, q),)
        lhs_terms.append((1.0, evaluate(NestedSumSpec(tuple(bundles)), per, config)))

    rhs_terms = []
    comps = compositions(q + m, q, 1)
    per = _split(acc, len(comps))
    for beta in comps:
        bundles = [(ShiftedPower(a, x),) for x in beta]
        bundles[0] = (RisingFactorial(r),) + bundles[0]
        bundles[-1] = bundles[-1] + (FiniteDifference(r, p),)
        rhs_terms.append((1.0, evaluate(NestedSumSpec(tuple(bundles)), per, config)))

    return make_check(
        "theorem1",
        {"p": p, "q": q, "r": r, "a": _json_real(a), "m": m},
        (combine(lhs_terms), combine(rhs_terms)),
        tolerance,
    )


def check_cor15(
    p: int,
    m: int,
    r: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """Truncated composition sum with all variables shifted by r against a
    single series with rising-factorial and finite-difference factors.
    Requires m + p >= r + 1.
    """
    _check_count("p", p, 1)
    _check_count("m", m, 0)
    _check_count("r", r, 0)
    if m + p < r + 1:
        raise PreconditionError(f"need m + p >= r + 1, got m={m}, p={p}, r={r}")
    comps = compositions(p + m, p, 1)
    per = _split(acc, len(comps))
    lhs_terms = []
    for alpha in comps:
        bundles = [(ExtraPower(r, x),) for x in alpha[:-1]]
        bundles.append((ExtraPower(r, alpha[-1] + 1),))
        lhs_terms.append((1.0, evaluate(NestedSumSpec(tuple(bundles)), per, config)))
    rhs_spec = NestedSumSpec(
        ((RisingFactorial(r), ExtraPower(r, m + 1), FiniteDifference(r, p)),)
    )
    rhs = evaluate(rhs_spec, acc, config)
    return make_check(
        "cor15",
        {"p": p, "m": m, "r": r},
        (combine(lhs_terms), rhs),
        tolerance,
        {"terms": len(comps)},
    )


def check_eq24(
    pvec: Sequence[int],
    qvec: Sequence[int],
    a: Real = 0,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """Vectorized duality of harmonic products with plain-power factors at
    run boundaries: positions sum(p[:j]) carry extra exponents q_j on one
    side, and the reversed-q partial sums carry reversed p exponents on the
    other.  Single spec per side, no composition sums.
    """
    pv = tuple(pvec)
    qv = tuple(qvec)
    if len(pv) != len(qv) or len(pv) == 0:
        raise PreconditionError("pvec and qvec must be equally long and non-empty")
    for x in pv + qv:
        _check_count("vector entry", x, 1)
    _check_shift_param(a)

    def side(ps: tuple[int, ...], qs: tuple[int, ...]) -> EvalResult:
        depth = sum(ps)
        bundles: list[tuple] = [(ShiftedPower(a, 1),) for _ in range(depth)]
        pos = 0
        for pj, qj in zip(ps, qs):
            pos += pj
            bundles[pos - 1] = bundles[pos - 1] + (ExtraPower(0, qj),)
        return evaluate(NestedSumSpec(tuple(bundles)), acc, config)

    lhs = side(pv, qv)
    rhs = side(tuple(reversed(qv)), tuple(reversed(pv)))
    return make_check(
        "eq24",
        {"pvec": list(pv), "qvec": list(qv), "a": _json_real(a)},
        (lhs, rhs),
        tolerance,
    )


def check_theorem3(
    p: int,
    q: int,
    r: int,
    m: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """Three-way equality of restricted composition sums with integer-shifted
    blocks: a depth p+r+1 form with m-shifted middle block, a depth p+1 form
    with one m-shifted last factor, and an alternating-binomial family of
    depth q+r+1 forms with j-shifted blocks.
    """
    for name, v in (("p", p), ("q", q), ("r", r), ("m", m)):
        _check_count(name, v, 0)

    terms1 = []
    comps = compositions(q + r + 1, r + 1, 1)
    per = _split(acc, len(comps))
    for alpha in comps:
        bundles = [(ExtraPower(0, 1),) for _ in range(p)]
        bundles += [(ExtraPower(m, x),) for x in alpha]
        bundles[-1] = bundles[-1] + (ExtraPower(0, 1),)
        terms1.append((1.0, evaluate(NestedSumSpec(tuple(bundles)), per, config)))

    terms2 = []
    comps = compositions(p + r + 1, p + 1, 1)
    per = _split(acc, len(comps))
    for beta in comps:
        bundles = [(ExtraPower(0, x),) for x in beta]
        bundles[-1] = bundles[-1] + (ExtraPower(m, q + 1),)
        terms2.append((1.0, evaluate(NestedSumSpec(tuple(bundles)), per, config)))

    terms3 = []
    comps = compositions(p + r + 1, r + 1, 1)
    per = _split(acc, (2**m) * len(comps))
    for j in range(m + 1):
        coeff = float((-1) ** j * comb(m, j))
        for beta in comps:
            bundles = [(ExtraPower(0, 1),) for _ in range(q)]
            bundles += [(ExtraPower(j, x),) for x in beta[:-1]]
            bundles.append((ExtraPower(j, beta[-1] + 1),))
            terms3.append((coeff, evaluate(NestedSumSpec(tuple(bundles)), per, config)))

    return make_check(
        "theorem3",
        {"p": p, "q": q, "r": r, "m": m},
        (combine(terms1), combine(terms2), combine(terms3)),
        tolerance,
    )


def check_restricted_sum(
    p: int,
    q: int,
    r: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """Three equal restricted sums of zetas: a ones-prefix sum over
    compositions of q+r+1, a prefix-free sum over compositions of p+r+1,
    and the ones-prefix sum with p and q exchanged.
    """
    for name, v in (("p", p), ("q", q), ("r", r)):
        _check_count(name, v, 0)

    def ones_prefix(ones: int, total: int) -> EvalResult:
        comps = compositions(total + r + 1, r + 1, 1)
        per = _split(acc, len(comps))
        return combine(
            (
                1.0,
                mzv(
                    MzvIndex((1,) * ones + alpha[:-1] + (alpha[-1] + 1,)),
                    per,
                    config,
                ),
            )
            for alpha in comps
        )

    t1 = ones_prefix(p, q)
    t3 = ones_prefix(q, p)

    comps = compositions(p + r + 1, p + 1, 1)
    per = _split(acc, len(comps))
    t2 = combine(
        (1.0, mzv(MzvIndex(beta[:-1] + (beta[-1] + q + 1,)), per, config))
        for beta in comps
    )

    return make_check(
        "restricted_sum", {"p": p, "q": q, "r": r}, (t1, t2, t3), tolerance
    )


def check_section4(
    m: int,
    p: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> IdentityCheck:
    """Alternating truncated sums against a zeta-minus-series closed form.

    With compositions alpha of m+p into p parts, S_j drops the first j
    variables (pinned to 1) and S_p is the bare composition count
    C(m+p-1, m).  Three sides are compared: the alternating sum
    S_1 - S_2 + ... +- S_p, the directly truncated sum S (first variable
    pinned to 1, the rest shifted), and zeta(m+p) minus a depth-one series.
    """
    _check_count("m", m, 1)
    _check_count("p", p, 1)
    comps = compositions(m + p, p, 1)
    count = len(comps)
    if count != comb(m + p - 1, m):
        raise AssertionError("composition count disagrees with binomial")

    terms: list[tuple[float, EvalResult]] = []
    per = _split(acc, max(1, (p - 1) * count))
    s_values: list[float] = []
    for j in range(1, p):
        sj_terms = []
        for alpha in comps:
            tail = alpha[j:]
            bundles = [(ExtraPower(0, x),) for x in tail[:-1]]
            bundles.append((ExtraPower(0, tail[-1] + 1),))
            sj_terms.append((1.0, evaluate(NestedSumSpec(tuple(bundles)), per, config)))
        sj = combine(sj_terms)
        s_values.append(sj.value)
        terms.append(((-1.0) ** (j - 1), sj))
    terms.append(((-1.0) ** (p - 1), exact_side(count)))
    alternating = combine(terms)

    if p == 1:
        direct = exact_side(count)
    else:
        per = _split(acc, count)
        direct_terms = []
        for alpha in comps:
            tail = alpha[1:]
            bundles = [(ExtraPower(1, x),) for x in tail[:-1]]
            bundles.append((ExtraPower(1, tail[-1] + 1),))
            direct_terms.append(
                (1.0, evaluate(NestedSumSpec(tuple(bundles)), per, config))
            )
        direct = combine(direct_terms)

    if p == 1:
        t_spec = NestedSumSpec(((ExtraPower(1, m + 1),),))
    else:
        t_spec = NestedSumSpec(((ExtraPower(0, p - 1), ExtraPower(1, m + 1)),))
    rhs = combine(
        [
            (1.0, mzv(MzvIndex((m + p,)), acc / 2, config)),
            (-1.0, evaluate(t_spec, acc / 2, config)),
        ]
    )

    return make_check(
        "section4",
        {"m": m, "p": p},
        (alternating, direct, rhs),
        tolerance,
        {"s_p": count, "s_j": s_values},
    )


def _json_real(a: Real) -> object:
    if isinstance(a, Fraction):
        return f"{a.numerator}/{a.denominator}"
    return a


# ---------------------------------------------------------------------------
# registry: grids and fuzz draws


def admissible_indices(weight: int) -> list[MzvIndex]:
    """All admissible indices of the given weight, by depth then lexicographic."""
    _check_count("weight", weight, 2)
    out = []
    for depth in range(1, weight):
        for parts in compositions(weight, depth, 1):
            if parts[-1] >= 2:
                out.append(MzvIndex(parts))
    return out


def _range_list(ranges: dict, key: str, default: list) -> list:
    value = ranges.get(key, default)
    if not isinstance(value, list) or not value:
        raise PreconditionError(f"range {key!r} must be a non-empty list")
    return value


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(ranges: dict, key: str, default: list) -> list[int]:
    """A grid value that must be a non-empty list of integers."""
    values = _range_list(ranges, key, default)
    for v in values:
        if not _is_int(v):
            raise PreconditionError(f"range {key!r} must list integers, got {v!r}")
    return values


def _grid_product(ranges: dict, names: Sequence[str], defaults: dict) -> list[dict]:
    pools = [_range_list(ranges, n, defaults[n]) for n in names]
    out: list[dict] = []

    def rec(i: int, cur: dict) -> None:
        if i == len(names):
            out.append(dict(cur))
            return
        for v in pools[i]:
            cur[names[i]] = v
            rec(i + 1, cur)
            del cur[names[i]]

    rec(0, {})
    return out


def _pair_range(ranges: dict, key: str, default: tuple[int, int]) -> tuple[int, int]:
    """A fuzz range: an inclusive `[lo, hi]` pair of integers with `lo <= hi`."""
    value = ranges.get(key, default)
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_int, value)) and value[0] <= value[1]):
        raise PreconditionError(f"range {key!r} must be an [lo, hi] pair of integers with lo <= hi, got {value!r}")
    return value[0], value[1]


def _real_range(ranges: dict, key: str, default: tuple[float, float]) -> tuple[float, float]:
    """A fuzz range of reals: an inclusive `[lo, hi]` pair of finite numbers with `lo <= hi`."""
    value = ranges.get(key, default)
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) and isfinite(v) for v in value)
        and value[0] <= value[1]
    ):
        raise PreconditionError(f"range {key!r} must be an [lo, hi] pair of numbers with lo <= hi, got {value!r}")
    return float(value[0]), float(value[1])


def check_ranges(identity: str, ranges: object) -> None:
    """Raise `PreconditionError` unless `ranges` is a valid fuzz `ranges` object:
    only the keys the identity's draw reads, each an `[lo, hi]` pair (reals
    for `a`, integers otherwise)."""
    if not isinstance(ranges, dict):
        raise PreconditionError("must be an object")
    fuzz_keys = _identity_info(identity).fuzz_keys
    bad = set(ranges) - set(fuzz_keys)
    if bad:
        raise PreconditionError(f"unknown keys {sorted(bad)} (known: {list(fuzz_keys)})")
    for key in ranges:
        (_real_range if key == "a" else _pair_range)(ranges, key, None)


def _grid_duality(ranges: dict) -> list[dict]:
    if "indices" in ranges:
        return [{"index": str(_as_index(i))} for i in _range_list(ranges, "indices", [])]
    max_weight = _check_count("max_weight", ranges.get("max_weight", 6), 2)
    out = []
    for w in range(2, max_weight + 1):
        out.extend({"index": str(k)} for k in admissible_indices(w))
    return out


def _draw_index(rng: XorShift64Star, ranges: dict, default: tuple[int, int]) -> MzvIndex:
    lo, hi = _pair_range(ranges, "weight", default)
    w = rng.randint(max(2, lo), max(2, hi))
    return rng.choice(admissible_indices(w))


def _grid_ohno(ranges: dict) -> list[dict]:
    out = []
    for idx in _range_list(ranges, "indices", ["(2)", "(1,2)", "(2,2)", "(1,1,2)"]):
        for m in _range_list(ranges, "m", [0, 1, 2, 3]):
            out.append({"index": str(_as_index(idx)), "m": m})
    return out


def _grid_sum_formula(ranges: dict) -> list[dict]:
    out = []
    ps = _int_list(ranges, "p", []) if "p" in ranges else None
    for m in _int_list(ranges, "m", [2, 3, 4, 5, 6, 7, 8]):
        for p in ps if ps is not None else range(1, m):
            if 1 <= p < m:
                out.append({"m": m, "p": p})
    return out


def _grid_eq24(ranges: dict) -> list[dict]:
    if "pairs" in ranges:
        pairs = []
        for p in _range_list(ranges, "pairs", []):
            if not (isinstance(p, dict) and set(p) == {"pvec", "qvec"} and all(isinstance(v, list) for v in p.values())):
                raise PreconditionError(f"range 'pairs' must list {{pvec, qvec}} objects of lists, got {p!r}")
            pairs.append((list(p["pvec"]), list(p["qvec"])))
    elif "n" in ranges or "entry" in ranges:
        # exhaustive: every (pvec, qvec) with entries drawn from `entry`
        entries = _int_list(ranges, "entry", [1, 2])
        pairs = []
        for n in _int_list(ranges, "n", [1, 2]):
            _check_count("n", n, 1)
            vecs = [list(v) for v in product(entries, repeat=n)]
            pairs.extend((p, q) for p in vecs for q in vecs)
    else:
        pairs = [([1], [1]), ([2], [1]), ([1, 1], [2, 1]), ([2, 1], [1, 2])]
    out = []
    for pvec, qvec in pairs:
        for a in _range_list(ranges, "a", [0, 0.5]):
            out.append({"pvec": pvec, "qvec": qvec, "a": a})
    return out


def _draw_eq24(rng: XorShift64Star, ranges: dict) -> dict:
    nlo, nhi = _pair_range(ranges, "n", (1, 3))
    elo, ehi = _pair_range(ranges, "entry", (1, 3))
    alo, ahi = _real_range(ranges, "a", (-0.5, 1.5))
    n = rng.randint(nlo, nhi)
    return {
        "pvec": [rng.randint(elo, ehi) for _ in range(n)],
        "qvec": [rng.randint(elo, ehi) for _ in range(n)],
        "a": round(rng.uniform_in(alo, ahi), 6),
    }


def _draw_theorem1(rng: XorShift64Star, ranges: dict) -> dict:
    alo, ahi = _real_range(ranges, "a", (-0.5, 1.5))
    return {
        "p": rng.randint(*_pair_range(ranges, "p", (1, 3))),
        "q": rng.randint(*_pair_range(ranges, "q", (1, 3))),
        "r": rng.randint(*_pair_range(ranges, "r", (0, 2))),
        "a": round(rng.uniform_in(alo, ahi), 6),
        "m": rng.randint(*_pair_range(ranges, "m", (0, 2))),
    }


def _draw_cor15(rng: XorShift64Star, ranges: dict) -> dict:
    prange = _pair_range(ranges, "p", (1, 3))
    mrange = _pair_range(ranges, "m", (0, 3))
    rrange = _pair_range(ranges, "r", (0, 3))
    if mrange[1] + prange[1] < rrange[0] + 1:
        raise PreconditionError(f"no draw meets m + p >= r + 1 in p {prange}, m {mrange}, r {rrange}")
    while True:
        params = {"p": rng.randint(*prange), "m": rng.randint(*mrange), "r": rng.randint(*rrange)}
        if params["m"] + params["p"] >= params["r"] + 1:
            return params


def _draw_sum_formula(rng: XorShift64Star, ranges: dict) -> dict:
    mlo, mhi = _pair_range(ranges, "m", (3, 8))
    if mhi < 2:
        raise PreconditionError(f"range 'm' must reach 2 (sum_formula needs m >= 2), got {[mlo, mhi]}")
    m = rng.randint(max(2, mlo), mhi)
    return {"m": m, "p": rng.randint(1, m - 1)}


@dataclass(frozen=True)
class IdentityInfo:
    name: str
    check: Callable[..., IdentityCheck]
    grid: Callable[[dict], list[dict]]
    draw: Callable[[XorShift64Star, dict], dict]
    grid_keys: tuple[str, ...]  # the keys `grid` reads; a suite config may use no other
    fuzz_keys: tuple[str, ...]  # the `ranges` keys `draw` reads; likewise exclusive


IDENTITIES: dict[str, IdentityInfo] = {
    "duality": IdentityInfo(
        "duality",
        check_duality,
        _grid_duality,
        lambda rng, r: {"index": str(_draw_index(rng, r, (3, 8)))},
        ("indices", "max_weight"),
        ("weight",),
    ),
    "sum_formula": IdentityInfo(
        "sum_formula",
        check_sum_formula,
        _grid_sum_formula,
        _draw_sum_formula,
        ("m", "p"),
        ("m",),
    ),
    "ohno": IdentityInfo(
        "ohno",
        check_ohno,
        _grid_ohno,
        lambda rng, r: {
            "index": str(_draw_index(rng, r, (3, 6))),
            "m": rng.randint(*_pair_range(r, "m", (0, 3))),
        },
        ("indices", "m"),
        ("weight", "m"),
    ),
    "eq12": IdentityInfo(
        "eq12",
        check_eq12,
        lambda r: _grid_product(r, ("p", "q", "m"), {"p": [1, 2, 3], "q": [1, 2, 3], "m": [0, 1, 2]}),
        lambda rng, r: {
            "p": rng.randint(*_pair_range(r, "p", (1, 4))),
            "q": rng.randint(*_pair_range(r, "q", (1, 4))),
            "m": rng.randint(*_pair_range(r, "m", (0, 4))),
        },
        ("p", "q", "m"),
        ("p", "q", "m"),
    ),
    "theorem1": IdentityInfo(
        "theorem1",
        lambda acc=DEFAULT_ACCURACY, tolerance=None, config=DEFAULT_CONFIG, **params: check_theorem1(
            params, acc, tolerance, config
        ),
        lambda r: _grid_product(
            r,
            ("p", "q", "r", "a", "m"),
            {"p": [1, 2], "q": [1, 2], "r": [0, 1, 2], "a": [0, 0.5], "m": [0, 1]},
        ),
        _draw_theorem1,
        ("p", "q", "r", "a", "m"),
        ("p", "q", "r", "a", "m"),
    ),
    "cor15": IdentityInfo(
        "cor15",
        check_cor15,
        lambda r: [
            g
            for g in _grid_product(
                r, ("p", "m", "r"), {"p": [1, 2, 3], "m": [0, 1, 2], "r": [0, 1, 2, 3]}
            )
            if g["m"] + g["p"] >= g["r"] + 1
        ],
        _draw_cor15,
        ("p", "m", "r"),
        ("p", "m", "r"),
    ),
    "eq24": IdentityInfo(
        "eq24", check_eq24, _grid_eq24, _draw_eq24, ("pairs", "n", "entry", "a"), ("n", "entry", "a")
    ),
    "theorem3": IdentityInfo(
        "theorem3",
        check_theorem3,
        lambda r: _grid_product(
            r, ("p", "q", "r", "m"), {"p": [0, 1, 2], "q": [0, 1, 2], "r": [0, 1], "m": [0, 1, 2]}
        ),
        lambda rng, r: {
            "p": rng.randint(*_pair_range(r, "p", (0, 2))),
            "q": rng.randint(*_pair_range(r, "q", (0, 2))),
            "r": rng.randint(*_pair_range(r, "r", (0, 2))),
            "m": rng.randint(*_pair_range(r, "m", (0, 3))),
        },
        ("p", "q", "r", "m"),
        ("p", "q", "r", "m"),
    ),
    "restricted_sum": IdentityInfo(
        "restricted_sum",
        check_restricted_sum,
        lambda r: _grid_product(
            r, ("p", "q", "r"), {"p": [0, 1, 2], "q": [0, 1, 2], "r": [0, 1, 2]}
        ),
        lambda rng, r: {
            "p": rng.randint(*_pair_range(r, "p", (0, 3))),
            "q": rng.randint(*_pair_range(r, "q", (0, 3))),
            "r": rng.randint(*_pair_range(r, "r", (0, 3))),
        },
        ("p", "q", "r"),
        ("p", "q", "r"),
    ),
    "section4": IdentityInfo(
        "section4",
        check_section4,
        lambda r: _grid_product(r, ("m", "p"), {"m": [1, 2, 3, 4], "p": [1, 2, 3, 4]}),
        lambda rng, r: {
            "m": rng.randint(*_pair_range(r, "m", (1, 5))),
            "p": rng.randint(*_pair_range(r, "p", (1, 5))),
        },
        ("m", "p"),
        ("m", "p"),
    ),
}


def run_grid(
    identity: str,
    ranges: dict | None = None,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
    parallelism: int = 1,
) -> list[IdentityCheck]:
    """Run one identity over a deterministic parameter grid.

    The grid is the cartesian product of the per-parameter value lists in
    `ranges` (each identity has sensible defaults), expanded in a fixed
    order so reports are reproducible.  Points run serially: `parallelism`
    is accepted for compatibility and has no effect (worker threads only
    made the numpy-bound checks slower).
    """
    info = _identity_info(identity)
    return [
        info.check(acc=acc, tolerance=tolerance, config=config, **params)
        for params in info.grid(dict(ranges or {}))
    ]


def draw_params(identity: str, rng: XorShift64Star, ranges: dict | None = None) -> dict:
    """Draw one fuzz parameter set for an identity (deterministic in rng state)."""
    info = _identity_info(identity)
    return info.draw(rng, dict(ranges or {}))


def _identity_info(identity: str) -> IdentityInfo:
    try:
        return IDENTITIES[identity]
    except KeyError:
        known = ", ".join(sorted(IDENTITIES))
        raise PreconditionError(f"unknown identity {identity!r}; known: {known}") from None
