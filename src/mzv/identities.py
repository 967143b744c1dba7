"""Numeric checks of nested-sum duality identities.

Every checker builds the two (or three) sides of an identity as
independent nested sums and returns an `IdentityCheck` whose verdict is
honest: a check passes only when the observed max pairwise difference is
inside the tolerance and the accumulated tail bounds are small enough that
the comparison at that tolerance is meaningful.

The checkers never reuse a closed form across sides - each side is the
sum the identity literally states, so agreement is evidence.  A side is
data: a list of `(coeff, item, accuracy)` terms, and an item is one of

* a nested-sum spec, evaluated to the term's accuracy;
* an integral: a callable, called with the term's accuracy, such as
  `functools.partial(quadrature.triangle_quadrature, integrand)`;
* an `EvalResult` already computed: a sub-sum whose value the check's
  details report.  It is a named tuple, but an item is taken as a result
  by its type, so no other tuple is;
* an exact number, a result with bound 0, cutoff 0 and mode ``float``.

Every spec comes from one builder, `series._spec`: an index's parts, the
parameter added to every variable, and additional factors at the first and
last part; eq24 joins such specs run by run.  `side` is the one evaluator:
it turns a side's terms, in order, into one result, and `make_check` calls
it on each side in turn, once for a side listed as the same object as the
side before it (duality's self-dual index).  No checker calls the series
engine or a quadrature rule itself; only section4 evaluates a sub-sum
first, its `S_j`, whose values its details report.  Most sides are sums
over the compositions of a weight into a fixed number of parts;
`composition_terms` lists their terms, the accuracy split over them.  The
lister counts its terms from the binomial before it enumerates anything,
and it rejects with `PreconditionError` a sum that needs more than
`MAX_TERMS` (4,096) evaluations or more parts than a spec has positions.
The compositions of a `(total, parts, minimum)` are enumerated once and
kept as a tuple in a registered memo of 64 entries (`_compositions`), so
the sides of a check, and the checks of a grid, that sum over the same
compositions read one tuple.
Every checker lists all its sides, integrals included, before any is
evaluated, so a refused side costs no evaluation.  By the same limit
`admissible_indices` refuses weights above 14 (2^12 indices).  So untrusted
parameters cannot start an hour-long or memory-filling run.

Identity names (the `identity` field and the registry keys) are a stable
wire contract used by the CLI, configs and reports:

    duality, sum_formula, ohno, eq12, theorem1, cor15, eq24, theorem3,
    restricted_sum, section4
"""

from __future__ import annotations

import inspect
from bisect import bisect_left
from fractions import Fraction
from itertools import product
from math import comb, inf, isfinite, prod
from operator import add
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from ._memo import memo
from .errors import PreconditionError, check_int, check_keys, check_real, shown
from .indices import MAX_DEPTH, MAX_EXPONENT, MzvIndex, compositions, dual
from .rng import XorShift64Star
from .series import (
    _MAX_LOG_POWER,
    RISING_DEGREE_MAX,
    EvalResult,
    FiniteDifference,
    NestedSumSpec,
    Real,
    RisingFactorial,
    ShiftedPower,
    _outline,
    _shift_to_json,
    _spec,
    evaluate,
)

__all__ = [
    "IdentityCheck",
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
    "check_params",
    "draw_params",
    "check_ranges",
    "admissible_indices",
    "composition_terms",
    "side",
    "DEFAULT_ACCURACY",
    "MAX_TERMS",
]

DEFAULT_ACCURACY = 1e-8

# The most series evaluations one composition sum may take, the most
# indices `admissible_indices` may build, the most points a grid may have
# and the most draws a fuzz run may take.  The packaged suite and the
# benchmark pools need at most 35 terms per sum, the default fuzz ranges at
# most 504 (section4 at m = p = 5); one evaluation takes up to seconds.
MAX_TERMS = 4096
# 2^(w-2) admissible indices have weight w
_MAX_WEIGHT = 2 + MAX_TERMS.bit_length() - 1
# Each position but the last whose exponent is 1 adds a log column to the
# tail expansion, and the engine takes at most `_MAX_LOG_POWER` of them.  A
# composition into `p` parts may begin with `p - 1` ones, so `p` is at most
# this, and so is every run of positions that ends in one larger exponent.
_MAX_PARTS = _MAX_LOG_POWER + 1

IndexLike = Union[MzvIndex, str, Sequence[int]]


class IdentityCheck(NamedTuple):
    """Outcome of one identity instance.

    `sides` holds the independently computed values in the order the
    identity states them; `abs_diff` is the largest pairwise difference
    and `tail_budget` the largest pairwise sum of tail bounds.  The check
    passes iff both stay within `tolerance` - a tiny difference proves
    nothing if the sides were not computed tightly enough to resolve it.
    `details` is the checker's own dict of what it reports besides the
    sides, empty for most.  A named tuple, built by `make_check` alone.
    """

    identity: str
    params: dict
    sides: tuple[EvalResult, ...]
    abs_diff: float
    tolerance: float
    tail_budget: float
    passed: bool
    details: dict

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
    sides: Sequence[Sequence[Term]],
    tolerance: float | None,
    details: dict | None = None,
) -> IdentityCheck:
    """Evaluate the sides, each a list of terms, in order (`side`), and
    assemble an `IdentityCheck` with the shared pass/fail semantics: each
    side is compared with the sides before it as it is evaluated.  A side
    listed as the same object as the side before it is that side's result,
    evaluated once."""
    if len(sides) < 2:
        raise ValueError("a check needs at least two sides")
    if tolerance is not None:  # refused before any side is evaluated
        tolerance = float(check_real(tolerance, "tolerance", 0.0, strict=True, error=PreconditionError))
    results: list[EvalResult] = []
    abs_diff = tail_budget = scale = 0.0
    last = None
    for terms in sides:
        if terms is not last:
            res = side(terms)
            last = terms
        for before in results:
            # the larger, or NaN once either is (`max` drops a NaN that comes second)
            diff = abs(before.value - res.value)
            if diff > abs_diff or diff != diff:
                abs_diff = diff
            budget = before.tail_bound + res.tail_bound
            if budget > tail_budget or budget != budget:
                tail_budget = budget
        size = abs(res.value)
        if not results or size > scale:  # as `max` keeps the largest |value|
            scale = size
        results.append(res)
    if tolerance is None:
        # not finite only when a side is not, and then the check fails
        tolerance = tail_budget + 1e-12 * (1.0 + scale)
    passed = abs_diff <= tolerance and tail_budget <= tolerance and isfinite(tolerance)
    # `params` and `details` are the checker's own dicts, not copied
    details = {} if details is None else details
    return IdentityCheck(identity, params, tuple(results), abs_diff, tolerance, tail_budget, passed, details)


def _as_index(index: IndexLike) -> MzvIndex:
    if isinstance(index, str):  # a grid point's index is text
        return MzvIndex.parse(index)
    if isinstance(index, MzvIndex):
        return index
    if isinstance(index, (list, tuple)):
        return MzvIndex(tuple(index))
    raise PreconditionError(f"an index must be index text or a list of parts, got {shown(index)}")


def _composition_count(total: int, parts: int, minimum: int) -> int:
    """The number of compositions of `total` into `parts >= 1` parts, each
    >= `minimum`.  More parts than a spec has positions are refused, which
    also keeps the binomial to at most 63 factors."""
    if parts > MAX_DEPTH:
        raise PreconditionError(f"a composition into {shown(parts)} parts is deeper than a spec may be ({MAX_DEPTH})")
    free = total - parts * minimum
    return comb(free + parts - 1, parts - 1) if free >= 0 else 0


Family = Callable[[tuple[int, ...]], NestedSumSpec]
# a term of a side: `(coeff, item, accuracy)`, the item a spec, an integral
# (called with the accuracy), a computed result or an exact number (module
# docstring)
Term = tuple[float, Union[NestedSumSpec, Callable[[float], EvalResult], EvalResult, Real], float]


def composition_terms(
    total: int,
    parts: int,
    spec: Family | Sequence[tuple[int, Family]],
    acc: float,
    minimum: int = 1,
    shares: int = 1,
) -> list[Term]:
    """The `(coeff, spec, accuracy)` terms of the sum of the nested sums
    `spec(alpha)` over the compositions `alpha` of `total` into `parts`
    parts, each >= `minimum`, in lexicographic order.

    `spec` may instead list `(coeff, spec_j)` families: the sum is then
    `sum_j coeff_j * sum_alpha spec_j(alpha)`, listed family by family.
    Each term's accuracy is `acc / (shares * sum_j |coeff_j| * count)`, so
    the combined tail bound stays within `acc / shares`; `shares` is the
    number of sums that split one accuracy budget.  `acc` is checked as
    `evaluate` checks a target (`InvalidSpecError`).  The number of series
    evaluations, `shares * families * count`, and that divisor are taken
    from the binomial before anything is enumerated, and neither may exceed
    `MAX_TERMS` (`PreconditionError`): a finer split asks each term for an
    accuracy no float sum reaches.  `parts` may not exceed the depth of a
    spec.
    """
    families = [(1, spec)] if callable(spec) else list(spec)
    count = _composition_count(total, parts, minimum)
    split = shares * sum(abs(c) for c, _ in families) * count
    evaluations = shares * len(families) * count
    if evaluations > MAX_TERMS or split > MAX_TERMS:
        what = f"the sum over compositions of {shown(total)} into {shown(parts)} parts"
        if evaluations > MAX_TERMS:
            raise PreconditionError(f"{what} takes more than {MAX_TERMS} series evaluations")
        raise PreconditionError(f"{what} splits its accuracy over {split} terms, more than {MAX_TERMS}")
    per = float(check_real(acc, "target accuracy", 0.0, strict=True)) / max(1, split)
    comps = _compositions(total, parts, minimum)
    return [(float(c), f(alpha), per) for c, f in families for alpha in comps]


# Each entry holds at most `MAX_TERMS` compositions, as `composition_terms`
# refuses a longer sum before it asks; the packaged suite and the benchmark
# pools ask for 40 distinct ones.
# Without it: cold suite +0 %; cold zeta-mix / param-sums / quad-cross draws +2 / +20 / -0 %.
@memo(64)
def _compositions(total: int, parts: int, minimum: int) -> tuple[tuple[int, ...], ...]:
    """`compositions(total, parts, minimum)` as a tuple, kept: a grid's
    checks, and the sides of one check, sum over the same compositions."""
    return tuple(compositions(total, parts, minimum))


def side(terms: Sequence[Term]) -> EvalResult:
    """The one evaluator of a side: the signed sum of its `(coeff, item,
    accuracy)` terms, added in order.  A spec item is evaluated to the
    term's accuracy, and an integral, a callable item, is called with it; a
    result item is taken as it is, and an exact number as a result with
    bound 0, cutoff 0 and mode ``float`` (the accuracy of either is not
    read).  Tail bounds add with |coeff|, the cutoff is the largest, and the
    accuracy is met when every term's is.  A side of one term with
    coefficient 1 is that term's result, as it is."""
    whole = len(terms) == 1 and terms[0][0] == 1.0
    value = tail = 0.0
    cutoff = 0
    met = True
    flags: set[str] = set()
    mode = "float"
    for coeff, item, acc in terms:
        # a spec, the common item, is known by one test; anything that is
        # neither an integral, a result nor a number is handed to `evaluate` too
        if isinstance(item, NestedSumSpec):
            res = evaluate(item, acc)
        elif isinstance(item, EvalResult):
            res = item
        elif callable(item):
            res = item(acc)
        elif isinstance(item, (int, float, Fraction)):
            res = EvalResult(float(item), 0.0, 0, "float")
        else:
            res = evaluate(item, acc)
        if whole:
            return res
        value += coeff * res.value
        tail += abs(coeff) * res.tail_bound
        if res.cutoff > cutoff:
            cutoff = res.cutoff
        met = met and res.accuracy_met
        if res.flags:
            flags.update(res.flags)
        if res.mode == "float-extrapolated":
            mode = res.mode
    return EvalResult(value, tail, cutoff, mode, met, tuple(sorted(flags)))


def _check_log_cap(specs: Iterable[NestedSumSpec], what: Callable[[], str]) -> None:
    """Refuse, naming `what()`, specs whose tail expansion takes more log
    columns than the engine does (`_MAX_LOG_POWER`), before any is evaluated.
    A position adds at most one column, so a shallower spec is not measured."""
    degree = max((_outline(spec).log_degree for spec in specs if spec.depth > _MAX_LOG_POWER), default=0)
    if degree > _MAX_LOG_POWER:
        raise PreconditionError(
            f"{what()}: a side's tail expansion reaches (ln k)^{degree}; "
            f"the engine takes log degrees up to {_MAX_LOG_POWER}"
        )


# ---------------------------------------------------------------------------
# the ten identities


def check_duality(
    index: IndexLike,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """zeta(k) = zeta(k') for the run-reversal dual k' of an admissible k."""
    k = _as_index(index)
    kd = dual(k)
    spec, dual_spec = _spec(k.parts), _spec(kd.parts)
    _check_log_cap((spec, dual_spec), lambda: f"index {k}, dual {kd}")
    self_dual = kd.parts == k.parts
    lhs = [(1.0, spec, acc)]
    # a self-dual index's side is listed twice, one object, evaluated once
    rhs = lhs if self_dual else [(1.0, dual_spec, acc)]
    return make_check("duality", {"index": str(k)}, (lhs, rhs), tolerance, {"dual": str(kd), "self_dual": self_dual})


def check_sum_formula(
    m: int,
    p: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Sum of zeta over all weight-(m+1) depth-p admissible indices = zeta(m+1)."""
    # the right side is zeta(m + 1), whose exponent is at most MAX_EXPONENT
    check_int(m, "m", 2, MAX_EXPONENT - 1, error=PreconditionError)
    check_int(p, "p", 1, _MAX_PARTS, error=PreconditionError)
    if not m > p:
        raise PreconditionError(f"need m > p, got m={m}, p={shown(p)}")
    terms = composition_terms(m, p, lambda alpha: _spec(alpha[:-1] + (alpha[-1] + 1,)), acc)
    rhs = [(1.0, _spec((m + 1,)), acc)]
    return make_check("sum_formula", {"m": m, "p": p}, (terms, rhs), tolerance, {"terms": len(terms)})


def check_ohno(
    index: IndexLike,
    m: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Equal sums of zeta over all weight-m entrywise shifts of k and of its dual."""
    k = _as_index(index)
    kd = dual(k)
    # a shift only raises exponents, and the one that puts all of m on the
    # last part keeps every log column of its index
    _check_log_cap((_spec(k.parts), _spec(kd.parts)), lambda: f"index {k}, dual {kd}")
    # one shift puts all of m on the largest part, of k or of its dual
    check_int(m, "m", 0, MAX_EXPONENT - max(k.parts + kd.parts), error=PreconditionError)
    terms = [
        composition_terms(m, base.depth, lambda c: _spec(tuple(map(add, base.parts, c))), acc, minimum=0)
        for base in (k, kd)
    ]
    return make_check("ohno", {"index": str(k), "m": m}, terms, tolerance, {"dual": str(kd)})


def check_eq12(
    p: int,
    q: int,
    m: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Symmetric pair of composition-summed zetas with crossed last exponents.

    Sum over |alpha| = p + m (p parts) of zeta(alpha_1..alpha_{p-1}, alpha_p + q)
    equals the same with p and q exchanged.  With p = q the two enumerations
    are literally identical, so the difference is exactly zero by construction.
    """
    # p and q are numbers of parts, and the last exponents reach m + 1 + q and m + 1 + p
    check_int(p, "p", 1, _MAX_PARTS, error=PreconditionError)
    check_int(q, "q", 1, _MAX_PARTS, error=PreconditionError)
    check_int(m, "m", 0, MAX_EXPONENT - 1 - max(p, q), error=PreconditionError)
    terms = [
        composition_terms(outer + m, outer, lambda alpha: _spec(alpha[:-1] + (alpha[-1] + inner,)), acc)
        for outer, inner in ((p, q), (q, p))
    ]
    return make_check("eq12", {"p": p, "q": q, "m": m}, terms, tolerance)


def check_theorem1(
    p: int,
    q: int,
    r: int,
    m: int,
    a: Real = 0,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Composition sum of shifted powers with an integer-shifted last factor
    against its dual composition sum carrying rising-factorial and
    finite-difference factors.

    `p`, `q` are positive depths, `r >= 0` the factor order, `m >= 0` the
    composition budget, and `a > -1` a real shift applied to every
    summation variable; an integral float `a` is taken as an int.
    """
    # p and q are numbers of parts and the finite difference's exponent, r
    # the rising factorial's degree, and a part of a composition reaches m + 1
    for name, v, minimum, maximum in (
        ("p", p, 1, _MAX_PARTS), ("q", q, 1, _MAX_PARTS), ("r", r, 0, RISING_DEGREE_MAX), ("m", m, 0, MAX_EXPONENT - 1)
    ):
        check_int(v, name, minimum, maximum, error=PreconditionError)
    check_real(a, "a", -1.0, strict=True, error=PreconditionError)
    if isinstance(a, float) and a.is_integer():
        a = int(a)
    extra, rising, difference = (ShiftedPower(r, q),), (RisingFactorial(r),), (FiniteDifference(r, p),)
    terms = (
        composition_terms(p + m, p, lambda alpha: _spec(alpha, a, last=extra), acc),
        composition_terms(q + m, q, lambda beta: _spec(beta, a, first=rising, last=difference), acc),
    )
    return make_check("theorem1", {"p": p, "q": q, "r": r, "a": _shift_to_json(a), "m": m}, terms, tolerance)


def check_cor15(
    p: int,
    m: int,
    r: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Truncated composition sum with all variables shifted by r against a
    single series with rising-factorial and finite-difference factors.
    Requires m + p >= r + 1.
    """
    # p is a number of parts and the finite difference's exponent, the last
    # exponent reaches m + 2, and r is the rising factorial's degree
    check_int(p, "p", 1, _MAX_PARTS, error=PreconditionError)
    check_int(m, "m", 0, MAX_EXPONENT - 2, error=PreconditionError)
    check_int(r, "r", 0, RISING_DEGREE_MAX, error=PreconditionError)
    if m + p < r + 1:
        raise PreconditionError(f"need m + p >= r + 1, got m={shown(m)}, p={shown(p)}, r={shown(r)}")
    terms = composition_terms(p + m, p, lambda alpha: _spec(alpha[:-1] + (alpha[-1] + 1,), r), acc)
    rhs = [(1.0, _spec((m + 1,), r, first=(RisingFactorial(r),), last=(FiniteDifference(r, p),)), acc)]
    return make_check("cor15", {"p": p, "m": m, "r": r}, (terms, rhs), tolerance, {"terms": len(terms)})


def check_eq24(
    pvec: Sequence[int],
    qvec: Sequence[int],
    a: Real = 0,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Vectorized duality of harmonic products with plain-power factors at
    run boundaries: positions sum(p[:j]) carry extra exponents q_j on one
    side, and the reversed-q partial sums carry reversed p exponents on the
    other.  Single spec per side, no composition sums.  Vectors of more
    than `MAX_DEPTH` entries, and sides deeper than a spec may be (the
    first is `sum(pvec)` positions deep, the second `sum(qvec)`), are
    refused before any spec is built.
    """
    if not (isinstance(pvec, (list, tuple)) and isinstance(qvec, (list, tuple))):  # a config point may hold any value
        raise PreconditionError(f"pvec and qvec must be lists, got {shown(pvec)} and {shown(qvec)}")
    pv = tuple(pvec)
    qv = tuple(qvec)
    if len(pv) != len(qv) or len(pv) == 0:
        raise PreconditionError(f"pvec and qvec must be equally long and non-empty, got {shown(pvec)} and {shown(qvec)}")
    if len(pv) > MAX_DEPTH:  # each entry is at least one position deep
        raise PreconditionError(f"pvec and qvec may be at most {MAX_DEPTH} long, got {shown(pvec)} and {shown(qvec)}")
    # every entry is a run of positions on one side, all but its last of exponent 1
    for x in pv + qv:
        check_int(x, "vector entry", 1, _MAX_PARTS, error=PreconditionError)
    if max(sum(pv), sum(qv)) > MAX_DEPTH:
        raise PreconditionError(
            f"sum(pvec) and sum(qvec), the depths of the sides, may be at most {MAX_DEPTH}, got {sum(pv)} and {sum(qv)}"
        )
    check_real(a, "a", -1.0, strict=True, error=PreconditionError)

    def spec(ps: tuple[int, ...], qs: tuple[int, ...]) -> NestedSumSpec:
        runs = (_spec((1,) * pj, a, last=(ShiftedPower(0, qj),)).factors for pj, qj in zip(ps, qs))
        return NestedSumSpec(sum(runs, ()))

    specs = (spec(pv, qv), spec(qv[::-1], pv[::-1]))
    # the log columns of one side's runs add up
    _check_log_cap(specs, lambda: f"pvec {shown(list(pv))}, qvec {shown(list(qv))}")
    params = {"pvec": list(pv), "qvec": list(qv), "a": _shift_to_json(a)}
    return make_check("eq24", params, [[(1.0, s, acc)] for s in specs], tolerance)


def _check_prefix_lengths(p: int, q: int, r: int) -> None:
    """Bound the `p`, `q` and `r` of `theorem3` and `restricted_sum` (and of
    quad blocks, with `q = 0`): `p` and `q` are the lengths of ones prefixes,
    and a composition into `r + 1` parts follows one of them, so a spec may
    begin with `max(p, q) + r` ones: at most `_MAX_LOG_POWER`, so `p` and `q`
    are at most that (with `r = 0`) and `r` at most what is left."""
    for name, v in (("p", p), ("q", q)):
        check_int(v, name, 0, _MAX_LOG_POWER, error=PreconditionError)
    check_int(r, "r", 0, _MAX_LOG_POWER - max(p, q), error=PreconditionError)


def _ones_prefix_terms(ones: int, total: int, r: int, acc: float, ell: int = 0) -> list[Term]:
    """The terms of the sum over the compositions `alpha` of `total + r + 1`
    into `r + 1` parts of the zetas of `({1}^ones, alpha_1..alpha_r,
    alpha_(r+1) + ell + 1)`: restricted_sum's first and third sides, and
    quad blocks' series."""
    return composition_terms(
        total + r + 1, r + 1, lambda alpha: _spec((1,) * ones + alpha[:-1] + (alpha[-1] + ell + 1,)), acc
    )


def _theorem3_sides(p: int, q: int, r: int, m: int, acc: float) -> tuple[list[Term], ...]:
    """The three sides of `check_theorem3`, listed, not evaluated; a
    parameter out of range is refused before any side is listed."""
    _check_prefix_lengths(p, q, r)
    # the alternating side weighs its families by C(m, j), 2^m in all
    check_int(m, "m", 0, MAX_TERMS.bit_length() - 1, error=PreconditionError)
    one, shifted = (ShiftedPower(0, 1),), (ShiftedPower(m, q + 1),)

    def third(j: int) -> Family:
        return lambda beta: _spec(beta[:-1] + (beta[-1] + 1,), j, q)

    return (
        composition_terms(q + r + 1, r + 1, lambda alpha: _spec(alpha, m, p, last=one), acc),
        composition_terms(p + r + 1, p + 1, lambda beta: _spec(beta, last=shifted), acc),
        composition_terms(p + r + 1, r + 1, [((-1) ** j * comb(m, j), third(j)) for j in range(m + 1)], acc),
    )


def check_theorem3(
    p: int,
    q: int,
    r: int,
    m: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Three-way equality of restricted composition sums with integer-shifted
    blocks: a depth p+r+1 form with m-shifted middle block, a depth p+1 form
    with one m-shifted last factor, and an alternating-binomial family of
    depth q+r+1 forms with j-shifted blocks.
    """
    return make_check("theorem3", {"p": p, "q": q, "r": r, "m": m}, _theorem3_sides(p, q, r, m, acc), tolerance)


def check_restricted_sum(
    p: int,
    q: int,
    r: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Three equal restricted sums of zetas: a ones-prefix sum over
    compositions of q+r+1, a prefix-free sum over compositions of p+r+1,
    and the ones-prefix sum with p and q exchanged.
    """
    _check_prefix_lengths(p, q, r)
    t1_terms = _ones_prefix_terms(p, q, r, acc)
    t2_terms = composition_terms(p + r + 1, p + 1, lambda beta: _spec(beta[:-1] + (beta[-1] + q + 1,)), acc)
    t3_terms = _ones_prefix_terms(q, p, r, acc)
    return make_check("restricted_sum", {"p": p, "q": q, "r": r}, (t1_terms, t2_terms, t3_terms), tolerance)


def check_section4(
    m: int,
    p: int,
    acc: float = DEFAULT_ACCURACY,
    tolerance: float | None = None,
) -> IdentityCheck:
    """Alternating truncated sums against a zeta-minus-series closed form.

    With compositions alpha of m+p into p parts, S_j drops the first j
    variables (pinned to 1) and S_p is the bare composition count
    C(m+p-1, m).  Three sides are compared: the alternating sum
    S_1 - S_2 + ... +- S_p, the directly truncated sum S (first variable
    pinned to 1, the rest shifted), and zeta(m+p) minus a depth-one series.
    The p - 1 series S_j share one accuracy budget.
    """
    # S_1 and S drop the first of p parts, and zeta(m + p) has the largest exponent
    check_int(p, "p", 1, _MAX_PARTS + 1, error=PreconditionError)
    check_int(m, "m", 1, MAX_EXPONENT - p, error=PreconditionError)
    s_terms = [
        composition_terms(m + p, p, lambda alpha: _spec(alpha[j:-1] + (alpha[-1] + 1,)), acc, shares=p - 1)
        for j in range(1, p)
    ]
    count = comb(m + p - 1, m)
    if p == 1:
        direct = [(1.0, count, 0.0)]
        t_spec = _spec((m + 1,), 1)
    else:
        direct = composition_terms(m + p, p, lambda alpha: _spec(alpha[1:-1] + (alpha[-1] + 1,), 1), acc)
        t_spec = _spec((m + 1,), 1, first=(ShiftedPower(0, p - 1),))
    rhs = [(1.0, _spec((m + p,)), acc / 2), (-1.0, t_spec, acc / 2)]

    # evaluated first, as the details report their values
    s_sums = [side(terms) for terms in s_terms]
    alternating = [((-1.0) ** (j - 1), sj, 0.0) for j, sj in enumerate(s_sums, 1)]
    alternating.append(((-1.0) ** (p - 1), count, 0.0))
    return make_check(
        "section4",
        {"m": m, "p": p},
        (alternating, direct, rhs),
        tolerance,
        {"s_p": count, "s_j": [sj.value for sj in s_sums]},
    )


# ---------------------------------------------------------------------------
# registry: grids and fuzz draws


def admissible_indices(weight: int) -> list[MzvIndex]:
    """All admissible indices of the given weight, by depth then lexicographic;
    `PreconditionError` above weight 14, whose 2^(weight-2) indices exceed
    `MAX_TERMS`."""
    check_int(weight, "weight", 2, error=PreconditionError)
    if weight > _MAX_WEIGHT:
        raise PreconditionError(
            f"weight {weight} has 2^{weight - 2} admissible indices, more than {MAX_TERMS}; "
            f"the largest weight is {_MAX_WEIGHT}"
        )
    out = []
    for depth in range(1, weight):
        for parts in compositions(weight, depth, 1):
            if parts[-1] >= 2:
                out.append(MzvIndex(parts))
    return out


def _exclusive(ranges: dict, key: str, others: Sequence[str]) -> None:
    """Refuse `key` next to any of `others`, which a grid with `key` ignores."""
    for other in others:
        if key in ranges and other in ranges:
            raise PreconditionError(f"{key!r} and {other!r} are exclusive")


def _range_list(ranges: dict, key: str, default: list) -> list:
    value = ranges.get(key, default)
    if not isinstance(value, list) or not value:
        raise PreconditionError(f"range {key!r} must be a non-empty list, got {shown(value)}")
    return value


def _int_list(ranges: dict, key: str, default: list) -> list[int]:
    """A grid value that must be a non-empty list of integers."""
    values = _range_list(ranges, key, default)
    for v in values:
        try:
            check_int(v, key, None, error=PreconditionError)
        except PreconditionError:
            raise PreconditionError(f"range {key!r} must list integers, got {shown(v)}") from None
    return values


def _check_points(count: int) -> None:
    """Refuse a grid of more than `MAX_TERMS` points before any is built."""
    if count > MAX_TERMS:
        raise PreconditionError(f"the grid has {shown(count)} points, more than {MAX_TERMS}")


def _grid_product(ranges: dict, names: Sequence[str], defaults: dict) -> list[dict]:
    """Every combination of the per-key value lists, the last key varying fastest."""
    check_keys(ranges, names)
    pools = [_range_list(ranges, n, defaults[n]) for n in names]
    _check_points(prod(map(len, pools)))
    return [dict(zip(names, values)) for values in product(*pools)]


def _pair_range(ranges: dict, key: str, default: tuple, real: bool = False) -> tuple:
    """A fuzz range: an inclusive `[lo, hi]` pair with `lo <= hi` of signed
    64-bit integers, or with `real` of numbers finite as floats, returned as
    floats.  The one real range is the shift `a`, which every checker takes
    above -1 and every draw rounds to 6 digits, so `lo` must round above -1."""
    value = ranges.get(key, default)
    try:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            if real:
                lo, hi = (float(check_real(v, key, -inf, error=PreconditionError)) for v in value)
            else:  # `XorShift64Star.randint` draws from at most 2^64 values
                lo, hi = (check_int(v, key, -(2**63), 2**63 - 1, error=PreconditionError) for v in value)
            if lo <= hi and (not real or round(lo, 6) > -1):
                return lo, hi
    except PreconditionError:  # an item that is no integer, or no finite number
        pass
    kind = "numbers above -1, rounded to 6 digits," if real else "64-bit integers"
    raise PreconditionError(f"range {key!r} must be an [lo, hi] pair of {kind} with lo <= hi, got {shown(value)}")


def check_ranges(draw: Callable[[XorShift64Star, dict], dict], ranges: object) -> None:
    """Raise `PreconditionError` unless `ranges` is a valid fuzz `ranges` object
    for a registry entry's `draw`, by drawing once: a draw refuses a key it
    does not read or a range it cannot draw from whatever the generator's
    state, so one draw refuses what any number of draws would."""
    if not isinstance(ranges, dict):
        raise PreconditionError("must be an object")
    draw(XorShift64Star(0), ranges)


def _grid_duality(ranges: dict) -> list[dict]:
    check_keys(ranges, ("indices", "max_weight"))
    _exclusive(ranges, "indices", ("max_weight",))
    if "indices" in ranges:
        return [{"index": str(_as_index(i))} for i in _range_list(ranges, "indices", [])]
    max_weight = check_int(ranges.get("max_weight", 6), "max_weight", 2, error=PreconditionError)
    out = []
    for w in range(2, max_weight + 1):
        out.extend({"index": str(k)} for k in admissible_indices(w))
    return out


def _admissible_index(weight: int, rank: int) -> MzvIndex:
    """`admissible_indices(weight)[rank]`, without listing the others: the
    `C(weight - 2, depth - 1)` indices of each depth, in turn, are the
    compositions of `weight - 1` into `depth` parts, the last raised by one."""
    depth = 1
    while rank >= (size := comb(weight - 2, depth - 1)):
        rank -= size
        depth += 1
    parts = []
    left = weight - 1
    for after in range(depth - 1, 0, -1):  # the parts after this one
        part = 1
        while rank >= (size := comb(left - part - 1, after - 1)):  # the compositions that begin with `part`
            rank -= size
            part += 1
        parts.append(part)
        left -= part
    return MzvIndex((*parts, left + 1))


def _draw_index(rng: XorShift64Star, ranges: dict, default: tuple[int, int]) -> MzvIndex:
    """A weight, then one of its admissible indices, each equally likely:
    `rng.choice(admissible_indices(w))`, without the list."""
    lo, hi = _pair_range(ranges, "weight", default)
    if hi > _MAX_WEIGHT:
        raise PreconditionError(f"range 'weight' may not exceed {_MAX_WEIGHT}, got {shown([lo, hi])}")
    w = rng.randint(max(2, lo), max(2, hi))
    return _admissible_index(w, rng.randint(0, 2 ** (w - 2) - 1))


def _grid_ohno(ranges: dict) -> list[dict]:
    defaults = {"indices": ["(2)", "(1,2)", "(2,2)", "(1,1,2)"], "m": [0, 1, 2, 3]}
    grid = _grid_product(ranges, ("indices", "m"), defaults)
    return [{"index": str(_as_index(g["indices"])), "m": g["m"]} for g in grid]


def _grid_sum_formula(ranges: dict) -> list[dict]:
    check_keys(ranges, ("m", "p"))
    ps = _int_list(ranges, "p", []) if "p" in ranges else None
    ms = _int_list(ranges, "m", [2, 3, 4, 5, 6, 7, 8])
    for m in ms:  # bounded as `check_sum_formula` bounds it, before the points are counted
        check_int(m, "m", None, MAX_EXPONENT - 1, error=PreconditionError)
    if ps is None:
        _check_points(sum(max(0, m - 1) for m in ms))
    else:
        valid = sorted(p for p in ps if p >= 1)
        _check_points(sum(bisect_left(valid, m) for m in ms))
    out = []
    for m in ms:
        for p in ps if ps is not None else range(1, m):
            if 1 <= p < m:
                out.append({"m": m, "p": p})
    return out


def _grid_eq24(ranges: dict) -> list[dict]:
    check_keys(ranges, ("pairs", "n", "entry", "a"))
    _exclusive(ranges, "pairs", ("n", "entry"))
    a_values = _range_list(ranges, "a", [0, 0.5])
    if "pairs" in ranges:
        pairs = []
        for p in _range_list(ranges, "pairs", []):
            if not (isinstance(p, dict) and set(p) == {"pvec", "qvec"} and all(isinstance(v, list) for v in p.values())):
                raise PreconditionError(f"range 'pairs' must list {{pvec, qvec}} objects of lists, got {shown(p)}")
            pairs.append((list(p["pvec"]), list(p["qvec"])))
    elif "n" in ranges or "entry" in ranges:
        # exhaustive: every (pvec, qvec) with entries drawn from `entry`
        entries = _int_list(ranges, "entry", [1, 2])
        ns = _int_list(ranges, "n", [1, 2])
        for n in ns:
            check_int(n, "n", 1, error=PreconditionError)
            # a vector's entries are >= 1, so its side is at least n deep
            if n > MAX_DEPTH:
                raise PreconditionError(f"range 'n' may not exceed the depth of a spec ({MAX_DEPTH}), got {shown(n)}")
        _check_points(sum(len(entries) ** (2 * n) for n in ns) * len(a_values))
        pairs = []
        for n in ns:
            vecs = [list(v) for v in product(entries, repeat=n)]
            pairs.extend((p, q) for p in vecs for q in vecs)
    else:
        pairs = [([1], [1]), ([2], [1]), ([1, 1], [2, 1]), ([2, 1], [1, 2])]
    _check_points(len(pairs) * len(a_values))
    return [{"pvec": pvec, "qvec": qvec, "a": a} for pvec, qvec in pairs for a in a_values]


def _draw_eq24(rng: XorShift64Star, ranges: dict) -> dict:
    check_keys(ranges, ("n", "entry", "a"))
    nlo, nhi = _pair_range(ranges, "n", (1, 3))
    if nlo < 1 or nhi > MAX_DEPTH:
        raise PreconditionError(f"range 'n' must lie within 1 to {MAX_DEPTH}, got {shown([nlo, nhi])}")
    elo, ehi = _pair_range(ranges, "entry", (1, 3))
    if elo < 1 or ehi > _MAX_PARTS:
        raise PreconditionError(f"range 'entry' must lie within 1 to {_MAX_PARTS}, got {shown([elo, ehi])}")
    # a side's log degree is sum(entries) - n (the ones of its runs), so the
    # deepest draw reaches nhi * (ehi - 1); under the cap a side is at most
    # max(nhi, 24) <= 64 positions deep
    if nhi * (ehi - 1) > _MAX_LOG_POWER:
        raise PreconditionError(
            f"ranges 'n' and 'entry' draw a side whose tail expansion reaches (ln k)^{nhi * (ehi - 1)}; "
            f"the engine takes log degrees up to {_MAX_LOG_POWER}"
        )
    alo, ahi = _pair_range(ranges, "a", (-0.5, 1.5), real=True)
    n = rng.randint(nlo, nhi)
    return {
        "pvec": [rng.randint(elo, ehi) for _ in range(n)],
        "qvec": [rng.randint(elo, ehi) for _ in range(n)],
        "a": round(rng.uniform_in(alo, ahi), 6),
    }


def _draw_box(rng: XorShift64Star, ranges: dict, box: dict) -> dict:
    """One draw per key of `box` (its default `[lo, hi]` ranges), in `box`
    order: a real rounded to 6 digits for `a`, an integer otherwise."""
    bounds = {k: _pair_range(ranges, k, v, real=k == "a") for k, v in box.items()}
    return {k: round(rng.uniform_in(*b), 6) if k == "a" else rng.randint(*b) for k, b in bounds.items()}


# The draws of `(p, m, r)` a cor15 draw rejects before it draws from the
# values that meet `m + p >= r + 1` alone
_COR15_ROUNDS = 64


def _draw_cor15(rng: XorShift64Star, ranges: dict) -> dict:
    """`(p, m, r)` drawn together until they meet `m + p >= r + 1`, so each
    such point is equally likely; after `_COR15_ROUNDS` misses, where few
    points meet it, `p`, `m` and `r` in turn, each from the values that
    leave the next one a value.  The default ranges meet it 38 times in 48."""
    check_keys(ranges, ("p", "m", "r"))
    prange = _pair_range(ranges, "p", (1, 3))
    mrange = _pair_range(ranges, "m", (0, 3))
    rrange = _pair_range(ranges, "r", (0, 3))
    if mrange[1] + prange[1] < rrange[0] + 1:
        raise PreconditionError(f"no draw meets m + p >= r + 1 in p {shown(prange)}, m {shown(mrange)}, r {shown(rrange)}")
    for _ in range(_COR15_ROUNDS):
        p, m, r = rng.randint(*prange), rng.randint(*mrange), rng.randint(*rrange)
        if m + p >= r + 1:
            return {"p": p, "m": m, "r": r}
    p = rng.randint(max(prange[0], rrange[0] + 1 - mrange[1]), prange[1])
    m = rng.randint(max(mrange[0], rrange[0] + 1 - p), mrange[1])
    return {"p": p, "m": m, "r": rng.randint(rrange[0], min(rrange[1], m + p - 1))}


def _draw_sum_formula(rng: XorShift64Star, ranges: dict) -> dict:
    check_keys(ranges, ("m",))
    mlo, mhi = _pair_range(ranges, "m", (3, 8))
    if mhi < 2:
        raise PreconditionError(f"range 'm' must reach 2 (sum_formula needs m >= 2), got {shown([mlo, mhi])}")
    m = rng.randint(max(2, mlo), mhi)
    return {"m": m, "p": rng.randint(1, m - 1)}


class IdentityInfo(NamedTuple):
    """A registry entry of `IDENTITIES` or `quadrature.QUAD_CHECKS`: its
    checker, its grid (a grid object to the parameter sets it expands to)
    and its draw (a generator and a `ranges` object to one parameter set).
    The grid and the draw refuse every key they do not read
    (`PreconditionError`), so the keys a config may use are stated where
    they are read.  The package reads an entry by position, so a plain
    `(check, grid, draw)` tuple in its place serves as well."""

    check: Callable[..., IdentityCheck]
    grid: Callable[[dict], list[dict]]
    draw: Callable[[XorShift64Star, dict], dict]


def check_params(check: Callable[..., IdentityCheck]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """`(names, required)`: the parameters of a checker's signature other
    than `acc` and `tolerance`, all of them and those without a default, in
    signature order.  The signature is the one place a checker's parameters
    are declared; `inspect.signature` follows `__wrapped__`, so a wrapped
    checker gives its checker's answer.  Read once per suite entry or verb,
    at about 30 us, so it is not memoised."""
    params = [p for p in inspect.signature(check).parameters.values() if p.name not in ("acc", "tolerance")]
    return tuple(p.name for p in params), tuple(p.name for p in params if p.default is p.empty)


def _product_info(check: Callable[..., IdentityCheck], grid: dict, box: dict) -> IdentityInfo:
    """An entry whose grid is the product of the `grid` value lists and
    whose draw is `_draw_box(box)`."""
    return IdentityInfo(
        check, lambda ranges: _grid_product(ranges, tuple(grid), grid), lambda rng, r: _draw_box(rng, check_keys(r, box), box)
    )


IDENTITIES: dict[str, IdentityInfo] = {
    "duality": IdentityInfo(
        check_duality,
        _grid_duality,
        lambda rng, r: {"index": str(_draw_index(rng, check_keys(r, ("weight",)), (3, 8)))},
    ),
    "sum_formula": IdentityInfo(check_sum_formula, _grid_sum_formula, _draw_sum_formula),
    "ohno": IdentityInfo(
        check_ohno,
        _grid_ohno,
        lambda rng, r: {
            "index": str(_draw_index(rng, check_keys(r, ("weight", "m")), (3, 6))), **_draw_box(rng, r, {"m": (0, 3)})
        },
    ),
    "eq12": _product_info(
        check_eq12,
        {"p": [1, 2, 3], "q": [1, 2, 3], "m": [0, 1, 2]},
        {"p": (1, 4), "q": (1, 4), "m": (0, 4)},
    ),
    "theorem1": _product_info(
        check_theorem1,
        {"p": [1, 2], "q": [1, 2], "r": [0, 1, 2], "a": [0, 0.5], "m": [0, 1]},
        {"p": (1, 3), "q": (1, 3), "r": (0, 2), "a": (-0.5, 1.5), "m": (0, 2)},
    ),
    "cor15": IdentityInfo(
        check_cor15,
        lambda r: [
            g
            for g in _grid_product(r, ("p", "m", "r"), {"p": [1, 2, 3], "m": [0, 1, 2], "r": [0, 1, 2, 3]})
            if g["m"] + g["p"] >= g["r"] + 1
        ],
        _draw_cor15,
    ),
    "eq24": IdentityInfo(check_eq24, _grid_eq24, _draw_eq24),
    "theorem3": _product_info(
        check_theorem3,
        {"p": [0, 1, 2], "q": [0, 1, 2], "r": [0, 1], "m": [0, 1, 2]},
        {"p": (0, 2), "q": (0, 2), "r": (0, 2), "m": (0, 3)},
    ),
    "restricted_sum": _product_info(
        check_restricted_sum,
        {"p": [0, 1, 2], "q": [0, 1, 2], "r": [0, 1, 2]},
        {"p": (0, 3), "q": (0, 3), "r": (0, 3)},
    ),
    "section4": _product_info(check_section4, {"m": [1, 2, 3, 4], "p": [1, 2, 3, 4]}, {"m": (1, 5), "p": (1, 5)}),
}


def draw_params(identity: str, rng: XorShift64Star, ranges: dict | None = None) -> dict:
    """Draw one fuzz parameter set for an identity (deterministic in rng state);
    `ranges`, when given, must be a dict (`PreconditionError`)."""
    if not isinstance(ranges, (dict, type(None))):
        raise PreconditionError("ranges must be an object")
    if identity not in IDENTITIES:
        raise PreconditionError(f"unknown identity {shown(identity)}; known: {', '.join(sorted(IDENTITIES))}")
    return IDENTITIES[identity][2](rng, dict(ranges or {}))
