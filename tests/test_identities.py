"""Identity checkers: verdict semantics, preconditions, grids, fuzz draws."""

import functools
import time
from math import comb

import pytest

from mzv.errors import PreconditionError
from mzv.identities import (
    IDENTITIES,
    IdentityCheck,
    check_cor15,
    check_duality,
    check_eq12,
    check_eq24,
    check_ohno,
    check_params,
    check_restricted_sum,
    check_section4,
    check_sum_formula,
    check_theorem1,
    check_theorem3,
    draw_params,
    run_grid,
)
from mzv.indices import MzvIndex
from mzv.rng import XorShift64Star

ACC = 1e-8

ZETA3 = 1.2020569031595943


def test_wire_names_are_stable():
    assert set(IDENTITIES) == {
        "duality",
        "sum_formula",
        "ohno",
        "eq12",
        "theorem1",
        "cor15",
        "eq24",
        "theorem3",
        "restricted_sum",
        "section4",
    }


def _assert_good(check: IdentityCheck):
    assert check.passed, (check.identity, check.params, check.abs_diff, check.tolerance)
    assert check.abs_diff <= check.tolerance
    assert check.tail_budget <= check.tolerance
    d = check.as_dict()
    assert d["pass"] is True
    assert d["identity"] == check.identity
    assert len(d["sides"]) == len(check.sides)


def test_duality_euler_pair():
    check = check_duality("(1,2)", ACC)
    _assert_good(check)
    assert check.details["dual"] == "(3)"
    assert not check.details["self_dual"]
    # both sides are the same number, one of the worked constants
    assert check.sides[0].value == pytest.approx(ZETA3, abs=1e-8)


def test_duality_self_dual_shortcut():
    check = check_duality(MzvIndex((1, 3)), ACC)
    assert check.details["self_dual"]
    assert check.abs_diff == 0.0


def test_duality_rejects_inadmissible():
    from mzv.errors import AdmissibilityError

    with pytest.raises(AdmissibilityError):
        check_duality("(2,1)", ACC)


def test_sum_formula_values_and_preconditions():
    _assert_good(check_sum_formula(4, 2, ACC))
    with pytest.raises(PreconditionError):
        check_sum_formula(3, 3, ACC)
    with pytest.raises(PreconditionError):
        check_sum_formula(1, 1, ACC)


def test_ohno_shift_zero_reduces_to_duality():
    plain = check_ohno("(2,3)", 0, ACC)
    _assert_good(plain)
    _assert_good(check_ohno("(2,3)", 2, ACC))


def test_eq12_symmetric_case_is_exactly_zero():
    check = check_eq12(2, 2, 2, ACC)
    _assert_good(check)
    assert check.abs_diff == 0.0  # both sides are literally the same sum


def test_eq12_asymmetric():
    _assert_good(check_eq12(1, 2, 2, ACC))


def test_theorem1_accepts_params_or_dict():
    _assert_good(check_theorem1(p=2, q=1, r=1, m=1, a=0.5, acc=ACC))
    _assert_good(check_theorem1(**{"p": 2, "q": 1, "r": 1, "m": 1, "a": 0.5}, acc=ACC))


def test_theorem1_a_defaults_to_zero():
    assert check_theorem1(p=1, q=1, r=0, m=0, acc=ACC).params["a"] == 0


def test_theorem1_integer_float_a_normalized():
    a = check_theorem1(p=1, q=1, r=0, m=0, a=1.0, acc=ACC).params["a"]
    assert a == 1 and type(a) is int


def test_theorem1_validation(monkeypatch):
    import mzv.identities as identities

    def no_evaluation(*args):
        raise AssertionError("evaluated")

    # every parameter is checked before anything is evaluated
    monkeypatch.setattr(identities, "evaluate", no_evaluation)
    good = {"p": 1, "q": 1, "r": 0, "m": 0, "a": 0}
    for key, bad in (("p", 0), ("q", 1.5), ("r", -1), ("m", True), ("a", -1), ("a", "0.5")):
        with pytest.raises(PreconditionError, match=f"^{key} must"):
            check_theorem1(**dict(good, **{key: bad}))
    # validated in the order p, q, r, m, a
    with pytest.raises(PreconditionError, match="p must be"):
        check_theorem1(p=0, q=0, r=-1, m=-1, a=-2)
    with pytest.raises(PreconditionError, match="m must be"):
        check_theorem1(p=1, q=1, r=0, m=-1, a=-2)


def test_cor15_precondition():
    _assert_good(check_cor15(2, 1, 2, ACC))
    with pytest.raises(PreconditionError):
        check_cor15(1, 0, 2, ACC)  # m + p < r + 1


def test_eq24_vector_check():
    check = check_eq24([2, 1], [1, 2], 0, ACC)
    _assert_good(check)
    sym = check_eq24([1], [1], 0.5, ACC)
    assert sym.abs_diff == 0.0  # palindromic data: both sides identical


def test_eq24_validation():
    with pytest.raises(PreconditionError):
        check_eq24([], [], 0, ACC)
    with pytest.raises(PreconditionError):
        check_eq24([1, 2], [1], 0, ACC)
    with pytest.raises(PreconditionError):
        check_eq24([0, 1], [1, 1], 0, ACC)


def test_theorem3_three_sides():
    check = check_theorem3(1, 1, 1, 2, ACC)
    _assert_good(check)
    assert len(check.sides) == 3


def test_restricted_sum_three_sides():
    check = check_restricted_sum(1, 2, 1, ACC)
    _assert_good(check)
    assert len(check.sides) == 3


def test_section4_alternating_vs_direct():
    check = check_section4(2, 3, ACC)
    _assert_good(check)
    assert check.details["s_p"] == comb(2 + 3 - 1, 2)


def test_section4_depth_one_edge():
    _assert_good(check_section4(3, 1, ACC))


def test_section4_validation():
    with pytest.raises(PreconditionError):
        check_section4(0, 2, ACC)
    with pytest.raises(PreconditionError):
        check_section4(2, 0, ACC)


@pytest.mark.parametrize("m,p", [(2, 3), (3, 4), (1, 2), (3, 1)])
def test_section4_lists_each_sum_over_the_same_compositions(monkeypatch, m, p):
    import mzv.identities as identities

    expected = check_section4(m, p, ACC).as_dict()
    calls = []
    real = identities.compositions

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(identities, "compositions", counting)
    again = check_section4(m, p, ACC).as_dict()
    # the p - 1 sums S_j and the direct sum; S_p is a count
    assert calls == ([(m + p, p, 1)] * p if p > 1 else [])
    assert again == expected  # the same terms, order and splits


@pytest.mark.parametrize("m,p", [(1, 2), (2, 2), (2, 3), (3, 1)])
def test_shifted_composition_sum_closed_form(m, p):
    # the all-shifted composition sum collapses to three depth-one series:
    # sum = S(p, m) - Z(m+p) + Z(m+p+1) with S the split-power series
    from mzv.indices import compositions
    from mzv.series import ExtraPower, NestedSumSpec, evaluate, mzv

    total = 0.0
    for alpha in compositions(m + p, p, 1):
        bundles = [(ExtraPower(1, x),) for x in alpha]
        bundles[-1] = (ExtraPower(1, alpha[-1] + 1),)
        total += evaluate(NestedSumSpec(tuple(bundles)), 1e-9).value
    split = (ExtraPower(1, m + 1),) if p == 1 else (ExtraPower(0, p - 1), ExtraPower(1, m + 1))
    rhs = (
        evaluate(NestedSumSpec((split,)), 1e-9).value
        - mzv(MzvIndex((m + p,)), 1e-9).value
        + mzv(MzvIndex((m + p + 1,)), 1e-9).value
    )
    assert total == pytest.approx(rhs, abs=1e-7)


# ---------------------------------------------------------------------------
# registry, grids, fuzz draws


def test_run_grid_duality_counts():
    checks = run_grid("duality", {"max_weight": 4}, acc=1e-7)
    # weights 2, 3, 4 hold 1 + 2 + 4 admissible indices
    assert len(checks) == 7
    assert all(c.passed for c in checks)


def test_run_grid_unknown_identity():
    with pytest.raises(PreconditionError, match="unknown identity"):
        run_grid("nope", {})


def test_draw_params_deterministic_and_feasible():
    seq1 = []
    rng = XorShift64Star(7)
    for _ in range(40):
        params = draw_params("cor15", rng)
        assert params["m"] + params["p"] >= params["r"] + 1
        seq1.append(params)
    rng = XorShift64Star(7)
    seq2 = [draw_params("cor15", rng) for _ in range(40)]
    assert seq1 == seq2


def test_cor15_draws_end_where_few_points_meet_the_precondition():
    # only r = 0 meets m + p >= r + 1: rejection alone took 0.69 s at r <= 10^6
    # and never ended at r <= 2^62
    for top in (10**6, 2**62):
        ranges = {"p": [1, 1], "m": [0, 0], "r": [0, top]}
        started = time.perf_counter()
        assert [draw_params("cor15", XorShift64Star(seed), ranges) for seed in range(3)] == [{"p": 1, "m": 0, "r": 0}] * 3
        assert time.perf_counter() - started < 1.0
    rng = XorShift64Star(11)
    ranges = {"p": [1, 2], "m": [0, 2**40], "r": [2**40, 2**41]}
    for _ in range(20):
        params = draw_params("cor15", rng, ranges)
        assert params["m"] + params["p"] >= params["r"] + 1 and params["r"] >= 2**40
    # refused before any draw, whatever the generator's state
    for seed in range(3):
        with pytest.raises(PreconditionError, match="no draw meets"):
            draw_params("cor15", XorShift64Star(seed), {"p": [1, 1], "m": [0, 0], "r": [1, 2**62]})


def test_draw_params_every_identity():
    rng = XorShift64Star(123)
    for name in IDENTITIES:
        params = draw_params(name, rng)
        check = IDENTITIES[name].check(acc=1e-6, **params)
        assert isinstance(check, IdentityCheck)
        assert check.passed, (name, params, check.abs_diff, check.tolerance)


def test_check_serialization_keys():
    check = check_duality("(2,2)", ACC)
    d = check.as_dict()
    assert set(d) == {
        "identity",
        "params",
        "sides",
        "abs_diff",
        "tolerance",
        "tail_budget",
        "pass",
        "details",
    }


# ---------------------------------------------------------------------------
# composition sums and their bounds


def test_composition_count_matches_the_enumeration():
    from mzv.identities import _composition_count
    from mzv.indices import compositions

    for total in range(0, 12):
        for parts in range(1, 7):
            for minimum in (0, 1, 2):
                assert _composition_count(total, parts, minimum) == len(compositions(total, parts, minimum))


def test_composition_count_refuses_more_parts_than_a_spec_has():
    from mzv.identities import _composition_count

    assert _composition_count(302, 3, 0) == comb(304, 2)  # ohno (1,1,2), m = 300
    assert _composition_count(10**400, 64, 1) == comb(10**400 - 1, 63)
    # C(2*10**6 - 1, 10**6 - 1) has about 600,000 digits and took 41 s to build
    with pytest.raises(PreconditionError, match="deeper than a spec may be"):
        _composition_count(2 * 10**6, 10**6, 1)


def test_composition_sum_splits_the_accuracy_and_combines_in_order(monkeypatch):
    import mzv.identities as identities
    from mzv.identities import combine, composition_terms, side
    from mzv.indices import compositions
    from mzv.series import EvalResult

    calls = []

    def fake_evaluate(spec, acc):
        calls.append((spec, acc))
        return EvalResult(1.0 / sum(spec) + len(calls), acc, 0, "float")

    monkeypatch.setattr(identities, "evaluate", fake_evaluate)
    comps = compositions(5, 3, 1)  # 6 compositions
    terms = composition_terms(5, 3, lambda alpha: alpha, 1e-6)
    assert terms == [(1.0, alpha, 1e-6 / 6) for alpha in comps] and calls == []
    result = side(terms)
    assert calls == [(alpha, 1e-6 / 6) for alpha in comps]
    assert result == combine((1.0, EvalResult(1.0 / 5 + i, 1e-6 / 6, 0, "float")) for i in range(1, 7))
    # families weighted 1 and -2 split over (1 + 2) * 6 terms, family by family
    calls.clear()
    terms = composition_terms(5, 3, [(1, lambda alpha: alpha), (-2, lambda alpha: alpha[::-1])], 1e-6)
    per = 1e-6 / 18
    assert terms == [(1.0, alpha, per) for alpha in comps] + [(-2.0, alpha[::-1], per) for alpha in comps]
    result = side(terms)
    assert calls == [(alpha, per) for alpha in comps] + [(alpha[::-1], per) for alpha in comps]
    assert result == combine(
        [(1.0, EvalResult(1.0 / 5 + i, per, 0, "float")) for i in range(1, 7)]
        + [(-2.0, EvalResult(1.0 / 5 + i, per, 0, "float")) for i in range(7, 13)]
    )
    # shares divide the budget further; `minimum` reaches the enumeration
    assert composition_terms(2, 2, lambda alpha: alpha, 1e-6, minimum=0, shares=4) == [
        (1.0, alpha, 1e-6 / 12) for alpha in ((0, 2), (1, 1), (2, 0))
    ]


def test_composition_sum_rejects_more_than_max_terms_before_enumerating(monkeypatch):
    import mzv.identities as identities

    def no_enumeration(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(identities, "compositions", no_enumeration)
    with pytest.raises(PreconditionError, match="of 4098 into 2 parts takes more than 4096 series evaluations"):
        identities.composition_terms(4098, 2, lambda alpha: alpha, ACC)
    # C(32, 12) = 2.3e8 compositions
    with pytest.raises(PreconditionError, match="more than 4096 series evaluations"):
        check_eq12(13, 1, 20, ACC)
    with pytest.raises(PreconditionError, match="more than 4096 series evaluations"):
        check_ohno("(1,1,2)", 300, ACC)
    # section4's p - 1 sums share the limit: 13 * C(16, 3) = 7,280, each 560
    with pytest.raises(PreconditionError, match="more than 4096 series evaluations"):
        check_section4(3, 14, ACC)
    # theorem3's alternating side has m + 1 families: 5 * C(12, 6) = 4,620;
    # the sides before it are listed, it is not
    listed = []
    monkeypatch.setattr(identities, "compositions", lambda *args: listed.append(args) or [])
    with pytest.raises(PreconditionError, match="of 13 into 7 parts takes more than 4096 series evaluations"):
        check_theorem3(6, 0, 6, 4, ACC)
    assert listed == [(7, 7, 1), (13, 7, 1)]


def test_composition_sum_limit_is_inclusive(monkeypatch):
    import mzv.identities as identities
    from mzv.identities import MAX_TERMS, composition_terms, side
    from mzv.series import EvalResult

    monkeypatch.setattr(identities, "evaluate", lambda spec, acc: EvalResult(1.0, 0.0, 0, "float"))
    # C(4096, 1) = 4096 compositions of 4097 into 2 parts, each evaluated by the stub
    terms = composition_terms(4097, 2, lambda alpha: alpha, ACC)
    assert len(terms) == MAX_TERMS
    assert side(terms).value == MAX_TERMS
    with pytest.raises(PreconditionError):
        composition_terms(4098, 2, lambda alpha: alpha, ACC)


def test_theorem3_per_term_target_below_the_float_range_is_refused():
    # 2^1100 families' worth of budget split: the per-term target is not a
    # float, and m is refused by name before any split is counted
    with pytest.raises(PreconditionError, match="m must be <= 12, got 1100"):
        check_theorem3(0, 0, 0, 1100, 1e-3)


def test_accuracy_split_is_bounded(monkeypatch):
    import mzv.identities as identities
    from mzv.identities import MAX_TERMS, composition_terms, side
    from mzv.series import EvalResult

    stub = EvalResult(1.0, 0.0, 0, "float")
    monkeypatch.setattr(identities, "evaluate", lambda spec, acc: stub)
    # theorem3 splits its alternating side over 2^m * count terms: 2^12 passes, 2^13 does not
    check_theorem3(0, 0, 0, 12, ACC)

    def no_evaluation(*args):
        raise AssertionError("evaluated")

    monkeypatch.setattr(identities, "evaluate", no_evaluation)
    with pytest.raises(PreconditionError, match="splits its accuracy over 8192 terms, more than 4096"):
        check_theorem3(1, 0, 1, 12, ACC)  # 2 compositions of 3 into 2 parts
    with pytest.raises(PreconditionError, match="splits its accuracy over 12288 terms"):
        check_theorem3(2, 0, 1, 12, ACC)  # 3 compositions of 4 into 2 parts
    # the limit is inclusive, and weights count with their size
    monkeypatch.setattr(identities, "evaluate", lambda spec, acc: stub)
    assert side(composition_terms(1, 1, [(MAX_TERMS, lambda alpha: alpha)], ACC)).value == MAX_TERMS
    with pytest.raises(PreconditionError, match="splits its accuracy"):
        composition_terms(1, 1, [(-MAX_TERMS - 1, lambda alpha: alpha)], ACC)


@pytest.mark.parametrize(
    "check, args, message",
    [
        # the first side has 1,891 terms, the dual side (1,1,1,1,1,4) C(65, 5)
        (check_ohno, ("(1,1,7)", 60), "of 60 into 6 parts takes more than 4096 series evaluations"),
        # 1,001 terms, then C(1002, 2)
        (check_eq12, (2, 3, 1000), "of 1003 into 3 parts takes more than 4096 series evaluations"),
        # 31 terms, then C(34, 4)
        (check_theorem1, (2, 5, 0, 30), "of 35 into 5 parts takes more than 4096 series evaluations"),
    ],
)
def test_a_side_past_the_limit_is_refused_before_any_side_is_evaluated(monkeypatch, check, args, message):
    import mzv.identities as identities

    def no_evaluation(*args):
        raise AssertionError("evaluated")

    monkeypatch.setattr(identities, "evaluate", no_evaluation)
    with pytest.raises(PreconditionError, match=f"^the sum over compositions {message}$"):
        check(*args, acc=ACC)


# each family at its log-cap bound, with a few of its other parameters
_AT_THE_LOG_CAP = [
    (check_sum_formula, (14, 13)),
    (check_eq12, (13, 13, 1)),
    (check_eq12, (13, 1, 2)),
    (check_theorem1, (13, 13, 16, 1, 0.5)),
    (check_theorem1, (1, 13, 0, 1, 0)),
    (check_cor15, (13, 1, 5)),
    (check_eq24, ([13], [13])),
    (check_eq24, ([1, 13], [13, 1], 0.5)),
    (check_theorem3, (12, 0, 0, 1)),
    (check_theorem3, (0, 12, 0, 2)),
    (check_theorem3, (4, 2, 8, 1)),
    (check_restricted_sum, (12, 0, 0)),
    (check_restricted_sum, (0, 12, 0)),
    (check_restricted_sum, (2, 4, 8)),
    # the dual of (14) is ({1}^12,2), and a shift keeps its ones
    (check_duality, ("(14)",)),
    (check_ohno, ("(14)", 2)),
    (check_ohno, ("(1,1,1,1,1,1,1,1,1,1,1,1,2)", 0)),
    # the runs of one side add up: the second spec begins with 6 + 6 ones
    (check_eq24, ([1, 1], [7, 7])),
    # S_1 and S drop the first of 14 parts
    (check_section4, (1, 14)),
]


@pytest.mark.parametrize("check,args", _AT_THE_LOG_CAP)
def test_at_the_log_cap_bound_every_spec_is_convergent(monkeypatch, check, args):
    import mzv.identities as identities
    from mzv.series import EvalResult, _log_degree, _MAX_LOG_POWER, _require_convergent, mzv_spec

    specs = []

    def convergent(spec, acc):
        _require_convergent(spec)
        specs.append(spec)
        return EvalResult(1.0, 0.0, 1024, "float")

    monkeypatch.setattr(identities, "evaluate", convergent)
    monkeypatch.setattr(identities, "mzv", lambda index, acc: convergent(mzv_spec(index), acc))
    check(*args, acc=ACC)
    # the bound is tight: some spec reaches the engine's cap
    assert max(map(_log_degree, specs)) == _MAX_LOG_POWER


_PAST_THE_CAP = "a side's tail expansion reaches (ln k)^%d; the engine takes log degrees up to 12"


@pytest.mark.parametrize(
    "check,args,message",
    [
        (check_sum_formula, (15, 14), "p must be <= 13, got 14"),
        (check_eq12, (14, 1, 0), "p must be <= 13, got 14"),
        (check_eq12, (1, 14, 0), "q must be <= 13, got 14"),
        (check_theorem1, (14, 1, 0, 0), "p must be <= 13, got 14"),
        (check_theorem1, (1, 14, 2, 0), "q must be <= 13, got 14"),
        (check_cor15, (14, 0, 0), "p must be <= 13, got 14"),
        (check_eq24, ([14], [1]), "vector entry must be <= 13, got 14"),
        (check_eq24, ([1, 1], [1, 14]), "vector entry must be <= 13, got 14"),
        (check_theorem3, (13, 0, 0, 0), "p must be <= 12, got 13"),
        (check_theorem3, (0, 13, 0, 0), "q must be <= 12, got 13"),
        (check_theorem3, (4, 2, 9, 0), "r must be <= 8, got 9"),
        (check_restricted_sum, (13, 0, 0), "p must be <= 12, got 13"),
        # its first side used to be evaluated before its third was refused
        (check_restricted_sum, (0, 13, 0), "q must be <= 12, got 13"),
        (check_restricted_sum, (2, 4, 9), "r must be <= 8, got 9"),
        # zeta(15) used to be evaluated before the engine refused its dual
        (check_duality, ("(15)",), f"index (15), dual ({'1,' * 13}2): {_PAST_THE_CAP % 13}"),
        (check_ohno, ("(15)", 0), f"index (15), dual ({'1,' * 13}2): {_PAST_THE_CAP % 13}"),
        (check_ohno, (f"({'1,' * 13}2)", 1), f"index ({'1,' * 13}2), dual (15): {_PAST_THE_CAP % 13}"),
        # its first side used to be evaluated before the engine refused the second
        (check_eq24, ([1, 1], [13, 13]), f"pvec [1, 1], qvec [13, 13]: {_PAST_THE_CAP % 24}"),
        (check_eq24, ([1, 1], [7, 8]), f"pvec [1, 1], qvec [7, 8]: {_PAST_THE_CAP % 13}"),
        (check_section4, (1, 15), "p must be <= 14, got 15"),
    ],
)
def test_past_the_log_cap_bound_the_checker_names_the_key(monkeypatch, check, args, message):
    import mzv.identities as identities

    def no_evaluation(*args):
        raise AssertionError("evaluated")

    monkeypatch.setattr(identities, "evaluate", no_evaluation)
    monkeypatch.setattr(identities, "mzv", no_evaluation)
    with pytest.raises(PreconditionError) as refused:
        check(*args, acc=ACC)
    assert str(refused.value) == message


def test_grids_are_bounded_before_they_are_built():
    from mzv.identities import MAX_TERMS
    from mzv.quadrature import QUAD_CHECKS

    eq12 = IDENTITIES["eq12"].grid
    assert len(eq12({"p": list(range(16)), "q": list(range(16)), "m": list(range(16))})) == MAX_TERMS
    with pytest.raises(PreconditionError, match="4097 points, more than 4096"):
        eq12({"p": list(range(17)), "q": list(range(241)), "m": [0]})
    eq24 = IDENTITIES["eq24"].grid
    assert len(eq24({"n": [6], "entry": [1, 2], "a": [0]})) == MAX_TERMS
    with pytest.raises(PreconditionError, match="8192 points"):
        eq24({"n": [6], "entry": [1, 2]})
    with pytest.raises(PreconditionError, match="524288 points"):
        eq24({"n": [9]})
    # one entry value makes one vector per n, but n entries make a spec n deep
    assert len(eq24({"n": [64], "entry": [1], "a": [0]})) == 1
    for n in (65, 10**9):
        with pytest.raises(PreconditionError, match="depth of a spec"):
            eq24({"n": [n], "entry": [1]})
    # given pairs and the default pairs count with the `a` list too
    with pytest.raises(PreconditionError, match="4098 points"):
        eq24({"pairs": [{"pvec": [1], "qvec": [1]}] * 2049})
    with pytest.raises(PreconditionError, match="4100 points"):
        eq24({"a": [0] * 1025})
    with pytest.raises(PreconditionError, match="5110 points, more than 4096"):
        IDENTITIES["sum_formula"].grid({"m": [1023] * 5})
    with pytest.raises(PreconditionError, match="m must be <= 1023, got 1000000000"):
        IDENTITIES["sum_formula"].grid({"m": [10**9]})
    assert len(IDENTITIES["sum_formula"].grid({"m": [1023] * 4 + [9]})) == MAX_TERMS
    assert len(IDENTITIES["sum_formula"].grid({"m": [3, 4], "p": [0, 1, 2, 3, 3]})) == 2 + 4
    # counted after the 1 <= p < m filter, not as the product of the list lengths
    assert len(IDENTITIES["sum_formula"].grid({"m": [2] * 100, "p": list(range(100))})) == 100
    with pytest.raises(PreconditionError, match="more than 4096"):
        IDENTITIES["ohno"].grid({"indices": ["(2)"] * 65, "m": list(range(64))})
    with pytest.raises(PreconditionError, match="more than 4096"):
        QUAD_CHECKS["blocks"][1]({"p": list(range(9)), "q": list(range(8)), "r": list(range(8)), "ell": list(range(8))})
    # 20^5 point dicts used to be built (3.5 s, 644 MB) before the first check ran
    started = time.perf_counter()
    with pytest.raises(PreconditionError, match="3200000 points"):
        run_grid("theorem1", {key: list(range(1, 21)) for key in ("p", "q", "r", "a", "m")})
    assert time.perf_counter() - started < 1.0


def test_admissible_indices_are_bounded_by_weight():
    from mzv.identities import MAX_TERMS, admissible_indices

    assert len(admissible_indices(14)) == MAX_TERMS
    for weight in (15, 30, 10**9):
        with pytest.raises(PreconditionError, match="admissible indices"):
            admissible_indices(weight)
    with pytest.raises(PreconditionError, match="admissible indices"):
        run_grid("duality", {"max_weight": 30})
    with pytest.raises(PreconditionError, match="may not exceed 14"):
        draw_params("duality", XorShift64Star(1), {"weight": [3, 15]})
    with pytest.raises(PreconditionError, match="may not exceed 14"):
        draw_params("ohno", XorShift64Star(1), {"weight": [30, 30]})


def test_draws_at_accepted_weights_are_unchanged():
    # the seed fixes the draws (report contract); drawn before the weight bound existed
    rng = XorShift64Star(42)
    assert [draw_params("duality", rng, {"weight": [3, 14]})["index"] for _ in range(6)] == [
        "(3,1,2,1,1,1,1,3)", "(2,2,3,1,2,1,1,2)", "(3,2)", "(1,3,2)", "(1,1,2)", "(2,1,1,3)"
    ]
    rng = XorShift64Star(42)
    assert [draw_params("ohno", rng, {"weight": [12, 14]}) for _ in range(3)] == [
        {"index": "(3,1,2,1,1,1,1,3)", "m": 3},
        {"index": "(1,1,1,3,7)", "m": 3},
        {"index": "(1,1,3,1,2,4)", "m": 1},
    ]
    rng = XorShift64Star(9)
    assert [draw_params("theorem1", rng) for _ in range(2)] == [
        {"p": 3, "q": 3, "r": 1, "a": 0.427989, "m": 2},
        {"p": 3, "q": 2, "r": 1, "a": 1.158447, "m": 1},
    ]


def test_an_index_is_drawn_by_its_rank_as_from_the_list():
    from mzv.identities import _admissible_index, admissible_indices

    for weight in range(2, 15):
        every = admissible_indices(weight)
        for seed in range(4):
            rng, listed = XorShift64Star(seed), XorShift64Star(seed)
            for _ in range(8):
                drawn = draw_params("duality", rng, {"weight": [weight, weight]})["index"]
                listed.randint(weight, weight)
                assert drawn == str(listed.choice(every)), (weight, seed)
        if weight <= 8:
            assert [_admissible_index(weight, i) for i in range(len(every))] == every


def test_declared_params_are_the_keys_of_every_grid_point_and_draw():
    rng = XorShift64Star(5)
    for name, info in IDENTITIES.items():
        declared = set(check_params(info.check)[0])
        points = info.grid({}) + [info.draw(rng, {}) for _ in range(20)]
        for point in points:
            assert set(point) == declared, (name, point)


def test_check_params_reads_the_checker_signature_through_a_wrapper():
    assert check_params(check_duality) == (("index",), ("index",))
    assert check_params(check_theorem1) == (("p", "q", "r", "m", "a"), ("p", "q", "r", "m"))
    assert check_params(check_eq24) == (("pvec", "qvec", "a"), ("pvec", "qvec"))
    for info in IDENTITIES.values():
        @functools.wraps(info.check)
        def wrapped(*args, **kwargs):
            return info.check(*args, **kwargs)

        # a wrapper that only points back at its checker, as a tracer's does
        def traced(*args, **kwargs):
            return info.check(*args, **kwargs)

        traced.__wrapped__ = info.check
        assert check_params(wrapped) == check_params(traced) == check_params(info.check)
