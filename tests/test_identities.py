"""Identity checkers: verdict semantics, preconditions, grids, fuzz draws."""

import functools
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv.errors import ConfigError, PreconditionError
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
)
from mzv.indices import MzvIndex
from mzv.report import run_suite
from mzv.rng import XorShift64Star
from mzv.series import EvalResult

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


def test_duality_self_dual_shortcut(monkeypatch):
    import mzv.identities as identities
    from mzv.series import mzv_spec

    check = check_duality(MzvIndex((1, 3)), ACC)
    assert check.details["self_dual"]
    assert check.abs_diff == 0.0
    # a self-dual index is evaluated once, for both sides
    calls = []
    real = identities.evaluate
    monkeypatch.setattr(identities, "evaluate", lambda spec, acc: calls.append(spec) or real(spec, acc))
    for text in ("(2,2)", "(1,3)"):
        calls.clear()
        check = check_duality(text, ACC)
        assert check.details["self_dual"] and calls == [mzv_spec(MzvIndex.parse(text))]
        assert check.sides[0] == check.sides[1]


def test_duality_takes_an_index_as_a_list_of_parts():
    assert check_duality([1, 2], ACC).as_dict() == check_duality("(1,2)", ACC).as_dict()
    assert check_duality((2, 2), ACC).as_dict() == check_duality(MzvIndex((2, 2)), ACC).as_dict()


def test_make_check_evaluates_a_repeated_side_once(monkeypatch):
    import mzv.identities as identities
    from mzv.identities import make_check

    calls = []
    real = identities.side
    monkeypatch.setattr(identities, "side", lambda terms: calls.append(terms) or real(terms))
    one, other = [(1.0, 2, 0.0)], [(1.0, 3, 0.0)]
    # the same object after itself is one evaluation; an equal list, or the
    # same object after another side, is evaluated again
    check = make_check("t", {}, (one, one, [(1.0, 2, 0.0)], other, one), None)
    assert [terms is one for terms in calls] == [True, False, False, True]
    assert [res.value for res in check.sides] == [2.0, 2.0, 2.0, 3.0, 2.0]
    assert check.sides[0] is check.sides[1]
    assert check.abs_diff == 1.0


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


def test_eq24_joins_the_spec_builders_runs(monkeypatch):
    # each run of a side is `_spec`'s memoised spec of its ones with the run's
    # extra power last, so the joined spec holds that spec's bundles themselves
    import mzv.identities as identities
    from mzv.series import ShiftedPower, _spec

    listed = []
    monkeypatch.setattr(identities, "make_check", lambda identity, params, sides, tolerance: listed.extend(sides))
    check_eq24([2, 1], [1, 3], 0.5, ACC)
    lhs, rhs = (terms[0][1] for terms in listed)
    one, run_end = ShiftedPower(0.5, 1), lambda q: (ShiftedPower(0.5, 1), ShiftedPower(0, q))
    assert lhs.factors == ((one,), run_end(1), run_end(3))
    assert rhs.factors == ((one,), (one,), run_end(1), run_end(2))
    for spec, ps, qs in ((lhs, (2, 1), (1, 3)), (rhs, (3, 1), (1, 2))):
        runs = [b for p, q in zip(ps, qs) for b in _spec((1,) * p, 0.5, last=(ShiftedPower(0, q),)).factors]
        assert all(bundle is run for bundle, run in zip(spec.factors, runs, strict=True))


def test_eq24_validation():
    with pytest.raises(PreconditionError):
        check_eq24([], [], 0, ACC)
    with pytest.raises(PreconditionError):
        check_eq24([1, 2], [1], 0, ACC)
    with pytest.raises(PreconditionError):
        check_eq24([0, 1], [1, 1], 0, ACC)
    # a `points` entry hands its values over unchecked; an int used to raise TypeError
    with pytest.raises(PreconditionError, match=r"^pvec and qvec must be lists, got \[1\] and 5$"):
        check_eq24([1], 5, 0, ACC)


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
    real = identities._compositions

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(identities, "_compositions", counting)
    again = check_section4(m, p, ACC).as_dict()
    # the p - 1 sums S_j and the direct sum, each read from the kept
    # compositions; S_p is a count
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
    report = run_suite({"accuracy": 1e-7, "checks": [{"identity": "duality", "grid": {"max_weight": 4}}]})
    # weights 2, 3, 4 hold 1 + 2 + 4 admissible indices
    assert len(report["checks"]) == 7
    assert all(r["pass"] for r in report["checks"])


def test_run_grid_unknown_identity():
    with pytest.raises(ConfigError, match=r"checks\[0\]: unknown identity 'nope'"):
        run_suite({"checks": [{"identity": "nope", "grid": {}}]})
    with pytest.raises(PreconditionError, match="unknown identity 'nope'"):
        draw_params("nope", XorShift64Star(1))


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
    from mzv.identities import composition_terms, side
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
    # summed in term order, as `side` sums
    value = tail = 0.0
    for i in range(1, 7):
        value += 1.0 * (1.0 / 5 + i)
        tail += 1.0 * (1e-6 / 6)
    assert result == EvalResult(value, tail, 0, "float")
    # families weighted 1 and -2 split over (1 + 2) * 6 terms, family by family
    calls.clear()
    terms = composition_terms(5, 3, [(1, lambda alpha: alpha), (-2, lambda alpha: alpha[::-1])], 1e-6)
    per = 1e-6 / 18
    assert terms == [(1.0, alpha, per) for alpha in comps] + [(-2.0, alpha[::-1], per) for alpha in comps]
    result = side(terms)
    assert calls == [(alpha, per) for alpha in comps] + [(alpha[::-1], per) for alpha in comps]
    value = tail = 0.0
    for coeff, i in [(1.0, i) for i in range(1, 7)] + [(-2.0, i) for i in range(7, 13)]:
        value += coeff * (1.0 / 5 + i)
        tail += abs(coeff) * per
    assert result == EvalResult(value, tail, 0, "float")
    # shares divide the budget further; `minimum` reaches the enumeration
    assert composition_terms(2, 2, lambda alpha: alpha, 1e-6, minimum=0, shares=4) == [
        (1.0, alpha, 1e-6 / 12) for alpha in ((0, 2), (1, 1), (2, 0))
    ]


def test_side_takes_a_spec_a_computed_result_and_an_exact_number(monkeypatch):
    from fractions import Fraction

    import mzv.identities as identities
    from mzv.identities import side
    from mzv.series import EvalResult

    calls = []
    evaluated = EvalResult(2.0, 1e-9, 1024, "float-extrapolated", True, ("slow-convergence", "cutoff-exhausted"))
    monkeypatch.setattr(identities, "evaluate", lambda spec, acc: calls.append((spec, acc)) or evaluated)
    computed = EvalResult(0.5, 2e-9, 199, "float", False, ("level-exhausted",))
    result = side([(1.0, "spec", 1e-6), (-2.0, computed, 0.0), (0.5, Fraction(3, 4), 0.0)])
    # only the spec is evaluated, to its term's accuracy; the exact 3/4 has bound 0
    assert calls == [("spec", 1e-6)]
    flags = ("cutoff-exhausted", "level-exhausted", "slow-convergence")
    assert result == EvalResult(2.0 - 1.0 + 0.375, 1e-9 + 2.0 * 2e-9, 1024, "float-extrapolated", False, flags)
    # a side of one term with coefficient 1 is its term's result, as it is
    assert side([(1.0, "spec", 1e-6)]) is evaluated
    assert side([(1.0, computed, 0.0)]) is computed
    assert side([(1.0, 3, 0.0)]) == EvalResult(3.0, 0.0, 0, "float")
    assert side([(-1.0, computed, 0.0)]) == EvalResult(-0.5, 2e-9, 199, "float", False, ("level-exhausted",))


def test_side_calls_an_integral_with_its_terms_accuracy(monkeypatch):
    import mzv.identities as identities
    from mzv.identities import side
    from mzv.series import EvalResult

    calls = []
    integral = EvalResult(0.25, 1e-10, 399, "float", True)
    evaluated = EvalResult(1.0, 1e-9, 1024, "float")
    monkeypatch.setattr(identities, "evaluate", lambda spec, acc: calls.append(("evaluate", spec, acc)) or evaluated)

    def rule(acc):
        calls.append(("integral", acc))
        return integral

    # an integral is a term like a spec: called in order, with its term's accuracy
    result = side([(1.0, "spec", 1e-6), (2.0, rule, 1e-8), (1.0, 0.5, 0.0)])
    assert calls == [("evaluate", "spec", 1e-6), ("integral", 1e-8)]
    assert result == EvalResult(2.0, 1e-9 + 2e-10, 1024, "float")
    calls.clear()
    assert side([(1.0, functools.partial(rule), 1e-7)]) is integral
    assert calls == [("integral", 1e-7)]


_FLAGS = ("cutoff-exhausted", "level-exhausted", "slow-convergence")
_RESULTS = st.builds(
    EvalResult,
    st.floats(-1e6, 1e6),
    st.floats(0.0, 1e-3),
    st.integers(0, 1 << 24),
    st.sampled_from(["float", "float-extrapolated"]),
    st.booleans(),
    st.lists(st.sampled_from(_FLAGS), max_size=3, unique=True).map(tuple),
)
_NUMBERS = st.one_of(
    st.integers(-(10**6), 10**6), st.floats(-1e6, 1e6), st.fractions(max_denominator=1000).filter(lambda f: abs(f) < 10**6)
)
_COEFFS = st.one_of(st.sampled_from([1.0, -1.0, 0.5, -2.0, 3.0]), st.floats(-100.0, 100.0))
# a drawn term's item is ("spec", i), naming one of three specs, a result or a number
_SPECS = st.integers(0, 2).map(lambda i: ("spec", i))


@given(
    evaluated=st.lists(_RESULTS, min_size=3, max_size=3),
    drawn=st.lists(
        st.tuples(_COEFFS, st.one_of(_SPECS, _RESULTS, _NUMBERS), st.floats(1e-12, 1e-3)), min_size=1, max_size=7
    ),
)
@settings(max_examples=150, deadline=None)
def test_side_is_the_in_order_sum_of_its_terms(evaluated, drawn):
    from unittest import mock

    import mzv.identities as identities
    from mzv.identities import side
    from mzv.series import _spec

    specs = [_spec((x,)) for x in (2, 3, 4)]
    result_of = dict(zip(specs, evaluated))  # what the stand-in `evaluate` returns
    terms = [(c, specs[item[1]] if isinstance(item, tuple) else item, acc) for c, item, acc in drawn]
    calls = []
    with mock.patch.object(identities, "evaluate", lambda spec, acc: calls.append((spec, acc)) or result_of[spec]):
        got = side(terms)
    # the reference: each term's result, then the terms summed in order
    results = []
    for coeff, item, acc in terms:
        if isinstance(item, EvalResult):
            results.append((coeff, item))
        elif item in specs:
            results.append((coeff, result_of[item]))
        else:
            results.append((coeff, EvalResult(float(item), 0.0, 0, "float")))
    assert calls == [(item, acc) for _, item, acc in terms if item in specs]
    if len(results) == 1 and results[0][0] == 1.0:  # the term's result, as it is
        assert got == results[0][1] and got.value.hex() == results[0][1].value.hex()
        return
    value = tail = 0.0
    for coeff, res in results:
        value += coeff * res.value
        tail += abs(coeff) * res.tail_bound
    assert (got.value.hex(), got.tail_bound.hex()) == (value.hex(), tail.hex())
    assert got.cutoff == max(res.cutoff for _, res in results)
    assert got.mode == ("float-extrapolated" if any(r.mode == "float-extrapolated" for _, r in results) else "float")
    assert got.accuracy_met == all(r.accuracy_met for _, r in results)
    assert got.flags == tuple(sorted({f for _, r in results for f in r.flags}))


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_each_spec_term_goes_through_the_module_binding_of_evaluate_cold_and_warm(monkeypatch, name):
    # a tracer rebinds `mzv.identities.evaluate`; a checker that reached the
    # engine another way, or kept results beside the store, would move its counts
    import mzv
    import mzv.identities as identities
    from mzv.series import NestedSumSpec

    real_side, real_evaluate = identities.side, identities.evaluate
    listed, evaluated = [], []

    def listing_side(terms):
        listed.extend(item for _, item, _ in terms if isinstance(item, NestedSumSpec))
        return real_side(terms)

    def counting_evaluate(spec, acc):
        evaluated.append(spec)
        return real_evaluate(spec, acc)

    monkeypatch.setattr(identities, "side", listing_side)
    monkeypatch.setattr(identities, "evaluate", counting_evaluate)
    point = IDENTITIES[name].grid({})[0]
    mzv.clear_caches()
    records = []
    for run in ("cold", "warm"):
        listed.clear()
        evaluated.clear()
        records.append(IDENTITIES[name].check(acc=ACC, tolerance=None, **point).as_dict())
        assert listed and evaluated == listed, run
    assert records[0] == records[1]


def test_only_side_evaluates_a_side():
    import ast
    from pathlib import Path

    import mzv.identities
    import mzv.quadrature

    names = {"evaluate", "mzv", "combine", "exact_side", "side"}

    def references(node: ast.AST, where: str, found: set) -> set:
        """`(function, name)` for each use of a name of `names`, by the innermost function."""
        if isinstance(node, ast.FunctionDef):
            where = node.name
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name in names:
            found.add((where, name))
        for child in ast.iter_child_nodes(node):
            references(child, where, found)
        return found

    def uses(module) -> set:
        return references(ast.parse(Path(module.__file__).read_text()), "<module>", set())

    # the one evaluator, the sides `make_check` evaluates, and the one sub-sum
    # a checker evaluates first: section4's S_j, which its details report
    assert uses(mzv.identities) == {("side", "evaluate"), ("make_check", "side"), ("check_section4", "side")}
    assert uses(mzv.quadrature) == set()
    # an integral is a term of a side: no quad checker calls a rule
    rules = {"triangle_quadrature", "zeta2_simplex_value", "interval_quadrature"}
    tree = ast.parse(Path(mzv.quadrature.__file__).read_text())
    checkers = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("check_quad_")]
    assert len(checkers) == 6
    for checker in checkers:
        called = {getattr(n.func, "id", getattr(n.func, "attr", None)) for n in ast.walk(checker) if isinstance(n, ast.Call)}
        assert not called & rules, checker.name
    assert [name for name in ("mzv", "MzvIndex", "side", "exact_side") if hasattr(mzv.quadrature, name)] == []
    assert [name for name in ("mzv", "combine", "exact_side") if hasattr(mzv.identities, name)] == []


def test_every_spec_comes_from_one_builder():
    import ast
    from pathlib import Path

    import mzv.identities
    import mzv.quadrature
    import mzv.series

    def scan(module) -> tuple[set, set]:
        """The functions that call `NestedSumSpec`, innermost first, and the
        names of the retired builders the module refers to."""
        calls, retired = set(), set()

        def visit(node: ast.AST, where: str) -> None:
            if isinstance(node, ast.FunctionDef):
                where = node.name
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "NestedSumSpec":
                calls.add(where)
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name in ("_parts_spec", "_shifted_spec"):
                retired.add(name)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(Path(module.__file__).read_text()), "<module>")
        return calls, retired

    # eq24's run builder puts its extra factors at run boundaries
    assert scan(mzv.identities) == ({"spec"}, set())
    assert scan(mzv.quadrature) == (set(), set())
    assert [name for name in ("_parts_spec", "_shifted_spec") if hasattr(mzv.series, name)] == []


def test_the_builder_keeps_each_checkers_bundle_order(monkeypatch):
    import mzv.identities as identities
    from mzv.series import FiniteDifference, NestedSumSpec, RisingFactorial, ShiftedPower, _spec

    listed = {}
    monkeypatch.setattr(identities, "make_check", lambda identity, params, sides, *rest: listed.setdefault(identity, sides))
    factors = lambda side: [item.factors for _, item, _ in side]  # noqa: E731

    # the rising factorial leads the first bundle and the finite difference ends the last
    identities.check_theorem1(p=2, q=2, r=1, m=0, a=0.5)
    assert factors(listed["theorem1"][1]) == [
        ((RisingFactorial(1), ShiftedPower(0.5, 1)), (ShiftedPower(0.5, 1), FiniteDifference(1, 2)))
    ]
    identities.check_cor15(p=2, m=1, r=2)
    assert factors(listed["cor15"][1]) == [((RisingFactorial(2), ShiftedPower(2, 2), FiniteDifference(2, 2)),)]
    # section4's depth-one series, with and without its leading power
    for p, t_spec in ((3, ((ShiftedPower(0, 2), ShiftedPower(1, 3)),)), (1, ((ShiftedPower(1, 3),),))):
        listed.clear()
        identities.check_section4(m=2, p=p)
        assert factors(listed["section4"][2]) == [((ShiftedPower(0, 2 + p),),), t_spec]
    # theorem3's first family: the ones prefix, the m-shifted block, the extra 1/k last
    first = identities._theorem3_sides(1, 1, 1, 2, ACC)[0]
    assert factors(first) == [
        ((ShiftedPower(0, 1),), (ShiftedPower(2, 1),), (ShiftedPower(2, 2), ShiftedPower(0, 1))),
        ((ShiftedPower(0, 1),), (ShiftedPower(2, 2),), (ShiftedPower(2, 1), ShiftedPower(0, 1))),
    ]
    # a repeated term is the same object, and an MZV term is the MZV spec
    again = identities._theorem3_sides(1, 1, 1, 2, ACC)
    assert all(a[1] is b[1] for a, b in zip(first, again[0]))
    assert again[2][0][1] is _spec((1, 1, 3)) == NestedSumSpec(tuple((ShiftedPower(0, x),) for x in (1, 1, 3)))


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
    from mzv.series import EvalResult, _log_degree, _MAX_LOG_POWER, _require_convergent

    specs = []

    def convergent(spec, acc):
        _require_convergent(spec)
        specs.append(spec)
        return EvalResult(1.0, 0.0, 1024, "float")

    monkeypatch.setattr(identities, "evaluate", convergent)
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
        IDENTITIES["theorem1"].grid({key: list(range(1, 21)) for key in ("p", "q", "r", "a", "m")})
    assert time.perf_counter() - started < 1.0


def test_admissible_indices_are_bounded_by_weight():
    from mzv.identities import MAX_TERMS, admissible_indices

    assert len(admissible_indices(14)) == MAX_TERMS
    for weight in (15, 30, 10**9):
        with pytest.raises(PreconditionError, match="admissible indices"):
            admissible_indices(weight)
    with pytest.raises(PreconditionError, match="admissible indices"):
        IDENTITIES["duality"].grid({"max_weight": 30})
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
