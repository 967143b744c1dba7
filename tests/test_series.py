"""Series engine: factor model, exact oracle, extrapolation honesty."""

import json
import logging
import random
import re
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, factorial, inf, isnan, pi, ulp

import numpy as np
import pytest

from mzv import clear_caches, series

from mzv.errors import AdmissibilityError, DivergentSeriesError, InvalidSpecError
from mzv.identities import admissible_indices
from mzv.indices import MzvIndex
from mzv.reference import mzv_reference
from mzv.report import run_suite
from mzv.rng import XorShift64Star
from mzv.series import (
    EvalResult,
    ExtraPower,
    FiniteDifference,
    NestedSumSpec,
    RisingFactorial,
    ShiftedPower,
    _evaluate_cached,
    decay_model,
    evaluate,
    evaluate_exact_truncated,
    extrapolate_tail,
    finite_difference_factor,
    finite_difference_factor_exact,
    mzv,
    mzv_spec,
    partial_sums,
)

# frozen reference values (independent sources, double precision)
ZETA2 = 1.6449340668482264
ZETA3 = 1.2020569031595943
ZETA4 = 1.0823232337111382
ZETA_1_3 = pi**4 / 360.0  # weight-4 double zeta with a leading 1


def spec_of(*bundles):
    return NestedSumSpec(tuple(tuple(b) for b in bundles))


# ---------------------------------------------------------------------------
# factors and spec validation


def test_factor_validation():
    with pytest.raises(InvalidSpecError):
        ShiftedPower(-1, 1)
    with pytest.raises(InvalidSpecError):
        ShiftedPower(0.5, 0)
    with pytest.raises(InvalidSpecError):
        ExtraPower(-1, 1)
    with pytest.raises(InvalidSpecError):
        ExtraPower(0.5, 1)  # integer shifts only
    with pytest.raises(InvalidSpecError):
        RisingFactorial(-1)
    with pytest.raises(InvalidSpecError):
        FiniteDifference(2, 0)
    for make in (lambda e: ShiftedPower(0.5, e), lambda e: ExtraPower(0, e)):
        make(1024)
        with pytest.raises(InvalidSpecError, match="<= 1024"):
            make(1025)
    FiniteDifference(1, 64)
    with pytest.raises(InvalidSpecError, match="<= 64"):
        FiniteDifference(1, 65)
    for bad in (10**400, Fraction(10**400, 3)):
        with pytest.raises(InvalidSpecError, match="finite"):
            ShiftedPower(bad, 2)
    with pytest.raises(InvalidSpecError, match="finite"):
        ExtraPower(10**400, 2)


def test_a_result_is_a_named_tuple_of_its_fields():
    assert issubclass(EvalResult, tuple)
    assert EvalResult._fields == ("value", "tail_bound", "cutoff", "mode", "accuracy_met", "flags")
    assert EvalResult._field_defaults == {"accuracy_met": True, "flags": ()}
    res = EvalResult(1.5, 0.25, 8, "float-extrapolated", False, ("slow-convergence",))
    assert res == (1.5, 0.25, 8, "float-extrapolated", False, ("slow-convergence",))
    assert res.as_dict() == {
        "value": 1.5,
        "tail_bound": 0.25,
        "cutoff": 8,
        "mode": "float-extrapolated",
        "accuracy_met": False,
        "flags": ["slow-convergence"],
    }
    assert type(res.as_dict()["flags"]) is list
    assert EvalResult(1.5, 0.0, 0, "float").as_dict()["flags"] == []


def test_a_spec_is_given_as_a_list_of_factor_lists():
    # the list-to-tuple normaliser: lists, or any iterable, as today
    factors = ((ShiftedPower(0, 1),), (ShiftedPower(0, 2),))
    for bundles in ([list(b) for b in factors], (b for b in factors), [iter(b) for b in factors]):
        spec = NestedSumSpec(bundles)
        assert spec.factors == factors and type(spec.factors) is tuple
        assert all(type(b) is tuple for b in spec.factors)
        assert spec == NestedSumSpec(factors) and hash(spec) == hash(NestedSumSpec(factors))


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        NestedSumSpec(())
    with pytest.raises(InvalidSpecError):
        NestedSumSpec((("not a factor",),))
    with pytest.raises(InvalidSpecError):
        NestedSumSpec(((),))  # empty bundle
    NestedSumSpec(((ExtraPower(0, 2),),) * 64)
    with pytest.raises(InvalidSpecError, match="depth 65 exceeds 64"):
        NestedSumSpec(((ExtraPower(0, 2),),) * 65)
    with pytest.raises(InvalidSpecError, match="depth"):
        mzv_spec(MzvIndex((1,) * 64 + (2,)))


def test_mzv_spec_memo_is_bounded_and_shares_its_specs():
    # `mzv_spec` keeps no memo of its own: it asks the one spec builder
    memo = series._spec
    size = memo.cache_info().maxsize
    assert size == 4096
    assert mzv_spec(MzvIndex((1, 2))) is mzv_spec(MzvIndex.parse("1,2")) is memo((1, 2))
    assert mzv_spec(MzvIndex((1, 2))) == NestedSumSpec(((ShiftedPower(0, 1),), (ShiftedPower(0, 2),)))
    indices = [MzvIndex((a, b)) for b in range(2, 8) for a in range(1, 1025)]
    assert len(indices) > size
    for index in indices:
        mzv_spec(index)
    assert memo.cache_info().currsize == size
    memo.cache_clear()


def test_parts_memo_is_bounded_and_shares_the_mzv_specs():
    # the parts memo is the one spec builder's, and every spec it builds is validated
    memo = series._spec
    assert memo.cache_info().maxsize == 4096
    memo.cache_clear()
    assert memo((1, 2)) is memo((1, 2)) is mzv_spec(MzvIndex((1, 2)))
    # with no shift and no additional factor the ones are parts: one object
    assert memo((2,), 0, 2) is memo((1, 1, 2)) is mzv_spec(MzvIndex((1, 1, 2)))
    assert memo((2,), 1, 2) == spec_of([ShiftedPower(0, 1)], [ShiftedPower(0, 1)], [ShiftedPower(1, 2)])
    with pytest.raises(InvalidSpecError, match="exponent must be >= 1, got 0"):
        memo((2, 0))
    with pytest.raises(InvalidSpecError, match="depth 65 exceeds 64"):
        memo((2,), 1, 64)
    parts = [(a, b) for b in range(2, 8) for a in range(1, 1025)]
    assert len(parts) > 4096
    for p in parts:
        memo(p)
    assert memo.cache_info().currsize == 4096
    memo.cache_clear()


def test_spec_hash_is_computed_once_and_equal_specs_agree():
    spec = spec_of([ShiftedPower(0, 2)], [ShiftedPower(Fraction(1, 2), 1), RisingFactorial(1)])
    same = spec_of([ShiftedPower(0.0, 2)], [ShiftedPower(0.5, 1), RisingFactorial(1)])
    assert spec == same and hash(spec) == hash(same) == hash(spec.factors)
    assert spec.__dict__ == {"factors": spec.factors, "_hash": hash(spec.factors)}


def test_factor_hash_is_computed_once_and_equal_factors_share_one_row():
    series._factor.cache_clear()
    for one, other in [
        (ShiftedPower(0, 2), ShiftedPower(0.0, 2)),
        (ShiftedPower(Fraction(1, 2), 1), ShiftedPower(0.5, 1)),
    ]:
        assert one == other and hash(one) == hash(other) == hash((one.shift, one.exponent))
        assert one.__dict__ == {"shift": one.shift, "exponent": one.exponent, "_hash": hash(one)}
        facts = series._factor(one)
        assert series._factor(other) is facts  # one memo entry for both
    assert series._factor.cache_info().currsize == 2
    for f in (RisingFactorial(3), FiniteDifference(2, 1)):
        assert f.__dict__["_hash"] == hash(f) == hash(tuple(v for k, v in f.__dict__.items() if k != "_hash"))


def test_spec_json_roundtrip():
    spec = spec_of(
        [ShiftedPower(Fraction(1, 3), 2), RisingFactorial(2)],
        [ExtraPower(1, 3), FiniteDifference(2, 1)],
    )
    again = NestedSumSpec.from_dict(spec.as_dict())
    assert again == spec
    assert again.factors[0][0].shift == Fraction(1, 3)
    # each kind writes its name, then its fields in declaration order, a rational shift as text
    written = [
        [{"kind": "shifted-power", "shift": "1/3", "exponent": 2}, {"kind": "rising-factorial", "degree": 2}],
        [{"kind": "shifted-power", "shift": 1, "exponent": 3}, {"kind": "finite-difference", "order": 2, "exponent": 1}],
    ]
    assert json.dumps(spec.as_dict()) == json.dumps({"factors": written})
    # `extra-power` is read as the shifted power of its integer shift, and written back as one
    spec = NestedSumSpec.from_dict({"factors": [[{"kind": "extra-power", "shift": 1, "exponent": 2}]]})
    assert spec == spec_of([ShiftedPower(1, 2)])
    assert spec.as_dict()["factors"] == [[{"kind": "shifted-power", "shift": 1, "exponent": 2}]]
    assert NestedSumSpec.from_dict(spec.as_dict()) == spec


def test_spec_json_reads_the_retired_tail_log_power_only_as_null():
    # earlier versions wrote "tail_log_power": null into every spec document
    factors = [[{"kind": "shifted-power", "shift": 0, "exponent": 2}]]
    spec = NestedSumSpec.from_dict({"factors": factors, "tail_log_power": None})
    assert spec == spec_of([ShiftedPower(0, 2)])
    assert spec.as_dict() == {"factors": factors}
    assert NestedSumSpec.from_dict(spec.as_dict()) == spec
    for value in (0, 13):
        with pytest.raises(InvalidSpecError, match="tail_log_power"):
            NestedSumSpec.from_dict({"factors": factors, "tail_log_power": value})


def test_spec_json_rejects_junk():
    # a kind that is no text is refused as unknown too, not looked up
    for kind, named in [("nope", "'nope'"), ("ExtraPower", "'ExtraPower'"), ([1], "[1]"), (1, "1"), (None, "None")]:
        with pytest.raises(InvalidSpecError, match=re.escape(f"unknown factor kind {named}") + "$"):
            NestedSumSpec.from_dict({"factors": [[{"kind": kind, "shift": 0, "exponent": 2}]]})
    with pytest.raises(InvalidSpecError):
        NestedSumSpec.from_dict({"nope": []})
    with pytest.raises(InvalidSpecError, match=r"unknown spec keys: \['nope'\]"):
        NestedSumSpec.from_dict({"factors": [[{"kind": "shifted-power", "shift": 0, "exponent": 2}]], "nope": 1})
    with pytest.raises(InvalidSpecError, match="factor must be an object with a 'kind', got 5"):
        NestedSumSpec.from_dict({"factors": [[5]]})
    with pytest.raises(InvalidSpecError, match=r"bad shift value \[1\]"):
        NestedSumSpec.from_dict({"factors": [[{"kind": "shifted-power", "shift": [1], "exponent": 2}]]})
    # a bundle that is not a list was a TypeError, a missing shift a KeyError
    with pytest.raises(InvalidSpecError, match="list of factor lists"):
        NestedSumSpec.from_dict({"factors": [5]})
    with pytest.raises(InvalidSpecError, match="shift"):
        NestedSumSpec.from_dict({"factors": [[{"kind": "shifted-power", "exponent": 2}]]})
    for bad in ({"shift": 0.5, "exponent": 1}, {"shift": -1, "exponent": 1}, {"exponent": 1}):
        with pytest.raises(InvalidSpecError):
            NestedSumSpec.from_dict({"factors": [[{"kind": "extra-power", **bad}]]})


def test_extra_power_is_a_shifted_power():
    assert ExtraPower(2, 3) == ShiftedPower(2, 3)
    assert type(ExtraPower(2, 3)) is ShiftedPower
    # one sum, one cache record
    a = evaluate(spec_of([ExtraPower(0, 2)]), 1e-8)
    b = evaluate(spec_of([ShiftedPower(0, 2)]), 1e-8)
    assert a is b


# ---------------------------------------------------------------------------
# decay model and divergence


def test_decay_model_plain_zeta():
    s, logp = decay_model(mzv_spec(MzvIndex((2,))))
    assert s == 2 and logp == 0


def test_decay_model_ones_run_log_power():
    # each harmonic prefix level contributes one logarithm to the tail
    s, logp = decay_model(mzv_spec(MzvIndex((1, 1, 2))))
    assert s == 2 and logp == 2


def test_decay_model_rising_and_difference_factors():
    # rising factorial eats into the power decay ...
    s, _ = decay_model(spec_of([RisingFactorial(1), ExtraPower(0, 3)]))
    assert s == 2
    # ... and a growing rising factorial can break convergence outright
    s, _ = decay_model(spec_of([RisingFactorial(2), ExtraPower(0, 1)]))
    assert s < 2
    # a finite difference of order r decays like r + exponent
    s, _ = decay_model(spec_of([FiniteDifference(2, 1)]))
    assert s == 3


def test_divergent_specs_rejected():
    with pytest.raises(DivergentSeriesError):
        evaluate(spec_of([ExtraPower(0, 1)]))
    with pytest.raises(DivergentSeriesError):
        evaluate(spec_of([RisingFactorial(2), ExtraPower(0, 1)]))
    with pytest.raises(AdmissibilityError):
        mzv(MzvIndex((1, 1)))
    with pytest.raises(AdmissibilityError):
        mzv(MzvIndex((2, 1)))


def test_log_degrees_past_the_tail_model_rejected():
    # the cap of 12 dates from the fitted tail: ({1}^24,2) used to get a
    # bound of 0.094 against an error of 0.94, ({1}^32,2) 1.5e-4 against 1.0
    cached = len(_evaluate_cached)
    for ones in (13, 24, 32, 50):
        spec = mzv_spec(MzvIndex((1,) * ones + (2,)))
        assert decay_model(spec) == (2, ones)
        with pytest.raises(InvalidSpecError, match=rf"\(ln k\)\^{ones};"):
            evaluate(spec, 1e-9)
    assert len(_evaluate_cached) == cached


def test_log_cap_counts_the_columns_the_expansions_build(monkeypatch):
    # a convergent position resets decay_model's log degree, but not the
    # log columns of the expansions: this depth-52 index reaches (ln k)^48
    spec = mzv_spec(MzvIndex.parse("({1}^12,3,{1}^12,3,{1}^12,3,{1}^12,2)"))
    assert decay_model(spec) == (2, 12)
    with pytest.raises(InvalidSpecError, match=r"\(ln k\)\^48;"):
        evaluate(spec, 1e-9)
    built = []
    em_step = series._em_step

    def counting_em_step(lead, logs, n):
        step = em_step(lead, logs, n)
        built.append(step[1])
        return step

    monkeypatch.setattr(series, "_em_step", counting_em_step)
    for text, degree in [
        ("({1}^12,2)", 12),
        ("({1}^6,3,{1}^6,2)", 12),
        ("(1,1,17,1,2)", 2),  # the expansion of the 17 starts past the grid
        ("(1,2,1,1,3,1,2)", 4),
    ]:
        spec = mzv_spec(MzvIndex.parse(text))
        built.clear()
        _evaluate_cached.cache_clear()
        evaluate(spec, 1e-6)
        assert max(built) - 1 == series._outline(spec).log_degree == degree, text


# ---------------------------------------------------------------------------
# exact rational oracle


def test_exact_small_values():
    assert evaluate_exact_truncated(mzv_spec(MzvIndex((2,))), 2) == Fraction(5, 4)
    assert evaluate_exact_truncated(mzv_spec(MzvIndex((1, 2))), 3) == Fraction(5, 12)
    # telescoping-style product 1/(k(k+2)) at cutoff 3
    tele = spec_of([ExtraPower(0, 1), ExtraPower(2, 1)])
    assert evaluate_exact_truncated(tele, 3) == Fraction(21, 40)
    assert evaluate_exact_truncated(tele, 0) == 0


def _random_spec(rng):
    depth = rng.randint(1, 3)
    bundles = []
    for _ in range(depth):
        kind = rng.randint(0, 3)
        if kind == 0:
            shift = Fraction(rng.randint(-2, 7), rng.randint(1, 5))
            bundles.append([ShiftedPower(shift if shift > -1 else Fraction(1, 2), rng.randint(1, 2))])
        elif kind == 1:
            bundles.append([ExtraPower(rng.randint(0, 3), rng.randint(1, 2))])
        elif kind == 2:
            bundles.append([RisingFactorial(rng.randint(0, 2)), ExtraPower(0, 1)])
        else:
            bundles.append([FiniteDifference(rng.randint(0, 2), rng.randint(1, 2))])
    return spec_of(*bundles)


def test_float_matches_exact_partials():
    rng = XorShift64Star(2024)
    for _ in range(8):
        spec = _random_spec(rng)
        exact = float(evaluate_exact_truncated(spec, 200))
        approx = partial_sums(spec, [200])[0]
        scale = max(1.0, abs(exact))
        assert abs(approx - exact) <= 1e-13 * scale, spec


def test_partial_sums_monotone_cutoffs_required():
    spec = mzv_spec(MzvIndex((2,)))
    with pytest.raises(InvalidSpecError):
        partial_sums(spec, [10, 10])
    assert partial_sums(spec, []) == []


@pytest.mark.parametrize("cutoff", [2.7, 2.0, "3", True, -1])
def test_partial_sums_refuses_a_cutoff_that_is_not_a_count(cutoff):
    with pytest.raises(InvalidSpecError):
        partial_sums(mzv_spec(MzvIndex((2,))), [cutoff])


# ---------------------------------------------------------------------------
# finite-difference factor


def test_fd_exact_small():
    assert finite_difference_factor_exact(2, 2, 1) == Fraction(1, 12)
    # order 0 reduces to a plain inverse power
    assert finite_difference_factor_exact(3, 0, 2) == Fraction(1, 9)


@pytest.mark.parametrize("ell", [1, 2, 5, 17])
@pytest.mark.parametrize("r", [0, 1, 3])
def test_fd_closed_form_exponent_one(ell, r):
    num = Fraction(1)
    for i in range(r + 1):
        num /= ell + i
    import math

    assert finite_difference_factor_exact(ell, r, 1) == math.factorial(r) * num


def test_fd_float_matches_exact():
    for ell in (1, 3, 10, 100):
        for r in (0, 2, 4):
            for p in (1, 2, 5):
                exact = float(finite_difference_factor_exact(ell, r, p))
                assert finite_difference_factor(ell, r, p) == pytest.approx(exact, rel=1e-13)


def test_fd_large_argument_uses_float_path():
    v = finite_difference_factor(10**6, 2, 2)
    # ~ r! * log-ish scale / ell^(r+1); just pin positivity and magnitude
    assert 0 < v < 1e-15


def test_fd_validation():
    with pytest.raises(InvalidSpecError):
        finite_difference_factor(0, 1, 1)
    with pytest.raises(InvalidSpecError):
        finite_difference_factor(2, -1, 1)
    # the factor's bounds hold for the large-argument form too
    for argument in (5, 20000):
        with pytest.raises(InvalidSpecError, match="order must be <= 64, got 100"):
            finite_difference_factor(argument, 100, 2)
    with pytest.raises(InvalidSpecError, match="exponent must be <= 64, got 2000"):
        finite_difference_factor(20000, 3, 2000)


# ---------------------------------------------------------------------------
# tail extrapolation as a standalone operation


def test_extrapolate_plain_zeta():
    spec = mzv_spec(MzvIndex((2,)))
    cutoffs = [256, 362, 512, 724, 1024, 1448, 2048, 2896, 4096]
    sums = partial_sums(spec, cutoffs)
    res = extrapolate_tail(cutoffs, sums, 2)
    assert res.mode == "float-extrapolated"
    truncation = ZETA2 - sums[-1]
    assert abs(res.value - ZETA2) < truncation / 1000  # far beyond raw truncation
    assert abs(res.value - ZETA2) <= res.tail_bound


def test_extrapolate_with_log_power():
    spec = mzv_spec(MzvIndex((1, 2)))
    cutoffs = [int(round(2 ** (j / 2))) for j in range(16, 27)]
    sums = partial_sums(spec, cutoffs)
    res = extrapolate_tail(cutoffs, sums, 2, max_log_power=1)
    assert abs(res.value - ZETA3) <= max(res.tail_bound, 1e-10)


def test_extrapolate_degenerate_constant():
    res = extrapolate_tail([10, 20, 30, 40], [1.5, 1.5, 1.5, 1.5], 3)
    assert (res.value, res.tail_bound, res.mode) == (1.5, 0.0, "float")


def test_extrapolate_input_validation():
    with pytest.raises(InvalidSpecError, match="cutoffs and partials must have equal length"):
        extrapolate_tail([10, 20, 30], [1.0, 2.0], 2)
    with pytest.raises(InvalidSpecError):
        extrapolate_tail([10, 20], [1.0, 2.0], 2)  # need >= 3 points
    with pytest.raises(InvalidSpecError):
        extrapolate_tail([10, 20, 15], [1.0, 2.0, 3.0], 2)
    with pytest.raises(InvalidSpecError):
        extrapolate_tail([10, 20, 30], [1.0, float("nan"), 3.0], 2)
    with pytest.raises(InvalidSpecError):
        extrapolate_tail([10, 20, 30], [3.0, 2.0, 1.0], 2)  # decreasing


# ---------------------------------------------------------------------------
# end-to-end evaluation honesty


@pytest.mark.parametrize(
    "parts,reference",
    [
        ((2,), ZETA2),
        ((3,), ZETA3),
        ((4,), ZETA4),
        ((1, 2), ZETA3),
        ((1, 3), ZETA_1_3),
        ((2, 2), (ZETA2**2 - ZETA4) / 2.0),
        ((1, 1, 2), ZETA4),
    ],
)
def test_mzv_against_frozen_values(parts, reference):
    res = mzv(MzvIndex(parts), 1e-9)
    assert res.accuracy_met
    assert abs(res.value - reference) <= res.tail_bound + 1e-12
    assert abs(res.value - reference) <= 1e-9


def test_eval_result_shape():
    res = evaluate(spec_of([ShiftedPower(0.5, 2)]), 1e-9)
    assert isinstance(res, EvalResult)
    d = res.as_dict()
    assert set(d) == {"value", "tail_bound", "cutoff", "mode", "accuracy_met", "flags"}
    assert d["accuracy_met"] is True


def test_cutoff_exhaustion_is_flagged():
    # a shift of 2^20 asks for a scan of 2^26 terms; the cap allows 2^24, and
    # a scan the cap cuts short is unmet whatever it finds, so none is run
    res = evaluate(spec_of([ShiftedPower(1 << 20, 2)]), 1e-3)
    assert not res.accuracy_met
    assert res.flags == ("cutoff-exhausted",)
    assert res.cutoff == 1 << 24
    assert isnan(res.value) and res.tail_bound == inf and res.mode == "float"
    slow = evaluate(spec_of([ShiftedPower(-0.9999, 2), ShiftedPower(1 << 20, 2)]), 1e-3)
    assert slow.flags == ("slow-convergence", "cutoff-exhausted") and not slow.accuracy_met


def test_an_overflowing_scan_is_unmet_without_warnings():
    # (k - 0.9999)^-1024 overflows at k = 1, and the compensated sum then
    # forms inf - inf: the scan runs with numpy's warnings silenced, as the
    # steps after it do, and the result says what it found
    spec = spec_of([ShiftedPower(-0.9999, 1024)])
    clear_caches()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = evaluate(spec, 1e-8)
        assert evaluate(spec, 1e-3) is res
        assert isnan(partial_sums(spec, [1024])[0])
    assert isnan(res.value) and res.tail_bound == inf and res.mode == "float" and not res.accuracy_met


@pytest.fixture
def scan_limits(monkeypatch):
    """`scan_limits(start, top)` sets `series._START_CUTOFF` and `_MAX_CUTOFF`
    for the rest of the test.  Every cache is emptied before the test, at
    each change of limits and after the test: the store's keys do not hold
    the cap, and a factor's memoised row is `_START_CUTOFF` terms long."""
    defaults = series._START_CUTOFF, series._MAX_CUTOFF

    def set_limits(start=defaults[0], top=defaults[1]):
        monkeypatch.setattr(series, "_START_CUTOFF", start)
        monkeypatch.setattr(series, "_MAX_CUTOFF", top)
        clear_caches()

    clear_caches()
    yield set_limits
    clear_caches()


def test_scan_length_follows_shifts_and_orders(scan_limits):
    cases = [
        (spec_of([ShiftedPower(0.5, 2)]), (1024, False)),
        (spec_of([ShiftedPower(-0.75, 2)], [FiniteDifference(3, 2)]), (1024, False)),
        (spec_of([ShiftedPower(100, 2)]), (8192, False)),  # 6,400 -> 2^13
        (spec_of([FiniteDifference(64, 1)]), (4096, False)),
        (spec_of([ShiftedPower(1 << 20, 2)]), (1 << 24, True)),
        (spec_of([ShiftedPower(1e308, 2)]), (1 << 24, True)),  # 64 * shift overflows a float
    ]
    for spec, expected in cases:
        assert series._scan_length(spec) == expected, spec
    scan_limits(start=1000)
    assert series._scan_length(spec_of([ShiftedPower(Fraction(-1, 2), 2)], [ExtraPower(17, 2)])) == (2048, False)
    assert series._scan_length(mzv_spec(MzvIndex((2,)))) == (1000, False)


def test_slow_convergence_flag():
    res = evaluate(spec_of([ShiftedPower(-0.9999, 2)]), 1e-6)
    assert "slow-convergence" in res.flags


def test_target_accuracy_validation():
    with pytest.raises(InvalidSpecError):
        evaluate(mzv_spec(MzvIndex((2,))), 0.0)
    with pytest.raises(InvalidSpecError):
        evaluate(mzv_spec(MzvIndex((2,))), -1e-9)


def test_shifted_power_matches_integer_extra_power():
    # same sum expressed through the real-shift and integer-shift factors
    a = evaluate(spec_of([ShiftedPower(2, 2)]), 1e-10)
    b = evaluate(spec_of([ExtraPower(2, 2)]), 1e-10)
    assert a.value == pytest.approx(b.value, abs=1e-10)


def test_fraction_shift_evaluates():
    res = evaluate(spec_of([ShiftedPower(Fraction(1, 2), 2)]), 1e-8)
    # sum 1/(k+1/2)^2 = pi^2/2 - 4
    assert res.value == pytest.approx(pi**2 / 2 - 4, abs=1e-8)


def test_evaluation_is_cached():
    spec = mzv_spec(MzvIndex((1, 1, 2)))
    first = evaluate(spec, 1e-9)
    second = evaluate(spec, 1e-9)
    assert first is second


DEPTH_ONE_ZETAS = {
    2: ZETA2,
    3: ZETA3,
    4: ZETA4,
    5: 1.0369277551433699,
    6: 1.0173430619844491,
}


@pytest.mark.parametrize("exponent", sorted(DEPTH_ONE_ZETAS))
def test_depth_one_zeta_tail_bound_honest(exponent):
    res = evaluate(spec_of([ExtraPower(0, exponent)]), 1e-8)
    assert abs(res.value - DEPTH_ONE_ZETAS[exponent]) <= res.tail_bound + 1e-13


@pytest.mark.parametrize("exponent", [2, 3, 4, 7, 11])
def test_depth_one_against_scipy(exponent):
    scipy_special = pytest.importorskip("scipy.special")
    res = evaluate(spec_of([ExtraPower(0, exponent)]), 1e-10)
    assert res.value == pytest.approx(float(scipy_special.zeta(exponent)), abs=5e-10)


def test_shifted_power_against_scipy_hurwitz():
    scipy_special = pytest.importorskip("scipy.special")
    # sum over k >= 1 of 1/(k+a)^s is the Hurwitz zeta at (s, 1+a)
    res = evaluate(spec_of([ShiftedPower(0.25, 3)]), 1e-10)
    assert res.value == pytest.approx(float(scipy_special.zeta(3, 1.25)), abs=5e-10)


# ---------------------------------------------------------------------------
# the evaluation cache: one result per spec serves every target

DEFAULT = (series._START_CUTOFF, series._MAX_CUTOFF)
SMALL = (64, 256)  # caps the scan of a shift past 4
LONG = (4096, 1 << 20)

# scan limits -> (spec, targets) cases
CACHE_CASES = {
    DEFAULT: [
        (mzv_spec(MzvIndex((2,))), [1e-6, 1e-8, 1e-10, 1e-12, 1e-16]),
        (mzv_spec(MzvIndex((1, 2))), [1e-6, 1e-8, 1e-9, 1e-10]),
        (spec_of([ShiftedPower(0.5, 2)], [ShiftedPower(0.5, 1), ExtraPower(1, 2)]), [1e-5, 1e-8, 1e-10]),
        (spec_of([RisingFactorial(1), ShiftedPower(-0.5, 1)], [FiniteDifference(1, 2)]), [1e-5, 1e-7, 1e-9]),
        (mzv_spec(MzvIndex((60,))), [1e-6, 1e-15]),  # the tail is below an ulp
    ],
    LONG: [(mzv_spec(MzvIndex((4,))), [1e-6, 1e-9, 1e-12, 1e-15])],
    SMALL: [
        (mzv_spec(MzvIndex((1, 2))), [1e-2, 1e-3, 1e-4, 1e-12]),
        (spec_of([ShiftedPower(20, 2)]), [1e-3, 1e-5, 1e-12]),
    ],
}


def _cold(spec, target):
    clear_caches()
    return evaluate(spec, target).as_dict()


def test_cache_answers_every_target_as_a_cold_evaluation(scan_limits):
    modes, flags = set(), set()
    for limits, cases in CACHE_CASES.items():
        scan_limits(*limits)
        cold = {(i, t): _cold(spec, t) for i, (spec, targets) in enumerate(cases) for t in targets}
        modes |= {v["mode"] for v in cold.values()}
        flags |= {f for v in cold.values() for f in v["flags"]}
        orders = [
            lambda ts: ts,  # loose to tight: every tighter target resumes
            lambda ts: ts[::-1],  # tight to loose: every looser one is served from the record
            lambda ts: ts[1::2] + ts[::2] + ts,  # interleaved, with repeats
        ]
        for order in orders:
            _evaluate_cached.cache_clear()
            rounds = [[(i, t) for t in order(targets)] for i, (_, targets) in enumerate(cases)]
            for step in range(max(map(len, rounds))):
                for round_ in rounds:  # the specs share the cache in turn
                    if step < len(round_):
                        i, t = round_[step]
                        assert evaluate(cases[i][0], t).as_dict() == cold[i, t], (limits, i, t)
    assert {"float", "float-extrapolated"} <= modes and "cutoff-exhausted" in flags


def test_cache_is_bounded_lru(monkeypatch):
    specs = [spec_of([ExtraPower(0, s)]) for s in range(2, 8)]
    _evaluate_cached.cache_clear()
    evaluate(specs[0], 1e-6)
    # room for three of these depth-one specs, each one stored position
    monkeypatch.setattr(series, "_PREFIX_BYTES", 3 * _evaluate_cached.nbytes)
    _evaluate_cached.cache_clear()
    results = []
    for spec in specs:
        evaluate(specs[0], 1e-6)  # kept the most recently used: never evicted
        results.append(evaluate(spec, 1e-6))
        assert len(_evaluate_cached) <= 3 and _evaluate_cached.nbytes <= series._PREFIX_BYTES
    assert evaluate(specs[-1], 1e-6) is results[-1]
    assert evaluate(specs[0], 1e-6) is results[0]
    again = evaluate(specs[1], 1e-6)  # evicted, so evaluated afresh
    assert again is not results[1]
    assert len(_evaluate_cached) == 3
    assert again.as_dict() == results[1].as_dict() == _cold(specs[1], 1e-6)


def test_a_spec_stores_one_answer_for_every_target():
    spec = mzv_spec(MzvIndex((1, 2)))
    _evaluate_cached.cache_clear()
    met = evaluate(spec, 1e-8)
    assert met.accuracy_met and 0 < met.tail_bound < 1e-12
    (state,) = [s for s in _evaluate_cached._lru if s.result is not None]
    assert state.result is met
    # every target the bound meets gets the stored object
    for target in (1e-3, 1e-10, met.tail_bound):
        assert evaluate(spec, target) is met
    # a target it misses gets an equal record, unmet, built on that call
    unmet = evaluate(spec, met.tail_bound / 2)
    assert unmet is not met and unmet == met._replace(accuracy_met=False)
    assert evaluate(spec, 1e-30) is not unmet and evaluate(spec, 1e-30) == unmet
    assert state.result is met and _evaluate_cached._finished[spec][-1] is state
    # a non-finite answer is unmet for every target, as the stored object
    spec = spec_of([ShiftedPower(-0.9999, 1024)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = evaluate(spec, 1e-8)
    assert not res.accuracy_met and res.tail_bound == inf
    assert _evaluate_cached._finished[spec][-1].result is res
    assert evaluate(spec, 1e-3) is res and evaluate(spec, 1e-30) is res


def test_cache_threads_share_one_record():
    cases = [(mzv_spec(MzvIndex((1, 1, 2))), [1e-6, 1e-8, 1e-9, 1e-10]), (mzv_spec(MzvIndex((2, 3))), [1e-10, 1e-6, 1e-9, 1e-8])]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for spec, targets in cases:
            serial = [_cold(spec, t) for t in targets]
            _evaluate_cached.cache_clear()
            start = threading.Barrier(len(targets))

            def run(t):
                start.wait(timeout=30)
                return evaluate(spec, t)

            with ThreadPoolExecutor(max_workers=len(targets)) as pool:
                futures = [pool.submit(run, t) for t in targets]
                results = [f.result(timeout=60) for f in futures]
            assert [r.as_dict() for r in results] == serial
            # threads that both scanned the spec still return one object per met answer
            assert len({id(r) for r in results if r.accuracy_met}) <= 1
    finally:
        sys.setswitchinterval(old)


def test_cache_clear_empties_the_cache():
    spec = mzv_spec(MzvIndex((3,)))
    first = evaluate(spec, 1e-8)
    assert len(_evaluate_cached) > 0
    _evaluate_cached.cache_clear()
    assert len(_evaluate_cached) == 0
    again = evaluate(spec, 1e-8)
    assert again is not first and again == first


def test_debug_log_of_stop_decisions(caplog):
    spec = mzv_spec(MzvIndex((1, 2)))
    _evaluate_cached.cache_clear()
    with caplog.at_level(logging.INFO, logger="mzv.series"):
        evaluate(spec, 1e-6)
    assert caplog.records == []  # nothing below INFO is recorded or formatted
    _evaluate_cached.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="mzv.series"):
        loose = evaluate(spec, 1e-6)
        evaluate(spec, 1e-6)
        tight = evaluate(spec, 1e-30)
    messages = [r.getMessage() for r in caplog.records]
    assert all(r.name == "mzv.series" and r.levelno == logging.DEBUG for r in caplog.records)
    decisions = [m.rsplit(": ", 1)[1] for m in messages if m.startswith("evaluate ")]
    assert decisions == ["cold", "cache", "cache"]  # one scan answers every target
    assert any("target 1e-06" in m for m in messages) and any("target 1e-30" in m for m in messages)
    stops = [m for m in messages if ": cutoff " in m]
    assert len(stops) == 1
    assert f"cutoff {loose.cutoff}, value {loose.value!r}, bound {loose.tail_bound!r} (scan " in stops[0]
    assert loose.accuracy_met and not tight.accuracy_met
    assert (tight.value, tight.tail_bound) == (loose.value, loose.tail_bound)
    assert stops[0].endswith(", prefix 0 of 2 positions reused")  # cold
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="mzv.series"):
        evaluate(mzv_spec(MzvIndex((1, 3))), 1e-6)  # shares the position (1) with (1, 2)
    (stop,) = [r.getMessage() for r in caplog.records if ": cutoff " in r.getMessage()]
    assert stop.endswith(", prefix 1 of 2 positions reused")


def test_debug_log_names_the_factor_that_lengthens_a_scan(caplog, scan_limits):
    # a scan past _START_CUTOFF is logged once, on the cold path, with the
    # factor whose shift or finite-difference order set its length
    shifted = spec_of([ShiftedPower(100, 2)])
    with caplog.at_level(logging.DEBUG, logger="mzv.series"):
        evaluate(shifted, 1e-8)
        evaluate(shifted, 1e-8)  # a hit derives no scan length
        evaluate(mzv_spec(MzvIndex((2,))), 1e-8)
        ordered = spec_of([ShiftedPower(0.5, 1)], [FiniteDifference(64, 1), ShiftedPower(3, 1)])
        assert series._scan_length(ordered) == (4096, False)
        assert series._scan_length(spec_of([ShiftedPower(1 << 20, 2)])) == (1 << 24, True)
    lines = [r.getMessage() for r in caplog.records if "scan length" in r.getMessage()]
    assert lines == [
        f"{shifted}: scan length 8192, set by ShiftedPower(shift=100, exponent=2) at position 0, reach 100.0",
        f"{ordered}: scan length 4096, set by FiniteDifference(order=64, exponent=1) at position 1, reach 64.0",
        f"{spec_of([ShiftedPower(1 << 20, 2)])}: scan length 16777216 (capped), set by "
        "ShiftedPower(shift=1048576, exponent=2) at position 0, reach 1048576.0",
    ]


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(a,) + rest for a in range(1, total - parts + 2) for rest in _compositions(total - a, parts - 1)]


def _theorem1_specs(p, q, r, a, m):
    specs = []
    for alpha in _compositions(p + m, p):
        bundles = [(ShiftedPower(a, x),) for x in alpha]
        bundles[-1] += (ExtraPower(r, q),)
        specs.append(NestedSumSpec(tuple(bundles)))
    for beta in _compositions(q + m, q):
        bundles = [(ShiftedPower(a, x),) for x in beta]
        bundles[0] = (RisingFactorial(r),) + bundles[0]
        bundles[-1] += (FiniteDifference(r, p),)
        specs.append(NestedSumSpec(tuple(bundles)))
    return specs


def _trunc_spec(p, q, a, r):
    bundles = [(ShiftedPower(a, 1),) for _ in range(p)]
    bundles[-1] += (ExtraPower(r, q),)
    return NestedSumSpec(tuple(bundles))


def _theorem3_specs(p, q, r, m):
    specs = []
    for alpha in _compositions(q + r + 1, r + 1):
        bundles = [(ExtraPower(0, 1),)] * p + [(ExtraPower(m, x),) for x in alpha]
        bundles[-1] += (ExtraPower(0, 1),)
        specs.append(NestedSumSpec(tuple(bundles)))
    for j in range(m + 1):
        for beta in _compositions(p + r + 1, r + 1):
            bundles = [(ExtraPower(0, 1),)] * q + [(ExtraPower(j, x),) for x in beta[:-1]]
            specs.append(NestedSumSpec(tuple(bundles) + ((ExtraPower(j, beta[-1] + 1),),)))
    return specs


# specs that share inner prefixes and factors, as one check's specs do
SHARING_SPECS = (
    _theorem1_specs(2, 2, 1, 0.5, 1)
    + [_trunc_spec(p, q, 0.5, 1) for p in (1, 2, 3) for q in (1, 2)]
    + _theorem3_specs(1, 1, 1, 1)
)


class _CountingScan:
    """Wraps the kernel to count the position-terms it scans."""

    def __init__(self, monkeypatch):
        self.terms = 0
        self._scan = series.scan_block
        monkeypatch.setattr(series, "scan_block", self)

    def __call__(self, factors, acc, comp):  # the kernel's only form
        self.terms += factors.size
        return self._scan(factors, acc, comp)


def test_partial_sums_warm_equal_cold():
    rng = XorShift64Star(7)
    runs = []
    for spec in SHARING_SPECS:
        cuts = sorted({rng.randint(1, 9000) for _ in range(5)})
        runs.append((spec, cuts))
    clear_caches()
    warm = [partial_sums(spec, cuts) for spec, cuts in runs]
    for (spec, cuts), sums in zip(runs, warm):
        clear_caches()
        assert partial_sums(spec, cuts) == sums, (spec, cuts)


def test_scan_in_blocks_equals_one_block():
    # _scan splits at multiples of _BLOCK; every position's sums at a mark inside a
    # later block and at the end are those of one kernel call over all columns
    spec = spec_of([ShiftedPower(0.5, 1)], [ExtraPower(1, 1)], [ShiftedPower(0.25, 2)])
    n, mark = 2 * series._BLOCK + 5000, series._BLOCK + 3000
    (at_mark, at_n), _ = series._scan(spec, (mark, n))
    one = series.scan_block(series._rows(spec, 0, n), np.zeros(3), np.zeros(3))
    assert np.array_equal(at_mark, one[:, mark - 1]) and np.array_equal(at_n, one[:, -1])
    assert partial_sums(spec, [mark, n]) == [float(at_mark[-1]), float(at_n[-1])]


def test_evaluate_scans_each_spec_once(monkeypatch):
    # each position is scanned once per distinct (prefix, n): a spec scans
    # only the positions past the longest prefix an earlier spec stored
    counter = _CountingScan(monkeypatch)
    _evaluate_cached.cache_clear()
    seen = set()
    for spec in SHARING_SPECS:
        n, _ = series._scan_length(spec)
        assert n == 1024
        new = {(spec.factors[: j + 1], n) for j in range(spec.depth)} - seen
        seen |= new
        before = counter.terms
        evaluate(spec, 1e-6)
        assert counter.terms - before == len(new) * n
        evaluate(spec, 1e-12)  # a tighter target is answered from the same scan
        assert counter.terms - before == len(new) * n
    assert counter.terms < sum(spec.depth for spec in SHARING_SPECS) * 1024


def test_evaluate_reads_a_half_on_a_block_boundary(monkeypatch):
    # n = 2^15, so N/2 = _BLOCK ends the first block; the kernel is called as
    # `scan_block(factors, acc, comp)`, the form a stand-in for it may take
    spec = spec_of([ShiftedPower(300, 2)])
    cold = _cold(spec, 1e-12)
    n, _ = series._scan_length(spec)
    assert n // 2 == series._BLOCK
    counter = _CountingScan(monkeypatch)
    assert _cold(spec, 1e-12) == cold
    assert counter.terms == n


def test_threads_evaluate_distinct_specs_as_serially():
    # the expansion tables, the tiles they are cut from, the bundle facts and
    # the factor rows are shared across specs; threads that build them at once
    # must get the serial results
    serial = [_cold(spec, 1e-8) for spec in SHARING_SPECS]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for shift in range(2):
            clear_caches()
            order = SHARING_SPECS[shift:] + SHARING_SPECS[:shift]
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda spec: evaluate(spec, 1e-8).as_dict(), order, timeout=120))
            assert results == serial[shift:] + serial[:shift]
    finally:
        sys.setswitchinterval(old)


def test_a_spec_evaluated_with_every_memo_cleared_equals_it_warm(monkeypatch):
    cases = [(spec, 1e-8) for spec in SHARING_SPECS] + _suite_sample(monkeypatch)
    warm = [evaluate(spec, target).as_dict() for spec, target in cases]
    for (spec, target), result in zip(cases, warm):
        assert _cold(spec, target) == result, spec


def test_factor_row_memo_is_bounded_and_read_only():
    # rows of scans of at most _START_CUTOFF terms, at most 256 of them: 2 MiB
    memo = series._factor
    memo.cache_clear()
    assert memo.cache_info().maxsize == 256
    factors = [ShiftedPower(0, e) for e in range(1, 301)]
    for f in factors:
        rows = series._rows(spec_of([f], [RisingFactorial(1), f]), 0, series._START_CUTOFF)
        assert rows.flags.writeable  # the scan's own buffer
        row = memo(f).row
        assert not row.flags.writeable and row.nbytes == 8 * series._START_CUTOFF
        assert not memo(f).series.flags.writeable
        assert np.array_equal(rows[0], row)
        assert np.array_equal(rows[1], row * memo(RisingFactorial(1)).row)
    assert memo.cache_info().currsize == 256
    before = memo.cache_info()
    series._rows(spec_of([ShiftedPower(0.5, 2)]), 0, 2 * series._START_CUTOFF)  # a longer scan
    series._rows(spec_of([ShiftedPower(0.5, 2)]), 1, series._START_CUTOFF)  # not from k = 1
    assert memo.cache_info()[:2] == before[:2]  # computed as before, not looked up


@pytest.mark.parametrize(
    "factor",
    [ShiftedPower(0, 2), ShiftedPower(0.5, 3), ShiftedPower(-0.999, 7), ShiftedPower(1e308, 2), ShiftedPower(3.7, 64)]
    + [RisingFactorial(0), RisingFactorial(3), FiniteDifference(0, 5), FiniteDifference(3, 2), FiniteDifference(7, 9)],
)
def test_a_shorter_row_is_the_memoised_row_cut(factor):
    # `_rows` cuts a scan of `hi <= _START_CUTOFF` terms from the factor's
    # memoised row; every factor kind is elementwise in `k`, so the cut has
    # the bits of the values computed over `k = 1..hi` alone
    row = series._factor(factor).row
    for hi in range(1, series._START_CUTOFF + 1):
        alone = series._factor_values(factor, np.arange(1, hi + 1, dtype=np.float64))
        assert alone.tobytes() == row[:hi].tobytes(), hi
    assert series._rows(spec_of([factor]), 0, 100)[0].tobytes() == row[:100].tobytes()


def test_bundle_facts_are_the_factor_loops_they_replace(monkeypatch):
    # every bundle the packaged suite evaluates: its Toeplitz gather equals the
    # `np.where` construction bit for bit, and its exponent, reach and slow flag
    # the loops over its factors
    bundles = {bundle for spec, _ in _suite_sample(monkeypatch, every=1) for bundle in spec.factors}
    assert len(bundles) > 100
    gap = series._GAP
    for bundle in bundles:
        facts = series._bundle_facts(bundle)
        lead, c, _ = series._factor(bundle[0])
        for f in bundle[1:]:
            lead += series._factor(f).lead
            c = np.convolve(c, series._factor(f).series)[: series._ORDERS]
        assert same_bits(facts.toeplitz, np.where(gap >= 0, c[gap.clip(0)], 0.0)), bundle
        assert not facts.toeplitz.flags.writeable
        # each kind's decay exponent, as the module docstring states it
        decay = [
            f.exponent if isinstance(f, ShiftedPower) else -f.degree if isinstance(f, RisingFactorial) else f.order + f.exponent
            for f in bundle
        ]
        assert facts.exponent == lead == sum(decay)
        shifts = [abs(float(f.shift)) for f in bundle if isinstance(f, ShiftedPower)]
        orders = [float(f.order) for f in bundle if isinstance(f, FiniteDifference)]
        assert facts.reach == max(shifts + orders, default=0.0)
        assert facts.slow == any(
            float(f.shift) <= -1.0 + series._SLOW_SHIFT_MARGIN for f in bundle if isinstance(f, ShiftedPower)
        )
    assert series._bundle_facts.cache_info().maxsize == 1024


# ---------------------------------------------------------------------------
# the prefix store


def _suite_sample(monkeypatch, every=8):
    """Every `every`-th of the distinct (spec, first target) pairs the
    packaged suite evaluates, in the order it first evaluates them."""
    seen = {}
    cached = series._evaluate_cached

    def record(spec, target):
        seen.setdefault(spec, target)
        return cached(spec, target)

    with monkeypatch.context() as patch:
        patch.setattr(series, "_evaluate_cached", record)
        run_suite()
    return list(seen.items())[::every]


def test_prefix_store_answers_as_cold_evaluations(monkeypatch):
    cases = [(spec, 1e-8) for spec in SHARING_SPECS] + _suite_sample(monkeypatch)
    cold = [_cold(spec, target) for spec, target in cases]
    counter = _CountingScan(monkeypatch)
    for seed in range(3):
        order = list(range(len(cases)))
        random.Random(seed).shuffle(order)
        _evaluate_cached.cache_clear()
        before = counter.terms
        for i in order:
            assert evaluate(*cases[i]).as_dict() == cold[i], cases[i]
        scanned_alone = sum(spec.depth * series._scan_length(spec)[0] for spec, _ in cases)
        assert counter.terms - before < scanned_alone  # prefixes were reused


def test_prefix_store_stays_within_its_bytes(monkeypatch):
    # a 1,024-term node holds a row of 8 KiB and a grid of 256 bytes per log column
    monkeypatch.setattr(series, "_PREFIX_BYTES", 40_000)
    store = series._evaluate_cached
    _evaluate_cached.cache_clear()
    cold = {spec: _cold(spec, 1e-8) for spec in SHARING_SPECS}
    _evaluate_cached.cache_clear()
    for spec in SHARING_SPECS + SHARING_SPECS[::-1]:
        assert evaluate(spec, 1e-8).as_dict() == cold[spec]
        assert 0 < store.nbytes <= 40_000
        assert store.nbytes == sum(state.nbytes for state in store._lru)
    assert len(store) < len({(spec.factors[: j + 1]) for spec in SHARING_SPECS for j in range(spec.depth)})


def test_a_stored_prefix_is_not_scanned_again(monkeypatch):
    counter = _CountingScan(monkeypatch)
    _evaluate_cached.cache_clear()
    evaluate(mzv_spec(MzvIndex((1, 1, 2, 3))), 1e-8)
    assert counter.terms == 4 * 1024
    inner = mzv_spec(MzvIndex((1, 1, 2)))  # every position stored
    assert evaluate(inner, 1e-8).as_dict() == _cold(inner, 1e-8)
    _evaluate_cached.cache_clear()
    evaluate(mzv_spec(MzvIndex((1, 1, 2, 3))), 1e-8)
    before = counter.terms
    evaluate(inner, 1e-8)
    assert counter.terms == before  # no kernel call
    evaluate(mzv_spec(MzvIndex((1, 1, 3))), 1e-8)
    assert counter.terms == before + 1024  # only the last position
    # values and bounds of scans from position 0, recorded before the store existed
    recorded = {
        (1, 1, 2): (1.0823232337111381, 4.568906530376854e-15),
        (1, 1, 3): (0.09655115998944373, 2.7932478785699653e-16),
        (1, 1, 2, 3): (0.0069528481527208865, 2.6267573365225472e-17),
    }
    for parts, (value, bound) in recorded.items():
        res = evaluate(mzv_spec(MzvIndex(parts)), 1e-8)
        assert res.value == pytest.approx(value, rel=1e-12, abs=0)
        assert res.tail_bound == pytest.approx(bound, rel=1e-9, abs=0)


def test_a_scan_past_one_block_answers_only_its_own_spec(monkeypatch):
    # a shift of 300 needs n = 2^15, two kernel blocks: the states are stored
    # without rows, so a repeated spec is answered but a longer one rescans
    inner = [ShiftedPower(300, 1)]
    specs = [spec_of(inner, [ExtraPower(0, 2)]), spec_of(inner, [ExtraPower(0, 3)])]
    cold = [_cold(spec, 1e-8) for spec in specs]
    counter = _CountingScan(monkeypatch)
    _evaluate_cached.cache_clear()
    first = evaluate(specs[0], 1e-8)
    assert first.as_dict() == cold[0] and counter.terms == 2 * (1 << 15)
    assert len(_evaluate_cached) == 2
    assert _evaluate_cached.nbytes == sum(state.nbytes for state in _evaluate_cached._lru) < 4096
    assert evaluate(specs[0], 1e-8) is first and counter.terms == 2 * (1 << 15)  # no kernel call
    assert evaluate(specs[1], 1e-8).as_dict() == cold[1]
    assert counter.terms == 2 * 2 * (1 << 15)  # the shared inner position scanned again
    assert len(_evaluate_cached) == 3


def test_a_stored_inner_position_answers_no_divergent_spec():
    _evaluate_cached.cache_clear()
    evaluate(mzv_spec(MzvIndex((1, 2))), 1e-8)  # stores the state of (1,) at n = 1024
    with pytest.raises(DivergentSeriesError):
        evaluate(mzv_spec(MzvIndex((1,))), 1e-8)
    assert evaluate(mzv_spec(MzvIndex((2,))), 1e-8).accuracy_met


def test_a_capped_spec_is_not_scanned(monkeypatch):
    # the spec of `mzv verify theorem1 ... --a 1e308`'s first side: each of its
    # 2^24 terms would take numpy's slow `pow` path, some 20 s in all
    spec = series._spec((2, 2), 1e308, 0, (), (ExtraPower(0, 2),))
    assert series._scan_length(spec) == (1 << 24, True)
    counter = _CountingScan(monkeypatch)
    clear_caches()
    began = time.perf_counter()
    first = evaluate(spec, 1e-8)
    assert time.perf_counter() - began < 0.1
    assert counter.terms == 0 and len(_evaluate_cached) == 0  # nothing scanned, nothing stored
    assert first.flags == ("cutoff-exhausted",) and not first.accuracy_met and first.cutoff == 1 << 24
    assert isnan(first.value) and first.tail_bound == inf
    assert evaluate(spec, 1e-8).as_dict() == first.as_dict()
    with pytest.raises(DivergentSeriesError):  # still refused first when it diverges
        evaluate(spec_of([ShiftedPower(1e308, 1)]), 1e-8)


def test_only_inner_positions_keep_their_rows():
    _evaluate_cached.cache_clear()
    spec = mzv_spec(MzvIndex((1, 2, 3)))
    evaluate(spec, 1e-8)
    assert [state.row is None for state in _evaluate_cached._finished[spec]] == [False, False, True]
    assert _evaluate_cached.nbytes == sum(state.nbytes for state in _evaluate_cached._lru)


def test_an_extended_last_state_gets_its_row(monkeypatch):
    short, longer, other = (mzv_spec(MzvIndex(parts)) for parts in [(2,), (2, 3), (2, 4)])
    cold = [_cold(spec, 1e-8) for spec in (short, longer, other)]
    counter = _CountingScan(monkeypatch)
    clear_caches()
    assert evaluate(short, 1e-8).as_dict() == cold[0]
    (state,) = _evaluate_cached._finished[short]
    assert state.row is None and _evaluate_cached.nbytes == state.nbytes
    assert evaluate(longer, 1e-8).as_dict() == cold[1]
    assert counter.terms == 3 * 1024  # position 0 scanned again, for its row
    assert _evaluate_cached._finished[longer][0] is state and state.row is not None
    assert _evaluate_cached.nbytes == sum(s.nbytes for s in _evaluate_cached._lru)  # the row counted once
    assert evaluate(other, 1e-8).as_dict() == cold[2]
    assert counter.terms == 4 * 1024  # only the last position
    monkeypatch.setattr(series, "_PREFIX_BYTES", 1)
    evaluate(mzv_spec(MzvIndex((5,))), 1e-8)  # evicts every state, the row's with it
    assert len(_evaluate_cached) == 0 and _evaluate_cached.nbytes == 0


def test_cache_clear_empties_the_prefix_store():
    _evaluate_cached.cache_clear()
    evaluate(mzv_spec(MzvIndex((1, 2, 3))), 1e-8)
    store = series._evaluate_cached
    assert len(store) == 3 and store.nbytes == sum(state.nbytes for state in store._lru) > 2 * 8 * 1024
    assert len(_evaluate_cached._finished) == 1
    _evaluate_cached.cache_clear()
    assert len(series._evaluate_cached) == 0 and series._evaluate_cached.nbytes == 0
    assert _evaluate_cached._finished == {}


def _map_is_consistent(store):
    """The child map holds exactly the stored states, each under the key the
    LRU gives it; every state before in a key is stored, so eviction left no
    orphan key; and the bytes are those of the stored states."""
    assert set(store._states) == set(store._lru.values())
    assert all(store._states[key] is state for state, key in store._lru.items())
    assert all(before in store._lru for before, _ in store._states if isinstance(before, series._State))
    assert store.nbytes == sum(state.nbytes for state in store._lru)


def test_the_cold_packaged_suite_leaves_no_orphan_key(monkeypatch):
    store = _evaluate_cached
    stored = set()
    keep = store._store

    def record(*args):
        kept = keep(*args)
        stored.update(kept)
        return kept

    clear_caches()
    monkeypatch.setattr(store, "_store", record)
    run_suite()
    assert stored - set(store._lru)  # the suite evicted states
    _map_is_consistent(store)
    _index_is_consistent(store)


def test_a_store_cleared_between_lookup_and_store_counts_each_state_once(monkeypatch):
    short, longer = mzv_spec(MzvIndex((1, 2))), mzv_spec(MzvIndex((1, 2, 3)))
    clear_caches()
    cold = evaluate(longer, 1e-8)
    store = _evaluate_cached
    store.cache_clear()
    evaluate(short, 1e-8)
    found = store._finished[short]
    lookup = store._lookup

    def lookup_then_clear(factors, n):
        path = lookup(factors, n)
        store.cache_clear()
        return path

    monkeypatch.setattr(store, "_lookup", lookup_then_clear)
    res = evaluate(longer, 1e-8)
    # the states found before the clear are stored again, and counted once
    assert len(store) == 3 and store._finished[longer][:2] == found
    _map_is_consistent(store)
    assert res is not cold and res.as_dict() == cold.as_dict() and res.value.hex() == cold.value.hex()


# ---------------------------------------------------------------------------
# the index of finished specs


def _index_is_consistent(store):
    """Every indexed spec's states are stored, the last holding its result,
    and every stored state with a result is indexed."""
    for spec, path in store._finished.items():
        assert len(path) == spec.depth and all(state in store._lru for state in path)
        assert path[-1].spec == spec and path[-1].result is not None
    ends = {state.spec for state in store._lru if state.result is not None}
    assert ends == set(store._finished)


def test_a_finished_spec_is_answered_from_the_index_alone(monkeypatch):
    spec = mzv_spec(MzvIndex((1, 1, 2)))
    _evaluate_cached.cache_clear()
    first = evaluate(spec, 1e-8)
    order = list(_evaluate_cached._lru)

    def refuse(*args):
        raise AssertionError("a hit re-derived its spec")

    with monkeypatch.context() as patch:
        patch.setattr(series, "_scan_length", refuse)
        patch.setattr(_evaluate_cached, "_lookup", refuse)
        patch.setattr(series, "_require_convergent", refuse)
        assert evaluate(spec, 1e-8) is first
        assert evaluate(spec, 1e-30) is not first and evaluate(spec, 1e-30).value == first.value
    assert list(_evaluate_cached._lru) == order  # the hit touched its path, innermost last


def test_equal_specs_built_separately_share_one_entry():
    _evaluate_cached.cache_clear()
    built = [spec_of([ShiftedPower(0, 1)], [ShiftedPower(0, 2)]) for _ in range(2)]
    assert built[0] is not built[1]
    results = [evaluate(spec, 1e-8) for spec in built + [mzv_spec(MzvIndex((1, 2)))]]
    assert results[0] is results[1] is results[2]
    assert len(_evaluate_cached._finished) == 1
    _index_is_consistent(_evaluate_cached)


def test_an_evicted_spec_leaves_the_index_and_comes_back_cold(monkeypatch):
    # a 1,024-term state holds a row of 8 KiB: room for some five of them
    monkeypatch.setattr(series, "_PREFIX_BYTES", 45_000)
    cold = {spec: _cold(spec, 1e-8) for spec in SHARING_SPECS}
    _evaluate_cached.cache_clear()
    counter = _CountingScan(monkeypatch)
    evicted = 0
    for spec in SHARING_SPECS + SHARING_SPECS[::-1]:
        indexed = set(_evaluate_cached._finished)
        before = counter.terms
        assert evaluate(spec, 1e-8).as_dict() == cold[spec]
        _index_is_consistent(_evaluate_cached)
        _map_is_consistent(_evaluate_cached)
        evicted += len(indexed - set(_evaluate_cached._finished))
        if spec in indexed:
            assert counter.terms == before  # a hit scans nothing
    assert evicted > 0
    # an evicted spec is scanned again, to the bits of a cold evaluation
    spec = next(spec for spec in SHARING_SPECS if spec not in _evaluate_cached._finished)
    before = counter.terms
    assert evaluate(spec, 1e-8).as_dict() == cold[spec]
    assert counter.terms > before


def test_threads_answer_finished_specs_as_serially():
    serial = [_cold(spec, 1e-8) for spec in SHARING_SPECS]
    _evaluate_cached.cache_clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # every spec twice per round, so threads hit specs others are still evaluating
        work = list(range(len(SHARING_SPECS))) * 2
        for _ in range(2):
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda i: evaluate(SHARING_SPECS[i], 1e-8), work, timeout=120))
            assert [r.as_dict() for r in results] == [serial[i] for i in work]
            for i in range(len(SHARING_SPECS)):  # one object per answer
                assert len({id(r) for r, j in zip(results, work) if j == i}) == 1
        _index_is_consistent(_evaluate_cached)
        _map_is_consistent(_evaluate_cached)
        assert len(_evaluate_cached._finished) == len(set(SHARING_SPECS))
    finally:
        sys.setswitchinterval(old)


def _h2(n):
    return sum(Fraction(1, j * j) for j in range(1, n + 1))


def _rising_nest(degree, exponent):
    """sum_{k_1 < k_2} C(k_1 + d - 1, d) k_2^-x = sum_k C(k + d - 1, d + 1) k^-x, as
    `(coefficient, zeta exponent)` pairs: the polynomial (k-1)k...(k+d-1)/(d+1)!."""
    poly = [1]
    for i in range(-1, degree):
        poly = [p + i * q for p, q in zip(poly + [0], [0] + poly)]
    top = len(poly) - 1
    return [(Fraction(c, factorial(degree + 1)), exponent - (top - j)) for j, c in enumerate(poly) if c]


def test_derived_tail_of_every_factor_kind():
    def zeta(s):
        return mzv_reference(MzvIndex((s,)))

    def frac(f):
        return Decimal(f.numerator) / Decimal(f.denominator)

    cases = [
        (spec_of([FiniteDifference(1, 1)]), Decimal(1)),  # telescoping
        (spec_of([FiniteDifference(2, 1)]), Decimal("0.5")),
        (spec_of([FiniteDifference(3, 2)]), sum((-1) ** i * comb(3, i) * (zeta(2) - frac(_h2(i))) for i in range(4))),
        (spec_of([FiniteDifference(64, 2)]), -frac(sum((-1) ** i * comb(64, i) * _h2(i) for i in range(65)))),
        (spec_of([ShiftedPower(2000, 2)]), zeta(2) - frac(_h2(2000))),  # a scan of 2^17 terms
        (spec_of([RisingFactorial(1), ShiftedPower(0, 3)]), zeta(2)),
        (spec_of([RisingFactorial(2)], [ShiftedPower(0, 5)]), (zeta(2) - zeta(4)) / 6),
        (spec_of([RisingFactorial(16)], [ShiftedPower(0, 19)]), sum(frac(c) * zeta(s) for c, s in _rising_nest(16, 19))),
    ]
    with localcontext() as ctx:
        ctx.prec = 50
        for spec, exact in cases:
            res = evaluate(spec, 1e-12)
            error = abs(Decimal(res.value) - exact)
            assert res.accuracy_met, spec
            assert error <= Decimal(res.tail_bound + ulp(res.value)), (spec, res, error)


def test_values_at_two_scan_lengths_agree(scan_limits):
    shorts = [evaluate(spec, 1e-12) for spec in SHARING_SPECS]
    scan_limits(start=8192)
    for spec, short in zip(SHARING_SPECS, shorts):
        long_ = evaluate(spec, 1e-12)
        assert short.cutoff == 1024 and long_.cutoff == 8192
        assert abs(short.value - long_.value) <= short.tail_bound + long_.tail_bound, spec


def _fit_tail_uncached(ns, ss, s, log_power):
    """`_fit_tail` as it was before its design matrix was cached, and as it is
    again: the reference the fit is held to, bit for bit."""
    window = min(len(ns), series._fit_window(log_power))
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


def test_fit_tail_cached_design_matches_uncached():
    rng = np.random.default_rng(11)
    # checkpoints in ratio sqrt(2) from 64 to 2^24
    ladder = np.array(sorted({int(round(2.0 ** (j / 2.0))) for j in range(12, 49)}), dtype=np.float64)
    for _ in range(60):
        n = int(rng.integers(3, len(ladder) + 1))
        s = int(rng.integers(2, 6))
        log_power = int(rng.integers(0, 4))
        ns = ladder[:n]
        ss = np.cumsum(rng.uniform(0.0, 1.0, n)) * 10.0 ** rng.uniform(-3, 3)
        expected = _fit_tail_uncached(ns, ss, s, log_power)
        assert series._fit_tail(ns, ss, s, log_power) == expected


# ---------------------------------------------------------------------------
# the expansion maps and factor series against the builders they replaced:
# one map per (lead, logs), exact Fractions and the Bernoulli recurrence


def bernoulli_weights():
    """`B_2p / (2p)!` for `p = 1..8`, from the exact Bernoulli numbers."""
    bern = [Fraction(1)]
    for m in range(1, series._ORDERS + 1):
        bern.append(-sum(comb(m + 1, j) * b for j, b in enumerate(bern) if b) / (m + 1))
    return tuple(float(bern[2 * p] / factorial(2 * p)) for p in range(1, series._ORDERS // 2 + 1))


def shift_table_reference(lead, logs):
    """The shift map at one lead, built on its own."""
    n, gap = series._ORDERS, series._GAP
    r = lead + np.arange(n, dtype=np.float64)
    binom = np.ones((n, n))  # binom[i, m]: the coefficient of u^m in (1-u)^-(lead+i)
    for m in range(1, n):
        binom[:, m] = binom[:, m - 1] * (r + m - 1) / m
    lam = np.zeros((logs, n))  # lam[t, m]: the coefficient of u^m in ln(1-u)^t
    lam[0, 0] = 1.0
    for t in range(1, logs):
        lam[t, 1:] = -np.convolve(lam[t - 1], 1.0 / np.arange(1, n))[: n - 1]
    toeplitz = np.where(gap.T >= 0, lam[:, gap.T.clip(0)], 0.0)  # [t, m, q] = lam[t, q - m]
    series_ = binom[None] @ toeplitz  # [t, i, q]: (1-u)^-r ln(1-u)^t for input row i, up to u^q
    placed = np.where(gap >= 0, series_[:, np.arange(n)[None, :], gap.clip(0)], 0.0)  # [t, o, i], o = i + q
    table = np.zeros((n, logs, n, logs))
    for l in range(logs):
        for t in range(l + 1):
            table[:, l - t, :, l] = comb(l, t) * placed[t]
    return table.reshape(n * logs, n * logs)


def em_table_reference(lead, logs):
    """The Euler-Maclaurin map at one lead, built on its own: `(E, out_logs)`."""
    n = series._ORDERS
    out_logs = logs + (lead <= 1)
    rows = np.arange(n)
    # d[s, i, l', l]: D^s of the input term (i, l), which sits at output row i + 1 + s
    d = np.zeros((n - 1, n, out_logs, logs))
    d[0][:, range(logs), range(logs)] = 1.0
    lower = np.diag(np.arange(1.0, out_logs), 1)
    for step in range(1, n - 1):
        d[step] = lower @ d[step - 1] - (lead + rows + step - 1)[:, None, None] * d[step - 1]
    weights = np.zeros(n - 1)
    weights[0] = 0.5
    weights[1::2] = bernoulli_weights()[: len(weights[1::2])]
    steps, inputs = np.nonzero(rows[None, :] + np.arange(1, n)[:, None] < n)
    table = np.zeros((n, out_logs, n, logs))
    table[inputs + 1 + steps, :, inputs, :] = weights[steps, None, None] * d[steps, inputs]
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
    return table.reshape(n * out_logs, n * logs), out_logs


def factor_series_reference(f):
    """A factor's series coefficients in exact Fractions, each rounded once."""
    if isinstance(f, ShiftedPower):
        a = Fraction(f.shift)
        exact = [(-1) ** m * comb(f.exponent + m - 1, m) * a**m for m in range(series._ORDERS)]
    elif isinstance(f, RisingFactorial):
        poly = [1]
        for i in range(f.degree):
            poly = [p + i * q for p, q in zip(poly + [0], [0] + poly)]
        exact = [Fraction(c, factorial(f.degree)) for c in poly[: series._ORDERS]]
    else:
        o, x = f.order, f.exponent
        exact = [
            (-1) ** (o + m) * comb(x + o + m - 1, o + m) * sum((-1) ** i * comb(o, i) * i ** (o + m) for i in range(o + 1))
            for m in range(series._ORDERS)
        ]
    c = np.zeros(series._ORDERS)
    for m, v in enumerate(exact):
        try:
            c[m] = float(v)
        except OverflowError:
            c[m] = float("inf") if v > 0 else float("-inf")
    return c


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_em_weights_are_the_bernoulli_recurrence():
    assert series._EM_WEIGHTS == bernoulli_weights()


@pytest.mark.parametrize("logs", range(1, 14))
def test_maps_cut_from_tiles_equal_the_maps_built_alone(logs):
    for lead in range(-60, 90):
        assert same_bits(series._shift_table(lead, logs), shift_table_reference(lead, logs)), lead
        table, out_logs, _, _ = series._em_step(lead, logs, 1024)
        reference, reference_out_logs = em_table_reference(lead, logs)
        assert out_logs == reference_out_logs and same_bits(table, reference), lead


SERIES_SHIFTS = (0, 1, 5, 0.5, -0.75, Fraction(1, 3), Fraction(-2, 3), 0.1, 1e-3 - 1, 2**30, 1e300)


def test_factor_series_in_integers_equal_the_fraction_series():
    factors = [ShiftedPower(a, x) for a in SERIES_SHIFTS for x in (1, 2, 7, 100, 1024)]
    factors += [RisingFactorial(d) for d in range(17)]
    factors += [FiniteDifference(o, x) for o in (0, 1, 2, 5, 64) for x in (1, 2, 7, 64)]
    for f in factors:
        assert same_bits(series._factor(f).series, factor_series_reference(f)), f
    # past the float range the coefficients are infinite, with alternating signs
    big = series._factor(ShiftedPower(1e300, 2)).series
    assert np.isposinf(big[2]) and np.isneginf(big[3])


def _square_tile(tile):
    """A tile as the 32 x 32 order square its maps are blocks of,
    `square[j + q, l', j, l] = tile[j, q, l', l]`, zero where `j + q` is past
    the square: the layout tiles were kept in before only their band was."""
    size, orders, rows, width = tile.shape
    square = np.zeros((size, rows, size, width))
    j, q = np.nonzero(np.add.outer(np.arange(size), np.arange(orders)) < size)
    square[j + q, :, j] = tile[j, q]
    return square


def test_every_map_of_the_packaged_suite_cuts_from_the_band_as_from_the_square(monkeypatch):
    cut = []
    from_tile = series._from_tile

    def record(tile_of, lead, logs, out_logs):
        table = from_tile(tile_of, lead, logs, out_logs)
        cut.append((tile_of, lead, logs, out_logs, table))
        return table

    clear_caches()
    monkeypatch.setattr(series, "_from_tile", record)
    run_suite()
    assert {tile_of for tile_of, *_ in cut} == {series._em_tile, series._shift_tile}
    for tile_of, lead, logs, out_logs, table in cut:
        offset = lead % series._ORDERS
        width = next(w for w in series._TILE_WIDTHS if w >= logs)
        square = _square_tile(tile_of(lead - offset, width))
        block = square[offset : offset + series._ORDERS, :out_logs, offset : offset + series._ORDERS, :logs]
        assert table.tobytes() == np.array(block).reshape(table.shape).tobytes(), (tile_of, lead, logs)


def test_a_cold_evaluation_of_every_mzv_to_weight_9_builds_few_tiles():
    clear_caches()
    caches = (series._em_step, series._shift_table, series._em_tile, series._shift_tile)
    for weight in range(2, 10):
        for index in admissible_indices(weight):
            evaluate(mzv_spec(index), 1e-10)
    em_maps, shift_maps, em_tiles, shift_tiles = (cache.cache_info().misses for cache in caches)
    # every lead lies in r = 0..31, and no expansion needs more than 8 log columns
    assert em_tiles <= 2 and shift_tiles <= 2
    assert em_maps + shift_maps >= 60


def test_debug_log_of_tile_builds(caplog):
    spec = mzv_spec(MzvIndex((1, 2)))
    clear_caches()
    with caplog.at_level(logging.DEBUG, logger="mzv.series"):
        evaluate(spec, 1e-6)
    tiles = [r.getMessage() for r in caplog.records if " tile: " in r.getMessage()]
    pattern = r"(em|shift) tile: r 0\.\.31, 4 log columns, (\d+) bytes, \d+ us"
    assert [re.fullmatch(pattern, m).groups() for m in tiles] == [("em", "81920"), ("shift", "65536")]
    caplog.clear()
    _evaluate_cached.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="mzv.series"):
        evaluate(spec, 1e-6)  # the tiles are warm
    assert not any(" tile: " in r.getMessage() for r in caplog.records)
