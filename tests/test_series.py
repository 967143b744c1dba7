"""Series engine: factor model, exact oracle, extrapolation honesty."""

import logging
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import pi

import pytest

from mzv import series

from mzv.errors import AdmissibilityError, DivergentSeriesError, InvalidSpecError
from mzv.indices import MzvIndex
from mzv.rng import XorShift64Star
from mzv.series import (
    DEFAULT_CONFIG,
    EngineConfig,
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


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        NestedSumSpec(())
    with pytest.raises(InvalidSpecError):
        NestedSumSpec((("not a factor",),))
    with pytest.raises(InvalidSpecError):
        NestedSumSpec(((),))  # empty bundle


def test_spec_json_roundtrip():
    spec = spec_of(
        [ShiftedPower(Fraction(1, 3), 2), RisingFactorial(2)],
        [ExtraPower(1, 3), FiniteDifference(2, 1)],
    )
    again = NestedSumSpec.from_dict(spec.as_dict())
    assert again == spec
    assert again.factors[0][0].shift == Fraction(1, 3)


def test_spec_json_rejects_junk():
    with pytest.raises(InvalidSpecError):
        NestedSumSpec.from_dict({"factors": [[{"kind": "nope"}]]})
    with pytest.raises(InvalidSpecError):
        NestedSumSpec.from_dict({"nope": []})


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
    # the fit models log degrees up to 12; ({1}^24,2) used to get a bound of
    # 0.094 against an error of 0.94, ({1}^32,2) 1.5e-4 against 1.0
    cached = len(_evaluate_cached)
    for ones in (13, 24, 32, 50):
        spec = mzv_spec(MzvIndex((1,) * ones + (2,)))
        assert decay_model(spec) == (2, ones)
        with pytest.raises(InvalidSpecError, match=rf"\(ln k\)\^{ones};"):
            evaluate(spec, 1e-9)
    zeta2 = spec_of([ExtraPower(0, 2)])
    with pytest.raises(InvalidSpecError, match="log degrees up to 12"):
        evaluate(NestedSumSpec(zeta2.factors, tail_log_power=13), 1e-6)
    assert len(_evaluate_cached) == cached
    assert evaluate(NestedSumSpec(zeta2.factors, tail_log_power=12), 1e-6).value == pytest.approx(ZETA2, abs=1e-6)


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
    tight = EngineConfig(start_cutoff=1 << 8, max_cutoff=1 << 10)
    res = evaluate(mzv_spec(MzvIndex((1, 1, 2))), 1e-12, tight)
    assert not res.accuracy_met
    assert "cutoff-exhausted" in res.flags
    assert res.tail_bound > 0


def test_engine_config_needs_two_stages():
    # a tail bound compares the fits of two stages, so both must fit under
    # max_cutoff; with one, the bound was infinite or roundoff-only
    for start, top in ((1 << 14, 20000), (4096, 4096), (4096, 8191)):
        with pytest.raises(InvalidSpecError, match="2 \\* start_cutoff"):
            EngineConfig(start_cutoff=start, max_cutoff=top)
    EngineConfig(start_cutoff=4096, max_cutoff=8192)


def test_stage_without_checkpoint_makes_no_new_bound():
    # the last stage (32768, 32769] holds no ladder point: refitting the same
    # checkpoints must not pass for a converged fit
    start = 1 << 14
    res = mzv(MzvIndex((1, 2)), 1e-10, EngineConfig(start_cutoff=start, max_cutoff=2 * start + 1))
    two_stage = mzv(MzvIndex((1, 2)), 1e-10, EngineConfig(start_cutoff=start, max_cutoff=2 * start))
    assert not res.accuracy_met
    assert "cutoff-exhausted" in res.flags
    assert (res.value, res.tail_bound, res.cutoff) == (two_stage.value, two_stage.tail_bound, two_stage.cutoff)
    assert abs(res.value - ZETA3) <= res.tail_bound


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
# the spec-keyed evaluation cache

SMALL = EngineConfig(start_cutoff=64, max_cutoff=256)  # exhausts before tight targets
LONG = EngineConfig(start_cutoff=64, max_cutoff=1 << 20)  # zeta(4) float-converges first

CACHE_CASES = [
    (mzv_spec(MzvIndex((2,))), DEFAULT_CONFIG, [1e-6, 1e-8, 1e-10, 1e-12]),
    (mzv_spec(MzvIndex((1, 2))), DEFAULT_CONFIG, [1e-6, 1e-8, 1e-9, 1e-10]),
    (spec_of([ShiftedPower(0.5, 2)], [ShiftedPower(0.5, 1), ExtraPower(1, 2)]), DEFAULT_CONFIG, [1e-5, 1e-8, 1e-10]),
    (spec_of([RisingFactorial(1), ShiftedPower(-0.5, 1)], [FiniteDifference(1, 2)]), DEFAULT_CONFIG, [1e-5, 1e-7, 1e-9]),
    (mzv_spec(MzvIndex((4,))), LONG, [1e-6, 1e-9, 1e-12, 1e-15]),
    (mzv_spec(MzvIndex((1, 2))), SMALL, [1e-2, 1e-3, 1e-4, 1e-12]),
    (mzv_spec(MzvIndex((2,))), SMALL, [1e-3, 1e-5, 1e-12]),
]


def _cold(spec, target, config):
    _evaluate_cached.cache_clear()
    return evaluate(spec, target, config).as_dict()


def test_cache_answers_every_target_as_a_cold_evaluation():
    cold = {(i, t): _cold(spec, t, cfg) for i, (spec, cfg, targets) in enumerate(CACHE_CASES) for t in targets}
    modes = {v["mode"] for v in cold.values()}
    flags = {f for v in cold.values() for f in v["flags"]}
    assert {"float", "float-extrapolated"} <= modes and "cutoff-exhausted" in flags
    orders = [
        lambda ts: ts,  # loose to tight: every tighter target resumes
        lambda ts: ts[::-1],  # tight to loose: every looser one is served from the record
        lambda ts: ts[1::2] + ts[::2] + ts,  # interleaved, with repeats
    ]
    for order in orders:
        _evaluate_cached.cache_clear()
        rounds = [[(i, t) for t in order(targets)] for i, (_, _, targets) in enumerate(CACHE_CASES)]
        for step in range(max(map(len, rounds))):
            for round_ in rounds:  # the specs share the cache in turn
                if step < len(round_):
                    i, t = round_[step]
                    spec, cfg, _ = CACHE_CASES[i]
                    assert evaluate(spec, t, cfg).as_dict() == cold[i, t], (i, t)


def test_cache_is_bounded_lru(monkeypatch):
    monkeypatch.setattr(series, "_CACHE_SPECS", 3)
    specs = [spec_of([ExtraPower(0, s)]) for s in range(2, 8)]
    _evaluate_cached.cache_clear()
    results = []
    for spec in specs:
        evaluate(specs[0], 1e-6)  # kept the most recently used: never evicted
        results.append(evaluate(spec, 1e-6))
        assert len(_evaluate_cached) <= 3
    assert evaluate(specs[-1], 1e-6) is results[-1]
    assert evaluate(specs[0], 1e-6) is results[0]
    again = evaluate(specs[1], 1e-6)  # evicted, so evaluated afresh
    assert again is not results[1]
    assert len(_evaluate_cached) == 3
    assert again.as_dict() == results[1].as_dict() == _cold(specs[1], 1e-6, DEFAULT_CONFIG)


def test_cache_threads_share_one_record():
    cases = [(mzv_spec(MzvIndex((1, 1, 2))), [1e-6, 1e-8, 1e-9, 1e-10]), (mzv_spec(MzvIndex((2, 3))), [1e-10, 1e-6, 1e-9, 1e-8])]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for spec, targets in cases:
            serial = [_cold(spec, t, DEFAULT_CONFIG) for t in targets]
            _evaluate_cached.cache_clear()
            start = threading.Barrier(len(targets))

            def run(t):
                start.wait(timeout=30)
                return evaluate(spec, t).as_dict()

            with ThreadPoolExecutor(max_workers=len(targets)) as pool:
                futures = [pool.submit(run, t) for t in targets]
                assert [f.result(timeout=60) for f in futures] == serial
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
        tight = evaluate(spec, 1e-10)
    messages = [r.getMessage() for r in caplog.records]
    assert all(r.name == "mzv.series" and r.levelno == logging.DEBUG for r in caplog.records)
    decisions = [m.rsplit(": ", 1)[1] for m in messages if m.startswith("evaluate ")]
    assert decisions == ["cold", "cache", "resumed"]
    assert any("target 1e-06" in m for m in messages) and any("target 1e-10" in m for m in messages)
    stages = [m for m in messages if " stage: cutoff " in m]
    assert f"cutoff {loose.cutoff}, fit {loose.value!r}, bound {loose.tail_bound!r}" in stages[1]
    assert f"cutoff {tight.cutoff}, fit {tight.value!r}, bound {tight.tail_bound!r}" in stages[-1]
    assert "bound None" in stages[0]  # the first fit has nothing to compare with
