"""The shared checks of numbers from outside, and the error class each layer raises."""

from fractions import Fraction

import pytest

from mzv.errors import ConfigError, InvalidSpecError, PreconditionError, check_int, check_real, shown
from mzv.identities import check_duality, check_eq24, check_sum_formula, check_theorem1, draw_params
from mzv.indices import MzvIndex, PqDecomposition
from mzv.quadrature import TriangleIntegrand, check_quad_anchor, ones_integrands, triangle_quadrature
from mzv.report import validate_config
from mzv.rng import XorShift64Star
from mzv.series import EvalResult, NestedSumSpec, ShiftedPower, evaluate, mzv_spec

_RECORD = "EvalResult(value=1.5, tail_bound=0.0, cutoff=0, mode='float', accuracy_met=True, flags=())"


def test_check_real_returns_its_argument_itself():
    third = Fraction(-1, 3)
    assert check_real(third, "shift", -1.0, strict=True) is third
    assert check_int(10**400, "m", 0) == 10**400


def test_both_checkers_refuse_booleans():
    with pytest.raises(InvalidSpecError, match="p must be an integer, got True"):
        check_int(True, "p", 0)
    with pytest.raises(InvalidSpecError, match="a must be a real number, got True"):
        check_real(True, "a", -1.0, strict=True)


def test_strict_boundary():
    # a shift must be above -1; a power of t2 may be 0
    with pytest.raises(PreconditionError, match=r"a must be finite and > -1.0, got -1$"):
        check_real(-1, "a", -1.0, strict=True, error=PreconditionError)
    assert check_real(0.0, "pow_t2", 0.0) == 0.0
    with pytest.raises(InvalidSpecError, match=r"pow_t2 must be finite and >= 0.0, got -1e-300$"):
        check_real(-1e-300, "pow_t2", 0.0)


def test_check_real_refuses_what_no_float_holds():
    for value, seen in ((10**400, "an integer of 401 digits"), (Fraction(10**400, 3), "an integer of 401 digits/3")):
        with pytest.raises(InvalidSpecError, match=f"got {seen}$"):
            check_real(value, "shift", -1.0, strict=True)
    for value in (float("inf"), float("nan")):
        with pytest.raises(InvalidSpecError, match="must be finite"):
            check_real(value, "m", 0.0)


def test_shown_gives_a_tuple_subclass_its_repr():
    # a result record is a named tuple, not a list of its fields
    record = EvalResult(1.5, 0.0, 0, "float")
    assert shown(record) == repr(record) == _RECORD
    assert shown([record]) == f"[{_RECORD}]"


def test_shown_keeps_lines_short():
    assert shown(-10**400) == "a negative integer of 401 digits"
    assert shown(10**20) == "an integer of 21 digits"
    assert shown(10**20 - 1) == "99999999999999999999"
    assert shown([0, 10**400]) == "[0, an integer of 401 digits]"
    assert shown(list(range(5))) == "a list of 5 items"
    assert shown([[1, 2], "x"]) == "[a list of 2 items, 'x']"
    # a plain tuple is shown as a tuple, and a length of one as one item
    assert shown((2,)) == "(2,)"
    assert shown((1, 10**400)) == "(1, an integer of 401 digits)"
    assert shown(tuple(range(5))) == "a tuple of 5 items"
    assert shown([(1, 2), [3]]) == "[a tuple of 2 items, a list of 1 item]"
    assert (shown(()), shown([])) == ("()", "[]")
    assert shown(1.5) == "1.5"
    assert shown("x" * 40) == repr("x" * 40)
    assert shown("12345678901234567890" * 250) == "'12345678901234567890'... (a string of 5000 characters)"


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: ShiftedPower(10**400, 2), InvalidSpecError),
        (lambda: MzvIndex((1, 0)), InvalidSpecError),
        (lambda: TriangleIntegrand(pow_t2=10**400), InvalidSpecError),
        (lambda: ones_integrands(1.5, 0), InvalidSpecError),
        (lambda: check_theorem1(1, 1, 0, 0, a=10**400), PreconditionError),
        (lambda: check_eq24([1], [1], a=-1), PreconditionError),
        (lambda: validate_config({"accuracy": 10**400}), ConfigError),
        (lambda: validate_config({"checks": [{"identity": "eq24", "fuzz": {"seed": True}}]}), ConfigError),
    ],
    ids=["series", "indices", "quadrature", "quadrature-family", "identities", "identities-eq24", "report", "report-seed"],
)
def test_each_layer_keeps_its_error_class(build, error):
    with pytest.raises(error) as caught:
        build()
    assert len(str(caught.value)) < 200


_TARGETS = {
    "evaluate": (lambda target: evaluate(mzv_spec(MzvIndex((2,))), target), "target accuracy", InvalidSpecError),
    "triangle": (lambda target: triangle_quadrature(TriangleIntegrand(), target), "target accuracy", InvalidSpecError),
    "check": (lambda target: check_duality("(2)", tolerance=target), "tolerance", PreconditionError),
    # a composition sum splits its accuracy before any term is evaluated, and
    # anchor's tolerance is refused by `make_check` before any side is evaluated
    "composition": (lambda target: check_sum_formula(4, 2, acc=target), "target accuracy", InvalidSpecError),
    "anchor": (lambda target: check_quad_anchor(tolerance=target), "tolerance", PreconditionError),
}
_REFUSED_TARGETS = {
    "huge": (10**400, "must be finite and > 0.0, got an integer of 401 digits"),
    "text": ("1e-6", "must be a real number, got '1e-6'"),
    "bool": (True, "must be a real number, got True"),
    "nan": (float("nan"), "must be finite and > 0.0, got nan"),
    "zero": (0, "must be finite and > 0.0, got 0"),
    "negative": (-1, "must be finite and > 0.0, got -1"),
}


@pytest.mark.parametrize("target, message", list(_REFUSED_TARGETS.values()), ids=list(_REFUSED_TARGETS))
@pytest.mark.parametrize("entry", list(_TARGETS))
def test_an_accuracy_target_or_tolerance_is_checked_as_a_config_value_is(entry, target, message):
    # each entry point states one rule, in `check_real`'s words, with its
    # layer's error: 10**400 used to raise OverflowError, and "1e-6" and
    # True used to be taken as numbers
    call, name, error = _TARGETS[entry]
    with pytest.raises(error) as caught:
        call(target)
    assert str(caught.value) == f"{name} {message}"


def test_a_target_of_any_real_type_is_taken():
    spec = mzv_spec(MzvIndex((2,)))
    assert evaluate(spec, 1) is evaluate(spec, 1.0)
    assert evaluate(spec, Fraction(1, 10**8)) is evaluate(spec, 1e-8)
    assert triangle_quadrature(TriangleIntegrand(), Fraction(1, 10**8)) == triangle_quadrature(TriangleIntegrand(), 1e-8)
    assert check_duality("(2)", tolerance=Fraction(1, 10**6)).tolerance == 1e-6


# library inputs that used to escape as another exception class
_LIBRARY_REFUSALS = {
    # AttributeError from the store, and TypeError from its index for a list
    "evaluate-text": (lambda: evaluate("(2)", 1e-8), InvalidSpecError, "can only evaluate a NestedSumSpec, got '(2)'"),
    "evaluate-none": (lambda: evaluate(None, 1e-8), InvalidSpecError, "can only evaluate a NestedSumSpec, got None"),
    "evaluate-list": (lambda: evaluate([2], 1e-8), InvalidSpecError, "can only evaluate a NestedSumSpec, got [2]"),
    # ValueError, OverflowError, and True taken as 1.0
    "constant-text": (lambda: TriangleIntegrand(constant="x"), InvalidSpecError, "constant must be a real number, got 'x'"),
    "constant-huge": (
        lambda: TriangleIntegrand(constant=10**400), InvalidSpecError, "constant must be finite, got an integer of 401 digits"
    ),
    "constant-bool": (lambda: TriangleIntegrand(constant=True), InvalidSpecError, "constant must be a real number, got True"),
    "constant-nan": (lambda: TriangleIntegrand(constant=float("nan")), InvalidSpecError, "constant must be finite, got nan"),
    "constant-zero": (lambda: TriangleIntegrand(constant=0.0), InvalidSpecError, "constant must be finite and non-zero"),
    # TypeError from `dict(ranges)`
    "draw-list": (lambda: draw_params("duality", XorShift64Star(1), [1]), PreconditionError, "ranges must be an object"),
    # TypeError from `tuple(...)`, and ValueError from unpacking a pair
    "index-number": (lambda: MzvIndex(5), InvalidSpecError, "index parts must be a list, got 5"),
    "index-none": (lambda: MzvIndex(None), InvalidSpecError, "index parts must be a list, got None"),
    "spec-number": (lambda: NestedSumSpec(5), InvalidSpecError, "spec factors must be a list, got 5"),
    "spec-bundle-number": (lambda: NestedSumSpec([5]), InvalidSpecError, "the factors of position 0 must be a list, got 5"),
    "pairs-number": (lambda: PqDecomposition(5), InvalidSpecError, "decomposition pairs must be a list, got 5"),
    "pair-number": (lambda: PqDecomposition((5,)), InvalidSpecError, "a decomposition pair must be a list, got 5"),
    "pair-short": (
        lambda: PqDecomposition([(1,)]), InvalidSpecError, "a decomposition pair must be two integers, got (1,)"
    ),
    # a result record is a tuple of its fields, and is refused as one, by its repr where it is named
    "evaluate-tuple": (lambda: evaluate((2,), 1e-8), InvalidSpecError, "can only evaluate a NestedSumSpec, got (2,)"),
    "evaluate-record": (
        lambda: evaluate(EvalResult(1.5, 0.0, 0, "float"), 1e-8),
        InvalidSpecError,
        f"can only evaluate a NestedSumSpec, got {_RECORD}",
    ),
    "duality-record": (
        lambda: check_duality(EvalResult(1.5, 0.0, 0, "float")), InvalidSpecError, "index part must be an integer, got 1.5"
    ),
    "eq24-record": (
        lambda: check_eq24(EvalResult(1.5, 0.0, 0, "float"), [1]),
        PreconditionError,
        f"pvec and qvec must be equally long and non-empty, got {_RECORD} and [1]",
    ),
    "index-record": (
        lambda: MzvIndex(EvalResult(1.5, 0.0, 0, "float")), InvalidSpecError, "index part must be an integer, got 1.5"
    ),
    "spec-record": (
        lambda: NestedSumSpec(EvalResult(1.5, 0.0, 0, "float")),
        InvalidSpecError,
        "position 0 needs a non-empty factor tuple, got 1.5",
    ),
}


@pytest.mark.parametrize("call, error, message", list(_LIBRARY_REFUSALS.values()), ids=list(_LIBRARY_REFUSALS))
def test_library_inputs_are_refused_with_the_layers_error(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
