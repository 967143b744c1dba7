"""CLI surface: verbs, exit codes, JSON reports, determinism."""

import json
import os
import re
import subprocess
import sys
import time
import warnings

import pytest

from mzv import clear_caches
from mzv.cli import main
from mzv.errors import ConfigError, PreconditionError
from mzv.identities import DEFAULT_ACCURACY, IDENTITIES, check_params, draw_params
from mzv.quadrature import QUAD_CHECKS
from mzv.rng import XorShift64Star
from mzv.report import (
    default_config,
    load_config,
    render_table,
    run_suite,
    validate_config,
)

MINI_SUITE = {
    "schema": 1,
    "accuracy": 1e-7,
    "checks": [
        {"identity": "duality", "grid": {"max_weight": 3}, "tolerance": 1e-6},
        {"identity": "sum_formula", "fuzz": {"seed": 3, "count": 2}},
        {"quad": "ones", "grid": {"m": [0], "n": [0]}, "tolerance": 1e-6},
    ],
}


def run_main(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr() if capsys else None
    return code, out


def test_dual_prints_index(capsys):
    code, out = run_main("dual", "(1,2)", capsys=capsys)
    assert code == 0
    assert out.out.strip() == "(3)"


def test_eval_human_and_json(capsys):
    code, out = run_main("eval", "(2)", capsys=capsys)
    assert code == 0
    assert "1.64493406684" in out.out
    assert "tail_bound=" in out.out

    code, out = run_main("eval", "(2)", "--json", capsys=capsys)
    payload = json.loads(out.out)
    assert payload["input"] == "(2)"
    assert payload["accuracy_met"] is True


def test_eval_rejects_inadmissible(capsys):
    code, out = run_main("eval", "(2,1)", capsys=capsys)
    assert code == 2
    assert "admissible" in out.err


def test_eval_parse_error_carries_position(capsys):
    code, out = run_main("eval", "(1,,2)", capsys=capsys)
    assert code == 2
    assert "column" in out.err


def test_eval_rejects_oversized_indices_and_specs(tmp_path, capsys):
    for text in ("1," + "9" * 400, "{1}^1000000000,2", "{1}^70"):
        code, out = run_main("eval", text, "--json", capsys=capsys)
        assert code == 2 and out.out == ""
        assert "exceeds" in out.err and "Traceback" not in out.err
    deep = {"factors": [[{"kind": "extra-power", "shift": 0, "exponent": 2}]] * 65}
    huge_shift = {"factors": [[{"kind": "shifted-power", "shift": 10**400, "exponent": 2}]]}
    for doc, message in ((deep, "depth 65 exceeds 64"), (huge_shift, "finite")):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out = run_main("eval", "--spec", str(path), capsys=capsys)
        assert code == 2 and message in out.err


def test_eval_spec_file(tmp_path, capsys):
    spec = {
        "factors": [
            [{"kind": "extra-power", "shift": 0, "exponent": 1}],
            [{"kind": "extra-power", "shift": 0, "exponent": 2}],
        ]
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out = run_main("eval", "--spec", str(path), "--json", capsys=capsys)
    assert code == 0
    assert json.loads(out.out)["value"] == pytest.approx(1.2020569031595943, abs=1e-9)


def test_eval_needs_exactly_one_input(capsys):
    code, out = run_main("eval", capsys=capsys)
    assert code == 2


def test_verify_pass_and_exit_codes(capsys):
    code, out = run_main(
        "verify", "theorem1", "--p", "1", "--q", "1", "--r", "1", "--a", "0", "--m", "0",
        capsys=capsys,
    )
    assert code == 0
    assert "pass" in out.out

    code, out = run_main("verify", "cor15", "--p", "1", "--m", "0", "--r", "2", capsys=capsys)
    assert code == 2  # paper hypothesis m + p >= r + 1 violated


def test_verify_reports_the_time_of_its_check(capsys, monkeypatch):
    # the clock used to be read only after the check had run: 0 s, always
    from types import SimpleNamespace

    import mzv.identities
    import mzv.report

    now = [1000.0]
    clock = SimpleNamespace(time=lambda: now[0])
    real = mzv.identities.evaluate

    def slow_evaluate(*args):
        now[0] += 2.5
        return real(*args)

    monkeypatch.setattr(mzv.report, "time", clock)
    monkeypatch.setattr(mzv.identities, "evaluate", slow_evaluate)
    code, out = run_main("verify", "duality", "--index", "(2,3)", "--json", capsys=capsys)
    assert code == 0
    assert json.loads(out.out)["summary"]["runtime_seconds"] == 5.0  # zeta(2,3) and its dual zeta(2,1,2)


def test_verify_missing_flag(capsys):
    code, out = run_main("verify", "sum_formula", "--m", "4", capsys=capsys)
    assert code == 2
    assert "--p" in out.err


def test_verify_extraneous_flag(capsys):
    code, out = run_main("verify", "duality", "--index", "(3)", "--q", "1", capsys=capsys)
    assert code == 2


def test_verify_unknown_identity_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2


def test_verify_json_report(capsys):
    code, out = run_main("verify", "duality", "--index", "(2,3)", "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["schema"] == 1
    assert report["tool"] == "mzv"
    assert report["summary"] == {
        "total": 1,
        "passed": 1,
        "failed": 0,
        "max_abs_diff": report["summary"]["max_abs_diff"],
        "runtime_seconds": report["summary"]["runtime_seconds"],
    }
    assert report["checks"][0]["identity"] == "duality"


def test_fuzz_deterministic_params(capsys):
    code, out1 = run_main(
        "fuzz", "--identity", "theorem1", "--seed", "42", "--count", "4", "--json",
        capsys=capsys,
    )
    assert code == 0
    code, out2 = run_main(
        "fuzz", "--identity", "theorem1", "--seed", "42", "--count", "4", "--json",
        capsys=capsys,
    )
    r1, r2 = json.loads(out1.out), json.loads(out2.out)
    assert [c["params"] for c in r1["checks"]] == [c["params"] for c in r2["checks"]]
    assert r1["seeds"] == [42]
    assert r1["summary"]["passed"] == 4


def test_fuzz_count_zero_empty_report(capsys):
    code, out = run_main("fuzz", "--identity", "duality", "--count", "0", "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["summary"]["total"] == 0


def test_fuzz_bad_ranges(capsys):
    code, out = run_main("fuzz", "--identity", "duality", "--ranges", "[1,2]", capsys=capsys)
    assert code == 2


def test_fuzz_rejects_unknown_ranges_keys(capsys):
    # a misspelt key used to be ignored: the run drew default-weight indices
    code, out = run_main(
        "fuzz", "--identity", "duality", "--count", "2", "--ranges", '{"weigth": [9, 9]}', capsys=capsys
    )
    assert code == 2
    assert "weigth" in out.err
    assert out.out == ""


@pytest.mark.parametrize(
    "identity,ranges,message",
    [
        # used to die with "TypeError: cannot unpack non-iterable int object", exit 1
        ("duality", '{"weight": 5}', "'weight' must be an [lo, hi] pair"),
        # used to raise a bare ValueError from XorShift64Star.randint, exit 1
        ("duality", '{"weight": [9, 5]}', "lo <= hi"),
        ("theorem1", '{"a": [1.5, -0.5]}', "'a' must be an [lo, hi] pair of numbers"),
        ("sum_formula", '{"m": [1, 1]}', "must reach 2"),
        # used to loop forever: no draw satisfies m + p >= r + 1
        ("cor15", '{"p": [1, 1], "m": [0, 0], "r": [3, 3]}', "m + p >= r + 1"),
    ],
)
def test_fuzz_rejects_bad_range_values(capsys, identity, ranges, message):
    code, out = run_main("fuzz", "--identity", identity, "--count", "2", "--ranges", ranges, capsys=capsys)
    assert code == 2
    assert message in out.err
    assert out.out == ""


def test_quad_single_instance(capsys):
    code, out = run_main("quad", "ones", "--m", "1", "--n", "0", "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["checks"][0]["identity"] == "quad_ones"
    assert report["summary"]["failed"] == 0


def test_quad_partial_params_rejected(capsys):
    code, out = run_main("quad", "ones", "--m", "1", capsys=capsys)
    assert code == 2
    assert "default grid" in out.err


def test_quad_inapplicable_flag(capsys):
    code, out = run_main("quad", "anchor", "--p", "1", capsys=capsys)
    assert code == 2


@pytest.mark.parametrize(
    "form, params",
    [
        ("trunc", ["--p", "1", "--q", "4", "--a", "-0.999", "--r", "4"]),
        ("blocks", ["--p", "0", "--q", "0", "--r", "0", "--ell", "120"]),
    ],
)
def test_quad_past_the_level_cap_exits_1(capsys, form, params):
    # inputs that never converge: each triangle-rule side gives up at level 7,
    # 1,597 nodes per axis, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_main("quad", form, *params, "--json", capsys=capsys)
    assert code == 1
    sides = json.loads(out.out)["checks"][0]["sides"]
    exhausted = [side for side in sides if side["flags"] == ["level-exhausted"]]
    assert len(exhausted) == (2 if form == "trunc" else 1)
    assert all(side["cutoff"] == 1597 and not side["accuracy_met"] for side in exhausted)


def test_suite_mini_config(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(MINI_SUITE))
    out_path = tmp_path / "report.json"
    code, out = run_main("suite", "--config", str(path), "--out", str(out_path), capsys=capsys)
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] == 6  # 3 duality + 2 fuzz + 1 quad
    sources = {c["source"] for c in report["checks"]}
    assert sources == {"grid", "fuzz"}


def test_suite_acc_and_tolerance_flags_override_the_config(tmp_path, capsys):
    # the flags replace the config's accuracy and tolerance: the report echoes
    # them, and every check runs with them
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(MINI_SUITE))
    argv = ("suite", "--config", str(path), "--acc", "1e-11", "--tolerance", "1e-5", "--json")
    code, out = run_main(*argv, capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    assert (report["config"]["accuracy"], report["config"]["tolerance"]) == (1e-11, 1e-5)
    # the entries that name their own tolerance keep it
    assert [c["tolerance"] for c in report["checks"]] == [1e-6] * 3 + [1e-5] * 2 + [1e-6]
    # the quad entry's integrals run to level 5 at 1e-11, to level 4 at the config's 1e-7
    assert [side["cutoff"] for side in report["checks"][-1]["sides"]] == [399, 399, 1024]
    assert [side["cutoff"] for side in run_suite(MINI_SUITE)["checks"][-1]["sides"]] == [199, 199, 1024]


def test_suite_missing_config(capsys):
    code, out = run_main("suite", "--config", "/nonexistent/path.json", capsys=capsys)
    assert code == 2
    assert "cannot read config" in out.err


def test_suite_rejects_non_list_quad_grid_values(tmp_path, capsys):
    # used to die with "TypeError: 'int' object is not iterable", exit 1
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": [{"quad": "ones", "grid": {"m": 5}}]}))
    code, out = run_main("suite", "--config", str(path), capsys=capsys)
    assert code == 2
    assert "'m' must be a non-empty list" in out.err


@pytest.mark.parametrize(
    "entry,message",
    [
        # each used to die with a TypeError traceback, exit 1
        ({"identity": "sum_formula", "grid": {"p": 3}}, "'p' must be a non-empty list"),
        ({"identity": "sum_formula", "grid": {"m": ["x"]}}, "'m' must list integers"),
        ({"identity": "eq24", "grid": {"n": 3}}, "'n' must be a non-empty list"),
        ({"identity": "eq24", "grid": {"n": [-1]}}, "n must be >= 1"),
        ({"identity": "eq24", "grid": {"entry": 2}}, "'entry' must be a non-empty list"),
        ({"identity": "eq24", "grid": {"pairs": [{"pvec": 1, "qvec": [1]}]}}, "'pairs' must list {pvec, qvec}"),
        ({"identity": "duality", "grid": {"max_weight": "x"}}, "max_weight must be an integer"),
        ({"identity": "duality", "fuzz": {"seed": 1, "count": 2, "ranges": {"weight": 5}}}, "'weight' must be"),
        ({"identity": "duality", "grid": {"indices": [1]}}, "an index must be index text or a list of parts, got 1"),
        ({"identity": "duality", "grid": {"indices": [None]}}, "an index must be index text or a list of parts, got None"),
        ({"identity": "duality", "grid": {"indices": [True]}}, "an index must be index text or a list of parts, got True"),
        # each used to run no check and exit 0 with "0/0 passed"
        ({"identity": "cor15", "grid": {"r": [10**400]}}, "checks[0].grid: no point of the grid meets"),
        ({"identity": "sum_formula", "grid": {"m": [3], "p": [5]}}, "checks[0].grid: no point of the grid meets"),
        # each used to run 64 identical checks
        ({"quad": "anchor", "fuzz": {"seed": 0, "count": 64}}, "error: checks[0].fuzz.count must be 1 for quad form"),
        ({"quad": "zeta2", "fuzz": {"seed": 0, "count": 64}}, "error: checks[0].fuzz.count must be 1 for quad form"),
    ],
)
def test_suite_rejects_bad_grid_and_range_values(tmp_path, capsys, entry, message):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": [entry]}))
    code, out = run_main("suite", "--config", str(path), capsys=capsys)
    assert code == 2
    assert message in out.err


@pytest.mark.parametrize(
    "entry,message",
    [
        # each used to die with an OverflowError traceback, exit 1
        ({"quad": "ones", "grid": {"m": [200], "n": [0]}}, "1/(200! 0!)"),
        ({"quad": "blocks", "grid": {"p": [0], "q": [171], "r": [0], "ell": [0]}}, "1/(0! 171! 0! 0!)"),
        ({"quad": "trunc", "grid": {"p": [200], "q": [1], "a": [0.5], "r": [0]}}, "1/(199! 0!)"),
        ({"quad": "threeway", "grid": {"p": [100], "q": [100], "r": [0], "m": [0.5]}}, "1/(100! 100! 0!)"),
    ],
)
def test_suite_rejects_quad_constants_past_the_float_range(tmp_path, capsys, entry, message):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": [entry]}))
    code, out = run_main("suite", "--config", str(path), capsys=capsys)
    assert code == 2
    assert message in out.err
    assert "below the float range" in out.err


_PAST_FLOAT = 10**400


@pytest.mark.parametrize(
    "argv,entry,named",
    [
        # each used to die with an OverflowError traceback from `float(value)`, exit 1
        (("quad", "trunc", "--p", "1", "--q", "1", "--a", "0", "--r", str(_PAST_FLOAT)), None, "r must be finite"),
        (None, {"quad": "trunc", "grid": {"p": [1], "q": [1], "a": [0], "r": [_PAST_FLOAT]}}, "r must be finite"),
        (None, {"quad": "threeway", "grid": {"p": [0], "q": [0], "r": [0], "m": [_PAST_FLOAT]}}, "m must be finite"),
        # each used to die with an OverflowError traceback from `lgamma(n + 1)`, exit 1
        (None, {"quad": "blocks", "grid": {"p": [0], "q": [_PAST_FLOAT], "r": [0], "ell": [0]}}, "q is an integer of 401 digits"),
        (None, {"quad": "trunc", "grid": {"p": [_PAST_FLOAT], "q": [1], "a": [0], "r": [0]}}, "p - 1 is an integer of 400 digits"),
        (None, {"quad": "ones", "grid": {"m": [_PAST_FLOAT], "n": [0]}}, "m is an integer of 401 digits"),
        (("quad", "blocks", "--p", "0", "--q", str(_PAST_FLOAT), "--r", "0", "--ell", "0"), None, "q is an integer of 401 digits"),
        (("quad", "trunc", "--p", str(_PAST_FLOAT), "--q", "1", "--a", "0", "--r", "0"), None, "p - 1 is an integer of 400 digits"),
        # `a` used to be refused as the integrand field `pow_t1_over_t2`
        (None, {"quad": "trunc", "grid": {"p": [1], "q": [1], "a": [_PAST_FLOAT], "r": [0]}}, "a must be finite"),
        # `--m` used to parse as a float and be refused as `got inf`
        (("quad", "ones", "--m", str(_PAST_FLOAT), "--n", "0"), None, "m is an integer of 401 digits"),
    ],
    # ids as pytest derives them from `argv` and `entry`
    ids=[
        "argv0-None", "None-entry1", "None-entry2", "None-entry3", "None-entry4", "None-entry5", "argv6-None",
        "argv7-None", "None-entry8", "argv9-None",
    ],
)
def test_quad_integers_past_the_float_range_exit_2(tmp_path, capsys, argv, entry, named):
    if argv is None:
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"checks": [entry]}))
        argv = ("suite", "--config", str(path))
    code, out = run_main(*argv, capsys=capsys)
    assert code == 2
    assert out.out == ""
    (line,) = out.err.splitlines()
    # one short line that names the user's parameter, the integer abbreviated
    assert line.startswith("error: ") and named in line
    assert len(line) < 200


@pytest.mark.parametrize(
    "argv,doc,named",
    [
        # each used to die with an OverflowError traceback, exit 1
        (None, {"checks": [{"identity": "eq24", "grid": {"a": [_PAST_FLOAT]}}]}, "a must be finite"),
        (None, {"checks": [{"identity": "theorem1", "grid": {"a": [_PAST_FLOAT]}}]}, "a must be finite"),
        (None, {"checks": [{"identity": "theorem1", "fuzz": {"ranges": {"a": [0, _PAST_FLOAT]}}}]}, "range 'a'"),
        (("fuzz", "--identity", "eq24", "--ranges", json.dumps({"a": [0, _PAST_FLOAT]})), None, "range 'a'"),
        (None, {"accuracy": _PAST_FLOAT}, "accuracy must be finite"),
        (None, {"tolerance": _PAST_FLOAT}, "tolerance must be finite"),
        # each used to exit 2 with every one of the 401 digits
        (("verify", "sum_formula", "--m", str(_PAST_FLOAT), "--p", "1"), None, "m must be <= 1023"),
        (
            ("eval", "--spec", "DOC"),
            {"factors": [[{"kind": "shifted-power", "shift": _PAST_FLOAT, "exponent": 2}]]},
            "shift must be finite",
        ),
        (None, {"checks": [{"identity": "eq24", "grid": {"a": [0.5], "n": [_PAST_FLOAT]}}]}, "range 'n'"),
    ],
    ids=[
        "eq24-a", "theorem1-a", "suite-fuzz-a", "fuzz-ranges-a", "accuracy", "tolerance", "sum_formula-m",
        "spec-shift", "eq24-n",
    ],
)
def test_integers_past_the_float_range_exit_2(tmp_path, capsys, argv, doc, named):
    # `doc` is written to a file: the suite config when there is no `argv`,
    # else the file that `argv` names as DOC
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = ("suite", "--config", "DOC") if argv is None else argv
        argv = tuple(str(path) if arg == "DOC" else arg for arg in argv)
    code, out = run_main(*argv, capsys=capsys)
    assert code == 2
    assert out.out == ""
    (line,) = out.err.splitlines()
    assert line.startswith("error: ") and named in line
    assert "an integer of 401 digits" in line and len(line) < 200


@pytest.mark.parametrize(
    "argv,entry,named",
    [
        # each used to die with an OverflowError traceback from `ones * p`, exit 1
        (None, {"identity": "theorem3", "grid": {"p": [_PAST_FLOAT]}}, "p must be <= 12"),
        (None, {"identity": "restricted_sum", "grid": {"p": [_PAST_FLOAT]}}, "p must be <= 12"),
        # a ones prefix as deep as a spec leaves no room for the last part: each
        # used to be refused as "r must be <= -1, got 0"
        (("verify", "theorem3", "--p", "64", "--q", "0", "--r", "0", "--m", "0"), None, "p must be <= 12, got 64"),
        (None, {"identity": "restricted_sum", "grid": {"p": [64], "q": [0], "r": [0]}}, "p must be <= 12, got 64"),
        # each used to build a list of as many positions (or vector entries)
        # as the integer says
        (None, {"identity": "eq24", "grid": {"entry": [_PAST_FLOAT]}}, "vector entry must be <= 13"),
        (("verify", "eq24", "--pvec", str(10**12), "--qvec", "1"), None, "vector entry must be <= 13"),
        (None, {"identity": "eq24", "fuzz": {"ranges": {"n": [1, 10**12]}}}, "range 'n' must lie within 1 to 64"),
        # each used to join every run before the spec constructor refused it
        # as "spec depth ... exceeds 64", naming neither vector
        (None, {"identity": "eq24", "points": [{"pvec": [1] * 100, "qvec": [1] * 100}]}, "pvec and qvec may be at most 64"),
        # drew vectors of 64 entries up to 3, whose sides the checker refused
        # as "sum(pvec) and sum(qvec) ... may be at most 64"
        (
            ("fuzz", "--identity", "eq24", "--ranges", '{"n": [64, 64]}', "--count", "1"),
            None,
            "--ranges: ranges 'n' and 'entry' draw a side whose tail expansion reaches (ln k)^128",
        ),
        # a draw from a range of more than 2^64 integers used to loop forever
        (None, {"identity": "eq12", "fuzz": {"ranges": {"m": [0, _PAST_FLOAT]}}}, "range 'm' must be an [lo, hi] pair"),
        # r's bound leaves room for the ones prefix: max(p, q) + r <= 12
        (None, {"identity": "restricted_sum", "grid": {"p": [5], "q": [0], "r": [40]}}, "r must be <= 7, got 40"),
        # used to say "splits its accuracy over 8192 terms"
        (("verify", "theorem3", "--p", "0", "--q", "0", "--r", "0", "--m", "13"), None, "m must be <= 12, got 13"),
    ],
    ids=[
        "theorem3-p", "restricted_sum-p", "verify-theorem3-p64", "restricted_sum-p64", "eq24-entry",
        "verify-eq24-pvec", "eq24-fuzz-n", "eq24-points-long", "fuzz-eq24-deep", "eq12-fuzz-m", "restricted_sum-r",
        "verify-theorem3-m",
    ],
)
def test_lengths_past_the_spec_depth_exit_2(tmp_path, capsys, argv, entry, named):
    if argv is None:
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"checks": [entry]}))
        argv = ("suite", "--config", str(path))
    code, out = run_main(*argv, capsys=capsys)
    assert code == 2
    assert out.out == ""
    (line,) = out.err.splitlines()
    assert line.startswith("error: ") and named in line
    assert len(line) < 200


@pytest.mark.parametrize(
    "argv,line",
    [
        # each used to run its integrals, then be refused by the engine: at
        # m = 150 with two numpy RuntimeWarnings and "spec depth 151 exceeds
        # 64", at m = 13 with "the tail expansion reaches (ln k)^13"
        (("ones", "--m", "150", "--n", "0"), "m must be <= 12, got 150"),
        (("ones", "--m", "13", "--n", "0"), "m must be <= 12, got 13"),
        (("blocks", "--p", "13", "--q", "0", "--r", "0", "--ell", "0"), "p must be <= 12, got 13"),
        (("trunc", "--p", "14", "--q", "1", "--a", "0", "--r", "0"), "p must be <= 13, got 14"),
        # each used to be refused as "spec depth ... exceeds 64"
        (("blocks", "--p", "70", "--q", "0", "--r", "0", "--ell", "0"), "p must be <= 12, got 70"),
        (("trunc", "--p", "70", "--q", "1", "--a", "0", "--r", "0"), "p must be <= 13, got 70"),
        # used to be refused as "the sum over compositions of 106 into 6 parts
        # takes more than 4096 series evaluations"
        (("blocks", "--p", "0", "--q", "100", "--r", "5", "--ell", "0"), "q must be <= 10, got 100"),
    ],
    ids=["ones-m150", "ones-m13", "blocks-p13", "trunc-p14", "blocks-p70", "trunc-p70", "blocks-q100"],
)
def test_quad_series_past_the_log_cap_are_refused_before_any_integral(capsys, monkeypatch, argv, line):
    import mzv.quadrature

    def no_integral(*args, **kwargs):
        raise AssertionError("an integral ran")

    monkeypatch.setattr(mzv.quadrature, "triangle_quadrature", no_integral)
    code, out = run_main("quad", *argv, capsys=capsys)
    assert (code, out.out, out.err) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "identity,key,named",
    [
        # each used to name the spec field: "exponent must be <= 1024"
        ("ohno", "m", "m must be <= 1022"),
        ("eq12", "q", "q must be <= 13"),
        ("eq12", "m", "m must be <= 1022"),
        ("theorem1", "q", "q must be <= 13"),
        ("theorem1", "m", "m must be <= 1023"),
        ("cor15", "m", "m must be <= 1022"),
        ("section4", "m", "m must be <= 1023"),
        # used to be refused as "the grid has an integer of 400 digits points"
        ("sum_formula", "m", "m must be <= 1023"),
        # used to be refused as the spec field "shift must be finite"
        ("theorem1", "r", "r must be <= 16"),
        # used to be refused as "the sum over compositions of 1 into 1 parts
        # takes more than 4096 series evaluations"
        ("theorem3", "m", "m must be <= 12"),
        # each used to be refused as "a composition into an integer of 401
        # digits parts is deeper than a spec may be (64)"
        ("theorem3", "r", "r must be <= 12"),
        ("restricted_sum", "r", "r must be <= 12"),
    ],
)
def test_grid_values_past_their_bound_name_the_key(tmp_path, capsys, identity, key, named):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": [{"identity": identity, "grid": {key: [_PAST_FLOAT]}}]}))
    code, out = run_main("suite", "--config", str(path), capsys=capsys)
    assert code == 2
    assert out.out == ""
    (line,) = out.err.splitlines()
    assert line.startswith("error: ") and f"{named}, got an integer of 401 digits" in line


@pytest.mark.parametrize("text", ["1,,2", "1,2,", ",1", "", " ", "1, ,2"])
def test_a_vector_flag_refuses_an_empty_item(capsys, text):
    # an empty item used to be dropped, so "1,,2" ran pvec [1, 2] and passed
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "eq24", "--pvec", text, "--qvec", "1,2"])
    assert exit_.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith(f"argument --pvec: expected comma-separated integers, got {text!r}")


def test_a_vector_flag_takes_whitespace_around_an_integer(capsys):
    code, out = run_main("verify", "eq24", "--pvec", " 1, 2 ", "--qvec", "2 ,1", "--json", capsys=capsys)
    assert code == 0
    assert json.loads(out.out)["checks"][0]["params"] == {"pvec": [1, 2], "qvec": [2, 1], "a": 0}


def test_long_text_from_outside_is_cut_short(tmp_path, capsys):
    digits = "1" * 5000
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "eq24", "--pvec", digits, "--qvec", "1"])
    assert exit_.value.code == 2
    (line,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(line) < 200
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"factors": [[{"kind": "shifted-power", "shift": f"{digits}/3", "exponent": 2}]]}))
    code, out = run_main("eval", "--spec", str(path), capsys=capsys)
    assert code == 2 and out.out == ""
    (line,) = out.err.splitlines()
    assert line.startswith("error: ") and len(line) < 200


def test_quad_integer_m_keeps_every_digit(capsys):
    # 2^53 + 1 used to parse as the float 2^53 and be reported as 9007199254740992!
    code, out = run_main("quad", "ones", "--m", "9007199254740993", "--n", "0", capsys=capsys)
    assert code == 2 and out.out == ""
    assert out.err == "error: integrand constant 1/(9007199254740993! 0!) is below the float range\n"
    # an integral float is an integer still, and a flag that is no number is a usage error
    code, out = run_main("quad", "ones", "--m", "1.0", "--n", "0", "--json", capsys=capsys)
    assert code == 0 and json.loads(out.out)["checks"][0]["params"] == {"m": 1, "n": 0}
    with pytest.raises(SystemExit):
        run_main("quad", "ones", "--m", "one", "--n", "0", capsys=capsys)
    assert "expected a number, got 'one'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["p", "q"])
def test_suite_rejects_boolean_trunc_exponents(tmp_path, capsys, key):
    # `true` used to run as 1, echo `p=True` and exit 0, where `ones` and
    # `theorem1` refuse a boolean exponent
    grid = {"p": [1], "q": [1], "a": [0], "r": [0], key: [True]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": [{"quad": "trunc", "grid": grid}]}))
    code, out = run_main("suite", "--config", str(path), "--out", str(tmp_path / "r.json"), capsys=capsys)
    assert code == 2
    assert f"need integers p, q >= 1, got p={grid['p'][0]!r}, q={grid['q'][0]!r}" in out.err
    assert out.out == "" and not (tmp_path / "r.json").exists()


def test_eval_rejects_log_degree_past_the_tail_model(capsys):
    # ({1}^50,2) is about 1; it used to exit 0 with 2.8e-16, a tail bound of
    # 1.1e-15 and accuracy_met, as the fit modelled only 12 of its 50 logs
    code, out = run_main("eval", "{1}^50,2", "--acc", "1e-9", "--json", capsys=capsys)
    assert code == 2
    assert "(ln k)^50" in out.err
    assert out.out == ""


def test_suite_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"checks": [{"identity": "duality", "typo": 1}]}')
    code, out = run_main("suite", "--config", str(path), capsys=capsys)
    assert code == 2
    assert "typo" in out.err


# ---------------------------------------------------------------------------
# report module


def test_validate_config_rejections():
    with pytest.raises(ConfigError):
        validate_config([])
    with pytest.raises(ConfigError):
        validate_config({"accuracy": 0})
    with pytest.raises(ConfigError):
        validate_config({"parallelism": 0})
    # every entry runs serially: 1 is the one value a config may still name
    with pytest.raises(ConfigError, match=r"^parallelism is retired: only 1 is accepted, got 4$"):
        validate_config({"parallelism": 4})
    for retired in (True, 1.0, "1", None):
        with pytest.raises(ConfigError, match="parallelism is retired"):
            validate_config({"parallelism": retired})
    with pytest.raises(ConfigError):
        validate_config({"checks": [{"identity": "duality", "quad": "ones"}]})
    # a quad entry may fuzz, as an identity entry may
    quad_fuzz = validate_config({"checks": [{"quad": "ones", "fuzz": {"seed": 1}}]})["checks"]
    assert quad_fuzz == [{"quad": "ones", "fuzz": {"seed": 1, "count": 10, "ranges": {}}}]
    with pytest.raises(ConfigError):
        validate_config({"checks": [{"identity": "duality", "grid": {}, "fuzz": {}}]})
    with pytest.raises(ConfigError):
        validate_config({"schema": 99})
    # the scan limits are module constants, no longer a config key
    for engine in ({}, {"nope": 1}, {"start_cutoff": 1024, "max_cutoff": 1 << 24}, {"block_size": 1 << 14}):
        with pytest.raises(ConfigError, match=r"unknown config keys: \['engine'\]"):
            validate_config({"engine": engine})
    bad_grids = [
        ("identity", "duality", {"max_weigth": 3}),
        ("identity", "eq24", {"pairs": [], "pvec": [1]}),
        ("identity", "theorem1", {"p": [1], "n": [1]}),
        ("quad", "ones", {"m": [0], "mm": [1]}),
        ("quad", "anchor", {"m": [0]}),
    ]
    for kind, name, grid in bad_grids:
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config({"checks": [{kind: name, "grid": grid}]})
    bad_ranges = [
        ("duality", {"weigth": [9, 9]}),
        ("duality", {"max_weight": 5}),  # a grid key, not a fuzz range
        ("sum_formula", {"p": [1, 2]}),  # `p` is drawn from 1..m-1
        ("eq24", {"pairs": []}),
        ("theorem1", {"n": [1, 2]}),
    ]
    for name, ranges in bad_ranges:
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config({"checks": [{"identity": name, "fuzz": {"seed": 1, "count": 2, "ranges": ranges}}]})
    bad_range_values = [
        ("duality", {"weight": 5}),
        ("duality", {"weight": [9, 5]}),
        ("duality", {"weight": [3, "8"]}),
        ("duality", {"weight": [3, 4, 5]}),
        ("ohno", {"m": [0.5, 2]}),
        ("theorem1", {"a": [1.5, -0.5]}),
        ("theorem1", {"a": [0, float("inf")]}),
        ("eq24", {"a": 0.5}),
    ]
    for name, ranges in bad_range_values:
        with pytest.raises(ConfigError, match=r"fuzz\.ranges: range '\w+' must be an \[lo, hi\] pair"):
            validate_config({"checks": [{"identity": name, "fuzz": {"seed": 1, "count": 2, "ranges": ranges}}]})
    with pytest.raises(ConfigError, match=r"fuzz\.ranges: must be an object"):
        validate_config({"checks": [{"identity": "duality", "fuzz": {"ranges": [3, 8]}}]})


def _entry(**entry):
    return {"checks": [entry]}


# one config per refusal of `validate_config`, with its whole message
_REFUSALS = [
    ([], "config must be a JSON object"),
    ({"engine": {}}, "unknown config keys: ['engine']"),
    # a long key is cut as a long name is; it used to be echoed whole
    ({"x" * 50: 1}, "unknown config keys: ['xxxxxxxxxxxxxxxxxxxx'... (a string of 50 characters)]"),
    ({"schema": 99}, "unsupported config schema 99"),
    # each compares equal to 1, and both used to be taken as schema 1
    ({"schema": True, "checks": []}, "unsupported config schema True"),
    ({"schema": 1.0, "checks": []}, "unsupported config schema 1.0"),
    ({"accuracy": 0}, "accuracy must be finite and > 0.0, got 0"),
    ({"accuracy": 2}, "accuracy must be in (0, 1], got 2"),
    ({"tolerance": 1.5}, "tolerance must be in (0, 1], got 1.5"),
    ({"parallelism": 4}, "parallelism is retired: only 1 is accepted, got 4"),
    ({"checks": {}}, "checks must be a list"),
    ({"checks": [1]}, "checks[0] must be an object"),
    (_entry(identity="duality", nope=1), "checks[0]: unknown keys ['nope']"),
    (_entry(identity="duality", quad="ones"), "checks[0]: need exactly one of 'identity' or 'quad'"),
    (_entry(grid={}), "checks[0]: need exactly one of 'identity' or 'quad'"),
    (
        _entry(identity="nope"),
        "checks[0]: unknown identity 'nope' (known: ['cor15', 'duality', 'eq12', 'eq24', 'ohno', "
        "'restricted_sum', 'section4', 'sum_formula', 'theorem1', 'theorem3'])",
    ),
    (
        _entry(quad="nope"),
        "checks[0]: unknown quad form 'nope' (known: ['anchor', 'blocks', 'ones', 'threeway', 'trunc', 'zeta2'])",
    ),
    # a list or an object is no name; each used to raise TypeError (unhashable)
    (
        _entry(identity=["duality"]),
        "checks[0]: unknown identity ['duality'] (known: ['cor15', 'duality', 'eq12', 'eq24', 'ohno', "
        "'restricted_sum', 'section4', 'sum_formula', 'theorem1', 'theorem3'])",
    ),
    (
        _entry(quad={}),
        "checks[0]: unknown quad form {} (known: ['anchor', 'blocks', 'ones', 'threeway', 'trunc', 'zeta2'])",
    ),
    # a quad entry takes a fuzz object, whose ranges its draw reads
    (_entry(quad="ones", fuzz={"ranges": {"mm": [0, 1]}}), "checks[0].fuzz.ranges: unknown keys ['mm'] (known: ['m', 'n'])"),
    (_entry(identity="duality", grid={}, fuzz={}), "checks[0]: 'grid' and 'fuzz' are exclusive"),
    (_entry(identity="duality", fuzz=[]), "checks[0].fuzz must be an object"),
    (_entry(identity="duality", fuzz={"sead": 1}), "checks[0].fuzz: unknown keys ['sead']"),
    (_entry(identity="duality", fuzz={"seed": True}), "checks[0].fuzz.seed must be an integer, got True"),
    (_entry(identity="duality", fuzz={"count": 5000}), "checks[0].fuzz.count must be <= 4096, got 5000"),
    # a form without parameters draws its one point; more draws repeated it, and 10 is the default count
    (
        _entry(quad="anchor", fuzz={"count": 64}),
        "checks[0].fuzz.count must be 1 for quad form 'anchor', which takes no parameters, got 64",
    ),
    (
        _entry(quad="zeta2", fuzz={}),
        "checks[0].fuzz.count must be 1 for quad form 'zeta2', which takes no parameters, got 10",
    ),
    (
        _entry(quad="zeta2", fuzz={"count": 0}),
        "checks[0].fuzz.count must be 1 for quad form 'zeta2', which takes no parameters, got 0",
    ),
    (_entry(identity="duality", fuzz={"ranges": [3, 8]}), "checks[0].fuzz.ranges: must be an object"),
    (_entry(identity="duality", grid=[]), "checks[0].grid must be an object"),
    (
        _entry(identity="duality", grid={"max_weigth": 3}),
        "checks[0].grid: unknown keys ['max_weigth'] (known: ['indices', 'max_weight'])",
    ),
    (_entry(identity="ohno", grid={"m": []}), "checks[0].grid: range 'm' must be a non-empty list, got []"),
    # a grid's index text is refused as the index parser refuses it, naming the
    # entry; each used to escape as the parser's `InvalidSpecError` or `IndexParseError`
    (_entry(identity="ohno", grid={"indices": ["(0,2)"]}), "checks[0].grid: index part must be >= 1, got 0"),
    (_entry(identity="duality", grid={"indices": ["(1,"]}), "checks[0].grid: expected integer part (column 3)"),
    (
        _entry(identity="sum_formula", grid={"m": [3], "p": [5]}),
        "checks[0].grid: no point of the grid meets the identity's conditions",
    ),
    (_entry(identity="duality", accuracy=2), "checks[0].accuracy must be in (0, 1], got 2"),
    (_entry(identity="duality", tolerance=0), "checks[0].tolerance must be finite and > 0.0, got 0"),
]


# each refusal of a `points` entry, as the second entry of a suite whose first
# entry would run checks; built as data, so nothing is evaluated
_POINTS_REFUSALS = {
    "not-a-list": ({"identity": "theorem1", "points": {"p": 1}}, "checks[1].points must be a list of 1 to 4096 points"),
    "empty": ({"identity": "theorem1", "points": []}, "checks[1].points must be a list of 1 to 4096 points"),
    "not-an-object": ({"identity": "duality", "points": [{"index": "(2)"}, "(3)"]}, "checks[1].points[1] must be an object"),
    "unknown-key": (
        {"identity": "theorem1", "points": [{"p": 1, "q": 1, "r": 0, "m": 0, "n": 2}]},
        "checks[1].points[0]: unknown keys ['n'] (known: ['p', 'q', 'r', 'm', 'a'])",
    ),
    "unknown-quad-key": (
        {"quad": "anchor", "points": [{}, {"m": 0}]},
        "checks[1].points[1]: unknown keys ['m'] (known: [])",
    ),
    "missing-name": ({"identity": "theorem1", "points": [{"p": 1}]}, "checks[1].points[0]: missing required keys ['q', 'r', 'm']"),
    "too-many": ({"identity": "duality", "points": [{"index": "(2)"}] * 4097}, "checks[1].points must be a list of 1 to 4096 points"),
    "with-grid": ({"identity": "duality", "grid": {}, "points": [{"index": "(2)"}]}, "checks[1]: 'grid' and 'points' are exclusive"),
    "with-fuzz": ({"identity": "duality", "fuzz": {}, "points": [{"index": "(2)"}]}, "checks[1]: 'fuzz' and 'points' are exclusive"),
    "with-both": (
        {"identity": "duality", "grid": {}, "fuzz": {}, "points": [{"index": "(2)"}]},
        "checks[1]: 'grid' and 'points' are exclusive",
    ),
}


@pytest.mark.parametrize("entry, message", list(_POINTS_REFUSALS.values()), ids=list(_POINTS_REFUSALS))
def test_points_refusals_name_the_entry_before_any_check_runs(monkeypatch, entry, message):
    def no_check(**params):
        raise AssertionError("checked")

    monkeypatch.setitem(IDENTITIES, "eq12", IDENTITIES["eq12"]._replace(check=no_check))
    config = {"checks": [{"identity": "eq12"}, entry]}
    for validate in (validate_config, run_suite):
        with pytest.raises(ConfigError) as refused:
            validate(config)
        assert str(refused.value) == message


# each place a config's unknown keys are refused, given keys of mixed types, as
# a config built in Python may have them; each refusal used to sort the keys
# and raise TypeError.  Strings are listed first, then the others by repr
_MIXED = {"zz": 0, 1: 0, None: 0, "aa": 0}
_MIXED_KEY_REFUSALS = {
    "config": ({**_MIXED, "checks": [{"identity": "eq12"}]}, "unknown config keys: ['aa', 'zz', 1, None]"),
    "entry": ({"identity": "restricted_sum", **_MIXED}, "checks[1]: unknown keys ['aa', 'zz', 1, None]"),
    "grid": (
        {"identity": "restricted_sum", "grid": dict.fromkeys(_MIXED, [1])},
        "checks[1].grid: unknown keys ['aa', 'zz', 1, None] (known: ['p', 'q', 'r'])",
    ),
    "points": (
        {"identity": "restricted_sum", "points": [{"p": 1, "q": 1, "r": 0, **_MIXED}]},
        "checks[1].points[0]: unknown keys ['aa', 'zz', 1, None] (known: ['p', 'q', 'r'])",
    ),
    "fuzz": ({"identity": "restricted_sum", "fuzz": _MIXED}, "checks[1].fuzz: unknown keys ['aa', 'zz', 1, None]"),
    "fuzz-ranges": (
        {"identity": "restricted_sum", "fuzz": {"ranges": dict.fromkeys(_MIXED, [1, 2])}},
        "checks[1].fuzz.ranges: unknown keys ['aa', 'zz', 1, None] (known: ['p', 'q', 'r'])",
    ),
}


@pytest.mark.parametrize("config, message", list(_MIXED_KEY_REFUSALS.values()), ids=list(_MIXED_KEY_REFUSALS))
def test_unknown_keys_of_mixed_types_are_refused_before_any_check_runs(monkeypatch, config, message):
    def no_check(**params):
        raise AssertionError("checked")

    monkeypatch.setitem(IDENTITIES, "eq12", IDENTITIES["eq12"]._replace(check=no_check))
    if "checks" not in config:  # a second entry, after one that would run checks
        config = {"checks": [{"identity": "eq12"}, config]}
    for validate in (validate_config, run_suite):
        with pytest.raises(ConfigError) as refused:
            validate(config)
        assert str(refused.value) == message


def test_identity_and_quad_entries_are_one_type():
    from mzv.identities import IdentityInfo

    assert {type(entry) for entry in [*IDENTITIES.values(), *QUAD_CHECKS.values()]} == {IdentityInfo}


@pytest.mark.parametrize("form", sorted(QUAD_CHECKS))
def test_a_quad_fuzz_entry_runs_the_points_its_draw_gives(form):
    from mzv.report import _validated

    check, grid, draw = QUAD_CHECKS[form]
    names = list(check_params(check)[0])
    count = 3 if names else 1  # a form without parameters draws one point, `{}`
    fuzz = {"seed": 3, "count": count, "ranges": {}}
    _, (points,) = _validated({"checks": [{"quad": form, "fuzz": fuzz}]})
    rng = XorShift64Star(3)
    assert points == [draw(rng, {}) for _ in range(count)]
    # the same seed draws the same points
    assert _validated({"checks": [{"quad": form, "fuzz": dict(fuzz)}]})[1] == [points]
    # each drawn value lies in the span of its key's default grid values;
    # threeway draws an integer m, so its series sides join every check
    span = {k: [g[k] for g in grid({})] for k in names}
    for point in points:
        assert list(point) == names
        assert all(min(span[k]) <= v <= max(span[k]) for k, v in point.items()), point
    if form == "threeway":
        assert all(type(point["m"]) is int for point in points)
    by_fuzz = run_suite({"accuracy": 1e-9, "checks": [{"quad": form, "fuzz": fuzz}]})
    by_points = run_suite({"accuracy": 1e-9, "checks": [{"quad": form, "points": points}]})
    assert by_fuzz["seeds"] == [3] and "seeds" not in by_points
    assert {r.pop("source") for r in by_fuzz["checks"]} == {"fuzz"}
    assert {r.pop("source") for r in by_points["checks"]} == {"points"}
    assert by_fuzz["checks"] == by_points["checks"] and by_fuzz["summary"]["failed"] == 0
    # the draw refuses a range key it does not read, naming the ones it does
    for validate in (validate_config, run_suite):
        with pytest.raises(ConfigError) as refused:
            validate({"checks": [{"quad": form, "fuzz": {"seed": 1, "count": 2, "ranges": {"zz": [1, 2]}}}]})
        assert str(refused.value) == f"checks[0].fuzz.ranges: unknown keys ['zz'] (known: {names})"


def test_points_give_the_records_of_the_matching_grid(monkeypatch):
    entries = [("identity", name, info.grid) for name, info in IDENTITIES.items()]
    entries += [("quad", name, grid) for name, (_, grid, _) in QUAD_CHECKS.items()]
    # each default grid cut to its first two points is the grid entry that a
    # `points` entry of those two points matches
    for name, info in IDENTITIES.items():
        monkeypatch.setitem(IDENTITIES, name, info._replace(grid=lambda r, g=info.grid: g(r)[:2]))
    for name, (check, grid, draw) in QUAD_CHECKS.items():
        monkeypatch.setitem(QUAD_CHECKS, name, (check, lambda r, g=grid: g(r)[:2], draw))
    by_grid = run_suite({"checks": [{kind: name} for kind, name, _ in entries]})["checks"]
    by_points = run_suite({"checks": [{kind: name, "points": grid({})[:2]} for kind, name, grid in entries]})["checks"]
    assert len(by_grid) == 2 * len(entries) - 2  # anchor and zeta2 have one point
    assert {r.pop("source") for r in by_grid} == {"grid"} and {r.pop("source") for r in by_points} == {"points"}
    assert by_points == by_grid


def test_validate_config_refusal_messages_are_exact():
    for config, message in _REFUSALS:
        with pytest.raises(ConfigError) as refused:
            validate_config(config)
        assert str(refused.value) == message


def test_run_suite_expands_each_grid_once_and_runs_its_points_in_order(monkeypatch):
    expanded = []

    def counted(name, expand):
        def grid(ranges):
            points = expand(ranges)
            expanded.append((name, points))
            return points

        return grid

    info = IDENTITIES["duality"]
    monkeypatch.setitem(IDENTITIES, "duality", info._replace(grid=counted("duality", info.grid)))
    check, grid, draw = QUAD_CHECKS["ones"]
    monkeypatch.setitem(QUAD_CHECKS, "ones", (check, counted("ones", grid), draw))
    config = {
        "checks": [
            {"identity": "duality", "grid": {"indices": ["(3)", "(1,2)", "2"]}},
            {"quad": "ones", "grid": {"m": [1, 0], "n": [0]}},
        ]
    }
    report = run_suite(config)
    assert [name for name, _ in expanded] == ["duality", "ones"]
    assert [r["params"] for r in report["checks"]] == [p for _, points in expanded for p in points]
    assert [r["params"] for r in report["checks"]] == [
        {"index": "(3)"}, {"index": "(1,2)"}, {"index": "(2)"}, {"m": 1, "n": 0}, {"m": 0, "n": 0}
    ]


def test_run_suite_calls_a_checker_replaced_after_import(monkeypatch):
    import functools

    called = []

    def recorded(name, check):
        @functools.wraps(check)  # a quad form's grid keys are read from its checker's signature
        def wrapper(**kwargs):
            called.append((name, {k: v for k, v in kwargs.items() if k not in ("acc", "tolerance")}))
            return check(**kwargs)

        return wrapper

    info = IDENTITIES["duality"]
    monkeypatch.setitem(IDENTITIES, "duality", info._replace(check=recorded("duality", info.check)))
    check, grid, draw = QUAD_CHECKS["ones"]
    monkeypatch.setitem(QUAD_CHECKS, "ones", (recorded("ones", check), grid, draw))
    report = run_suite(MINI_SUITE)
    assert called == [
        ("duality", {"index": "(2)"}), ("duality", {"index": "(3)"}), ("duality", {"index": "(1,2)"}),
        ("ones", {"m": 0, "n": 0}),
    ]
    assert [r["identity"] for r in report["checks"]] == ["duality"] * 3 + ["sum_formula"] * 2 + ["quad_ones"]


def test_parallelism_1_is_accepted_and_not_echoed(tmp_path, capsys):
    assert "parallelism" not in validate_config({"parallelism": 1})
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(dict(MINI_SUITE, parallelism=1)))
    code, out = run_main("suite", "--config", str(path), "--json", capsys=capsys)
    assert code == 0
    assert "parallelism" not in json.loads(out.out)["config"]
    path.write_text(json.dumps(dict(MINI_SUITE, parallelism=4)))
    code, out = run_main("suite", "--config", str(path), "--json", capsys=capsys)
    assert code == 2 and out.out == ""
    assert out.err == "error: parallelism is retired: only 1 is accepted, got 4\n"


def test_validation_reads_each_checker_signature_once(monkeypatch):
    import inspect

    real = inspect.signature
    read = []
    monkeypatch.setattr(inspect, "signature", lambda fn, *a, **k: read.append(fn) or real(fn, *a, **k))
    config = {"checks": [{"quad": "trunc", "grid": {"p": [1], "q": [1], "a": [0], "r": [0]}}]}
    for _ in range(3):
        validate_config(config)
    assert len(read) <= 1


class _KeyRecorder(dict):
    """A ranges dict that records every key looked up in it."""

    def __init__(self) -> None:
        super().__init__()
        self.read: set = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key) -> bool:
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# the keys each grid and draw reads, in the order its refusal lists them
_GRID_KEYS = {
    "duality": ["indices", "max_weight"],
    "sum_formula": ["m", "p"],
    "ohno": ["indices", "m"],
    "eq12": ["p", "q", "m"],
    "theorem1": ["p", "q", "r", "a", "m"],
    "cor15": ["p", "m", "r"],
    "eq24": ["pairs", "n", "entry", "a"],
    "theorem3": ["p", "q", "r", "m"],
    "restricted_sum": ["p", "q", "r"],
    "section4": ["m", "p"],
}
_FUZZ_KEYS = {
    "duality": ["weight"],
    "sum_formula": ["m"],
    "ohno": ["weight", "m"],
    "eq12": ["p", "q", "m"],
    "theorem1": ["p", "q", "r", "a", "m"],
    "cor15": ["p", "m", "r"],
    "eq24": ["n", "entry", "a"],
    "theorem3": ["p", "q", "r", "m"],
    "restricted_sum": ["p", "q", "r"],
    "section4": ["m", "p"],
}
# a value each grid key takes that yields a point (`sum_formula` needs 1 <= p < m)
_GRID_VALUES = {"indices": ["(2)"], "max_weight": 3, "pairs": [{"pvec": [1], "qvec": [1]}], "m": [2]}


def _grids():
    for name, info in IDENTITIES.items():
        yield "identity", name, info.grid, _GRID_KEYS[name]
    for name, (check, grid, _) in QUAD_CHECKS.items():
        yield "quad", name, grid, list(check_params(check)[0])


def test_each_grid_accepts_the_keys_it_reads_and_refuses_any_other():
    for kind, name, grid, keys in _grids():
        ranges = _KeyRecorder()
        grid(ranges)
        assert ranges.read == set(keys), name
        for key in keys:
            validate_config({"checks": [{kind: name, "grid": {key: _GRID_VALUES.get(key, [1])}}]})
        message = f"unknown keys ['pp', 'zz'] (known: {keys})"
        bad = {"zz": [1], "pp": [1]}
        # the runner refuses them as the validator does, before any point runs
        for validate in (validate_config, run_suite):
            with pytest.raises(ConfigError) as refused:
                validate({"checks": [{kind: name, "grid": bad}]})
            assert str(refused.value) == f"checks[0].grid: {message}"
        with pytest.raises(PreconditionError) as refused:
            grid(dict(bad))
        assert str(refused.value) == message, name


def test_each_draw_accepts_the_keys_it_reads_and_refuses_any_other(capsys):
    for name, keys in _FUZZ_KEYS.items():
        ranges = _KeyRecorder()
        IDENTITIES[name].draw(XorShift64Star(7), ranges)
        assert ranges.read == set(keys), name
        for key in keys:
            validate_config({"checks": [{"identity": name, "fuzz": {"ranges": {key: [1, 2]}}}]})
        validate_config({"checks": [{"identity": name, "fuzz": {"ranges": dict.fromkeys(keys, [1, 2])}}]})
        message = f"unknown keys ['zz'] (known: {keys})"
        bad = {"zz": [1, 2]}
        for validate in (validate_config, run_suite):
            with pytest.raises(ConfigError) as refused:
                validate({"checks": [{"identity": name, "fuzz": {"seed": 1, "count": 2, "ranges": bad}}]})
            assert str(refused.value) == f"checks[0].fuzz.ranges: {message}"
        for draw in (
            lambda r: draw_params(name, XorShift64Star(1), r),
            lambda r: IDENTITIES[name].draw(XorShift64Star(1), r),
        ):
            with pytest.raises(PreconditionError) as refused:
                draw(dict(bad))
            assert str(refused.value) == message, name
        code, out = run_main("fuzz", "--identity", name, "--count", "1", "--ranges", json.dumps(bad), capsys=capsys)
        assert (code, out.out, out.err) == (2, "", f"error: --ranges: {message}\n")


def test_a_range_no_draw_can_use_stops_the_suite_before_any_check(tmp_path, capsys, monkeypatch):
    def no_check(**params):
        raise AssertionError("checked")

    for name in IDENTITIES:
        monkeypatch.setitem(IDENTITIES, name, IDENTITIES[name]._replace(check=no_check))
    path = tmp_path / "suite.json"
    for checks, message in (
        (
            [
                {"identity": "duality", "grid": {"max_weight": 7}},
                {"identity": "duality", "fuzz": {"seed": 1, "count": 2, "ranges": {"weight": [30, 30]}}},
            ],
            "checks[1].fuzz.ranges: range 'weight' may not exceed 14, got [30, 30]",
        ),
        # eq24's deepest draw, not the one drawn, is measured: the draw used to
        # pass, and the suite ran the duality entry before the checker refused it
        (
            [
                {"identity": "duality", "grid": {"max_weight": 7}},
                {"identity": "eq24", "fuzz": {"count": 1, "ranges": {"n": [64, 64]}}},
            ],
            "checks[1].fuzz.ranges: ranges 'n' and 'entry' draw a side whose tail expansion reaches (ln k)^128; "
            "the engine takes log degrees up to 12",
        ),
        # no point would be drawn, but the range is refused all the same
        (
            [{"identity": "sum_formula", "fuzz": {"seed": 1, "count": 0, "ranges": {"m": [0, 1]}}}],
            "checks[0].fuzz.ranges: range 'm' must reach 2 (sum_formula needs m >= 2), got [0, 1]",
        ),
        # the first key the draw reads is named
        (
            [{"identity": "ohno", "fuzz": {"count": 0, "ranges": {"m": [3, 1], "weight": [9, 2]}}}],
            "checks[0].fuzz.ranges: range 'weight' must be an [lo, hi] pair of 64-bit integers with lo <= hi, "
            "got [9, 2]",
        ),
    ):
        path.write_text(json.dumps({"checks": checks}))
        out_file = tmp_path / "report.json"
        code, out = run_main("suite", "--config", str(path), "--out", str(out_file), capsys=capsys)
        assert (code, out.out, out.err) == (2, "", f"error: {message}\n")
        assert not out_file.exists()


def test_validation_draws_the_points_the_suite_runs(monkeypatch, capsys):
    from mzv.report import _validated

    config = {"checks": [{"identity": "theorem1", "fuzz": {"seed": 11, "count": 3, "ranges": {"p": [1, 2]}}}]}
    _, (points,) = _validated(config)
    rng = XorShift64Star(11)
    assert points == [draw_params("theorem1", rng, {"p": [1, 2]}) for _ in range(3)]
    # one draw validates the ranges, then the points are drawn, all before the first check
    info = IDENTITIES["theorem1"]
    events = []

    def draw(rng, ranges):
        events.append("draw")
        return info.draw(rng, ranges)

    def check(**params):
        events.append("check")
        return info.check(**params)

    monkeypatch.setitem(IDENTITIES, "theorem1", info._replace(check=check, draw=draw))
    report = run_suite(config)
    assert events == ["draw"] * 4 + ["check"] * 3
    assert [r["params"]["p"] for r in report["checks"]] == [p["p"] for p in points]
    assert report["seeds"] == [11] and {r["source"] for r in report["checks"]} == {"fuzz"}
    # `mzv fuzz` runs the same one-entry suite, after one more draw checks `--ranges`
    events.clear()
    argv = ("fuzz", "--identity", "theorem1", "--seed", "11", "--count", "3", "--ranges", '{"p": [1, 2]}', "--json")
    code, out = run_main(*argv, capsys=capsys)
    assert code == 0 and events == ["draw"] * 5 + ["check"] * 3
    assert json.loads(out.out)["checks"] == json.loads(json.dumps(report["checks"]))


@pytest.mark.parametrize(
    "name,grid,message",
    [
        ("duality", {"indices": ["(2)"], "max_weight": 9}, "'indices' and 'max_weight' are exclusive"),
        ("eq24", {"pairs": [{"pvec": [1], "qvec": [1]}], "n": [1]}, "'pairs' and 'n' are exclusive"),
        ("eq24", {"pairs": [{"pvec": [1], "qvec": [1]}], "entry": [2]}, "'pairs' and 'entry' are exclusive"),
    ],
)
def test_exclusive_grid_keys_are_refused(tmp_path, capsys, name, grid, message):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": [{"identity": name, "grid": grid}]}))
    code, out = run_main("suite", "--config", str(path), capsys=capsys)
    assert (code, out.out, out.err) == (2, "", f"error: checks[0].grid: {message}\n")
    with pytest.raises(PreconditionError) as refused:
        IDENTITIES[name].grid(grid)
    assert str(refused.value) == message


def test_quad_grids_expand_in_declared_key_order():
    from itertools import product

    from mzv.quadrature import QUAD_CHECKS

    check, grid, _ = QUAD_CHECKS["trunc"]
    assert check_params(check) == (("p", "q", "a", "r"),) * 2
    ranges = {"p": [2, 1], "a": [0.5, -0.5], "r": [0, 3]}
    expected = [
        {"p": p, "q": q, "a": a, "r": r} for p, q, a, r in product([2, 1], [1, 2], [0.5, -0.5], [0, 3])
    ]
    assert grid(ranges) == expected
    assert [list(g) for g in grid({})][0] == ["p", "q", "a", "r"]
    assert len(grid({})) == 2 * 2 * 4 * 3


def test_suite_rejects_single_stage_engine(tmp_path, capsys):
    # the scan limits are module constants: an `engine` key is refused, not ignored
    for engine in ({"start_cutoff": 4096, "max_cutoff": 4096}, {}):
        config = dict(MINI_SUITE, engine=engine)
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        code, out = run_main("suite", "--config", str(path), "--json", "--out", str(tmp_path / "r.json"), capsys=capsys)
        assert code == 2
        assert out.err == "error: unknown config keys: ['engine']\n"
        assert out.out == "" and not (tmp_path / "r.json").exists()


def test_emit_refuses_non_finite_numbers(capsys):
    from argparse import Namespace

    from mzv.cli import _emit
    from mzv.errors import MzvError

    report = {"checks": [], "summary": {"failed": 0, "max_abs_diff": float("inf")}}
    with pytest.raises(MzvError, match="strict JSON"):
        _emit(report, Namespace(out=None, json=True))
    assert capsys.readouterr().out == ""


def test_default_config_is_valid():
    cfg = validate_config(default_config())
    assert cfg["schema"] == 1
    assert len(cfg["checks"]) >= 10
    assert load_config(None) == default_config()


def test_run_suite_report_shape_and_determinism():
    r1 = run_suite(MINI_SUITE)
    r2 = run_suite(MINI_SUITE)
    assert r1["schema"] == 1
    for r in (r1, r2):
        r["summary"].pop("runtime_seconds")
    assert r1 == r2


def test_render_table_lists_every_check():
    report = run_suite(MINI_SUITE)
    table = render_table(report)
    assert table.count("\n") == report["summary"]["total"]
    assert "passed" in table.splitlines()[-1]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mzv.cli", "dual", "(2,3)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(1,2,2)"


# each checker name of `mzv.__all__`, by the module that defines it; every
# other name of `__all__` is the engine's
_CHECKER_NAMES = {
    "identities": ("IDENTITIES", "IdentityCheck", "draw_params"),
    "quadrature": ("QUAD_CHECKS", "TriangleIntegrand", "triangle_quadrature"),
    "report": ("run_suite",),
    "rng": ("XorShift64Star",),
}
# the library runners `run_suite` replaced: no module of the package defines them
_REMOVED_NAMES = ("run_grid", "run_fuzz", "run_quad_grid")

# run in a fresh interpreter: prints, as JSON, the registered caches by module
# after `import mzv` and after every layer is imported, the checker layers
# loaded after the registry is cleared and read, after `eval` and `dual` and
# after `verify`, how each name of `__all__` resolves, and the error for a
# name the package does not have, and the removed names that some module or
# `__all__` still has
_START_UP = """
import contextlib, io, json, sys
from collections import Counter
import mzv

LAYERS = ("identities", "quadrature", "report", "rng")
loaded = lambda: [layer for layer in LAYERS if "mzv." + layer in sys.modules]
registered = lambda: Counter(name.rsplit(".", 1)[0] for name in mzv.cache_stats())
mzv.clear_caches()
facts = {"engine_caches": registered(), "after_caches": loaded(), "codes": []}
from mzv.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    facts["codes"] += [main(["eval", "(2)"]), main(["dual", "(1,2)"])]
    facts["engine_only"] = loaded()
    facts["codes"].append(main(["verify", "duality", "--index", "(2,3)"]))
    facts["after_verify"] = loaded()
import mzv.reference, mzv.report
facts["all_caches"] = registered()
home = {name: module for module, names in json.loads(sys.argv[1]).items() for name in names}


def defining_module(name):
    if name in home:
        return sys.modules["mzv." + home[name]]
    return next(module for module in (mzv._memo, mzv.errors, mzv.indices, mzv.series) if hasattr(module, name))


names = [name for name in mzv.__all__ if name != "__version__"]
facts["unresolved"] = [name for name in names if getattr(mzv, name) is not getattr(defining_module(name), name)]
facts["not_in_dir"] = sorted(set(mzv.__all__) - set(dir(mzv)))
star = {}
exec("from mzv import *", star)
facts["not_starred"] = sorted(set(mzv.__all__) - set(star))
try:
    mzv.nope
except AttributeError as exc:
    facts["nope"] = str(exc)
modules = [module for name, module in sys.modules.items() if name == "mzv" or name.startswith("mzv.")]
facts["removed_present"] = sorted(
    name for name in json.loads(sys.argv[2]) if name in mzv.__all__ or any(hasattr(m, name) for m in modules)
)
print(json.dumps(facts))
"""


def test_dir_lists_the_checker_names():
    import mzv

    # the checker names are read on access, never bound in the module, yet listed
    lazy = {name for names in _CHECKER_NAMES.values() for name in names}
    assert lazy <= set(dir(mzv)) - set(vars(mzv))
    assert set(mzv.__all__) <= set(dir(mzv))


def test_eval_and_dual_start_without_the_checker_layers():
    import mzv

    proc = subprocess.run(
        [sys.executable, "-c", _START_UP, json.dumps(_CHECKER_NAMES), json.dumps(_REMOVED_NAMES)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mzv.__file__))},
    )
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts == {
        "engine_caches": {"mzv.indices": 2, "mzv.series": 8},
        "after_caches": [],
        "all_caches": {"mzv.indices": 2, "mzv.series": 8, "mzv.identities": 1, "mzv.quadrature": 3, "mzv.reference": 2},
        "codes": [0, 0, 0],
        "engine_only": [],
        "after_verify": ["identities", "quadrature", "report", "rng"],
        "unresolved": [],
        "not_in_dir": [],
        "not_starred": [],
        "nope": "module 'mzv' has no attribute 'nope'",
        "removed_present": [],
    }


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["verify", "nope"],
            "mzv verify: error: argument identity: invalid choice: 'nope' (choose from 'cor15', 'duality', "
            "'eq12', 'eq24', 'ohno', 'restricted_sum', 'section4', 'sum_formula', 'theorem1', 'theorem3')",
        ),
        (
            ["fuzz", "--identity", "nope"],
            "mzv fuzz: error: argument --identity: invalid choice: 'nope' (choose from 'cor15', 'duality', "
            "'eq12', 'eq24', 'ohno', 'restricted_sum', 'section4', 'sum_formula', 'theorem1', 'theorem3')",
        ),
        (
            ["quad", "nope"],
            "mzv quad: error: argument form: invalid choice: 'nope' (choose from 'anchor', 'blocks', 'ones', "
            "'threeway', 'trunc', 'zeta2')",
        ),
    ],
)
def test_an_unknown_registry_name_is_refused_with_every_choice(capsys, argv, line):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == line


@pytest.mark.parametrize("verb, names", [("verify", IDENTITIES), ("fuzz", IDENTITIES), ("quad", QUAD_CHECKS)])
def test_help_lists_every_registry_name(capsys, verb, names):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "one of " in help_text and set(names) <= set(re.split(r"[\s,]+", help_text))


# ---------------------------------------------------------------------------
# one path per job: verify, quad, fuzz and suite read the same registry


def _flags(params: dict) -> list[str]:
    out = []
    for name, value in params.items():
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        out += [f"--{name}", text]
    return out


@pytest.mark.parametrize("identity", sorted(IDENTITIES))
def test_verify_record_equals_the_grid_record(capsys, identity):
    params = IDENTITIES[identity].grid({})[0]
    code, out = run_main("verify", identity, *_flags(params), "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    expected = json.loads(json.dumps(IDENTITIES[identity].check(acc=DEFAULT_ACCURACY, **params).as_dict()))
    (record,) = report["checks"]
    assert record["source"] == "points" and {k: v for k, v in record.items() if k != "source"} == expected
    # the echoed config is a one-point suite config, and re-running it gives the same records
    assert report["config"]["checks"] == [{"identity": identity, "points": [params]}]
    assert report["checks"] == json.loads(json.dumps(run_suite(report["config"])["checks"]))


@pytest.mark.parametrize("form", sorted(QUAD_CHECKS))
def test_quad_flags_record_equals_the_one_point_grid_record(capsys, form):
    check, grid, _ = QUAD_CHECKS[form]
    params = grid({})[0]
    assert set(params) == set(check_params(check)[0])
    code, out = run_main("quad", form, *_flags(params), "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    # every flag makes a one-point `points` entry, none the default grid
    entry = {"quad": form, "points": [params]} if params else {"quad": form}
    config = {"accuracy": 1e-9, "checks": [entry]}
    assert report["config"] == validate_config(config)
    assert report["checks"] == json.loads(json.dumps(run_suite(config)["checks"]))
    one_point_grid = {"accuracy": 1e-9, "checks": [{"quad": form, "grid": {k: [v] for k, v in params.items()}}]}
    (grid_record,) = json.loads(json.dumps(run_suite(one_point_grid)["checks"]))
    assert [dict(r, source="grid") for r in report["checks"]] == [grid_record]


# each quad form over its default grid and at its grid's first point (anchor
# and zeta2 have no parameter, so their point is their grid), two fuzz runs,
# and verify at two points, the second with list-valued flags
_ECHO_CASES = {
    **{f"quad-{form}": ("quad", form) for form in sorted(QUAD_CHECKS)},
    **{
        f"quad-{form}-point": ("quad", form, *_flags(grid({})[0]))
        for form, (_, grid, _) in sorted(QUAD_CHECKS.items())
        if grid({})[0]
    },
    "fuzz-theorem1": ("fuzz", "--identity", "theorem1", "--seed", "42", "--count", "3"),
    "fuzz-eq24": (
        "fuzz", "--identity", "eq24", "--seed", "5", "--count", "2", "--ranges", '{"n": [1, 2]}', "--acc", "1e-7"
    ),
    "verify-theorem1": ("verify", "theorem1", "--p", "1", "--q", "1", "--r", "1", "--a", "0", "--m", "0"),
    "verify-eq24": ("verify", "eq24", "--pvec", "1,2", "--qvec", "2,1"),
}


@pytest.mark.parametrize("argv", list(_ECHO_CASES.values()), ids=list(_ECHO_CASES))
def test_fuzz_and_quad_echo_a_config_that_reruns(capsys, argv):
    # `mzv fuzz`, `mzv quad` and `mzv verify` run a one-entry suite: the
    # echoed config is a validated suite config, and running it gives the
    # same records; parameter flags make a `points` entry
    code, out = run_main(*argv, "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    assert validate_config(report["config"]) == report["config"]
    assert report["checks"] == json.loads(json.dumps(run_suite(report["config"])["checks"]))
    source = "fuzz" if argv[0] == "fuzz" else "points" if any(a.startswith("--") for a in argv) else "grid"
    assert {r["source"] for r in report["checks"]} == {source}


@pytest.mark.parametrize(
    "argv,named",
    [
        # used to pass 1/1, exit 0 and echo accuracy: -1
        (("quad", "anchor", "--acc", "-1"), "--acc must be finite and > 0.0, got -1.0"),
        # each used to run the check, then refuse the report as not strict JSON
        (("quad", "anchor", "--acc", "inf"), "--acc must be finite and > 0.0, got inf"),
        (("quad", "ones", "--m", "0", "--n", "0", "--acc", "nan"), "--acc must be finite and > 0.0, got nan"),
        # each used to be refused only after every side was evaluated
        (("verify", "duality", "--index", "(2)", "--tolerance", "-1"), "--tolerance must be finite and > 0.0"),
        (("quad", "ones", "--tolerance", "nan"), "--tolerance must be finite and > 0.0, got nan"),
        (("fuzz", "--identity", "eq12", "--count", "2", "--tolerance", "0"), "--tolerance must be finite and > 0.0"),
        (("fuzz", "--identity", "eq12", "--count", "2", "--acc=-inf"), "--acc must be finite and > 0.0"),
        (("verify", "eq12", "--p", "1", "--q", "1", "--m", "0", "--acc", "0"), "--acc must be finite and > 0.0"),
        # the upper bound a suite config has: verify and eval used to run at
        # these, and fuzz and quad refused them naming the config key
        (("verify", "duality", "--index", "(2)", "--acc", "2"), "--acc must be in (0, 1], got 2.0"),
        (("eval", "(2)", "--acc", "2"), "--acc must be in (0, 1], got 2.0"),
        (("quad", "anchor", "--acc", "2"), "--acc must be in (0, 1], got 2.0"),
        (("fuzz", "--identity", "eq12", "--count", "2", "--tolerance", "1.5"), "--tolerance must be in (0, 1], got 1.5"),
    ],
    ids=[
        "quad-acc-negative", "quad-acc-inf", "quad-acc-nan", "verify-tolerance-negative", "quad-tolerance-nan",
        "fuzz-tolerance-zero", "fuzz-acc-negative-inf", "verify-acc-zero", "verify-acc-above-one",
        "eval-acc-above-one", "quad-acc-above-one", "fuzz-tolerance-above-one",
    ],
)
def test_acc_and_tolerance_are_checked_before_any_check_runs(monkeypatch, capsys, argv, named):
    def evaluated(*args, **kwargs):
        raise AssertionError("a side was evaluated")

    monkeypatch.setattr("mzv.series._evaluate_cached", evaluated)
    monkeypatch.setattr("mzv.quadrature.triangle_quadrature", evaluated)
    code, out = run_main(*argv, "--json", capsys=capsys)
    assert code == 2 and out.out == ""
    (line,) = out.err.splitlines()
    assert line.startswith("error: ") and named in line


def test_huge_threeway_weight_raises_no_runtime_warning(tmp_path, capsys):
    import warnings

    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": [{"quad": "threeway", "grid": {"p": [0], "q": [0], "r": [0], "m": [1e308]}}]}))
    with warnings.catch_warnings():
        # `(1-t1)^m`'s exponent used to overflow with a RuntimeWarning before
        # the integer weight was refused
        warnings.simplefilter("error", RuntimeWarning)
        clear_caches()
        code, out = run_main("quad", "threeway", "--p", "0", "--q", "0", "--r", "0", "--m", "1e308", capsys=capsys)
        assert code == 2 and out.out == ""
        assert out.err == "error: m must be <= 12, got an integer of 309 digits\n"
        # a config's integral float weight is taken as an int too, and refused
        # alike (it used to run the three integrals alone, and pass)
        clear_caches()
        code, out = run_main("suite", "--config", str(path), capsys=capsys)
        assert code == 2 and out.out == ""
        assert out.err == "error: m must be <= 12, got an integer of 309 digits\n"


def test_a_config_takes_an_integral_threeway_weight_as_the_cli_does(tmp_path, capsys):
    # a config kept m = 1.0 a real weight, and ran the three integrals alone
    path = tmp_path / "suite.json"
    runs = {}
    for m in (1, 1.0, 13.0):
        path.write_text(json.dumps({"checks": [{"quad": "threeway", "grid": {"p": [0], "q": [1], "r": [0], "m": [m]}}]}))
        code, out = run_main("suite", "--config", str(path), "--json", capsys=capsys)
        runs[m] = code, out.out and json.loads(out.out), out.err
    (code, one, _), (code_float, one_float, _) = runs[1], runs[1.0]
    assert code == code_float == 0 and one["checks"] == one_float["checks"]
    assert one_float["checks"][0]["params"]["m"] == 1 and len(one_float["checks"][0]["sides"]) == 6
    code, out = run_main("quad", "threeway", "--p", "0", "--q", "1", "--r", "0", "--m", "13", capsys=capsys)
    assert runs[13.0] == (code, "", out.err) == (2, "", "error: m must be <= 12, got 13\n")


@pytest.mark.parametrize("m", ["13", "1e308"])
def test_threeway_refuses_a_series_bound_before_any_integral(monkeypatch, capsys, m):
    # the three integrals, 2.5-12 ms cold, used to run before theorem3 refused m
    from mzv import quadrature

    integrals = []
    quadrature_ = quadrature.triangle_quadrature

    def counted(*args, **kwargs):
        integrals.append(quadrature_(*args, **kwargs))
        return integrals[-1]

    monkeypatch.setattr(quadrature, "triangle_quadrature", counted)
    code, out = run_main("quad", "threeway", "--p", "0", "--q", "0", "--r", "0", "--m", m, capsys=capsys)
    assert code == 2 and out.out == ""
    assert out.err.startswith("error: m must be <= 12, got ")
    assert integrals == []
    code, out = run_main("quad", "threeway", "--p", "0", "--q", "0", "--r", "0", "--m", "12", "--json", capsys=capsys)
    assert code == 0 and len(integrals) == 3
    sides = json.loads(out.out)["checks"][0]["sides"]
    assert len(sides) == 6 and [side["value"] for side in sides[:3]] == [i.value for i in integrals]


def test_quad_rejects_a_non_integer_m_where_the_form_needs_one(capsys):
    # used to run m=1 and echo m: 1.5, exit 0
    code, out = run_main("quad", "ones", "--m", "1.5", "--n", "0", "--json", capsys=capsys)
    assert code == 2
    assert "m must be an integer, got 1.5" in out.err
    assert out.out == ""
    # threeway's weight parameter is real, so 1.5 reaches it unchanged
    code, out = run_main("quad", "threeway", "--p", "0", "--q", "0", "--r", "0", "--m", "1.5", "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out.out)
    assert report["config"]["checks"][0]["points"] == [{"p": 0, "q": 0, "r": 0, "m": 1.5}]
    assert report["checks"][0]["params"]["m"] == 1.5


@pytest.mark.parametrize(
    "argv",
    [
        # 45,451 evaluations: was still running after 30 s
        ("verify", "ohno", "--index", "(1,1,2)", "--m", "300"),
        # C(32, 12) = 2.3e8 compositions would be enumerated first
        ("verify", "eq12", "--p", "13", "--q", "1", "--m", "20"),
        # 13 * C(16, 3) = 7,280: section4's p - 1 sums share the limit
        ("fuzz", "--identity", "section4", "--count", "1", "--ranges", '{"m": [3, 3], "p": [14, 14]}'),
        ("fuzz", "--identity", "eq12", "--count", "1", "--ranges", '{"p": [13, 13], "q": [1, 1], "m": [20, 20]}'),
    ],
)
def test_composition_sums_past_the_limit_exit_2(capsys, argv):
    code, out = run_main(*argv, "--json", capsys=capsys)
    assert code == 2
    assert "more than 4096 series evaluations" in out.err
    assert out.out == ""


def test_composition_deeper_than_a_spec_exits_2(capsys):
    # the enumeration's recursion used to raise RecursionError, a traceback with exit 1
    code, out = run_main("verify", "eq12", "--p", "2000", "--q", "1", "--m", "0", capsys=capsys)
    assert code == 2
    assert "p must be <= 13, got 2000" in out.err


@pytest.mark.parametrize(
    "entry",
    [
        {"identity": "ohno", "grid": {"indices": ["(1,1,2)"], "m": [300]}},
        {"identity": "eq12", "grid": {"p": [13], "q": [1], "m": [20]}},
        {"identity": "section4", "fuzz": {"seed": 1, "count": 1, "ranges": {"m": [3, 3], "p": [14, 14]}}},
    ],
)
def test_suite_composition_sums_past_the_limit_exit_2(tmp_path, capsys, entry):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": [entry]}))
    code, out = run_main("suite", "--config", str(path), capsys=capsys)
    assert code == 2
    assert "more than 4096 series evaluations" in out.err


def test_weights_past_the_limit_exit_2(tmp_path, capsys):
    # 2^28 indices would be built on every draw
    code, out = run_main("fuzz", "--identity", "duality", "--ranges", '{"weight": [30, 30]}', capsys=capsys)
    assert code == 2 and "may not exceed 14" in out.err and out.out == ""
    for entry, message in (
        ({"identity": "duality", "grid": {"max_weight": 30}}, "admissible indices"),
        ({"identity": "ohno", "fuzz": {"seed": 1, "count": 1, "ranges": {"weight": [3, 15]}}}, "may not exceed 14"),
    ):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"checks": [entry]}))
        code, out = run_main("suite", "--config", str(path), capsys=capsys)
        assert code == 2 and message in out.err


@pytest.mark.parametrize(
    "doc",
    [
        {"factors": [5]},
        {"factors": [[{"kind": "shifted-power", "exponent": 2}]]},
        # the retired key is read only as the null earlier versions wrote
        {"factors": [[{"kind": "shifted-power", "shift": 0, "exponent": 2}]], "tail_log_power": 0},
        {"factors": [[{"kind": "shifted-power", "shift": 0, "exponent": 2}]], "tail_log_power": 13},
    ],
)
def test_eval_malformed_spec_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out = run_main("eval", "--spec", str(path), capsys=capsys)
    assert code == 2 and out.out == "" and "Traceback" not in out.err


@pytest.mark.parametrize("argv, what", [(("eval", "--spec"), "spec"), (("suite", "--config"), "config")])
def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys, argv, what):
    # a file starting with the bytes ff fe used to end in a UnicodeDecodeError traceback, exit 1
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out = run_main(*argv, str(path), capsys=capsys)
    assert code == 2 and out.out == ""
    (line,) = out.err.splitlines()
    assert line.startswith(f"error: cannot read {what} {str(path)!r}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("where", ["eval", "suite", "fuzz"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, where):
    # a 5,000-deep array used to raise RecursionError in the JSON parser, and
    # an integer literal past Python's 4,300 digits a plain ValueError: exit 1
    for text in ("[" * 5000 + "]" * 5000, '{"weight": [' + "1" * 5000 + "]}"):
        path = tmp_path / "doc.json"
        path.write_text(text)
        argv = {
            "eval": ("eval", "--spec", str(path)),
            "suite": ("suite", "--config", str(path)),
            "fuzz": ("fuzz", "--identity", "duality", "--ranges", text),
        }[where]
        code, out = run_main(*argv, capsys=capsys)
        assert code == 2 and out.out == ""
        assert "is not valid JSON" in out.err
        assert out.err.count("error:") == 1 and "Traceback" not in out.err


def test_huge_shift_is_a_failed_record_not_a_crash(capsys):
    # 64 * 1e308 overflowed to infinity, and the scan length's `ceil` raised
    # OverflowError: a traceback and exit 1
    code, out = run_main("verify", "eq24", "--pvec", "1", "--qvec", "1", "--a", "1e308", "--json", capsys=capsys)
    assert code == 1 and out.err == ""
    check = json.loads(out.out)["checks"][0]
    assert not check["pass"]
    assert all(side["flags"] == ["cutoff-exhausted"] and side["cutoff"] == 1 << 24 for side in check["sides"])


def test_fuzz_count_past_the_limit_exits_2_at_once(tmp_path, capsys):
    # 100,000,000 draws used to run until killed, from the CLI and from a suite config
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": [{"identity": "duality", "fuzz": {"seed": 1, "count": 100_000_000}}]}))
    started = time.perf_counter()
    code, out = run_main("suite", "--config", str(path), capsys=capsys)
    assert code == 2 and out.out == ""
    assert "checks[0].fuzz.count must be <= 4096, got 100000000" in out.err
    code, out = run_main("fuzz", "--identity", "duality", "--count", "100000000", capsys=capsys)
    assert code == 2 and out.out == ""
    assert "--count must be <= 4096, got 100000000" in out.err
    assert time.perf_counter() - started < 1.0
    code, out = run_main("fuzz", "--identity", "duality", "--count", "-1", capsys=capsys)
    assert code == 2 and "--count must be >= 0, got -1" in out.err
    for count in (-1, 4097, 1.5, True):
        with pytest.raises(ConfigError, match=r"checks\[0\]\.fuzz\.count must be"):
            validate_config({"checks": [{"identity": "duality", "fuzz": {"count": count}}]})
    validate_config({"checks": [{"identity": "duality", "fuzz": {"count": 4096}}]})
    with pytest.raises(ConfigError, match=r"checks\[0\]\.fuzz\.count must be <= 4096"):
        run_suite({"checks": [{"identity": "duality", "fuzz": {"seed": 1, "count": 4097}}]})


def test_suite_grid_past_the_limit_exits_2_at_once(tmp_path, capsys):
    # 20^5 = 3,200,000 point dicts used to be built (3.5 s, 644 MB) before the first check
    grid = {key: list(range(1, 21)) for key in ("p", "q", "r", "a", "m")}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": [{"identity": "theorem1", "grid": grid}]}))
    started = time.perf_counter()
    code, out = run_main("suite", "--config", str(path), capsys=capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and "3200000 points, more than 4096" in out.err


def test_verify_accuracy_split_past_the_limit_exits_2_at_once(capsys):
    # 2^13 terms: every evaluation would run to max_cutoff (m = 12 took 8.6 s cold)
    started = time.perf_counter()
    code, out = run_main("verify", "theorem3", "--p", "1", "--q", "0", "--r", "1", "--m", "12", capsys=capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and "splits its accuracy over 8192 terms" in out.err and out.out == ""


def test_suite_refuses_a_late_grid_before_any_entry_runs(tmp_path, capsys, monkeypatch):
    # the duality grid used to run (and its records were lost) before the
    # theorem1 grid of 20^5 points was refused
    import mzv.series

    def no_evaluation(*args):
        raise AssertionError("a series was evaluated")

    monkeypatch.setattr(mzv.series, "_evaluate_cached", no_evaluation)
    grid = {key: list(range(1, 21)) for key in ("p", "q", "r", "a", "m")}
    checks = [{"identity": "duality", "grid": {"max_weight": 8}}, {"identity": "theorem1", "grid": grid}]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": checks}))
    started = time.perf_counter()
    code, out = run_main("suite", "--config", str(path), "--out", str(tmp_path / "r.json"), capsys=capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and "checks[1].grid: the grid has 3200000 points, more than 4096" in out.err
    assert not (tmp_path / "r.json").exists()


def test_suite_records_a_non_finite_check_as_failed(tmp_path, capsys, monkeypatch):
    import mzv.series
    from mzv.indices import MzvIndex

    real = mzv.series._evaluate_cached
    poisoned = mzv.series.mzv_spec(MzvIndex((1, 2)))

    def evaluate(spec, target):
        res = real(spec, target)
        return mzv.series.EvalResult(float("nan"), res.tail_bound, res.cutoff, res.mode) if spec == poisoned else res

    monkeypatch.setattr(mzv.series, "_evaluate_cached", evaluate)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"checks": [{"identity": "duality", "grid": {"indices": ["(2)", "(1,2)", "(2,2)"]}}]}))
    out_path = tmp_path / "r.json"
    code, out = run_main("suite", "--config", str(path), "--json", "--out", str(out_path), capsys=capsys)
    assert code == 1
    report = json.loads(out_path.read_text(), parse_constant=lambda c: pytest.fail(f"non-strict {c}"))
    assert json.loads(out.out) == report
    passed = {c["params"]["index"]: c["pass"] for c in report["checks"]}
    assert passed == {"(2)": True, "(1,2)": False, "(2,2)": True}
    bad = report["checks"][1]
    assert bad["sides"][0]["value"] is None and bad["abs_diff"] is None
    assert bad["details"]["failure"] == "non-finite sides[0].value, abs_diff, tolerance"
    assert report["summary"]["failed"] == 1
    # no number bounds a NaN difference, so the summary claims none
    assert report["summary"]["max_abs_diff"] is None
    assert "max |diff| = nan," in render_table(report).splitlines()[-1]


def test_a_non_finite_number_in_a_details_dict_fails_the_record():
    from mzv.identities import make_check
    from mzv.report import _strict

    # the sides agree, so only the walk into the details dict can find the NaN
    details = {"sub": {"S_1": float("nan"), "S_2": 1.0}, "terms": 2}
    check = make_check("t", {}, ([(1.0, 2, 0.0)], [(1.0, 2, 0.0)]), None, details)
    assert check.passed
    record = _strict(check.as_dict())
    assert record["pass"] is False
    assert record["details"] == {"sub": {"S_1": None, "S_2": 1.0}, "terms": 2, "failure": "non-finite details.sub.S_1"}
    json.dumps(record, allow_nan=False)  # strict JSON
