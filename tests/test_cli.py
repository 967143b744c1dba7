"""CLI surface: verbs, exit codes, JSON reports, determinism."""

import json
import subprocess
import sys

import pytest

from mzv.cli import main
from mzv.errors import ConfigError
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
    with pytest.raises(ConfigError):
        validate_config({"checks": [{"identity": "duality", "quad": "ones"}]})
    with pytest.raises(ConfigError):
        validate_config({"checks": [{"quad": "ones", "fuzz": {"seed": 1}}]})
    with pytest.raises(ConfigError):
        validate_config({"checks": [{"identity": "duality", "grid": {}, "fuzz": {}}]})
    with pytest.raises(ConfigError):
        validate_config({"engine": {"nope": 1}})
    with pytest.raises(ConfigError):
        validate_config({"schema": 99})
    for engine in ({"start_cutoff": 4096, "max_cutoff": 4096}, {"start_cutoff": 1 << 24}, {"block_size": 8}):
        with pytest.raises(ConfigError, match="engine"):
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


def test_validate_config_accepts_every_declared_grid_key():
    from mzv.identities import IDENTITIES
    from mzv.quadrature import QUAD_CHECKS

    for name, info in IDENTITIES.items():
        validate_config({"checks": [{"identity": name, "grid": dict.fromkeys(info.grid_keys, [1])}]})
    for name, (_, _, keys) in QUAD_CHECKS.items():
        validate_config({"checks": [{"quad": name, "grid": dict.fromkeys(keys, [1])}]})
    for name, info in IDENTITIES.items():
        validate_config({"checks": [{"identity": name, "fuzz": {"ranges": dict.fromkeys(info.fuzz_keys, [1, 2])}}]})


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


def test_declared_keys_are_the_keys_read():
    from mzv.identities import IDENTITIES
    from mzv.quadrature import QUAD_CHECKS
    from mzv.rng import XorShift64Star

    for name, info in IDENTITIES.items():
        ranges = _KeyRecorder()
        info.draw(XorShift64Star(7), ranges)
        assert ranges.read == set(info.fuzz_keys), name
        ranges = _KeyRecorder()
        info.grid(ranges)
        assert ranges.read <= set(info.grid_keys), name
    for name, (_, grid, keys) in QUAD_CHECKS.items():
        ranges = _KeyRecorder()
        grid(ranges)
        assert ranges.read == set(keys), name


def test_quad_grids_expand_in_declared_key_order():
    from itertools import product

    from mzv.quadrature import QUAD_CHECKS

    _, grid, keys = QUAD_CHECKS["trunc"]
    assert keys == ("p", "q", "a", "r")
    ranges = {"p": [2, 1], "a": [0.5, -0.5], "r": [0, 3]}
    expected = [
        {"p": p, "q": q, "a": a, "r": r} for p, q, a, r in product([2, 1], [1, 2], [0.5, -0.5], [0, 3])
    ]
    assert grid(ranges) == expected
    assert [list(g) for g in grid({})][0] == ["p", "q", "a", "r"]
    assert len(grid({})) == 2 * 2 * 4 * 3


def test_suite_rejects_single_stage_engine(tmp_path, capsys):
    # one stage gave an infinite tail bound: `Infinity` in the report, or a
    # crash deriving the tolerance when it was null
    for tolerance in (1e-6, None):
        config = dict(MINI_SUITE, tolerance=tolerance, engine={"start_cutoff": 4096, "max_cutoff": 4096})
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        code, out = run_main("suite", "--config", str(path), "--json", capsys=capsys)
        assert code == 2
        assert "max_cutoff" in out.err
        assert out.out == ""


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
