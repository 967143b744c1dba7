"""Verification suites and machine-readable reports.

A suite config is a JSON object selecting identity grids, seeded fuzz runs,
and quadrature consistency families.  The runner produces one versioned
report dict ("schema": 1) whose `checks` list carries the full audit trail:
every check includes its achieved tail budget next to the tolerance, so a
near-threshold pass can be inspected rather than trusted.

Re-running a suite with the same config reproduces the same parameter
sequences and verdicts; only the timing fields move.
"""

from __future__ import annotations

import json
import time
from importlib import resources
from math import isfinite
from typing import Any

from . import __version__
from .errors import ConfigError, MzvError, PreconditionError, check_int, check_real, shown
from .identities import DEFAULT_ACCURACY, IDENTITIES, check_fuzz_count, check_ranges
from .quadrature import QUAD_CHECKS
from .rng import XorShift64Star

__all__ = [
    "SCHEMA_VERSION",
    "default_config",
    "load_config",
    "parse_json",
    "validate_config",
    "report_from_records",
    "run_suite",
    "render_table",
]

SCHEMA_VERSION = 1


def default_config() -> dict:
    """The packaged default suite: the full numeric acceptance grid."""
    text = resources.files("mzv.data").joinpath("acceptance.json").read_text()
    return json.loads(text)


def parse_json(text: str, error: type[MzvError], what: str) -> Any:
    """`json.loads(text)`, raising `error` for text the parser refuses:
    malformed JSON or an integer literal past Python's digit limit (both
    `ValueError`), or nesting too deep for it (`RecursionError`)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None


def load_config(path: str | None) -> dict:
    if path is None:
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_json(text, ConfigError, f"config {path!r}")


def _check_accuracy(value: Any, where: str) -> float:
    v = float(check_real(value, where, 0.0, strict=True, error=ConfigError))
    if v > 1.0:
        raise ConfigError(f"{where} must be in (0, 1], got {shown(value)}")
    return v


def validate_config(config: Any) -> dict:
    """Normalize and validate a suite config, raising ConfigError on any
    unknown key or out-of-range value (typos should fail loudly, not skew a
    verification run)."""
    return _validated(config)[0]


def _validated(config: Any) -> tuple[dict, list[list[dict]]]:
    """`validate_config`'s dict, and per check entry the points its grid
    expands to or its seed draws, which are the points the run executes."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - {"schema", "accuracy", "tolerance", "parallelism", "checks"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "schema" in config and config["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema {shown(config['schema'])}")

    out: dict = {"schema": SCHEMA_VERSION}
    out["accuracy"] = _check_accuracy(config.get("accuracy", DEFAULT_ACCURACY), "accuracy")
    tol = config.get("tolerance")
    out["tolerance"] = None if tol is None else _check_accuracy(tol, "tolerance")
    # retired: every entry runs serially, the one value a config may still name
    par = config.get("parallelism", 1)
    if type(par) is not int or par != 1:
        raise ConfigError(f"parallelism is retired: only 1 is accepted, got {shown(par)}")

    checks = config.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("checks must be a list")
    norm_checks = []
    entry_points: list[list[dict]] = []
    for pos, entry in enumerate(checks):
        where = f"checks[{pos}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where} must be an object")
        unknown = set(entry) - {"identity", "quad", "grid", "fuzz", "accuracy", "tolerance"}
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        has_id = "identity" in entry
        if has_id == ("quad" in entry):
            raise ConfigError(f"{where}: need exactly one of 'identity' or 'quad'")
        norm: dict = {}
        if has_id:
            name = entry["identity"]
            if name not in IDENTITIES:
                raise ConfigError(f"{where}: unknown identity {shown(name)} (known: {sorted(IDENTITIES)})")
            norm["identity"] = name
        else:
            name = entry["quad"]
            if name not in QUAD_CHECKS:
                raise ConfigError(f"{where}: unknown quad form {shown(name)} (known: {sorted(QUAD_CHECKS)})")
            norm["quad"] = name
            if "fuzz" in entry:
                raise ConfigError(f"{where}: quad entries take a grid, not fuzz")
        if "grid" in entry and "fuzz" in entry:
            raise ConfigError(f"{where}: 'grid' and 'fuzz' are exclusive")
        if "fuzz" in entry:
            fuzz = entry["fuzz"]
            if not isinstance(fuzz, dict):
                raise ConfigError(f"{where}.fuzz must be an object")
            bad = set(fuzz) - {"seed", "count", "ranges"}
            if bad:
                raise ConfigError(f"{where}.fuzz: unknown keys {sorted(bad)}")
            seed = check_int(fuzz.get("seed", 0), f"{where}.fuzz.seed", None, error=ConfigError)
            count = fuzz.get("count", 10)
            try:
                check_fuzz_count(count)
            except PreconditionError as exc:
                raise ConfigError(f"{where}.fuzz.{exc}") from None
            ranges = fuzz.get("ranges", {})
            try:
                check_ranges(name, ranges)
            except PreconditionError as exc:
                raise ConfigError(f"{where}.fuzz.ranges: {exc}") from None
            norm["fuzz"] = {"seed": seed, "count": count, "ranges": ranges}
            # drawn here, as a grid is expanded below
            rng = XorShift64Star(seed)
            points = [IDENTITIES[name].draw(rng, ranges) for _ in range(count)]
        else:
            grid = entry.get("grid", {})
            if not isinstance(grid, dict):
                raise ConfigError(f"{where}.grid must be an object")
            norm["grid"] = grid
            # expanded once, here: no entry runs (and no record is lost)
            # before a later grid is refused, and the run executes these points
            expand = IDENTITIES[name].grid if has_id else QUAD_CHECKS[name][1]
            try:
                points = expand(dict(grid))
            except PreconditionError as exc:
                raise ConfigError(f"{where}.grid: {exc}") from None
            # a filter (`cor15`'s m + p >= r + 1, `sum_formula`'s 1 <= p < m) may drop every point
            if not points:
                raise ConfigError(f"{where}.grid: no point of the grid meets the identity's conditions")
        if "accuracy" in entry:
            norm["accuracy"] = _check_accuracy(entry["accuracy"], f"{where}.accuracy")
        if "tolerance" in entry:
            etol = entry["tolerance"]
            norm["tolerance"] = None if etol is None else _check_accuracy(etol, f"{where}.tolerance")
        norm_checks.append(norm)
        entry_points.append(points)
    out["checks"] = norm_checks
    return out, entry_points


def _finite(value: Any) -> bool:
    if isinstance(value, float):
        return isfinite(value)
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return True
    return all(map(_finite, value))


def _non_finite(value: Any, path: str) -> tuple[Any, list[str]]:
    """`value` with every infinite or NaN float replaced by None, and the
    paths of those floats."""
    if isinstance(value, float):
        return (value, []) if isfinite(value) else (None, [path])
    if isinstance(value, dict):
        items = [(k, *_non_finite(v, f"{path}.{k}" if path else str(k))) for k, v in value.items()]
        return {k: v for k, v, _ in items}, [p for _, _, ps in items for p in ps]
    if isinstance(value, list):
        items = [_non_finite(v, f"{path}[{i}]") for i, v in enumerate(value)]
        return [v for v, _ in items], [p for _, ps in items for p in ps]
    return value, []


def _strict(record: dict) -> dict:
    """A record whose numbers are all finite; a check with a non-finite
    value, difference or bound has failed, and says where."""
    numbers = record["abs_diff"] + record["tolerance"] + record["tail_budget"]
    numbers += sum(side["value"] + side["tail_bound"] for side in record["sides"])
    if isfinite(numbers) and _finite(record["details"]):
        return record  # the common case, without walking the whole record
    clean, paths = _non_finite(record, "")
    if paths:
        clean["pass"] = False
        clean["details"] = {**clean.get("details", {}), "failure": "non-finite " + ", ".join(paths)}
    return clean


def report_from_records(records: list[dict], config_echo: dict, started: float, seeds: list[int] | None = None) -> dict:
    """Assemble the versioned report envelope around finished check records.
    The report is strict JSON: a record with an infinite or NaN number fails
    and carries null in its place (see `_strict`)."""
    records = [_strict(r) for r in records]
    diffs = [r["abs_diff"] for r in records]
    passed = sum(1 for r in records if r["pass"])
    report = {
        "schema": SCHEMA_VERSION,
        "tool": "mzv",
        "version": __version__,
        "config": config_echo,
        "checks": records,
        "summary": {
            "total": len(records),
            "passed": passed,
            "failed": len(records) - passed,
            # null when a difference is, as no number bounds it
            "max_abs_diff": None if None in diffs else max(diffs, default=0.0),
            "runtime_seconds": round(time.time() - started, 3),
        },
    }
    if seeds:
        report["seeds"] = seeds
    return report


def run_suite(config: dict | None = None) -> dict:
    """Run a validated (or default) suite config; returns the report dict."""
    cfg, entry_points = _validated(config if config is not None else default_config())
    started = time.time()
    records = []
    seeds = []
    for entry, points in zip(cfg["checks"], entry_points):
        acc = entry.get("accuracy", cfg["accuracy"])
        tol = entry.get("tolerance", cfg["tolerance"])
        if "fuzz" in entry:
            seeds.append(entry["fuzz"]["seed"])
        # looked up when the entry runs, so a registry entry replaced
        # after import (a tracer's wrapper, say) is the one called
        check = QUAD_CHECKS[entry["quad"]][0] if "quad" in entry else IDENTITIES[entry["identity"]].check
        for params in points:
            record = check(acc=acc, tolerance=tol, **params).as_dict()
            record["source"] = "fuzz" if "fuzz" in entry else "grid"
            records.append(record)
    return report_from_records(records, cfg, started, seeds)


def render_table(report: dict) -> str:
    """Human-readable view of a report (same record, different formatting)."""
    lines = []
    for rec in report["checks"]:
        params = ", ".join(f"{k}={v}" for k, v in rec["params"].items()) or "-"
        status = "pass" if rec["pass"] else "FAIL"
        diff, tol = (float("nan") if v is None else v for v in (rec["abs_diff"], rec["tolerance"]))
        lines.append(f"{status}  {rec['identity']:16s} {params:40s} diff={diff:.3e} tol={tol:.3e}")
    s = report["summary"]
    top = float("nan") if s["max_abs_diff"] is None else s["max_abs_diff"]
    lines.append(
        f"{s['passed']}/{s['total']} passed, max |diff| = {top:.3e}, "
        f"{s['runtime_seconds']:.1f}s"
    )
    return "\n".join(lines)
