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
from .errors import ConfigError, MzvError, check_accuracy, check_int, check_keys, read_json, shown
from .identities import DEFAULT_ACCURACY, IDENTITIES, MAX_TERMS, check_params, check_ranges
from .quadrature import QUAD_CHECKS
from .rng import XorShift64Star

__all__ = [
    "SCHEMA_VERSION",
    "default_config",
    "load_config",
    "validate_config",
    "run_suite",
    "render_table",
]

SCHEMA_VERSION = 1


def default_config() -> dict:
    """The packaged default suite: the full numeric acceptance grid."""
    text = resources.files("mzv.data").joinpath("acceptance.json").read_text()
    return json.loads(text)


def load_config(path: str | None) -> dict:
    if path is None:
        return default_config()
    return read_json(path, ConfigError, f"config {path!r}")


_CONFIG_KEYS = frozenset({"schema", "accuracy", "tolerance", "parallelism", "checks"})
_ENTRY_KEYS = frozenset({"identity", "quad", "grid", "fuzz", "points", "accuracy", "tolerance"})
# each kind of check entry: its key, the name of its members, its registry
_KINDS = {"identity": ("identity", IDENTITIES), "quad": ("quad form", QUAD_CHECKS)}


def validate_config(config: Any) -> dict:
    """Normalize and validate a suite config, raising ConfigError on any
    unknown key or out-of-range value (typos should fail loudly, not skew a
    verification run)."""
    return _validated(config)[0]


def _validated(config: Any) -> tuple[dict, list[list[dict]]]:
    """`validate_config`'s dict, and per check entry the points its grid
    expands to, its seed draws or it lists: the points the run executes."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    check_keys(config, _CONFIG_KEYS, "unknown config keys:", ConfigError, listed=False)
    # the integer 1: True and 1.0 compare equal to it
    schema = config.get("schema", SCHEMA_VERSION)
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema {shown(schema)}")

    out: dict = {"schema": SCHEMA_VERSION}
    out["accuracy"] = check_accuracy(config.get("accuracy", DEFAULT_ACCURACY), "accuracy", ConfigError)
    tol = config.get("tolerance")
    out["tolerance"] = None if tol is None else check_accuracy(tol, "tolerance", ConfigError)
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
        check_keys(entry, _ENTRY_KEYS, f"{where}: unknown keys", ConfigError, listed=False)
        kinds = entry.keys() & _KINDS
        if len(kinds) != 1:
            raise ConfigError(f"{where}: need exactly one of 'identity' or 'quad'")
        (kind,) = kinds
        what, registry = _KINDS[kind]
        name = entry[kind]
        if not isinstance(name, str) or name not in registry:  # a list or an object is no name, and unhashable
            raise ConfigError(f"{where}: unknown {what} {shown(name)} (known: {sorted(registry)})")
        norm: dict = {kind: name}
        check, expand, draw = registry[name]
        sources = [key for key in ("grid", "fuzz", "points") if key in entry]
        if len(sources) > 1:
            raise ConfigError(f"{where}: {sources[0]!r} and {sources[-1]!r} are exclusive")
        if "points" in entry:
            # as given: each point's keys are the checker's parameters, its values the checker's to refuse
            points = norm["points"] = entry["points"]
            if not isinstance(points, list) or not 0 < len(points) <= MAX_TERMS:
                raise ConfigError(f"{where}.points must be a list of 1 to {MAX_TERMS} points")
            names, required = check_params(check)
            for j, point in enumerate(points):
                if not isinstance(point, dict):
                    raise ConfigError(f"{where}.points[{j}] must be an object")
                check_keys(point, names, f"{where}.points[{j}]: unknown keys", ConfigError)
                if missing := [key for key in required if key not in point]:
                    raise ConfigError(f"{where}.points[{j}]: missing required keys {missing}")
        elif "fuzz" in entry:
            fuzz = entry["fuzz"]
            if not isinstance(fuzz, dict):
                raise ConfigError(f"{where}.fuzz must be an object")
            check_keys(fuzz, ("seed", "count", "ranges"), f"{where}.fuzz: unknown keys", ConfigError, listed=False)
            seed = check_int(fuzz.get("seed", 0), f"{where}.fuzz.seed", None, error=ConfigError)
            count = check_int(fuzz.get("count", 10), f"{where}.fuzz.count", 0, MAX_TERMS, error=ConfigError)
            ranges = fuzz.get("ranges", {})
            try:
                check_ranges(draw, ranges)
            except MzvError as exc:
                raise ConfigError(f"{where}.fuzz.ranges: {exc}") from None
            # every draw of a checker without parameters is the one point {}
            if count != 1 and not check_params(check)[0]:
                raise ConfigError(f"{where}.fuzz.count must be 1 for {what} {name!r}, which takes no parameters, got {count}")
            norm["fuzz"] = {"seed": seed, "count": count, "ranges": ranges}
            # drawn here, as a grid is expanded below
            rng = XorShift64Star(seed)
            points = [draw(rng, ranges) for _ in range(count)]
        else:
            grid = entry.get("grid", {})
            if not isinstance(grid, dict):
                raise ConfigError(f"{where}.grid must be an object")
            norm["grid"] = grid
            # expanded once, here: no entry runs (and no record is lost)
            # before a later grid is refused, and the run executes these points
            try:
                points = expand(dict(grid))
            except MzvError as exc:  # a bad index text's `IndexParseError` or `InvalidSpecError` too
                raise ConfigError(f"{where}.grid: {exc}") from None
            # a filter (`cor15`'s m + p >= r + 1, `sum_formula`'s 1 <= p < m) may drop every point
            if not points:
                raise ConfigError(f"{where}.grid: no point of the grid meets the identity's conditions")
        if "accuracy" in entry:
            norm["accuracy"] = check_accuracy(entry["accuracy"], f"{where}.accuracy", ConfigError)
        if "tolerance" in entry:
            etol = entry["tolerance"]
            norm["tolerance"] = None if etol is None else check_accuracy(etol, f"{where}.tolerance", ConfigError)
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
    for side in record["sides"]:
        numbers += side["value"] + side["tail_bound"]
    if isfinite(numbers) and all(map(_finite, record["details"].values())):
        return record  # the common case, without walking the whole record
    clean, paths = _non_finite(record, "")
    if paths:
        clean["pass"] = False
        clean["details"] = {**clean.get("details", {}), "failure": "non-finite " + ", ".join(paths)}
    return clean


def run_suite(config: dict | None = None) -> dict:
    """Run a validated (or default) suite config; returns the versioned
    report dict.  The report is strict JSON: a record with an infinite or
    NaN number fails and carries null in its place (see `_strict`)."""
    cfg, entry_points = _validated(config if config is not None else default_config())
    started = time.time()
    records = []
    for entry, points in zip(cfg["checks"], entry_points):
        acc = entry.get("accuracy", cfg["accuracy"])
        tol = entry.get("tolerance", cfg["tolerance"])
        # a validated entry has exactly one of these keys, and one kind
        source = "fuzz" if "fuzz" in entry else "points" if "points" in entry else "grid"
        (kind,) = entry.keys() & _KINDS
        # looked up when the entry runs, so a registry entry replaced
        # after import (a tracer's wrapper, say) is the one called
        check = _KINDS[kind][1][entry[kind]][0]
        for params in points:
            record = check(acc=acc, tolerance=tol, **params).as_dict()
            record["source"] = source
            records.append(_strict(record))
    diffs = [r["abs_diff"] for r in records]
    passed = sum(1 for r in records if r["pass"])
    report = {
        "schema": SCHEMA_VERSION,
        "tool": "mzv",
        "version": __version__,
        "config": cfg,
        "checks": records,
        "summary": {
            "total": len(records),
            "passed": passed,
            "failed": len(records) - passed,
            # null when a difference is, as no number bounds it
            "max_abs_diff": None if None in diffs else max(diffs, default=0.0),
            # in milliseconds, without `round(seconds, 3)`'s decimal conversion
            "runtime_seconds": round((time.time() - started) * 1000) / 1000,
        },
    }
    seeds = [entry["fuzz"]["seed"] for entry in cfg["checks"] if "fuzz" in entry]
    if seeds:
        report["seeds"] = seeds
    return report


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
