"""Workload definitions and the seeded point generator.

A workload is a pool of single identity or quadrature checks (a family name
plus one parameter point).  `pool.json`, written by `make_pool.py`, holds
every candidate point with its cold cost at the commit that built it: the
number of kernel position-terms (depth x terms) the check scans with an
empty evaluation cache, a count that does not depend on the machine.

`draw()` turns a seed into the run's check list.  It sorts the pool by
cost, cuts it into as many consecutive cost strata as the run has checks,
and takes one point per stratum at random.  Every seed so gets the same
cost profile with different points, which keeps the run-to-run spread of
the totals and percentiles small while the seed still chooses the inputs.
The drawn points run in pool order, which is the order the packaged suite
runs them in: family by family, each in its grid order.  The order decides
which of two checks that share an evaluation pays for it, so a seeded
shuffle would move the median check time of zeta-mix, where about half the
checks are served whole from the evaluation cache.  A run of zeta-mix at
the benchmark's length takes its whole pool, so there the seed does not
change the inputs.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

POOL_PATH = Path(__file__).with_name("pool.json")

# Points whose cold cost is above this many kernel position-terms are left
# out of a workload's pool, so that a run of at least MIN_CHECKS checks fits
# in about 25 s with the pure-Python scan kernel on the 2-core reference
# machine (about 1 us per position-term).  The points left out are listed
# in every run's details line.
COST_CAP = {"zeta-mix": 1_500_000, "param-sums": 600_000, "quad-cross": 3_000_000}

# Checks per second, measured at the seed commit on the 2-core reference
# machine (pure-Python kernel, no numba).  A run has about `--seconds` times
# this many checks, but at least MIN_CHECKS, so that its 90th percentile has
# ten samples beyond it, and at most the whole pool.
CHECKS_PER_SECOND = {"zeta-mix": 5.5, "param-sums": 4.0, "quad-cross": 14.0}
MIN_CHECKS = 110

# family -> (grid, accuracy, tolerance) for quadrature families that have no
# packaged suite entry (threeway) or whose packaged grid is too small to fill
# a run without repeating points (trunc, ones).  threeway keeps non-integer m
# only, so it runs integrals and no series.
_QUAD_EXTRA = {
    "threeway": ({"p": [0, 1, 2], "q": [0, 1, 2], "r": [0, 1, 2], "m": [0.25, 0.5, 1.5, 2.5]}, None, 1e-6),
    "trunc": (
        {
            "p": [1, 2, 3],
            "q": [1, 2, 3],
            "a": [-0.75, -0.5, -0.25, 0, 0.25, 0.5, 1, 1.5],
            "r": [0, 1, 2, 3],
        },
        None,
        1e-6,
    ),
    "ones": ({"m": [0, 1, 2], "n": [0, 1, 2]}, None, 1e-6),
}

FAMILIES = {
    "zeta-mix": ("duality", "sum_formula", "ohno", "eq12", "restricted_sum", "section4"),
    "param-sums": ("theorem1", "cor15", "theorem3", "eq24"),
    "quad-cross": ("threeway", "trunc", "ones", "blocks", "anchor", "zeta2"),
}


def point_grid(family: str, params: dict) -> dict:
    """The suite-config grid whose expansion is exactly `params`."""
    if family == "duality":
        return {"indices": [params["index"]]}
    if family == "ohno":
        return {"indices": [params["index"]], "m": [params["m"]]}
    if family == "eq24":
        return {"pairs": [{"pvec": params["pvec"], "qvec": params["qvec"]}], "a": [params["a"]]}
    return {key: [value] for key, value in params.items()}


def suite_config(point: dict) -> dict:
    """A one-check, serial suite config for `mzv.report.run_suite`."""
    entry = {point["kind"]: point["family"], "grid": point_grid(point["family"], point["params"])}
    for key in ("accuracy", "tolerance"):
        if key in point:
            entry[key] = point[key]
    return {"schema": 1, "accuracy": 1e-8, "tolerance": None, "parallelism": 1, "checks": [entry]}


def expected_identity(point: dict) -> str:
    """The `identity` field the check's report record must carry."""
    return point["family"] if point["kind"] == "identity" else f"quad_{point['family']}"


def candidate_points(workload: str) -> list[dict]:
    """Every point a workload may draw from, before the cost cap (needs mzv)."""
    from mzv.identities import IDENTITIES
    from mzv.quadrature import QUAD_CHECKS
    from mzv.report import default_config

    packaged = {e.get("identity", e.get("quad")): e for e in default_config()["checks"]}
    out = []
    for family in FAMILIES[workload]:
        if family in _QUAD_EXTRA:
            grid, accuracy, tolerance = _QUAD_EXTRA[family]
            kind = "quad"
        else:
            entry = packaged[family]
            kind = "identity" if "identity" in entry else "quad"
            grid, accuracy, tolerance = entry.get("grid", {}), entry.get("accuracy"), entry.get("tolerance")
        expand = IDENTITIES[family].grid if kind == "identity" else QUAD_CHECKS[family][1]
        for params in expand(dict(grid)):
            point = {"family": family, "kind": kind, "params": params}
            if accuracy is not None:
                point["accuracy"] = accuracy
            if tolerance is not None:
                point["tolerance"] = tolerance
            out.append(point)
    return out


def load_pool(workload: str) -> list[dict]:
    """The workload's pool: candidate points within the cost cap."""
    with open(POOL_PATH, encoding="utf-8") as fh:
        pool = json.load(fh)
    return [p for p in pool[workload] if p["cost"] is not None and p["cost"] <= COST_CAP[workload]]


def check_count(workload: str, seconds: float, pool_size: int) -> int:
    return min(pool_size, max(MIN_CHECKS, round(seconds * CHECKS_PER_SECOND[workload])))


def draw(workload: str, seed: int, seconds: float, pool: list[dict] | None = None) -> list[dict]:
    """The seeded, cost-stratified check list of one run (see module doc)."""
    if pool is None:
        pool = load_pool(workload)
    n = check_count(workload, seconds, len(pool))
    ranked = sorted(range(len(pool)), key=lambda i: (pool[i]["cost"], i))
    rng = random.Random(f"{workload}:{seed}")
    chosen = [ranked[rng.randrange(k * len(pool) // n, (k + 1) * len(pool) // n)] for k in range(n)]
    return [pool[i] for i in sorted(chosen)]


def pool_facts(workload: str, pool: list[dict], points: list[dict]) -> dict:
    """What a run drew, and what its pool left out, for the details line."""
    with open(POOL_PATH, encoding="utf-8") as fh:
        full = json.load(fh)[workload]
    return {
        "checks": len(points),
        "pool_size": len(pool),
        "sampled_share": len(points) / len(pool),
        "drawn_cost_position_terms": sum(p["cost"] for p in points),
        "family_counts": dict(sorted(Counter(p["family"] for p in points).items())),
        "excluded_over_cap": [
            {"family": p["family"], "params": p["params"], "cost": p["cost"]}
            for p in full
            if p["cost"] is None or p["cost"] > COST_CAP[workload]
        ],
        "points": [{"family": p["family"], "params": p["params"]} for p in points],
    }
