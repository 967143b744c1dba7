"""The cache registry: every cache registers where it is defined, and
`mzv.clear_caches()` is what "cold" means."""

import gc
import re
import tracemalloc
from pathlib import Path

import mzv
import mzv.reference  # noqa: F401  (registers the reference's caches)
from mzv import report, series


def test_every_cache_is_a_registered_memo():
    # a cache made with functools directly would escape clear_caches and cache_stats
    made = re.compile(r"lru_cache|functools\.cache\b|from functools import[^\n]*\bcache\b")
    found = [
        f"{path.name}:{number}"
        for path in sorted(Path(mzv.__file__).parent.glob("*.py"))
        if path.name != "_memo.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if made.search(line)
    ]
    assert found == []


def test_a_suite_sample_run_cold_equals_it_warm_and_every_cache_keeps_its_bound(monkeypatch):
    validated = report._validated

    def every_8th_point(config):
        cfg, points = validated(config)
        return cfg, [entry[::8] for entry in points]

    monkeypatch.setattr(report, "_validated", every_8th_point)
    report.run_suite()
    warm = report.run_suite()
    assert mzv.cache_stats()["mzv.series._evaluate_cached"]["size"] > 0
    mzv.clear_caches()
    assert {name: stats["size"] for name, stats in mzv.cache_stats().items()} == dict.fromkeys(mzv.cache_stats(), 0)
    cold = report.run_suite()
    for run in (warm, cold):
        run["summary"].pop("runtime_seconds")
    assert cold == warm and warm["summary"]["total"] == 93
    stats = mzv.cache_stats()
    assert len(stats) == 16
    assert {name for name, s in stats.items() if s["unit"] != "entries"} == {"mzv.series._evaluate_cached"}
    assert stats["mzv.series._evaluate_cached"]["bound"] == series._PREFIX_BYTES
    assert [name for name, s in stats.items() if not (type(s["bound"]) is int and 0 <= s["size"] <= s["bound"])] == []


def test_the_store_reports_what_clearing_it_frees():
    # each stored state counts its Python objects (`series._STATE_BYTES`) with
    # its arrays, so after the cold packaged suite, which fills the store, its
    # reported bytes are within 10 % of the memory `cache_clear()` frees
    mzv.clear_caches()
    tracemalloc.start()
    try:
        report.run_suite()
        reported = mzv.cache_stats()["mzv.series._evaluate_cached"]["size"]
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        series._evaluate_cached.cache_clear()
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0.9 * series._PREFIX_BYTES < reported <= series._PREFIX_BYTES
    assert abs(reported - freed) <= 0.1 * freed


def test_composition_lists_are_kept_as_tuples_in_a_bounded_memo():
    from mzv.identities import _compositions
    from mzv.indices import compositions

    stats = mzv.cache_stats()["mzv.identities._compositions"]
    assert (stats["bound"], stats["unit"]) == (64, "entries")
    for total, parts, minimum in [(5, 3, 1), (4, 2, 0), (3, 5, 1), (0, 1, 0), (7, 1, 2)]:
        kept = _compositions(total, parts, minimum)
        assert type(kept) is tuple and all(type(alpha) is tuple for alpha in kept)
        # the enumerator still returns a fresh list, equal to what is kept
        listed = compositions(total, parts, minimum)
        assert type(listed) is list and tuple(listed) == kept
        assert _compositions(total, parts, minimum) is kept
