"""One registry of the package's caches, so that `clear_caches()` is what
"cold" means, to the tests and to a library caller alike.

Each cache registers in the module that defines it, when that module is
imported: a memo through `memo`, which is `functools.lru_cache` itself, so
a hit costs what it cost before; any other cache through `register`.
`cache_stats()` reports hits and misses only where a cache counts them
already: no counter is added to any hit path.  This module imports neither
numpy nor any other module of the package.

Each cache states its measured gain where it is made: how much longer the
cold packaged suite and cold passes of the three benchmark draws take with
it replaced by its bare function (medians of 12 alternating fresh-process
pairs, 2 cores), or, where those runs could not tell, the benchmark's warm
checks.  Each saves more than the run-to-run quartile spread on one of them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

# name -> (cache, bound, unit), in the order the caches were registered
_caches: dict[str, tuple[Any, int, str]] = {}


def memo(maxsize: int) -> Callable[[Callable], Callable]:
    """`functools.lru_cache(maxsize=maxsize)`, registered under the
    function's qualified name with a bound of `maxsize` entries."""

    def wrap(function: Callable) -> Callable:
        cached = lru_cache(maxsize=maxsize)(function)
        register(f"{function.__module__}.{function.__qualname__}", cached, maxsize, "entries")
        return cached

    return wrap


def register(name: str, cache: Any, bound: int, unit: str) -> None:
    """Record `cache` under `name`.  Like an `lru_cache`, it has `cache_clear()`
    and `cache_info()`, `(hits, misses, maxsize, currsize)`, with its size in
    `unit`, at most `bound`, and None for hits and misses it does not count."""
    _caches[name] = (cache, bound, unit)


def clear_caches() -> None:
    """Empty every registered cache: what comes next is computed afresh."""
    for cache, _, _ in _caches.values():
        cache.cache_clear()


def cache_stats() -> dict[str, dict[str, Any]]:
    """Per registered cache, by name: its `size` and `bound` in its `unit`,
    and its `hits` and `misses` where it counts them."""
    stats = {}
    for name, (cache, bound, unit) in _caches.items():
        hits, misses, _, size = cache.cache_info()
        stats[name] = {"size": size, "bound": bound, "unit": unit}
        if hits is not None:
            stats[name].update(hits=hits, misses=misses)
    return stats
