"""Span tracing of the mzv layers from outside the library.

`Tracer.install()` replaces each layer's public entry at every module that
binds it with a wrapper that records a span, and `Tracer.restore()` puts
every original binding back.  Spans stay in memory as
`[name, start, end, parent, info]` lists; `layer_metrics()` derives self
times and work counts from them.

Layers and their entries:

* ``kernel``     - ``scan_block`` (as bound in ``mzv.series``)
* ``series``     - ``evaluate``
* ``identities`` - the checkers in the ``IDENTITIES`` registry
* ``quadrature`` - ``triangle_quadrature``, ``interval_quadrature`` and the
  ``QUAD_CHECKS`` registry
* ``report``     - ``run_suite`` (plus the JSON rendering, timed by the worker)

The benchmark runs checks serially, so one call stack suffices.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("kernel", "series", "identities", "quadrature", "report")


def _kernel_info(args: tuple, kwargs: dict) -> tuple[int, int]:
    factors = args[0] if args else kwargs["factors"]
    return factors.shape


def _evaluate_info(args: tuple, kwargs: dict) -> object:
    return args[0] if args else kwargs["spec"]


def _check_of(entry):
    """The checker of a registry entry: an `IdentityInfo` or a `(check, grid)` tuple."""
    return entry[0] if isinstance(entry, tuple) else entry.check


def _with_check(entry, check):
    return (check, *entry[1:]) if isinstance(entry, tuple) else dataclasses.replace(entry, check=check)


class Tracer:
    """Records spans around the mzv layer entries while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, info=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, info(args, kwargs) if info else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        import mzv.identities
        import mzv.quadrature
        import mzv.report
        import mzv.series

        targets = [
            (mzv.series.scan_block, "kernel.scan_block", _kernel_info),
            (mzv.series.evaluate, "series.evaluate", _evaluate_info),
            (mzv.quadrature.triangle_quadrature, "quadrature.triangle", None),
            (mzv.quadrature.interval_quadrature, "quadrature.interval", None),
            (mzv.report.run_suite, "report.run_suite", None),
        ]
        modules = [m for n, m in sorted(sys.modules.items()) if (n == "mzv" or n.startswith("mzv.")) and m]
        for original, name, info in targets:
            wrapper = self.wrap(name, original, info)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        registries = ((mzv.identities.IDENTITIES, "identities"), (mzv.quadrature.QUAD_CHECKS, "quadrature.check"))
        for registry, layer in registries:
            for key, entry in list(registry.items()):
                self._restore.append((registry, key, entry))
                registry[key] = _with_check(entry, self.wrap(f"{layer}.{key}", _check_of(entry)))

    def restore(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _class_name(spec) -> str:
    from mzv.series import decay_model

    s, log_power = decay_model(spec)
    return f"s{s}_L{log_power}"


def layer_metrics(spans: list[list], wall_s: float, json_s: float, json_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics and workload facts from one traced run's spans.

    `wall_s` is the traced run's wall time, `json_s` and `json_bytes` the
    time and size of rendering every report as JSON (report layer work
    done outside `run_suite`).
    """
    n = len(spans)
    child_s = [0.0] * n
    kernel_children = [0] * n
    kernel_terms = [0] * n
    for name, start, end, parent, info in spans:
        if parent < 0:
            continue
        child_s[parent] += end - start
        if name == "kernel.scan_block":
            kernel_children[parent] += 1
            kernel_terms[parent] += info[1]

    self_s = dict.fromkeys(LAYERS, 0.0)
    m: dict[str, float] = dict.fromkeys(
        (
            "kernel.calls",
            "kernel.position_terms",
            "kernel.busy_s",
            "series.terms_scanned",
            "series.evaluate.calls",
            "series.evaluate.cache_hits",
            "series.evaluate.repeat_specs",
            "quadrature.triangle.calls",
            "quadrature.triangle.busy_s",
            "quadrature.interval.busy_s",
        ),
        0,
    )
    classes: dict[str, dict] = defaultdict(lambda: {"calls": 0, "terms": 0, "busy_s": 0.0})
    depths: Counter = Counter()
    seen_specs: set = set()
    checks = 0
    check_evals = 0
    for i, (name, start, end, parent, info) in enumerate(spans):
        dur = end - start
        self_s[name.split(".", 1)[0]] += dur - child_s[i]
        if name == "kernel.scan_block":
            depth, width = info
            m["kernel.calls"] += 1
            m["kernel.position_terms"] += depth * width
            m["series.terms_scanned"] += width
            m["kernel.busy_s"] += dur
        elif name == "series.evaluate":
            m["series.evaluate.calls"] += 1
            m["series.evaluate.cache_hits"] += kernel_children[i] == 0
            m["series.evaluate.repeat_specs"] += info in seen_specs
            seen_specs.add(info)
            depths[info.depth] += 1
            cls = classes[_class_name(info)]
            cls["calls"] += 1
            cls["terms"] += kernel_terms[i]
            cls["busy_s"] += dur
            if parent >= 0 and spans[parent][0].startswith("identities."):
                check_evals += 1
        elif name.startswith("identities."):
            checks += 1
        elif name == "quadrature.triangle":
            m["quadrature.triangle.calls"] += 1
            m["quadrature.triangle.busy_s"] += dur
        elif name == "quadrature.interval":
            m["quadrature.interval.busy_s"] += dur

    calls = m["series.evaluate.calls"]
    m["series.evaluate.cache_hit_share"] = m.pop("series.evaluate.cache_hits") / calls if calls else 0.0
    m["series.evaluate.repeat_spec_share"] = m.pop("series.evaluate.repeat_specs") / calls if calls else 0.0
    pt = m["kernel.position_terms"]
    m["kernel.ns_per_position_term"] = m["kernel.busy_s"] / pt * 1e9 if pt else 0.0
    m["identities.checks"] = checks
    m["identities.evals_per_check"] = check_evals / checks if checks else 0.0
    self_s["report"] += json_s
    # kernel spans have no children, so the kernel's self time is kernel.busy_s
    m["series.evaluate.self_s"] = self_s["series"]
    for layer in ("identities", "quadrature", "report"):
        m[f"{layer}.self_s"] = self_s[layer]
    m["report.json_s"] = json_s
    m["report.json_bytes"] = json_bytes
    covered = sum(self_s.values())
    m["trace.self_sum_share"] = covered / wall_s if wall_s > 0 else 0.0
    m["kernel.share"] = self_s["kernel"] / wall_s if wall_s > 0 else 0.0
    m["trace.spans"] = n
    facts = {
        "decay_classes": {k: dict(v) for k, v in sorted(classes.items())},
        "depth_histogram": {str(d): c for d, c in sorted(depths.items())},
        "repeat_spec_share": m["series.evaluate.repeat_spec_share"],
    }
    return dict(m), facts
