"""Multiple zeta values, parameterized nested sums, and identity verification.

The package has three layers:

* `mzv.indices` - combinatorics of exponent tuples: admissibility, the
  pairs-of-runs decomposition, the duality involution, compositions.
* `mzv.series` - a nested-sum evaluation engine with compensated
  accumulation and derived tails, plus an exact-rational oracle.
* `mzv.reference` - 45-digit MZVs by the Hölder convolution, which audit
  the engine's tail bounds.
* `mzv.identities` / `mzv.quadrature` - identity checkers that compare
  independently built sums (and double integrals) of provably equal value;
  `mzv.report` runs them as suites, and `mzv.rng` draws their fuzz points.

`import mzv` loads only the engine: `mzv.errors`, `mzv.indices`,
`mzv.series` and its kernel.  The checker names of `__all__` (`IDENTITIES`,
`QUAD_CHECKS`, `run_suite`, `XorShift64Star` and the others of those layers)
load their module on first access, so a program that only evaluates never
compiles or runs the checkers.

`mzv.cli` exposes the same functionality as the `mzv` command.
"""

from importlib import import_module

from ._memo import cache_stats, clear_caches
from .errors import (
    AdmissibilityError,
    ConfigError,
    DivergentSeriesError,
    IndexParseError,
    InvalidSpecError,
    MzvError,
    PreconditionError,
)
from .indices import MzvIndex, PqDecomposition, compositions, dual, pq_compose, pq_decompose
from .series import (
    EvalResult,
    ExtraPower,
    FiniteDifference,
    NestedSumSpec,
    RisingFactorial,
    ShiftedPower,
    evaluate,
    evaluate_exact_truncated,
    extrapolate_tail,
    finite_difference_factor,
    mzv,
)

__version__ = "0.1.0"

# each name of the layers above the engine, by the module that defines it
_CHECKER_NAMES = {
    "IDENTITIES": "identities",
    "IdentityCheck": "identities",
    "draw_params": "identities",
    "QUAD_CHECKS": "quadrature",
    "TriangleIntegrand": "quadrature",
    "triangle_quadrature": "quadrature",
    "run_suite": "report",
    "XorShift64Star": "rng",
}


def __getattr__(name: str) -> object:
    """A checker name, read from its module on each access, so it is
    always that module's current binding."""
    try:
        module = _CHECKER_NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_CHECKER_NAMES})


__all__ = [
    "AdmissibilityError",
    "ConfigError",
    "DivergentSeriesError",
    "EvalResult",
    "ExtraPower",
    "FiniteDifference",
    "IDENTITIES",
    "IdentityCheck",
    "IndexParseError",
    "InvalidSpecError",
    "MzvError",
    "MzvIndex",
    "NestedSumSpec",
    "PqDecomposition",
    "PreconditionError",
    "QUAD_CHECKS",
    "RisingFactorial",
    "ShiftedPower",
    "TriangleIntegrand",
    "XorShift64Star",
    "cache_stats",
    "clear_caches",
    "compositions",
    "draw_params",
    "dual",
    "evaluate",
    "evaluate_exact_truncated",
    "extrapolate_tail",
    "finite_difference_factor",
    "mzv",
    "pq_compose",
    "pq_decompose",
    "run_suite",
    "triangle_quadrature",
    "__version__",
]
