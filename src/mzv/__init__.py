"""Multiple zeta values, parameterized nested sums, and identity verification.

The package has three layers:

* `mzv.indices` - combinatorics of exponent tuples: admissibility, the
  pairs-of-runs decomposition, the duality involution, compositions.
* `mzv.series` - a nested-sum evaluation engine with compensated
  accumulation and derived tails, plus an exact-rational oracle.
* `mzv.reference` - 45-digit MZVs by the Hölder convolution, which audit
  the engine's tail bounds.
* `mzv.identities` / `mzv.quadrature` - identity checkers that compare
  independently built sums (and double integrals) of provably equal value.

`mzv.cli` exposes the same functionality as the `mzv` command.
"""

from .errors import (
    AdmissibilityError,
    ConfigError,
    DivergentSeriesError,
    IndexParseError,
    InvalidSpecError,
    MzvError,
    PreconditionError,
)
from .indices import MzvIndex, PqDecomposition, ShiftVector, compositions, dual, pq_compose, pq_decompose
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

# these pull in the layers above the engine and need __version__ set first
from .identities import IDENTITIES, IdentityCheck, draw_params, run_grid  # noqa: E402
from .quadrature import QUAD_CHECKS, TriangleIntegrand, run_quad_grid, triangle_quadrature  # noqa: E402
from .report import run_suite  # noqa: E402
from .rng import XorShift64Star  # noqa: E402

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
    "ShiftVector",
    "ShiftedPower",
    "TriangleIntegrand",
    "XorShift64Star",
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
    "run_grid",
    "run_quad_grid",
    "run_suite",
    "triangle_quadrature",
    "__version__",
]
