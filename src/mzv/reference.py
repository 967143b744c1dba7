"""Independent high-precision reference values of multiple zeta values.

The series engine's `tail_bound` is a claim; this module audits it against
values computed another way, with the standard library only.

Method: the Hölder convolution at 1/2 (Borwein, Bradley, Broadhurst and
Lisoněk, "Special values of multiple polylogarithms", Trans. AMS 353
(2001), arXiv:math/9910045).  An MZV is the iterated integral over
`(0, 1)` of its 0/1 word, `x^(s_1 - 1) y ... x^(s_d - 1) y` (`x = dt/t`,
`y = dt/(1-t)`, outermost exponent first).  Splitting the interval at 1/2,

    zeta(word) = sum_k  L(swap(reverse(word[:k]))) * L(word[k:]),

where `L(w)` is the integral of `w` over `(0, 1/2)`: the multiple
polylogarithm at 1/2, a sum `sum_{n_1 > ... > n_m} 2^-n_1 / prod n_i^s_i`
that converges geometrically.  The map `t -> 1 - t` that turns the upper
half into the lower one swaps `x` and `y` and reverses the word: it is the
duality of MZVs.  So these values audit bounds and must never stand in for
a side of a `duality` check, which they would pass by construction.

Each polylog is summed in `decimal` at `_PRECISION` digits to a number of
terms that leaves its geometric tail below `10^-DIGITS`.

    python -m mzv.reference --max-weight 10

audits `mzv()` on every admissible index of weight 2 to 10 at the targets
1e-8, 1e-10 and 1e-12, prints the worst ratio of error to allowance, and
exits 1 if any value misses `|value - ref| <= tail_bound + ulp(value)`.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from math import ulp
from typing import Iterable, Sequence

from ._memo import memo
from .indices import MzvIndex
from .series import EvalResult, mzv

__all__ = ["DIGITS", "AUDIT_TARGETS", "mzv_reference", "Audit", "audit", "audit_mzvs", "main"]

# Correct digits of every reference value.
DIGITS = 45
_PRECISION = DIGITS + 15

AUDIT_TARGETS = (1e-8, 1e-10, 1e-12)


def _terms(weight: int) -> int:
    """Geometric terms after which a weight-`weight` polylog at 1/2 is below
    `10^-DIGITS`: `2^-M` times an inner sum under `(1 + ln M)^weight`."""
    return 152 + 3 * weight


# Without it: `python -m mzv.reference --max-weight 10` +82 %.
@memo(64)
def _inverse_powers(exponent: int, count: int) -> tuple[Decimal, ...]:
    """`n^-exponent` for `n = 0..count` (0 at n = 0)."""
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        return (Decimal(0),) + tuple(Decimal(1) / Decimal(n) ** exponent for n in range(1, count + 1))


def _exponents(word: Sequence[int]) -> tuple[int, ...]:
    """The exponents of a 0/1 word that ends in 1, outermost first."""
    out = []
    zeros = 0
    for letter in word:
        if letter:
            out.append(zeros + 1)
            zeros = 0
        else:
            zeros += 1
    return tuple(out)


# Without it: `python -m mzv.reference --max-weight 10` takes 16 times as long.
@memo(8192)
def _polylog_half(word: tuple[int, ...]) -> Decimal:
    """The iterated integral of `word` over `(0, 1/2)`:
    `sum_{n_1 > ... > n_m >= 1} 2^-n_1 / (n_1^s_1 ... n_m^s_m)`."""
    if not word:
        return Decimal(1)
    exponents = _exponents(word)
    count = _terms(len(word))
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        inner = [Decimal(1)] * (count + 1)  # the empty inner sum
        for s in reversed(exponents[1:]):
            powers = _inverse_powers(s, count)
            running = Decimal(0)
            nxt = [Decimal(0)] * (count + 1)
            for n in range(1, count + 1):
                running += powers[n] * inner[n - 1]
                nxt[n] = running
            inner = nxt
        powers = _inverse_powers(exponents[0], count)
        total = Decimal(0)
        half = Decimal(1)
        for n in range(1, count + 1):
            half /= 2
            total += half * powers[n] * inner[n - 1]
        return +total


def mzv_reference(index: MzvIndex) -> Decimal:
    """The MZV of an admissible index (innermost part first, as `MzvIndex`
    holds it) to `DIGITS` digits, by the Hölder convolution at 1/2."""
    if not index.admissible:
        raise ValueError(f"index {index} is not admissible")
    word: list[int] = []
    for s in reversed(index.parts):  # outermost first
        word.extend([0] * (s - 1) + [1])
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        total = Decimal(0)
        for k in range(len(word) + 1):
            upper = tuple(1 - a for a in reversed(word[:k]))
            total += _polylog_half(upper) * _polylog_half(tuple(word[k:]))
        return +total


@dataclass(frozen=True)
class Audit:
    """One evaluation against its reference: the error and what the result
    allows, `tail_bound + ulp(value)`."""

    index: MzvIndex
    target: float
    result: EvalResult
    error: float
    allowed: float

    @property
    def ratio(self) -> float:
        return self.error / self.allowed

    @property
    def holds(self) -> bool:
        return self.error <= self.allowed


def audit(index: MzvIndex, result: EvalResult, target: float = 0.0) -> Audit:
    """Compare one evaluation of `index` with its reference value."""
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        error = float(abs(Decimal(result.value) - mzv_reference(index)))
    return Audit(index, target, result, error, result.tail_bound + ulp(result.value))


def audit_mzvs(
    indices: Iterable[MzvIndex],
    targets: Sequence[float] = AUDIT_TARGETS,
) -> list[Audit]:
    """Evaluate every index at every target and audit each result."""
    return [audit(index, mzv(index, t), t) for index in indices for t in targets]


def main(argv: Sequence[str] | None = None) -> int:
    from .identities import admissible_indices

    parser = argparse.ArgumentParser(prog="python -m mzv.reference", description=__doc__.split("\n\n")[0])
    parser.add_argument("--min-weight", type=int, default=2)
    parser.add_argument("--max-weight", type=int, default=10)
    args = parser.parse_args(argv)
    indices = [k for w in range(args.min_weight, args.max_weight + 1) for k in admissible_indices(w)]
    audits = audit_mzvs(indices)
    worst = max(audits, key=lambda a: a.ratio)
    failed = [a for a in audits if not a.holds]
    for a in failed:
        print(f"VIOLATION {a.index} target {a.target:g}: error {a.error:.3e} > allowed {a.allowed:.3e}")
    print(
        f"{len(audits)} evaluations, {len(failed)} violations; worst ratio {worst.ratio:.3f} "
        f"at {worst.index} target {worst.target:g} (error {worst.error:.3e}, allowed {worst.allowed:.3e})"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
