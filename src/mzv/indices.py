"""Exponent tuples for nested harmonic sums and their duality combinatorics.

An index is a tuple of positive integer exponents `(a_1, ..., a_r)` read
innermost first: it stands for the sum over `1 <= k_1 < ... < k_r` of
`k_1^-a_1 * ... * k_r^-a_r`.  The sum converges exactly when the index is
*admissible*, i.e. the last exponent is at least 2.

Every admissible index factors uniquely into runs

    ({1}^(p_1 - 1), q_1 + 1, {1}^(p_2 - 1), q_2 + 1, ..., {1}^(p_n - 1), q_n + 1)

with all `p_i, q_i >= 1`.  Reversing the list of `(p_i, q_i)` pairs and
swapping each pair yields the dual index; the map is an involution and
sends (weight, depth) to (weight, weight - depth).

`MzvIndex.parse` keeps the indices of the last 4,096 texts it parsed, as a
grid point's text is parsed when its grid is expanded and again by its
checker, and `dual` the duals of the last 4,096 indices it was asked for,
as a check of duality or of Ohno's relation asks for one.  A refused input
is not kept, so it raises the same error each time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import AdmissibilityError, IndexParseError, InvalidSpecError, check_int, shown

__all__ = [
    "MzvIndex",
    "PqDecomposition",
    "ShiftVector",
    "pq_decompose",
    "pq_compose",
    "dual",
    "compositions",
    "MAX_DEPTH",
    "MAX_EXPONENT",
]

# Bounds on untrusted input: the parts of an index (positions of a nested-sum
# spec) and the size of any exponent.  The parser checks both before it
# expands a run, so no input text builds a large list.
MAX_DEPTH = 64
MAX_EXPONENT = 1024


@dataclass(frozen=True)
class MzvIndex:
    """An exponent tuple, innermost summation variable first."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.parts, tuple):
            object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) == 0:
            raise InvalidSpecError("index needs at least one part")
        for a in self.parts:
            check_int(a, "index part", 1)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def admissible(self) -> bool:
        return self.parts[-1] >= 2

    def shifted(self, shift: "ShiftVector") -> "MzvIndex":
        """Entrywise sum with a shift vector of the same depth."""
        if shift.depth != self.depth:
            raise InvalidSpecError(
                f"shift depth {shift.depth} != index depth {self.depth}"
            )
        return MzvIndex(tuple(a + s for a, s in zip(self.parts, shift.entries)))

    @classmethod
    def parse(cls, text: str) -> "MzvIndex":
        """Parse ``(1,2,3)``, ``1,2,3`` or run shorthand ``({1}^4,2)``;
        memoised by text (module docstring)."""
        return _parsed(text)

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.parts) + ")"


@dataclass(frozen=True)
class ShiftVector:
    """Non-negative entrywise increments applied to an index."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) == 0:
            raise InvalidSpecError("shift vector needs at least one entry")
        for e in self.entries:
            check_int(e, "shift entry", 0)

    @property
    def depth(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return sum(self.entries)


@dataclass(frozen=True)
class PqDecomposition:
    """Run-length pairs `(p_i, q_i)` of an admissible index."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.pairs, tuple):
            object.__setattr__(self, "pairs", tuple(tuple(pq) for pq in self.pairs))
        if len(self.pairs) == 0:
            raise InvalidSpecError("decomposition needs at least one pair")
        for p, q in self.pairs:
            check_int(p, "pair entry", 1)
            check_int(q, "pair entry", 1)

    @property
    def weight(self) -> int:
        return sum(p + q for p, q in self.pairs)

    @property
    def depth(self) -> int:
        return sum(p for p, _ in self.pairs)


def pq_decompose(index: MzvIndex) -> PqDecomposition:
    """Split an admissible index into its run pairs.

    Walks the parts left to right: a maximal run of `p - 1` ones followed
    by a part `q + 1 >= 2` contributes the pair `(p, q)`.  Admissibility
    guarantees the walk never ends inside a run of ones.
    """
    if not index.admissible:
        raise AdmissibilityError(
            f"index {index} is not admissible (last part must be >= 2)"
        )
    pairs: list[tuple[int, int]] = []
    ones = 0
    for a in index.parts:
        if a == 1:
            ones += 1
        else:
            pairs.append((ones + 1, a - 1))
            ones = 0
    return PqDecomposition(tuple(pairs))


def pq_compose(decomposition: PqDecomposition) -> MzvIndex:
    """Inverse of `pq_decompose`."""
    parts: list[int] = []
    for p, q in decomposition.pairs:
        parts.extend([1] * (p - 1))
        parts.append(q + 1)
    return MzvIndex(tuple(parts))


@lru_cache(maxsize=4096)
def dual(index: MzvIndex) -> MzvIndex:
    """The duality involution: reverse the run pairs and swap each one.
    Memoised like `MzvIndex.parse` (module docstring)."""
    decomp = pq_decompose(index)
    swapped = tuple((q, p) for p, q in reversed(decomp.pairs))
    return pq_compose(PqDecomposition(swapped))


def compositions(total: int, parts: int, min_part: int = 1) -> list[tuple[int, ...]]:
    """All `parts`-tuples of integers >= `min_part` summing to `total`.

    Returned in lexicographic order; empty list when infeasible.  The count
    is `C(total - parts*min_part + parts - 1, parts - 1)`.
    """
    check_int(total, "total", None)
    check_int(parts, "parts", 1)
    check_int(min_part, "min_part", 0)
    if total < parts * min_part:
        return []
    out: list[tuple[int, ...]] = []
    prefix = [0] * parts

    def rec(pos: int, remaining: int) -> None:
        if pos == parts - 1:
            prefix[pos] = remaining
            out.append(tuple(prefix))
            return
        avail = remaining - (parts - pos - 1) * min_part
        for a in range(min_part, avail + 1):
            prefix[pos] = a
            rec(pos + 1, remaining - a)

    rec(0, total)
    assert len(out) == comb(total - parts * min_part + parts - 1, parts - 1)
    return out


# as many texts as the largest grid has points
@lru_cache(maxsize=4096)
def _parsed(text: str) -> MzvIndex:
    return MzvIndex(tuple(_parse_parts(text)))


def _parse_parts(text: str) -> list[int]:
    s = text
    n = len(s)
    i = 0

    def skip_ws(j: int) -> int:
        while j < n and s[j].isspace():
            j += 1
        return j

    def parse_int(j: int, what: str, limit: int) -> tuple[int, int]:
        j = skip_ws(j)
        start = j
        while j < n and "0" <= s[j] <= "9":
            j += 1
        if j == start:
            raise IndexParseError(f"expected {what}", start)
        digits = s[start:j].lstrip("0") or "0"
        if len(digits) > len(str(limit)) or int(digits) > limit:
            raise IndexParseError(f"{what} exceeds {limit}", start)
        return int(digits), j

    def add(values: list[int], at: int) -> None:
        if len(parts) + len(values) > MAX_DEPTH:
            raise IndexParseError(f"index depth exceeds {MAX_DEPTH}", at)
        parts.extend(values)

    i = skip_ws(i)
    wrapped = i < n and s[i] == "("
    if wrapped:
        i = skip_ws(i + 1)
    parts: list[int] = []
    while True:
        if i < n and s[i] == "{":
            # run shorthand {v}^count
            v, i = parse_int(i + 1, "integer inside {...}", MAX_EXPONENT)
            i = skip_ws(i)
            if i >= n or s[i] != "}":
                raise IndexParseError("expected '}'", i)
            i = skip_ws(i + 1)
            if i >= n or s[i] != "^":
                raise IndexParseError("expected '^' after '}'", i)
            at = i + 1
            count, i = parse_int(at, "repeat count after '^'", MAX_DEPTH)
            if count < 1:
                raise IndexParseError("repeat count must be >= 1", i - 1)
            add([v] * count, at)
        else:
            at = i
            v, i = parse_int(at, "integer part", MAX_EXPONENT)
            add([v], at)
        i = skip_ws(i)
        if i < n and s[i] == ",":
            i = skip_ws(i + 1)
            continue
        break
    if wrapped:
        if i >= n or s[i] != ")":
            raise IndexParseError("expected ')'", i)
        i = skip_ws(i + 1)
    if i != n:
        raise IndexParseError(f"unexpected trailing text {shown(s[i:])}", i)
    return parts
