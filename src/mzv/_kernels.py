"""Compensated nested-sum scan kernel.

The nested sum over `1 <= k_1 < ... < k_d <= N` of a product of per-position
factors `f_i(k_i)` is the last of the position accumulators

    A_i(k) = sum_{k_i <= k} f_i(k_i) * A_{i-1}(k_i - 1),   A_0 = 1.

Each accumulator is a Neumaier-compensated sum: a running sum `acc` plus a
separately summed compensation `comp` that collects the exact rounding error
of every add, and `acc + comp` is its compensated value.

The scalar definition walks k left to right and, at each k, updates
positions d, ..., 1 from the previous-k compensated values.  Position i
therefore never reads a value it has written at the same k, so a block of
columns can be scanned one whole position at a time, innermost first:

* the terms of position i are its factors times position i-1's compensated
  prefix shifted one column (`A_{i-1}(k - 1)`);
* `np.add.accumulate` is a sequential loop, so its running sums are the
  scalar loop's rounded sums, bit for bit;
* the rounding error of each add `s = a + x` is exact and unique.  Knuth's
  branch-free TwoSum recovers it, so it equals the error Neumaier's
  branching form `(a - s) + x` or `(x - s) + a` yields for finite sums;
* a second `np.add.accumulate` adds those errors to `comp` in the scalar
  loop's order.

The result is bit-identical to the scalar loop in `acc`, `comp` and every
compensated prefix; `tests/test_kernels.py` holds the scalar loop as the
reference.  The kernel writes every position's compensated prefixes into one
`(depth, width + 1)` buffer and keeps one work buffer of five rows as wide
as the block (the running sums accumulate straight from the terms, led by
`acc`, so the terms are not copied twice), so depth and block width bound its
memory: at depth 64 and the 2^14 columns `mzv.series` passes at most, the
buffer is 8.4 MB.
"""

from __future__ import annotations

import numpy as np


def scan_block(factors: np.ndarray, acc: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """Scan a `(depth, width)` block of factor values, row 0 the innermost
    position, updating `acc` and `comp` (length `depth`) in place.

    Returns a `(depth, width)` array whose row `i` is position `i`'s
    compensated prefix `acc[i] + comp[i]` after each of the block's columns.
    """
    depth, width = factors.shape
    prefixes = np.empty((depth, width + 1))  # row i: t + c, led by the value before the block
    # terms, running sums and running compensations, each led by its value
    # before the block, and two scratch rows
    terms, t, c, u, v = np.empty((5, width + 1))
    x, a, s, err, u, v = terms[1:], t[:-1], t[1:], c[1:], u[1:], v[1:]
    for i in range(depth):
        if i > 0:
            np.multiply(factors[i], prefixes[i - 1, :-1], out=x)
        else:
            x[:] = factors[0]
        terms[0] = acc[i]
        np.add.accumulate(terms, out=t)
        # TwoSum: err = (a - (s - (s - a))) + (x - (s - a))
        np.subtract(s, a, out=v)
        np.subtract(s, v, out=u)
        np.subtract(a, u, out=u)
        np.subtract(x, v, out=v)
        np.add(u, v, out=err)
        c[0] = comp[i]
        np.add.accumulate(c, out=c)
        acc[i] = t[-1]
        comp[i] = c[-1]
        np.add(t, c, out=prefixes[i])
    return prefixes[:, 1:]
