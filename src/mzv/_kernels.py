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
reference.  The kernel keeps six work arrays as wide as the block, so the
block width bounds its memory.
"""

from __future__ import annotations

import numpy as np


def scan_block(
    factors: np.ndarray,
    acc: np.ndarray,
    comp: np.ndarray,
    return_inner: bool = False,
):
    """Scan a `(depth, width)` block of factor values, row 0 the innermost
    position, updating `acc` and `comp` (length `depth`) in place.

    Returns the outermost position's compensated prefix `acc + comp` after
    each of the block's columns.  With `return_inner`, the result is
    `(outer, inner)`, where `inner[r]` is the vector row `r + 1` would
    multiply: row `r`'s compensated prefix before each column (its value at
    the block's start, then after each column but the last), one fresh
    array per row.
    """
    depth, width = factors.shape
    t = np.empty(width + 1)  # running sums, led by the sum before the block
    c = np.empty(width + 1)  # running compensations, likewise
    p = np.empty(width + 1)  # compensated prefix t + c
    x = np.empty(width)
    u = np.empty(width)
    v = np.empty(width)
    a, s, err = t[:-1], t[1:], c[1:]
    inner = []
    for i in range(depth):
        if i > 0:
            np.multiply(factors[i], p[:-1], out=x)
        else:
            x[:] = factors[0]
        t[0] = acc[i]
        s[:] = x
        np.add.accumulate(t, out=t)
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
        if return_inner and i > 0:
            p = np.empty(width + 1)  # the previous row's prefix is kept
        np.add(t, c, out=p)
        if return_inner:
            inner.append(p[:-1])
    if return_inner:
        return p[1:], inner
    return p[1:]
