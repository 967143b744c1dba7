"""Scan kernel: bit-exact against the scalar compensated loop it vectorizes."""

import numpy as np
import pytest

from mzv._kernels import scan_block


def scalar_scan(factors, acc, comp):
    """The reference: one column at a time, positions outermost first, each
    add Neumaier-compensated.  Returns every position's compensated prefix
    after each column, row 0 the innermost."""
    depth, width = factors.shape
    prefixes = np.empty((depth, width))
    for b in range(width):
        for i in range(depth - 1, -1, -1):
            if i == 0:
                term = factors[0, b]
            else:
                term = factors[i, b] * (acc[i - 1] + comp[i - 1])
            t = acc[i] + term
            if abs(acc[i]) >= abs(term):
                comp[i] += (acc[i] - t) + term
            else:
                comp[i] += (term - t) + acc[i]
            acc[i] = t
        prefixes[:, b] = acc + comp
    return prefixes


def random_block(rng, depth, width):
    # magnitudes spread over 16 decades, so both Neumaier branches occur
    return rng.uniform(0.5, 1.0, (depth, width)) * 10.0 ** rng.uniform(-8.0, 8.0, (depth, width))


@pytest.mark.parametrize("depth", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("width", [1, 2, 5, 1000, 40000])
@pytest.mark.parametrize("start", ["zero", "nonzero"])
def test_scan_block_matches_scalar_bit_for_bit(depth, width, start):
    rng = np.random.default_rng(1000 * depth + width)
    factors = random_block(rng, depth, width)
    if start == "zero":
        acc0, comp0 = np.zeros(depth), np.zeros(depth)
    else:
        acc0 = rng.uniform(0.0, 3.0, depth) * 10.0 ** rng.uniform(-4.0, 4.0, depth)
        comp0 = acc0 * rng.uniform(-2.0**-52, 2.0**-52, depth)
    ref_acc, ref_comp = acc0.copy(), comp0.copy()
    ref_prefix = scalar_scan(factors, ref_acc, ref_comp)
    acc, comp = acc0.copy(), comp0.copy()
    prefix = scan_block(factors, acc, comp)
    assert np.array_equal(acc, ref_acc)
    assert np.array_equal(comp, ref_comp)
    assert np.array_equal(prefix, ref_prefix)


def test_scan_block_resumes_across_blocks():
    rng = np.random.default_rng(7)
    factors = random_block(rng, 3, 3000)
    whole_acc, whole_comp = np.zeros(3), np.zeros(3)
    whole = scan_block(factors, whole_acc, whole_comp)
    acc, comp = np.zeros(3), np.zeros(3)
    parts = [scan_block(factors[:, lo : lo + 1024], acc, comp) for lo in range(0, 3000, 1024)]
    assert np.array_equal(np.concatenate(parts, axis=1), whole)
    assert np.array_equal(acc, whole_acc)
    assert np.array_equal(comp, whole_comp)

