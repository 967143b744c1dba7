"""Scan kernel: bit-exact against the scalar compensated loop it vectorizes."""

import numpy as np
import pytest

from mzv._kernels import scan_block


def scalar_scan(factors, acc, comp):
    """The reference: one column at a time, positions outermost first, each
    add Neumaier-compensated.  Returns the outermost compensated prefix."""
    depth, width = factors.shape
    prefix = np.empty(width)
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
        prefix[b] = acc[-1] + comp[-1]
    return prefix


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
    assert np.array_equal(np.concatenate(parts), whole)
    assert np.array_equal(acc, whole_acc)
    assert np.array_equal(comp, whole_comp)


@pytest.mark.parametrize("depth", [2, 3, 5])
def test_scan_block_from_a_start_prefix_matches_the_full_scan(depth):
    rng = np.random.default_rng(depth)
    width = 3000
    factors = random_block(rng, depth, width)
    acc0 = rng.uniform(0.0, 3.0, depth)
    comp0 = acc0 * rng.uniform(-2.0**-52, 2.0**-52, depth)
    ref_acc, ref_comp = acc0.copy(), comp0.copy()
    ref = scalar_scan(factors, ref_acc, ref_comp)
    acc, comp = acc0.copy(), comp0.copy()
    outer, inner = scan_block(factors, acc, comp, return_inner=True)
    assert np.array_equal(outer, ref) and np.array_equal(acc, ref_acc) and np.array_equal(comp, ref_comp)
    assert len(inner) == depth
    for j in range(1, depth):
        # position j-1's prefix before each column, from a plain scan of the inner rows
        inner_acc, inner_comp = acc0[:j].copy(), comp0[:j].copy()
        after = scan_block(factors[:j], inner_acc, inner_comp)
        prefix = np.concatenate(([acc0[j - 1] + comp0[j - 1]], after[:-1]))
        assert np.array_equal(inner[j - 1], prefix)
