"""Property tests of the tensor s-number calculus against its definitions."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from compoplab.spectra import (
    _ORACLE_BLOCK,
    extremal_spectrum,
    nu_count,
    nu_count_bruteforce,
    tensor_merge,
)

PROPERTY = settings(max_examples=150, deadline=None)

# a few repeated levels make ties common
values = st.one_of(
    st.sampled_from([0.0, 0.125, 0.25, 1.0 / 3.0, 0.5, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False),
)


def spectrum(min_size=1, max_size=40):
    return st.lists(values, min_size=min_size, max_size=max_size).map(
        lambda v: np.sort(np.asarray(v, dtype=float))[::-1]
    )


def merged_reference(factors, n):
    """Top n of every product, folded in the same order as tensor_merge."""
    products = np.asarray(factors[0], dtype=float)
    for f in factors[1:]:
        products = np.multiply.outer(products, f).ravel()
    return np.sort(products)[::-1][:n]


def double_loop(s, t, threshold):
    return sum(1 for sj in s.tolist() for tk in t.tolist() if sj * tk > threshold)


@PROPERTY
@given(
    s=spectrum(),
    t=spectrum(),
    c=st.floats(0.05, 2.0),
    n=st.integers(1, 20),
    power=st.integers(0, 6),
)
def test_nu_count_equals_oracle(s, t, c, n, power):
    # plant a pair whose product equals the threshold exactly:
    # 2^-power * (threshold * 2^power) is exact in binary floating point
    threshold = math.exp(-c * n)
    if threshold * 2.0**power <= 1.0:
        s = np.sort(np.append(s, 2.0**-power))[::-1]
        t = np.sort(np.append(t, threshold * 2.0**power))[::-1]
    assert nu_count(s, t, c, n) == nu_count_bruteforce(s, t, c, n) == double_loop(s, t, threshold)


@PROPERTY
@given(s=spectrum(), t=spectrum(), n=st.integers(1, 1700))
def test_merge_equals_sorted_products(s, t, n):
    merged = tensor_merge([s, t], n)
    assert np.array_equal(merged.values, merged_reference([s, t], n))


@PROPERTY
@given(
    exponents=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), min_size=2, max_size=3),
    c=st.floats(0.1, 2.0),
    levels=st.integers(1, 6),
    n=st.integers(1, 2000),
)
def test_merge_of_extremal_spectra(exponents, c, levels, n):
    # every value of an extremal spectrum repeats, so the products tie heavily
    factors = [extremal_spectrum(a, c, levels) for a in exponents]
    merged = tensor_merge(factors, n)
    assert np.array_equal(merged.values, merged_reference(factors, n))


@PROPERTY
@given(factors=st.lists(spectrum(max_size=15), min_size=3, max_size=3), n=st.integers(1, 4000))
def test_three_factor_fold(factors, n):
    merged = tensor_merge(factors, n)
    assert np.array_equal(merged.values, merged_reference(factors, n))


def test_oracle_across_row_blocks():
    rng = np.random.default_rng(7)
    threshold = math.exp(-1.0 * 3)
    # a row longer than the block: one row per block
    t = np.sort(rng.uniform(0.0, 1.0, _ORACLE_BLOCK + 3))[::-1]
    t[[0, 5000, -1]] = [1.0, threshold, threshold]
    t = np.sort(t)[::-1]
    s = np.array([1.0, 0.5, 0.25])
    assert nu_count_bruteforce(s, t, 1.0, 3) == double_loop(s, t, threshold)
    # a row count that is not a multiple of the rows per block
    t = np.sort(rng.uniform(0.0, 1.0, 1000))[::-1]
    rows = _ORACLE_BLOCK // t.size
    t[0] = 1.0
    s = np.sort(np.append(rng.uniform(0.0, 1.0, 2 * rows + 6), threshold))[::-1]
    assert s.size % rows != 0
    assert nu_count_bruteforce(s, t, 1.0, 3) == double_loop(s, t, threshold)
