import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compoplab.series import (
    PowerSeries,
    extract_coefficients,
    series_mul,
    series_pow,
)
from compoplab.symbols import Lens


def test_extract_identity_series():
    p = extract_coefficients(lambda z: z, 4)
    expected = np.array([0, 1, 0, 0, 0], dtype=complex)
    assert np.max(np.abs(p.coeffs - expected)) <= p.alias_error + 1e-12


def test_extract_lens_low_order():
    # hand expansion: (1+z)^t = 1 + tz + O(z^2) gives lambda_t(z) = t z + O(z^3),
    # and the map is odd, so c0 = c2 = 0 and c1 = t
    p = extract_coefficients(Lens(0.5).evaluate, 2)
    tol = p.alias_error + 1e-12
    assert abs(p.coeffs[0]) <= tol
    assert abs(p.coeffs[1] - 0.5) <= tol
    assert abs(p.coeffs[2]) <= tol


def test_extract_moebius_square_matches_convolution_oracle():
    a = 0.5
    # exact Moebius coefficients: (z-a)/(1-az) = -a + (1-a^2) sum_{n>=1} a^(n-1) z^n
    moebius = np.zeros(8, dtype=complex)
    moebius[0] = -a
    moebius[1:] = (1 - a * a) * a ** np.arange(7)
    oracle = np.convolve(moebius, moebius)[:4]
    p = extract_coefficients(lambda z: ((z - a) / (1 - a * z)) ** 2, 3)
    assert np.max(np.abs(p.coeffs - oracle)) <= p.alias_error + 1e-12


def test_extract_rejects_bad_sampling():
    with pytest.raises(ValueError):
        extract_coefficients(lambda z: z, 4, radius=1.5)
    with pytest.raises(ValueError):
        extract_coefficients(lambda z: z, 4, radius=0.0)
    with pytest.raises(ValueError):
        extract_coefficients(lambda z: z, 8, samples=8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extract_reports_singular_samples():
    r = 0.5
    with pytest.raises(ArithmeticError, match="singularity"):
        extract_coefficients(lambda z: 1.0 / (z - r), 4, radius=r)


def test_extract_rejects_functions_above_one():
    # the alias bound r^M/(1-r^M) holds only for sup |f| <= 1
    with pytest.raises(ArithmeticError, match="sup"):
        extract_coefficients(lambda z: 2 * z, 4)
    extract_coefficients(lambda z: z, 4)  # |z| <= r < 1 passes


def test_extract_reproduces_polynomials(rng):
    for _ in range(5):
        deg = int(rng.integers(1, 12))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs /= 4.0 * np.sum(np.abs(coeffs))  # keep sup norm under 1
        poly = PowerSeries(coeffs)
        p = extract_coefficients(poly, 12)
        padded = np.zeros(13, dtype=complex)
        padded[: deg + 1] = coeffs
        assert np.max(np.abs(p.coeffs - padded)) <= p.alias_error + 1e-12


def test_series_pow_monomials():
    z = PowerSeries([0, 1])
    cubed = series_pow(z, 3, order=5)
    expected = np.zeros(6)
    expected[3] = 1
    assert np.max(np.abs(cubed.coeffs - expected)) < 1e-12

    half = PowerSeries([0, 0.5])
    for k in (1, 4, 9):
        p = series_pow(half, k, order=k)
        expected = np.zeros(k + 1)
        expected[k] = 2.0**-k
        assert np.max(np.abs(p.coeffs - expected)) < 1e-12


def test_series_pow_hand_convolution():
    p = series_pow(PowerSeries([0, 1, 1]), 2, order=4)
    assert np.max(np.abs(p.coeffs - np.array([0, 0, 1, 2, 1]))) < 1e-10
    # 10 coefficients exceed the 8-point grid of order 0
    p = series_pow(PowerSeries(np.full(10, 0.05)), 2, order=0)
    assert np.max(np.abs(p.coeffs - np.array([0.0025]))) < 1e-15


def test_series_pow_zero_exponent_and_errors():
    p = series_pow(PowerSeries([0.3, 0.2]), 0, order=3)
    assert np.allclose(p.coeffs, [1, 0, 0, 0])
    assert p.alias_error == 0.0
    with pytest.raises(ValueError):
        series_pow(PowerSeries([0, 1]), -1)
    with pytest.raises(OverflowError):
        series_pow(PowerSeries([2.0, 2.0]), 4096)


def test_series_pow_additivity(rng):
    for _ in range(5):
        coeffs = rng.normal(size=6)
        coeffs /= 2.0 * np.sum(np.abs(coeffs))
        p = PowerSeries(coeffs)
        j, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        lhs = series_pow(p, j + k, order=10)
        rhs = series_mul(series_pow(p, j, order=10), series_pow(p, k, order=10), order=10)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-10


@settings(max_examples=150, deadline=None)
@given(
    parts=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=20),
    k=st.integers(0, 8),
    order=st.integers(0, 12),
)
def test_series_pow_matches_repeated_convolution(parts, k, order):
    coeffs = np.array([complex(re, im) for re, im in parts])
    amp = float(np.sum(np.abs(coeffs)))
    if amp > 1.5:
        coeffs *= 1.5 / amp
    # terms above `order` cannot reach the kept coefficients of p^k
    base = np.zeros(order + 1, dtype=complex)
    base[: min(coeffs.size, order + 1)] = coeffs[: order + 1]
    expected = np.zeros(order + 1, dtype=complex)
    expected[0] = 1.0
    for _ in range(k):
        expected = np.convolve(expected, base)[: order + 1]
    got = series_pow(PowerSeries(coeffs), k, order=order)
    assert got.coeffs.shape == (order + 1,)
    scale = max(float(np.sum(np.abs(coeffs))), 1.0) ** k
    assert np.max(np.abs(got.coeffs - expected)) <= 1e-12 * scale + got.alias_error


def test_shift_contracts_hardy_norm(rng):
    # multiplying the base by z can only shed truncated coefficient mass;
    # the H^2 norm is the l2 norm of the coefficients
    for _ in range(5):
        coeffs = rng.normal(size=5)
        coeffs /= 2.0 * np.sum(np.abs(coeffs))
        q = PowerSeries(coeffs)
        zq = PowerSeries(np.concatenate([[0.0], coeffs]))
        for k in (1, 2, 5):
            lhs = np.linalg.norm(series_pow(zq, k, order=12).coeffs)
            rhs = np.linalg.norm(series_pow(q, k, order=12).coeffs)
            assert lhs <= rhs + 1e-12


def test_power_series_validation():
    with pytest.raises(ValueError):
        PowerSeries(np.ones((2, 2)))
    with pytest.raises(ValueError):
        PowerSeries([1.0], alias_error=-1.0)
    with pytest.raises(ValueError):
        PowerSeries([1.0], alias_error=float("nan"))
