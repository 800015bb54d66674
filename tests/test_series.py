"""Coefficients of powers phi^k from the one circle transform: column k of
`build_matrix`, checked against closed forms and repeated `np.convolve`.
The `extract` tests read column 1 (the coefficients of phi itself), the
`series_pow` tests read column k of a polynomial symbol."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compoplab.operators import build_matrix
from compoplab.series import default_radius
from compoplab.symbols import (
    BlaschkeSquare,
    ExplicitSeries,
    Lens,
    SingularEvaluationError,
    Symbol,
)


def _power(coeffs, k, order):
    """Coefficients 0..order of p^k for the polynomial p with these coefficients."""
    spec = ExplicitSeries(coeffs)
    return build_matrix(spec, max(order, k) + 1)[: order + 1, k]


def _convolution_power(coeffs, k, order):
    base = np.zeros(order + 1, dtype=complex)
    base[: min(len(coeffs), order + 1)] = coeffs[: order + 1]
    out = np.zeros(order + 1, dtype=complex)
    out[0] = 1.0
    for _ in range(k):
        out = np.convolve(out, base)[: order + 1]
    return out


def test_extract_identity_series():
    col = build_matrix(ExplicitSeries([0, 1]), 5)[:, 1]
    assert np.max(np.abs(col - np.array([0, 1, 0, 0, 0]))) <= 1e-12


def test_extract_lens_low_order():
    # hand expansion: (1+z)^t = 1 + tz + O(z^2) gives lambda_t(z) = t z + O(z^3),
    # and the map is odd, so c0 = c2 = 0 and c1 = t
    col = build_matrix(Lens(0.5), 3)[:, 1]
    assert abs(col[0]) <= 1e-12
    assert abs(col[1] - 0.5) <= 1e-12
    assert abs(col[2]) <= 1e-12


def test_extract_moebius_square_matches_convolution_oracle():
    a = 0.5
    # exact Moebius coefficients: (z-a)/(1-az) = -a + (1-a^2) sum_{n>=1} a^(n-1) z^n
    moebius = np.zeros(8, dtype=complex)
    moebius[0] = -a
    moebius[1:] = (1 - a * a) * a ** np.arange(7)
    oracle = np.convolve(moebius, moebius)[:4]
    col = build_matrix(BlaschkeSquare(a), 4)[:, 1]
    assert np.max(np.abs(col - oracle)) <= 1e-12


class _Pole(Symbol):
    """1/(z - r) with r the sampling radius at truncation 5: singular at a node."""

    def _raw(self, z):
        return 1.0 / (z - default_radius(4))


@dataclass(frozen=True)
class _Scaled(Symbol):
    c: float

    def _raw(self, z):
        return self.c * z


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extract_reports_singular_samples():
    with pytest.raises(SingularEvaluationError, match="non-finite"):
        build_matrix(_Pole(), 5)


def test_extract_rejects_functions_above_one():
    # the alias bound r^M/(1-r^M) holds only for sup |phi| <= 1
    # the circle of truncation 5 has radius e^-2 = 0.135
    with pytest.raises(SingularEvaluationError, match="max modulus 1.35"):
        build_matrix(_Scaled(10.0), 5)
    with pytest.raises(SingularEvaluationError, match="l2 norm 2 "):
        build_matrix(_Scaled(2.0), 5)
    build_matrix(ExplicitSeries([0, 1]), 5)  # |z| <= r < 1 passes


def test_extract_reproduces_polynomials(rng):
    for _ in range(5):
        deg = int(rng.integers(1, 12))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs /= 4.0 * np.sum(np.abs(coeffs))  # keep sup norm under 1
        padded = np.zeros(13, dtype=complex)
        padded[: deg + 1] = coeffs
        assert np.max(np.abs(_power(coeffs, 1, 12) - padded)) <= 1e-12


def test_series_pow_monomials():
    expected = np.zeros(6)
    expected[3] = 1
    assert np.max(np.abs(_power([0, 1], 3, 5) - expected)) < 1e-12
    for k in (1, 4, 9):
        expected = np.zeros(k + 1)
        expected[k] = 2.0**-k
        assert np.max(np.abs(_power([0, 0.5], k, k) - expected)) < 1e-12


def test_series_pow_hand_convolution():
    got = _power([0, 0.5, 0.5], 2, 4)
    assert np.max(np.abs(got - np.array([0, 0, 0.25, 0.5, 0.25]))) < 1e-12
    # 40 coefficients exceed the 32-point grid of truncation 3
    assert np.max(np.abs(_power(np.full(40, 0.02), 2, 0) - np.array([0.0004]))) < 1e-15


def test_series_pow_zero_exponent():
    assert np.allclose(_power([0.3, 0.2], 0, 3), [1, 0, 0, 0])


def test_series_pow_additivity(rng):
    for _ in range(5):
        coeffs = rng.normal(size=6)
        coeffs /= 2.0 * np.sum(np.abs(coeffs))
        j, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        lhs = _power(coeffs, j + k, 10)
        rhs = np.convolve(_power(coeffs, j, 10), _power(coeffs, k, 10))[:11]
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@settings(max_examples=150, deadline=None)
@given(
    parts=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=20),
    k=st.integers(0, 8),
    order=st.integers(0, 12),
)
def test_series_pow_matches_repeated_convolution(parts, k, order):
    coeffs = np.array([complex(re, im) for re, im in parts])
    amp = float(np.sum(np.abs(coeffs)))
    if amp > 1.0:
        coeffs /= amp
    got = _power(coeffs, k, order)
    assert got.shape == (order + 1,)
    assert np.max(np.abs(got - _convolution_power(coeffs, k, order))) <= 1e-12


def test_shift_contracts_hardy_norm(rng):
    # multiplying the base by z can only shed truncated coefficient mass;
    # the H^2 norm is the l2 norm of the coefficients
    for _ in range(5):
        coeffs = rng.normal(size=5)
        coeffs /= 2.0 * np.sum(np.abs(coeffs))
        shifted = np.concatenate([[0.0], coeffs])
        for k in (1, 2, 5):
            lhs = np.linalg.norm(_power(shifted, k, 12))
            rhs = np.linalg.norm(_power(coeffs, k, 12))
            assert lhs <= rhs + 1e-12


def test_power_series_validation():
    for bad in (np.ones((2, 2)), []):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            ExplicitSeries(bad)
    spec = ExplicitSeries(0.5)
    assert spec.coeffs.shape == (1,) and spec.coeffs.dtype == np.complex128
