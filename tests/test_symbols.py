import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compoplab as C
from compoplab.experiments import blaschke_passage, contraction_floor
from compoplab.series import default_radius, default_sample_count
from compoplab.symbols import (
    BlaschkeSquare,
    Compose,
    Cusp,
    ExplicitSeries,
    Lens,
    ShapiroTaylor,
)


def test_declared_real_coefficients_mean_conjugate_symmetry(roster):
    points = np.random.default_rng(7)
    z = np.sqrt(points.uniform(0.0, 0.998, 2000)) * np.exp(2j * np.pi * points.uniform(size=2000))
    declared = [name for name, spec in roster.items() if spec.real_coefficients]
    assert "rotation" not in declared and len(declared) == len(roster) - 1
    for name in declared:
        want = np.conj(roster[name].evaluate(z))
        assert np.all(np.abs(roster[name].evaluate(np.conj(z)) - want) <= 1e-15 * np.abs(want)), name
    assert not ExplicitSeries([0.25, 0.5j]).real_coefficients
    assert not ExplicitSeries([0.5j]).real_coefficients
    assert not Compose(Lens(0.5), ExplicitSeries([0, np.exp(0.3j)])).real_coefficients


def test_lens_fixes_origin():
    for theta in (0.1, 0.5, 1.0):
        assert abs(Lens(theta).evaluate(0.0)) < 1e-15


def test_blaschke_square_interior_value():
    a = 0.5
    x = 2 * a / (1 + a * a)
    assert BlaschkeSquare(a).evaluate(x) == pytest.approx(a * a, abs=1e-14)


def test_cusp_logarithmic_contact_law():
    # |1 - chi(x)| log(1/(1-x)) stays in a fixed band on the radius;
    # regression interval recorded from the shipped construction
    cusp = Cusp()
    for x in (1 - 1e-2, 1 - 1e-4, 1 - 1e-6):
        v = abs(1 - cusp.evaluate(x)) * math.log(1.0 / (1.0 - x))
        assert 1.2 <= v <= 2.0


@pytest.mark.parametrize("spec", [Lens(0.5), ShapiroTaylor(1.5), ShapiroTaylor(2.0)])
def test_strip_image_matches_the_generic_form_away_from_contact(spec):
    # near contact only the override is accurate; here both must agree
    alpha = np.array([-8.0, -2.0 + 0.9j, 0.0, 0.5 - 0.45j, 3.0 + 1.2j, 6.0 - 1.35j])
    generic = C.Symbol.strip_image(spec, alpha)
    assert np.max(np.abs(spec.strip_image(alpha) - generic)) < 1e-11


def test_lens_semigroup_identity_factor():
    # theta' = 1 is the identity, so the composition reproduces Lens(theta) exactly
    grid = np.linspace(-0.9, 0.9, 50) + 0.1j
    composed = np.array([Lens(0.7).evaluate(Lens(1.0).evaluate(z)) for z in grid])
    direct = np.array([Lens(0.7).evaluate(z) for z in grid])
    assert np.array_equal(composed, direct)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(0.01, 1.0),
    theta_prime=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    radius=st.floats(0.0, 0.99),
    angle=st.floats(0.0, 2.0 * math.pi),
)
def test_lens_semigroup_composition(theta, theta_prime, radius, angle):
    # Lens(theta) o Lens(theta') = Lens(theta theta'), and Lens(1) is the identity
    z = radius * cmath.exp(1j * angle)
    composed = Lens(theta).evaluate(Lens(theta_prime).evaluate(z))
    direct = Lens(theta * theta_prime).evaluate(z)
    if theta_prime == 1.0:
        assert composed == direct
    assert abs(composed - direct) <= 1e-12


def test_blaschke_contraction_ratio_values():
    # (1 - |B(z)|)/(1 - |z|) for B = BlaschkeSquare(a), a = 0.5: B(0) = a^2, B(a) = 0
    a = 0.5
    assert contraction_floor([0.0])[0] == pytest.approx(1 - a * a, abs=1e-12)
    assert contraction_floor([0.9])[2]
    assert contraction_floor([a])[0] == pytest.approx(1.0 / (1.0 - a), abs=1e-12)


def test_contraction_floor_on_random_points(rng):
    pts = rng.uniform(-0.95, 0.95, 500) + 1j * rng.uniform(-0.95, 0.95, 500)
    pts = pts[np.abs(pts) < 0.99]
    ratio, floor, ok = contraction_floor(pts[:200])
    assert ok, (ratio, floor)


def test_roster_self_map_property(roster, rng):
    z = rng.uniform(-1, 1, 2 * 10**5) + 1j * rng.uniform(-1, 1, 2 * 10**5)
    z = z[np.abs(z) < 0.9999][: 10**5]
    for name, spec in roster.items():
        vals = spec.evaluate(z)
        assert np.max(np.abs(vals)) < 1.0 + 1e-12, name


def test_lens_maps_are_odd(rng):
    z = rng.uniform(-0.9, 0.9, 1000) + 1j * rng.uniform(-0.9, 0.9, 1000)
    z = z[np.abs(z) < 0.99]
    for theta in (0.25, 0.5, 0.8):
        lens = Lens(theta)
        assert np.max(np.abs(lens.evaluate(-z) + lens.evaluate(z))) < 1e-12


def test_blaschke_level_set_passage():
    # |B(w)| > 1-h forces 1-|w| <= kappa_a h pointwise, hence on counts
    rows, _, ok = blaschke_passage(1 << 16, (0.25, 0.1, 0.05))
    assert ok, rows


def test_eval_rejects_points_outside_disk():
    with pytest.raises(ValueError):
        Lens(0.5).evaluate(1.0)
    with pytest.raises(ValueError):
        Cusp().evaluate(1.2 + 0.1j)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Lens(0.0)
    with pytest.raises(ValueError):
        Lens(1.5)
    with pytest.raises(TypeError):
        Cusp(2.0)
    with pytest.raises(ValueError):
        BlaschkeSquare(1.0)
    with pytest.raises(ValueError):
        ShapiroTaylor(-2.0)
    with pytest.raises(TypeError):
        ShapiroTaylor(3.0, eps=0.9)
    with pytest.raises(ValueError):
        ExplicitSeries([2.0])


def _moebius_image(z):
    """The Moebius step m(z) = (z - i)/(iz - 1) of the half-disk map."""
    return (z - 1j) / (1j * z - 1.0)


def test_branch_cut_inputs_take_the_root_from_above():
    # |z0| = 1 - 2^-53: the Moebius image m of the half-disk map lands exactly
    # on the negative real axis, with Im m = -0.0; the principal root of m
    # takes the lower side of the cut there and |phi| = 4.82 at theta = 1.5
    z0 = complex(float.fromhex("0x1.ff085d2deaa6ep-1"), float.fromhex("0x1.f75422e25c72bp-5"))
    m0 = _moebius_image(np.array([z0]))
    assert abs(z0) < 1.0 and m0.real[0] < 0.0 and m0.imag[0] == 0.0
    assert C.symbols._upper_sqrt(m0)[0] == 1j * math.sqrt(-m0.real[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (1.5, 2.0, 3.0):
            assert abs(ShapiroTaylor(theta).evaluate(z0)) <= 1.0, theta


@pytest.mark.parametrize(
    "radius, samples",
    [
        *((default_radius(k - 1), default_sample_count(k - 1)) for k in (256, 512, 1024, 2048)),
        (C.carleson.DEFAULT_BOUNDARY_RADIUS, 1 << 16),
        (C.carleson.DEFAULT_BOUNDARY_RADIUS, 1 << 18),
        (C.carleson.DEFAULT_BOUNDARY_RADIUS, 1 << 20),
        (C.carleson.CROSSCHECK_BOUNDARY_RADIUS, 1 << 18),
    ],
)
def test_upper_root_is_the_principal_root_where_the_workloads_sample(radius, samples):
    # the coefficient transform's sampling circles and rho_profile's boundary
    # grids stay off the cut, so the root from above changes none of their bits
    m = _moebius_image(radius * np.exp(1j * (2.0 * np.pi * np.arange(samples) / samples)))
    assert np.all(m.imag > 0.0)
    assert np.array_equal(C.symbols._upper_sqrt(m).view(np.uint8), np.sqrt(m).view(np.uint8))


@pytest.mark.parametrize("theta", [1.5, 2.0, 3.0])
def test_shapiro_taylor_strip_image_on_the_upper_line_is_the_limit_from_inside(theta):
    # 1 - |phi|^2 = 2 cos b / (cosh a + cos b) for beta = a + ib, read on
    # Im alpha = pi/2 and just inside it; the principal root of -m takes the
    # other branch there for u < 0 and is off by up to 1.92 relative
    def gap(beta):
        return 2.0 * np.cos(beta.imag) / (np.cosh(beta.real) + np.cos(beta.imag))

    spec = ShapiroTaylor(theta)
    u = np.linspace(-30.0, 30.0, 6001)
    on_line = gap(spec.strip_image(u + 0.5j * math.pi))
    inside = gap(spec.strip_image(u + 1j * (0.5 * math.pi - 1e-9)))
    assert np.max(np.abs(on_line / inside - 1.0)) < 1e-4
