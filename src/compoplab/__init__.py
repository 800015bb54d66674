"""compoplab: numerics for composition operators on disk and polydisk Hardy spaces.

Disk self-maps (lens, cusp, Blaschke squares, Shapiro-Taylor, polynomials),
boundary pullback measures, operator matrices sampled on one circle and their
singular values, tensor s-number calculus, and a walk-on-spheres harmonic
measure lab for the spiral channel region.
"""

__version__ = "0.1.0"

from .series import MAX_ORDER
from .symbols import (
    BlaschkeSquare,
    Compose,
    Cusp,
    ExplicitSeries,
    Lens,
    ShapiroTaylor,
    SingularEvaluationError,
    Symbol,
    shipped_symbols,
)
from .carleson import CarlesonProfile, rho_profile
from .operators import (
    build_matrix,
    hs_norm_sq,
    kernel_ratio,
    multiplicity_weights,
    unboundedness_witness,
)
from .spectra import (
    BetaEstimate,
    DecayFit,
    SingularSpectrum,
    beta_estimate,
    decay_fit,
    delta_from_epsilon,
    epsilon_power,
    epsilon_tensor,
    find_M,
    linear_fit,
    nu_count,
    singular_values,
    tensor_lemma_report,
    tensor_merge,
    upper_bound_plain,
    upper_bound_weighted,
)
from .harmonic import (
    DiskRegion,
    GraphChannel,
    HalfPlaneRegion,
    HarmonicMeasureEstimate,
    covering_count,
    wos_harmonic_measures,
)
