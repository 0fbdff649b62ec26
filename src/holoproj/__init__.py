"""Exact q-series engine and verification toolkit for small-divisor /
holomorphic-projection identities."""

from .rings import CyclotomicNumber, UnivariatePoly, cyc, value_from_json, value_to_json
from .characters import (
    CharacterTableError,
    DirichletCharacter,
    char_conjugate,
    char_from_spec,
    char_from_table,
    char_kronecker,
)
from .qseries import QSeries, SeriesRangeError
from .theta import theta_power_direct, theta_power_series, theta_series
from .smalldiv import (
    CharacterParityError,
    CharacterPlacement,
    MultiIndex,
    divisor_sum,
    sigma_sm,
    sigma_sm_classical,
    small_divisors,
)
from .jacobi import (
    DegenerateRecurrenceError,
    HypergeomPoleError,
    jacobi_hypergeom,
    jacobi_poly,
    jacobi_recurrence,
)
from .kernel import (
    NonSquareArgumentError,
    ProjectionKernel,
    WeightData,
    WeightError,
    kernel_bivariate,
    projection_kernel,
    verify_closed_forms,
    weights_for_dim,
)
from .projection import (
    FullSideResult,
    OddDimensionError,
    ProjectionConfig,
    ResidualReport,
    eisenstein_e2,
    full_pairs_side,
    lemma_gap_witnesses,
    ordered_pairs_side,
    residual_report,
    sigma_side,
)

# The mpmath-backed companion checks and the calibrations load on first use
# (PEP 562), so that importing the package imports neither mpmath nor them.
_LAZY = {**dict.fromkeys((
    "EichlerCalibration", "FMinusValue", "UpperHalfPoint", "XiCheckResult", "calibrate_eichler",
    "eichler_integral", "eval_f_minus", "inc_gamma", "theta_numeric", "xi_check",
    "xi_finite_difference"), "numeric"),
    **dict.fromkeys(("CalibrationInstance", "CalibrationResult", "calibrate_constants"),
                    "calibrate")}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
