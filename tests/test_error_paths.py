"""The rejections and edge branches that no other test reaches, each with its
exception type and message (or its value)."""

import re
from fractions import Fraction

import mpmath as mp
import pytest

from holoproj import ProjectionConfig, char_kronecker, full_pairs_side
from holoproj.calibrate import CalibrationInstance, calibrate_constants
from holoproj.characters import kronecker_symbol
from holoproj.jacobi import HypergeomPoleError, jacobi_hypergeom_u, jacobi_recurrence
from holoproj.kernel import kernel_bivariate, weights_for_dim
from holoproj.numeric import f_minus_tail_bound
from holoproj.qseries import QSeries
from holoproj.rings import CyclotomicNumber, UnivariatePoly, cyc
from holoproj.smalldiv import eisenstein_e2, sigma_sm_classical
from holoproj.theta import theta_power_direct, theta_series

PSI, CHI = char_kronecker(-4), char_kronecker(8)


@pytest.mark.parametrize("call, error, message", [
    (lambda: calibrate_constants(CalibrationInstance("kernel-1dim", PSI, CHI), verify_rows=-1),
     ValueError, "verify_rows must be >= 0, got -1"),
    (lambda: kronecker_symbol(5, -1), ValueError, "kronecker_symbol expects n >= 0 here"),
    (lambda: jacobi_recurrence(-1, Fraction(0), Fraction(0)), ValueError, "degree must be >= 0"),
    (lambda: jacobi_hypergeom_u(-1, Fraction(0), Fraction(0)), ValueError,
     "degree must be >= 0"),
    (lambda: jacobi_hypergeom_u(2, Fraction(-1), Fraction(0)), HypergeomPoleError,
     "denominator Pochhammer vanished at k=1 for parameters (-1, 0)"),
    (lambda: kernel_bivariate(weights_for_dim(4), "bogus"), ValueError,
     "unknown orientation 'bogus'"),
    (lambda: full_pairs_side(ProjectionConfig(PSI, CHI, 4, 8, modes=("ordered",))), ValueError,
     "full mode needs a norm bound B"),
    (lambda: full_pairs_side(ProjectionConfig(PSI, CHI, 4, 8, modes=("ordered",), B=4)),
     ValueError, "need B >= rmax, got B=4 < 8"),
    (lambda: QSeries(5, 4), ValueError, "empty window [5, 4]"),
    (lambda: QSeries(0, 4, {0: 1}).divide(3), TypeError, "divide expects a QSeries"),
    (lambda: CyclotomicNumber.zeta(4).rational_value(), ValueError,
     "Cyc(order=4, [0, 1]) is not rational"),
    (lambda: cyc(2).multiplicative_order(bound=5), ValueError, "not a root of unity within bound"),
    (lambda: eisenstein_e2(-1), ValueError, "need N >= 0"),
    (lambda: sigma_sm_classical(3, PSI, CHI, power=3), ValueError,
     "supported weights are d and d^2, got power 3"),
    (lambda: theta_series(PSI, 0), ValueError, "need N >= 1, got 0"),
    (lambda: theta_power_direct(PSI, 0, 10), ValueError, "need l >= 1, got 0"),
    (lambda: theta_power_direct(PSI, 4, 0), ValueError, "need N >= 1, got 0"),
])
def test_rejections_name_their_cause(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_tail_bound_is_infinite_below_the_gamma_bound_range():
    """At l = 6, s = 1 - k_f = 2, and 4 pi (cutoff + 1) v < s leaves the
    incomplete-Gamma bound unproved."""
    assert f_minus_tail_bound(6, 0, "0.1", 0) == mp.inf


def test_a_float_coefficient_becomes_a_fraction():
    assert UnivariatePoly([0.5]).coeffs == (Fraction(1, 2),)
    assert type(UnivariatePoly([0.5]).coeffs[0]) is Fraction
