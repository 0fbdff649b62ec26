from fractions import Fraction

import pytest

from holoproj.jacobi import (
    DegenerateRecurrenceError,
    UnivariatePoly,
    jacobi_hypergeom,
    jacobi_poly,
    jacobi_recurrence,
)
from holoproj.kernel import weights_for_dim

F = Fraction


def test_degree_zero_is_one():
    assert jacobi_recurrence(0, F(1), F(-5)) == UnivariatePoly([1])
    assert jacobi_hypergeom(0, F(7, 2), F(-3)) == UnivariatePoly([1])


def test_degree_one_printed_formula():
    # (a - b + (a + b + 2) z) / 2
    assert jacobi_recurrence(1, F(1), F(-5)) == UnivariatePoly([3, -1])
    assert jacobi_recurrence(1, F(-1, 2), F(-2)) == UnivariatePoly([F(3, 4), F(-1, 4)])
    assert jacobi_hypergeom(1, F(1), F(-5)) == UnivariatePoly([3, -1])


def test_legendre_sanity():
    assert jacobi_recurrence(2, F(0), F(0)) == UnivariatePoly([F(-1, 2), 0, F(3, 2)])
    assert jacobi_hypergeom(2, F(0), F(0)) == UnivariatePoly([F(-1, 2), 0, F(3, 2)])


def test_recurrence_degenerates_for_even_kernel_parameters():
    # (a, b) = (1, -5): the leading factor c1 vanishes at step j = 2
    with pytest.raises(DegenerateRecurrenceError) as err:
        jacobi_recurrence(4, F(1), F(-5))
    assert err.value.j == 2


def test_hypergeom_covers_the_degenerate_case():
    p4 = jacobi_hypergeom(4, F(1), F(-5))
    assert p4 == UnivariatePoly([F(31, 16), F(13, 8), 1, F(3, 8), F(1, 16)])


def test_jacobi_poly_falls_back():
    assert jacobi_poly(4, F(1), F(-5)) == jacobi_hypergeom(4, F(1), F(-5))


def test_cross_construction_on_regular_parameters():
    for a, b in [(F(-1, 2), F(-2)), (F(1, 2), F(1, 2)), (F(2), F(3)), (F(1, 3), F(-1, 4))]:
        for r in range(0, 9):
            assert jacobi_recurrence(r, a, b) == jacobi_hypergeom(r, a, b)


def test_cross_construction_spec_pairs():
    assert jacobi_hypergeom(4, F(1), F(-5)) == jacobi_poly(4, F(1), F(-5))
    # at (2, -7) the recurrence also degenerates; hypergeometric covers
    with pytest.raises(DegenerateRecurrenceError):
        jacobi_recurrence(6, F(2), F(-7))
    assert jacobi_poly(6, F(2), F(-7)) == jacobi_hypergeom(6, F(2), F(-7))


@pytest.mark.parametrize("l", [1, 3, 4, 5, 6, 8, 10])
def test_kernel_parameter_family_coverage(l):
    """Both constructions agree where both are defined, and at least one is
    defined, for every degree <= 12 at the kernel parameters of dimension l."""
    w = weights_for_dim(l)
    a = 1 - w.k_f
    b = F(1 - w.kappa)
    for r in range(0, 13):
        values = []
        try:
            values.append(jacobi_recurrence(r, a, b))
        except DegenerateRecurrenceError:
            pass
        values.append(jacobi_hypergeom(r, a, b))  # must always succeed here
        assert values, "no construction defined"
        first = values[0]
        for other in values[1:]:
            assert other == first


def test_degree_matches_for_non_degenerate():
    for a, b in [(F(0), F(0)), (F(1, 2), F(-1, 2)), (F(3), F(2))]:
        for r in range(0, 10):
            assert jacobi_recurrence(r, a, b).degree() == r


def test_poly_evaluation():
    p = jacobi_hypergeom(4, F(1), F(-5))
    # P(1) = (a+1)_r / r! at z = 1 (u = 0 leaves only the constant term)
    assert p(F(1)) == F(5)


@pytest.mark.parametrize("l", [1, 3, 4, 5, 6, 8, 10])
def test_kernel_parameters_match_explicit_sum(l):
    """jacobi_poly at the kernel parameters of dimension l against the
    explicit sum  sum_s C(r+a, r-s) C(r+b, s) ((z-1)/2)^s ((z+1)/2)^(r-s)
    in sympy rationals (sympy.jacobi itself divides by zero at these
    parameters)."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    w = weights_for_dim(l)
    a, b = 1 - w.k_f, F(1 - w.kappa)
    sa, sb = sympy.Rational(a.numerator, a.denominator), sympy.Rational(b.numerator, b.denominator)
    for r in range(0, 13):
        ref = sum(
            sympy.binomial(r + sa, r - s) * sympy.binomial(r + sb, s)
            * ((z - 1) / 2) ** s * ((z + 1) / 2) ** (r - s)
            for s in range(r + 1)
        )
        coeffs = sympy.Poly(sympy.expand(ref), z).all_coeffs()[::-1] if ref != 0 else []
        expected = UnivariatePoly([F(int(c.p), int(c.q)) for c in coeffs])
        assert jacobi_poly(r, a, b) == expected, (l, r)
