import math
import random
from fractions import Fraction

import pytest

from holoproj.jacobi import jacobi_poly
from holoproj.rings import UnivariatePoly
from holoproj.kernel import (
    BivariateLaurent,
    NonSquareArgumentError,
    WeightError,
    kernel_bivariate,
    kernel_u_form,
    projection_kernel,
    verify_closed_forms,
    weights_for_dim,
)

F = Fraction


def test_weight_bookkeeping():
    w4 = weights_for_dim(4)
    assert (w4.k_f, w4.kappa) == (F(0), 6)
    assert w4.k_g == F(6)
    assert w4.shadow_weight == -4
    assert w4.parity_class == "even-l-integral"
    w3 = weights_for_dim(3)
    assert (w3.k_f, w3.kappa) == (F(1, 2), 5)
    assert w3.parity_class == "odd-l-half-integral"
    w5 = weights_for_dim(5)
    assert (w5.k_f, w5.kappa) == (F(-1, 2), 7)
    w1 = weights_for_dim(1)
    assert (w1.k_f, w1.kappa) == (F(3, 2), 3)


def test_dimension_two_rejected():
    with pytest.raises(WeightError):
        weights_for_dim(2)


def test_kernel_l1_closed_form():
    # (x - y)^2 / (2x) = x/2 - y + y^2/(2x)
    k = kernel_bivariate(weights_for_dim(1))
    assert k == BivariateLaurent({(1, 0): F(1, 2), (0, 1): -1, (-1, 2): F(1, 2)})


def test_kernel_l4_both_orientations():
    xxyy5 = BivariateLaurent({(2, 0): 1, (0, 2): -1}).pow(5)
    larger = kernel_bivariate(weights_for_dim(4), "prefactor_on_larger")
    smaller = kernel_bivariate(weights_for_dim(4), "prefactor_on_smaller")
    assert larger == (-1) * xxyy5.shift(-10, -2)
    assert smaller == xxyy5.shift(-2, -10)


@pytest.mark.parametrize("l", [1, 3, 4, 5, 6, 7, 8, 9, 10, 12])
def test_u_form_is_jacobi_poly_at_one_minus_two_u(l):
    """The u-form read off the 2F1 sum equals jacobi_poly composed with
    z = 1 - 2u: the recurrence for odd l, the 2F1 fallback in z for even l;
    l = 7, 9 and 12 have no tabulated closed form."""
    w = weights_for_dim(l)
    poly = jacobi_poly(w.kappa - 2, 1 - w.k_f, F(1 - w.kappa))
    assert kernel_u_form(w) == poly(UnivariatePoly([1, -2]))


def test_bivariate_laurent_int_and_fraction_coefficients_agree():
    terms = {(2, 0): 7, (0, 2): 1, (-1, 3): -45, (3, -1): 0}
    as_int = BivariateLaurent(terms)
    as_fraction = BivariateLaurent({k: F(c) for k, c in terms.items()})
    assert as_int == as_fraction
    assert str(as_int) == str(as_fraction) == "(-45)*x^-1*y^3 + (1)*y^2 + (7)*x^2"
    assert str(as_int * F(1, 2)) == str(as_fraction * F(1, 2))
    assert (as_int - as_fraction).is_zero()


@pytest.mark.parametrize("l", [1, 3, 4, 5, 6, 8, 10])
def test_orientation_swap_is_variable_swap(l):
    w = weights_for_dim(l)
    larger = kernel_bivariate(w, "prefactor_on_larger")
    smaller = kernel_bivariate(w, "prefactor_on_smaller")
    assert larger.swap_vars() == smaller


@pytest.mark.parametrize("l", [4, 6, 8, 10])
def test_even_dimensions_have_even_exponents(l):
    assert kernel_bivariate(weights_for_dim(l)).exponents_all_even()


@pytest.mark.parametrize("l", [1, 3, 5])
def test_odd_dimensions_have_odd_exponents(l):
    k = kernel_bivariate(weights_for_dim(l))
    assert any(i % 2 or j % 2 for i, j in k.terms)


def test_kernel_eval_landmarks():
    k4 = projection_kernel(4)
    assert k4.eval(36, 4) == F(-8192, 59049)
    k4s = projection_kernel(4, "prefactor_on_smaller")
    assert k4s.eval(36, 4) == F((36 - 4) ** 5, 36 * 4 ** 5)
    assert k4s.eval(36, 4) == F(8192, 9)
    k1 = projection_kernel(1)
    assert k1.eval(9, 1) == F(2, 3)


def test_kernel_eval_argument_order_enforced():
    k4 = projection_kernel(4)
    with pytest.raises(ValueError):
        k4.eval(36, 36)
    with pytest.raises(ValueError):
        k4.eval(4, 36)
    with pytest.raises(ValueError):
        k4.eval(36, 0)


def test_odd_kernel_needs_square_arguments():
    k1 = projection_kernel(1)
    with pytest.raises(NonSquareArgumentError):
        k1.eval(8, 1)
    k3 = projection_kernel(3)
    with pytest.raises(NonSquareArgumentError):
        k3.eval(11, 3)
    # both perfect squares: exact value comes out
    assert k1.eval(25, 4) == F((5 - 2) ** 2, 2 * 5)


def fraction_eval(kernel, N, M):
    """N^(k_f-1) P(1 - 2M/N) - M^(k_f-1) by Fraction Horner on the u-form,
    half powers through exact square roots: the evaluation the integer form
    replaced."""
    if kernel.orientation == "prefactor_on_smaller":
        N, M = M, N
    two_e = kernel.weights.two_e

    def half_power(n):
        if two_e % 2 == 0:
            return F(n) ** (two_e // 2)
        root = math.isqrt(n)
        if root * root != n:
            raise NonSquareArgumentError(n)
        return F(root) ** two_e

    return half_power(N) * kernel.u_form(F(M, N)) - half_power(M)


GRID = [(N, M) for N in range(2, 41) for M in range(1, N)] + [
    (65536 + 40, 65536), (10 ** 6 + 3, 17), (2 ** 61 - 1, 2 ** 31)]
SQUARE_GRID = [(n * n, m * m) for n in range(2, 30) for m in range(1, n)] + [
    (1001 ** 2, 1000 ** 2), (12345 ** 2, 7 ** 2)]


@pytest.mark.parametrize("orientation", ["prefactor_on_larger", "prefactor_on_smaller"])
@pytest.mark.parametrize("l", [1, 3, 4, 5, 6, 8, 10])
def test_integer_form_equals_the_fraction_evaluation(l, orientation):
    k = projection_kernel(l, orientation)
    for N, M in GRID if l % 2 == 0 else SQUARE_GRID:
        num, den = k.ratio(N, M)
        assert den > 0
        assert k.eval(N, M) == F(num, den) == fraction_eval(k, N, M), (N, M)


@pytest.mark.parametrize("l", [4, 6, 8, 10])
def test_integer_form_denominator_powers(l):
    """D M^a N^b with a = l/2 - 1 and b = deg P + a, slots swapped for
    prefactor_on_smaller."""
    a = l // 2 - 1
    b = projection_kernel(l).u_form.degree() + a
    for orientation in ("prefactor_on_larger", "prefactor_on_smaller"):
        k = projection_kernel(l, orientation)
        assert k.powers == (a, b) and not k.roots
        N, M = 3 ** 5, 2 ** 7
        x, y = (N, M) if orientation == "prefactor_on_larger" else (M, N)
        assert k.ratio(N, M)[1] == k.scale * y ** a * x ** b
        assert all(isinstance(g, int) for g in k.form)


@pytest.mark.parametrize("orientation", ["prefactor_on_larger", "prefactor_on_smaller"])
@pytest.mark.parametrize("l", [1, 3, 5])
def test_odd_integer_form_rejects_non_square_arguments(l, orientation):
    k = projection_kernel(l, orientation)
    assert k.roots
    for N, M in ((8, 1), (9, 2), (11, 3), (50, 49)):
        with pytest.raises(NonSquareArgumentError):
            k.ratio(N, M)
        with pytest.raises(NonSquareArgumentError):
            k.eval(N, M)


def test_kernel_eval_matches_printed_table():
    """The handle's Horner evaluation of the u-form equals the printed
    Laurent table evaluated at the square roots, in both orientations."""
    for l in (1, 3, 4, 6):
        for orientation in ("prefactor_on_larger", "prefactor_on_smaller"):
            table = kernel_bivariate(weights_for_dim(l), orientation)
            k = projection_kernel(l, orientation)
            for nu in range(2, 12):
                for mu in range(1, nu):
                    assert k.eval(nu * nu, mu * mu) == table.evaluate(nu, mu), (l, orientation)


@pytest.mark.parametrize("l", [4, 6, 8, 10])
def test_two_path_agreement_with_direct_jacobi(l):
    """The kernel handle equals N^(k-1) P(1 - 2M/N) - M^(k-1) computed through the
    polynomial evaluated at the rational point."""
    w = weights_for_dim(l)
    poly = jacobi_poly(w.kappa - 2, 1 - w.k_f, F(1 - w.kappa))
    k = projection_kernel(l)
    e = w.k_f - 1
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(1, 400)
        n = m + rng.randint(1, 400)
        z = 1 - F(2 * m, n)
        direct = F(n) ** int(e) * poly(z) - F(m) ** int(e)
        assert k.eval(n, m) == direct


@pytest.mark.parametrize("l", [1, 3, 5])
def test_two_path_agreement_odd_dimensions(l):
    # odd dimensions need perfect-square arguments; the half powers are then
    # integral powers of the square roots
    w = weights_for_dim(l)
    poly = jacobi_poly(w.kappa - 2, 1 - w.k_f, F(1 - w.kappa))
    k = projection_kernel(l)
    two_e = int(2 * (w.k_f - 1))
    rng = random.Random(9)
    for _ in range(200):
        mu = rng.randint(1, 40)
        nu = mu + rng.randint(1, 40)
        n, m = nu * nu, mu * mu
        direct = F(nu) ** two_e * poly(1 - F(2 * m, n)) - F(mu) ** two_e
        assert k.eval(n, m) == direct


def test_l1_cancellation_identity():
    # 2 K(nu^2, mu^2) nu = (nu - mu)^2 exactly
    k1 = projection_kernel(1)
    for nu in range(2, 31):
        for mu in range(1, nu):
            assert 2 * k1.eval(nu * nu, mu * mu) * nu == (nu - mu) ** 2


def test_closed_forms_report():
    rep = verify_closed_forms()
    by_name = {i["name"]: i for i in rep["identities"]}
    assert by_name["kappa=6 (l=4)"]["match"]
    assert by_name["kappa=6 (l=4)"]["orientation_used"] == "swapped"
    assert by_name["kappa=8 (l=6)"]["match"]
    k10 = by_name["kappa=10 (l=8)"]
    assert k10["candidates"]["trailing=y^4 (corrected)"]["match"]
    assert not k10["candidates"]["trailing=x^4 (as printed)"]["match"]
    assert k10["candidates"]["trailing=x^4 (as printed)"]["difference"] != "0"
    k12 = by_name["kappa=12 (l=10)"]
    assert k12["candidates"]["trailing=y^6 (corrected)"]["match"]
    assert not k12["candidates"]["trailing=x^6 (as printed)"]["match"]
    assert by_name["kappa=5 (l=3)"]["match"]
    assert by_name["kappa=7 (l=5)"]["match"]


def test_closed_forms_other_orientation_matches_directly():
    rep = verify_closed_forms("prefactor_on_smaller")
    by_name = {i["name"]: i for i in rep["identities"]}
    assert by_name["kappa=6 (l=4)"]["orientation_used"] == "direct"


def test_bivariate_laurent_canonical_form():
    a = BivariateLaurent({(1, 0): 1, (0, 1): 2})
    b = BivariateLaurent({(0, 1): 2, (1, 0): 1, (5, 5): 0})
    assert a == b
    assert (a - a).is_zero()
    assert a.evaluate(F(3), F(2)) == 7
