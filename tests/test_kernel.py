import math
import random
import re
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from holoproj.calibrate import _power_difference_kernel
from holoproj.jacobi import jacobi_poly
from holoproj.rings import UnivariatePoly
from holoproj.kernel import (
    ORIENTATIONS,
    HomogeneousForm,
    NonSquareArgumentError,
    ProjectionKernel,
    WeightError,
    kernel_bivariate,
    _reference_forms,
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
    w3 = weights_for_dim(3)
    assert (w3.k_f, w3.kappa) == (F(1, 2), 5)
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
    assert k == HomogeneousForm(1, 0, [F(1, 2), -1, F(1, 2)])  # x (1/2 - t + t^2/2), t = y/x


def test_kernel_l4_both_orientations():
    xxyy5 = HomogeneousForm(10, 0, [1, 0, -5, 0, 10, 0, -10, 0, 5, 0, -1])  # (x^2 - y^2)^5
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


def test_homogeneous_form_int_and_fraction_coefficients_agree():
    # 0 x^3 y^-1 + 7 x^2 + y^2 - 45 x^-1 y^3, ascending in t = y/x from t^-1
    coeffs = [0, 7, 0, 1, -45]
    as_int = HomogeneousForm(2, -1, coeffs)
    as_fraction = HomogeneousForm(2, -1, [F(c) for c in coeffs])
    assert as_int == as_fraction
    assert str(as_int) == str(as_fraction) == "(-45)*x^-1*y^3 + (1)*y^2 + (7)*x^2"
    assert str(as_int * F(1, 2)) == str(as_fraction * F(1, 2))
    assert as_int - as_fraction == HomogeneousForm(2, 0, [])


@pytest.mark.parametrize("l", [1, 3, 4, 5, 6, 8, 10])
def test_orientation_swap_is_variable_swap(l):
    w = weights_for_dim(l)
    larger = kernel_bivariate(w, "prefactor_on_larger")
    smaller = kernel_bivariate(w, "prefactor_on_smaller")
    assert larger.swap_vars() == smaller


@pytest.mark.parametrize("l", [4, 6, 8, 10])
def test_even_dimensions_have_even_exponents(l):
    k = kernel_bivariate(weights_for_dim(l))
    assert all(i % 2 == 0 and j % 2 == 0 for i, j in k.terms())


@pytest.mark.parametrize("l", [1, 3, 5])
def test_odd_dimensions_have_odd_exponents(l):
    k = kernel_bivariate(weights_for_dim(l))
    assert any(i % 2 or j % 2 for i, j in k.terms())


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

    return half_power(N) * kernel_u_form(kernel.weights)(F(M, N)) - half_power(M)


GRID = [(N, M) for N in range(2, 41) for M in range(1, N)] + [
    (65536 + 40, 65536), (10 ** 6 + 3, 17), (2 ** 61 - 1, 2 ** 31)]
SQUARE_GRID = [(n * n, m * m) for n in range(2, 30) for m in range(1, n)] + [
    (1001 ** 2, 1000 ** 2), (12345 ** 2, 7 ** 2)]


@pytest.mark.parametrize("orientation", ["prefactor_on_larger", "prefactor_on_smaller"])
@pytest.mark.parametrize("l", [1, 3, 4, 5, 6, 8, 10])
def test_integer_form_equals_the_fraction_evaluation(l, orientation):
    k = projection_kernel(l, orientation)
    for N, M in GRID if l % 2 == 0 else SQUARE_GRID:
        c, [(num, den)] = k.along_gap(N - M, [M])
        assert den > 0
        assert k.eval(N, M) == c * F(num, den) == fraction_eval(k, N, M), (N, M)


def _times_diagonal(a, h):
    """Coefficients of (t - 1)^a h(t), ascending in t = y/x."""
    out = list(h)
    for _ in range(a):
        out = [x - y for x, y in zip([0, *out], [*out, 0])]
    return tuple(out)


def _integer_form(k):
    """(G, D, roots) read off the terms of kernel_bivariate, not off the
    handle: G = D y^p x^q K as its integer coefficients g_k of
    y^k x^(deg G - k), in the norms x^2, y^2 unless some exponent is odd."""
    terms = kernel_bivariate(k.weights, k.orientation).terms()
    roots = any(i % 2 or j % 2 for i, j in terms)
    step, low = 1 if roots else 2, min(j for _, j in terms)
    scale = math.lcm(*(F(c).denominator for c in terms.values()))
    form = [0] * ((max(j for _, j in terms) - low) // step + 1)
    for (_, j), c in terms.items():
        form[(j - low) // step] = int(c * scale)
    return tuple(form), scale, roots


def _form_ratio(k, form, N, M):
    """K's ratio from the unsplit form: G(x, y) = sum g_k y^k x^(deg - k) by
    homogeneous Horner, over D y^p x^q."""
    x, y = (math.isqrt(N), math.isqrt(M)) if k.roots else (N, M)
    acc, y_k = form[0], 1
    for g in form[1:]:
        y_k *= y
        acc = acc * x + g * y_k
    p, q = k.powers
    return acc, k.scale * y ** p * x ** q


SPLIT_KERNELS = {
    **{f"l={l} {o}": (l, projection_kernel(l, o))
       for l in (1, 3, 4, 5, 6, 8, 10) for o in ("prefactor_on_larger", "prefactor_on_smaller")},
    **{f"power difference lam={lam}": (None, _power_difference_kernel(lam)) for lam in (0, 1)},
}


@pytest.mark.parametrize("name", list(SPLIT_KERNELS))
def test_diagonal_split_multiplies_back_to_the_form(name):
    """G = (y - x)^a H exactly, G read off kernel_bivariate, H(1, 1) != 0,
    a = l + 1 with deg H <= 3 for even l, and along_gap gives the unsplit
    form's values (its very ratios in square roots, where c = 1)."""
    l, k = SPLIT_KERNELS[name]
    form, scale, roots = _integer_form(k)
    assert (k.scale, k.roots) == (scale, roots)
    assert _times_diagonal(k.diagonal, k.cofactor) == form
    assert sum(k.cofactor) != 0
    if l is not None and l % 2 == 0:
        assert k.diagonal == l + 1 and len(k.cofactor) <= 4
    for N, M in SQUARE_GRID if k.roots else GRID:
        c, [ratio] = k.along_gap(N - M, [M])
        assert c * F(*ratio) == F(*_form_ratio(k, form, N, M)), (N, M)
        if k.roots:
            assert (c, ratio) == (1, _form_ratio(k, form, N, M)), (N, M)


@pytest.mark.parametrize("l", [4, 6, 8, 10])
def test_integer_form_denominator_powers(l):
    """D M^a N^b with a = l/2 - 1 and b = deg P + a: the powers (p, q) of
    y = M and x = N, read off the swapped Laurent form for
    prefactor_on_smaller, whose denominator is D N^a M^b; along_gap puts D
    in c = (-r)^(l + 1) / D and y^a x^b in each ratio."""
    a = l // 2 - 1
    b = kernel_u_form(weights_for_dim(l)).degree() + a
    for orientation in ("prefactor_on_larger", "prefactor_on_smaller"):
        k = projection_kernel(l, orientation)
        assert k.powers == ((a, b) if orientation == "prefactor_on_larger" else (b, a))
        assert not k.roots
        N, M = 3 ** 5, 2 ** 7
        x, y = (N, M) if orientation == "prefactor_on_larger" else (M, N)
        c, [(_, den)] = k.along_gap(N - M, [M])
        assert (c, den) == (F((M - N) ** (l + 1), k.scale), y ** a * x ** b)
        assert all(isinstance(h, int) for h in (k.scale, *k.cofactor))


def _sturm_kernel(l: int, N: int, M: int):
    """Sturm's holomorphic-projection kernel at the working precision, r = N - M:
    r^(kappa-1) M^(k_f-1) / (Gamma(kappa-1) Gamma(1-k_f)) times the integral
    over x > 0 of Gamma(1-k_f, M x) e^(-r x) x^(kappa-2)."""
    w = weights_for_dim(l)
    r, s = N - M, 1 - mp.mpf(w.k_f.numerator) / w.k_f.denominator
    integral = mp.quad(lambda x: mp.gammainc(s, M * x) * mp.exp(-r * x) * x ** (w.kappa - 2),
                       [0, mp.inf])
    return mp.mpf(r) ** (w.kappa - 1) * mp.mpf(M) ** -s / (mp.gamma(w.kappa - 1) * mp.gamma(s)) \
        * integral


@pytest.mark.parametrize("l,points", [
    *[(l, [(12, 4), (20, 4), (36, 12), (100, 36), (1000, 4)]) for l in (4, 6, 8, 10)],
    (1, [(25, 9), (100, 36), (169, 25)]),
])
def test_kernel_is_minus_sturms_projection_kernel(l, points):
    """K = -K_S for every dimension the package takes: the full side is minus
    the r-th coefficient of the holomorphic projection of f^- theta_psi^l, a
    form of weight l + 2.  This derives the default kernel from the definition
    of the projection, not from the paper's printed Jacobi formula."""
    kernel = projection_kernel(l)
    with mp.workdps(30):
        for N, M in points:
            k, sturm = kernel.eval(N, M), _sturm_kernel(l, N, M)
            assert abs(mp.mpf(k.numerator) / k.denominator + sturm) <= mp.mpf("1e-15") * abs(sturm)


def test_even_kernels_are_the_binomial_closed_form():
    """For even l >= 4 the incomplete Gamma function of Sturm's kernel is
    elementary, and K(M + r, M) = -r^(l+1) sum_{j < l/2-1} C(l+j, j) M^j
    N^(l/2-2-j) / (M^(l/2-1) N^(3l/2-1)): every field of the split."""
    for l in range(4, 41, 2):
        k, h = projection_kernel(l), l // 2 - 1
        assert (k.scale, k.powers, k.roots, k.diagonal) == (1, (h, 3 * l // 2 - 1), False, l + 1)
        assert k.cofactor == tuple(math.comb(l + j, j) for j in range(h)), l


@pytest.mark.parametrize("orientation", ["prefactor_on_larger", "prefactor_on_smaller"])
@pytest.mark.parametrize("l", [1, 3, 5])
def test_odd_integer_form_rejects_non_square_arguments(l, orientation):
    k = projection_kernel(l, orientation)
    assert k.roots
    for N, M in ((8, 1), (9, 2), (11, 3), (50, 49)):
        with pytest.raises(NonSquareArgumentError):
            k.along_gap(N - M, [M])
        with pytest.raises(NonSquareArgumentError):
            k.eval(N, M)


@pytest.mark.parametrize("name", list(SPLIT_KERNELS))
def test_along_gap_is_eval_term_by_term(name):
    """along_gap(r, norms) gives eval(M + r, M) for each M of norms, r = 1..40:
    every M up to 60 in the norms, in square roots every square M with M + r
    square (M < (r/2)^2)."""
    _, k = SPLIT_KERNELS[name]
    for r in range(1, 41):
        norms = ([m * m for m in range(1, 21) if math.isqrt(m * m + r) ** 2 == m * m + r]
                 if k.roots else list(range(1, 61)))
        c, ratios = k.along_gap(r, norms)
        assert len(ratios) == len(norms)
        assert [c * F(*ratio) for ratio in ratios] == [k.eval(M + r, M) for M in norms], r


@pytest.mark.parametrize("l", [1, 3, 4])
def test_along_gap_needs_a_positive_gap_and_norms(l):
    k = projection_kernel(l)
    for r, norms in ((0, [1]), (-3, [4]), (0, []), (5, [0]), (5, [4, -1, 9])):
        with pytest.raises(ValueError, match="need r >= 1"):
            k.along_gap(r, norms)


@pytest.mark.parametrize("l", [1, 3, 5])
def test_along_gap_rejects_one_non_square_norm_among_squares(l):
    """In square roots every M and M + r must be squares: 9 + 16 = 25, but
    144 + 16 = 160 is not, and 20 (with 20 + 16 = 36) is not itself."""
    k = projection_kernel(l)
    assert len(k.along_gap(16, [9, 9])[1]) == 2
    for norms in ([9, 144], [9, 20, 9]):
        with pytest.raises(NonSquareArgumentError):
            k.along_gap(16, norms)


def test_zero_kernel_is_rejected():
    """kappa = 2 at k_f = 1 makes K = x^0 - y^0 = 0, which has no split."""
    w = weights_for_dim(1)._replace(k_f=F(1), kappa=2, two_e=0)
    with pytest.raises(ValueError, match="identically zero"):
        ProjectionKernel.from_weights(w)


def test_kernel_eval_matches_printed_table():
    """The handle's Horner evaluation of its integer form equals the printed
    Laurent table evaluated at the square roots, in both orientations."""
    for l in (1, 3, 4, 5, 6, 8, 10, 12):
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


def test_homogeneous_form_canonical_form():
    # x + 2y, spelled with zero coefficients below and above: t^-2 (0 + 0 t + t^2 + 2 t^3 + 0 t^4)
    a = HomogeneousForm(1, 0, [1, 2])
    b = HomogeneousForm(1, -2, [0, 0, 1, 2, 0])
    assert a == b
    assert (b.low, b.poly) == (0, UnivariatePoly([1, 2]))
    assert a - a == HomogeneousForm(1, 0, [])
    assert (a - a).low == 0
    assert a.evaluate(F(3), F(2)) == 7
    with pytest.raises(ValueError):
        a - a.shift(1, 0)


# -- the homogeneous form against independent arithmetic ------------------------

ORACLE_DIMS = (1, 3, 4, 5, 6, 8, 10, 12)


def _sympy_terms(expr):
    """{(i, j): c} over the terms c x^i y^j of the Laurent polynomial expr,
    expanded by sympy."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    terms = {}
    for mono, c in sympy.expand(expr).as_coefficients_dict().items():
        powers = mono.as_powers_dict()
        key = (int(powers.get(x, 0)), int(powers.get(y, 0)))
        terms[key] = terms.get(key, 0) + F(int(c.p), int(c.q))
    return {key: c for key, c in terms.items() if c}


def _printed_closed_forms():
    """Each tabulated candidate as its display prints it, for sympy to expand."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    xxyy = x**2 - y**2
    return {
        ("kappa=6 (l=4)", "as-printed"): xxyy**5 / (x**2 * y**10),
        ("kappa=8 (l=6)", "as-printed"): xxyy**7 * (7 * x**2 + y**2) / (x**4 * y**16),
        ("kappa=10 (l=8)", "trailing=y^4 (corrected)"):
            xxyy**9 * (45 * x**4 + 9 * x**2 * y**2 + y**4) / (x**6 * y**22),
        ("kappa=10 (l=8)", "trailing=x^4 (as printed)"):
            xxyy**9 * (45 * x**4 + 9 * x**2 * y**2 + x**4) / (x**6 * y**22),
        ("kappa=12 (l=10)", "trailing=y^6 (corrected)"):
            xxyy**11 * (286 * x**6 + 66 * x**4 * y**2 + 11 * x**2 * y**4 + y**6) / (x**8 * y**28),
        ("kappa=12 (l=10)", "trailing=x^6 (as printed)"):
            xxyy**11 * (286 * x**6 + 66 * x**4 * y**2 + 11 * x**2 * y**4 + x**6) / (x**8 * y**28),
        ("kappa=5 (l=3)", "as-printed"):
            -(x - y)**4 * (5 * x**3 + 20 * x**2 * y + 29 * x * y**2 + 16 * y**3) / (16 * x * y**7),
        ("kappa=7 (l=5)", "as-printed"):
            (-693 * x**13 + 4095 * x**11 * y**2 - 10010 * x**9 * y**4 + 12870 * x**7 * y**6
             - 9009 * x**5 * y**8 + 3003 * x**3 * y**10 - 256 * y**13) / (256 * x**3 * y**13),
    }


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("l", ORACLE_DIMS)
def test_kernel_form_matches_sympy_expansion(l, orientation):
    """kernel_bivariate's terms are sympy's expansion of x^(2(k_f-1))
    P(1 - 2y^2/x^2) - y^(2(k_f-1)) (x and y exchanged for
    prefactor_on_smaller), and that expansion is homogeneous of degree
    2(k_f - 1), the precondition of the form type.  P is the explicit sum
    P_n^(a,b)(z) = sum_s C(n+a, n-s) C(n+b, s) ((z-1)/2)^s ((z+1)/2)^(n-s),
    neither the recurrence nor the 2F1 sum in u that the package uses
    (sympy.jacobi divides by zero at the even-l parameters)."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    w = weights_for_dim(l)
    n = w.kappa - 2
    a, b = (sympy.Rational(v.numerator, v.denominator) for v in (1 - w.k_f, F(1 - w.kappa)))
    z = 1 - 2 * y**2 / x**2
    jacobi = sum(sympy.binomial(n + a, n - s) * sympy.binomial(n + b, s)
                 * ((z - 1) / 2)**s * ((z + 1) / 2)**(n - s) for s in range(n + 1))
    expr = x**w.two_e * jacobi - y**w.two_e
    if orientation == "prefactor_on_smaller":
        expr = expr.subs({x: y, y: x}, simultaneous=True)
    expected = _sympy_terms(expr)
    assert {i + j for i, j in expected} == {w.two_e}
    k = kernel_bivariate(w, orientation)
    assert k.deg == w.two_e
    assert k.terms() == expected


def test_reference_forms_match_sympy_expansion():
    """Every tabulated candidate's terms are sympy's expansion of its printed
    display, and each is homogeneous of its kernel's degree 2(k_f - 1)."""
    printed = _printed_closed_forms()
    built = {(f"kappa={form['l'] + 2} (l={form['l']})", label): (form["l"], ref)
             for form in _reference_forms() for label, ref in form["candidates"].items()}
    assert set(built) == set(printed)
    for key, (l, ref) in built.items():
        expected = _sympy_terms(printed[key])
        two_e = weights_for_dim(l).two_e
        assert {i + j for i, j in expected} == {two_e}, key
        assert ref.deg == two_e, key
        assert ref.terms() == expected, key


_RATIONALS = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5))
_POINTS = st.fractions(-4, 4, max_denominator=6).filter(bool)


def _forms(deg=None):
    return st.builds(HomogeneousForm, st.integers(-6, 6) if deg is None else st.just(deg),
                     st.integers(-6, 6), st.lists(_RATIONALS, max_size=5))


def _printed_terms(text):
    """[((i, j), c)] in the printed order of str(form)."""
    out = []
    for bit in [] if text == "0" else text.split(" + "):
        c, mono = re.fullmatch(r"\((-?\d+(?:/\d+)?)\)\*(.+)", bit).groups()
        powers = dict(re.fullmatch(r"([xy])\^(-?\d+)", p).groups() for p in mono.split("*")
                      if p != "1")
        out.append(((int(powers.get("x", 0)), int(powers.get("y", 0))), F(c)))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_form_arithmetic_commutes_with_evaluate(data):
    """-, x, shift and swap_vars of random forms evaluate as the values do, at
    random nonzero rationals; str lists the terms c x^i y^j read off (deg,
    low, P) once each, in ascending i."""
    f = data.draw(_forms())
    g, h = data.draw(_forms(f.deg)), data.draw(_forms())
    x, y, r = data.draw(_POINTS), data.draw(_POINTS), data.draw(_RATIONALS)
    di, dj = data.draw(st.integers(-4, 4)), data.draw(st.integers(-4, 4))
    value = f.evaluate(x, y)
    assert (f - g).evaluate(x, y) == value - g.evaluate(x, y)
    assert (f * h).evaluate(x, y) == value * h.evaluate(x, y)
    assert (f * r).evaluate(x, y) == (r * f).evaluate(x, y) == value * r
    assert f.shift(di, dj).evaluate(x, y) == value * x ** di * y ** dj
    assert f.swap_vars().evaluate(x, y) == f.evaluate(y, x)
    terms = {(f.deg - f.low - k, f.low + k): c for k, c in enumerate(f.poly.coeffs) if c}
    assert value == sum(c * x ** i * y ** j for (i, j), c in terms.items())
    printed = _printed_terms(str(f))
    assert dict(printed) == terms and len(printed) == len(terms)
    assert [i for (i, _), _ in printed] == sorted(i for i, _ in terms)
