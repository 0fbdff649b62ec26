from fractions import Fraction

import mpmath as mp
import pytest

from holoproj.characters import char_kronecker
from holoproj.numeric import (
    UpperHalfPoint,
    calibrate_eichler,
    eichler_integral,
    embed_cyclotomic,
    eval_f_minus,
    f_minus_tail_bound,
    inc_gamma,
    theta_numeric,
    xi_check,
    xi_finite_difference,
)
from holoproj.projection import ProjectionConfig
from holoproj.rings import CyclotomicNumber
from holoproj.theta import theta_power_direct

F = Fraction
CHI_M4 = char_kronecker(-4)
CHI_8 = char_kronecker(8)

GRID_S = (F(1), F(1, 2), F(0), F(-1, 2), F(-1), F(-2))
GRID_X = ("0.1", "1", "5", "20")


def proj_cfg(l=4):
    return ProjectionConfig(CHI_M4, CHI_8, l, 1, modes=())


def test_inc_gamma_base_cases():
    with mp.workdps(40):
        assert abs(inc_gamma(1, 2) - mp.e ** -2) < mp.mpf("1e-35")
        assert abs(inc_gamma(F(1, 2), 1) - mp.sqrt(mp.pi) * mp.erfc(1)) < mp.mpf("1e-35")


def test_inc_gamma_one_recursion_step():
    with mp.workdps(40):
        lhs = inc_gamma(F(-1, 2), 1)
        rhs = 2 * (mp.e ** -1 - inc_gamma(F(1, 2), 1))
        assert abs(lhs - rhs) < mp.mpf("1e-35")


def test_inc_gamma_quadrature_oracle():
    with mp.workdps(40):
        for s in GRID_S:
            sm = mp.mpf(s.numerator) / s.denominator
            for x in GRID_X:
                xm = mp.mpf(x)
                oracle = mp.quad(lambda t: t ** (sm - 1) * mp.e ** (-t), [xm, mp.inf])
                ours = inc_gamma(s, xm)
                assert abs(ours - oracle) / abs(oracle) < mp.mpf("1e-12")


def test_inc_gamma_functional_equation_grid():
    with mp.workdps(40):
        for s in GRID_S:
            sm = mp.mpf(s.numerator) / s.denominator
            for x in GRID_X:
                xm = mp.mpf(x)
                lhs = inc_gamma(s + 1, xm)
                rhs = sm * inc_gamma(s, xm) + xm ** sm * mp.e ** (-xm)
                assert abs(lhs - rhs) / abs(lhs) < mp.mpf("1e-12")


def test_inc_gamma_asymptotic_ratio():
    with mp.workdps(60):
        for v, tol in ((50, "0.10"), (100, "0.05"), (200, "0.025")):
            for s in GRID_S:
                sm = mp.mpf(s.numerator) / s.denominator
                ratio = inc_gamma(s, v) / (mp.mpf(v) ** (sm - 1) * mp.e ** (-v))
                assert abs(ratio - 1) <= mp.mpf(tol)


def test_inc_gamma_domain_errors():
    with pytest.raises(ValueError):
        inc_gamma(F(1, 3), 1)
    with pytest.raises(ValueError):
        inc_gamma(1, 0)
    with pytest.raises(ValueError):
        inc_gamma(1, -2)


def test_upper_half_point_validation():
    with pytest.raises(ValueError):
        UpperHalfPoint("0", "-1")
    with pytest.raises(ValueError):
        UpperHalfPoint("0", "1", dps=10)


def test_embed_cyclotomic():
    with mp.workdps(40):
        i = embed_cyclotomic(CyclotomicNumber.zeta(4))
        assert abs(i - mp.mpc(0, 1)) < mp.mpf("1e-35")


def test_embed_cyclotomic_of_an_int_past_the_str_limit(default_int_str_limit):
    big = 3 ** 10480 + 1
    assert 10 ** 5000 < big < 10 ** 5001
    with pytest.raises(ValueError):
        str(big)
    assert embed_cyclotomic(CyclotomicNumber(1, [big])) == mp.mpf(big)
    assert embed_cyclotomic(CyclotomicNumber(1, [Fraction(big, 7)])) == mp.mpf(big) / 7


def test_eval_f_minus_tail_below_1e15():
    res = eval_f_minus(proj_cfg(4), UpperHalfPoint("0.1", "0.8"), 400)
    assert res.tail_estimate < mp.mpf("1e-15")
    assert res.cutoff == 400


def test_eval_f_minus_support_matches_exact_module():
    # chi_8 kills any tuple with an even coordinate, so the numeric term
    # count must equal the exact series' nonzero count
    res = eval_f_minus(proj_cfg(4), UpperHalfPoint("0.1", "0.8"), 300)
    exact = theta_power_direct(CHI_8, 4, 300)
    assert res.terms_used == sum(1 for _ in exact.nonzero_items())


def test_eval_f_minus_tail_tolerance_enforced():
    with pytest.raises(ValueError):
        eval_f_minus(proj_cfg(4), UpperHalfPoint("0.1", "0.8"), 10,
                     tail_tolerance=mp.mpf("1e-60"))


def test_eval_f_minus_decays_in_v():
    vals = []
    for v in ("0.6", "1.2", "2.4"):
        res = eval_f_minus(proj_cfg(4), UpperHalfPoint("0.1", v), 200)
        vals.append(abs(res.value))
    assert vals[0] > vals[1] > vals[2]


def test_xi_check_l4_accuracy():
    res = xi_check(proj_cfg(4), UpperHalfPoint("0.1", "0.8"), "1e-5", cutoff=300)
    assert res.rel_error <= mp.mpf("1e-5")


def test_xi_check_error_order_is_h_squared():
    errs = []
    for h in ("1e-3", "1e-4", "1e-5"):
        res = xi_check(proj_cfg(4), UpperHalfPoint("0.1", "0.8"), h, cutoff=300)
        errs.append(res.rel_error)
    assert 50 < errs[0] / errs[1] < 200
    assert 50 < errs[1] / errs[2] < 200


def test_xi_check_v_scaling():
    # the closed formula carries the v^(k_g) factor; agreement across a v
    # sweep exercises it
    for v in ("0.5", "1", "2"):
        res = xi_check(proj_cfg(4), UpperHalfPoint("0.1", v), "1e-5", cutoff=300)
        assert res.rel_error <= mp.mpf("1e-5")


def test_xi_annihilates_holomorphic_input():
    with mp.workdps(40):
        def poly(tau):
            q = mp.e ** (2j * mp.pi * tau)
            return 1 + 2 * q + q ** 3

        val = xi_finite_difference(poly, mp.mpc("0.1", "0.8"), 6, mp.mpf("1e-5"))
        assert abs(val) < mp.mpf("1e-10")


def test_theta_numeric_matches_series_sum():
    with mp.workdps(40):
        tau = mp.mpc("0.1", "0.9")
        q = mp.e ** (2j * mp.pi * tau)
        direct = sum(int(str(CHI_M4(n).coords[0])) * n * q ** (n * n) for n in range(1, 12))
        assert abs(theta_numeric(CHI_M4, tau) - direct) < mp.mpf("1e-25")


def test_eichler_calibration_and_verification():
    fit = UpperHalfPoint("0.1", "1.0")
    verify = [UpperHalfPoint("0.3", "0.9"), UpperHalfPoint("-0.2", "1.3"),
              UpperHalfPoint("0.05", "0.7"), UpperHalfPoint("0", "2.0"),
              UpperHalfPoint("0.4", "1.1")]
    cal = calibrate_eichler(CHI_8, 0, fit, verify)
    assert len(cal.rel_errors) == 5
    assert all(e <= mp.mpf("1e-8") for e in cal.rel_errors)
    # the fitted constant is i sqrt(2 pi)
    assert abs(cal.constant - 1j * mp.sqrt(2 * mp.pi)) < mp.mpf("1e-15")


def test_eichler_path_truncation_stable():
    pt = UpperHalfPoint("0.1", "1.0")
    a = eichler_integral(CHI_8, 0, pt, path_truncation=8)
    b = eichler_integral(CHI_8, 0, pt, path_truncation=16)
    assert abs(a - b) < mp.mpf("1e-12")


def test_eichler_decays_at_large_v():
    small = abs(eichler_integral(CHI_8, 0, UpperHalfPoint("0.1", "1.0")))
    large = abs(eichler_integral(CHI_8, 0, UpperHalfPoint("0.1", "3.0")))
    assert large < small / 100


def test_eichler_lam_shift_variant_runs():
    # the odd-shift integrand (exponent 1/2) against the shifted gamma series
    cal = calibrate_eichler(CHI_M4, 1, UpperHalfPoint("0.1", "1.0"),
                            [UpperHalfPoint("0.2", "1.2")])
    assert all(e <= mp.mpf("1e-8") for e in cal.rel_errors)


def test_tail_bound_is_monotone_in_cutoff():
    t1 = f_minus_tail_bound(4, 0, mp.mpf("0.8"), 100)
    t2 = f_minus_tail_bound(4, 0, mp.mpf("0.8"), 200)
    assert t2 < t1
