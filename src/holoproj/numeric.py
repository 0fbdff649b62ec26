"""Floating-point companion checks: incomplete Gamma, truncated evaluation of
the non-holomorphic part, a finite-difference check of the weight-kappa
antiholomorphic derivative against its closed formula, and quadrature for the
one-dimensional period integral.

All computations run in mpmath arbitrary precision (30+ digits for every
acceptance run) and every result carries explicit truncation/tail metadata;
there is no silent truncation anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .characters import DirichletCharacter, char_conjugate
from .kernel import weights_for_dim
from .projection import ProjectionConfig
from .rings import CyclotomicNumber
from .theta import theta_power_direct, theta_series


def _to_mpf(x):
    if isinstance(x, (int, Fraction)):  # an int of any length, never through str()
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(str(x))


@dataclass(frozen=True)
class UpperHalfPoint:
    """tau = u + i v with u, v finite doubles and v > 0, plus the working
    precision in decimal digits."""

    u: object
    v: object
    dps: int = 40

    def __post_init__(self):
        u, v = float(_to_mpf(self.u)), float(_to_mpf(self.v))
        if not (mp.isfinite(u) and mp.isfinite(v) and v > 0):
            raise ValueError(f"need u, v finite doubles and v > 0, got u = {self.u}, v = {self.v}")
        if self.dps < 30:
            raise ValueError("acceptance runs require >= 30 digits")

    def tau(self):
        return mp.mpc(_to_mpf(self.u), _to_mpf(self.v))


def inc_gamma(s, x):
    """Upper incomplete Gamma on the half-integer grid, by the functional
    equation Gamma(s+1, x) = s Gamma(s, x) + x^s e^(-x).

    Base cases: Gamma(1, x) = e^(-x), Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)),
    and Gamma(0, x) = E1(x); the last is its own base because the downward
    step from s = 1 degenerates to 0/0.  Negative s by downward recursion;
    s > 1 reachable by the same equation applied upward (the grid checks need
    both sides of each identity).
    """
    s = Fraction(s)
    if (2 * s).denominator != 1:
        raise ValueError(f"s = {s} outside the supported half-integer grid")
    x = _to_mpf(x)
    if x <= 0:
        raise ValueError("need x > 0")
    emx = mp.e ** (-x)

    if s.denominator == 1:
        k = int(s)
        if k >= 1:
            val = emx  # Gamma(1, x)
            for j in range(1, k):
                val = j * val + x ** j * emx
            return val
        val = mp.e1(x)  # Gamma(0, x)
        for j in range(0, k, -1):
            val = (val - x ** (j - 1) * emx) / (j - 1)
        return val

    val = mp.sqrt(mp.pi) * mp.erfc(mp.sqrt(x))  # Gamma(1/2, x)
    cur = Fraction(1, 2)
    while cur < s:
        val = _to_mpf(cur) * val + x ** _to_mpf(cur) * emx
        cur += 1
    while cur > s:
        prev = cur - 1
        val = (val - x ** _to_mpf(prev) * emx) / _to_mpf(prev)
        cur = prev
    return val


def embed_cyclotomic(z: CyclotomicNumber):
    """Numeric value of a cyclotomic number under zeta_e -> exp(2 pi i/e)."""
    acc = mp.mpc(0)
    for k, c in enumerate(z.coords):
        if c:
            acc += _to_mpf(c) * mp.e ** (2j * mp.pi * k / z.order)
    return acc


def theta_numeric(char: DirichletCharacter, tau, tol=None):
    """theta value at tau: sum over n >= 1 of char(n) n^lambda q^(n^2),
    truncated once the term bound falls below tol (default: beyond working
    precision)."""
    if tol is None:
        tol = mp.mpf(10) ** (-(mp.mp.dps + 5))
    q = mp.e ** (2j * mp.pi * tau)
    absq = abs(q)
    lam = char.parity
    acc = mp.mpc(0)
    n = 1
    while True:
        v = char(n)
        if not v.is_zero():
            acc += embed_cyclotomic(v) * n ** lam * q ** (n * n)
        if n >= 3 and absq ** (n * n) * (n + 1) ** (lam + 1) < tol:
            return acc
        n += 1


@dataclass(frozen=True)
class FMinusValue:
    value: object
    tail_estimate: object
    cutoff: int
    terms_used: int


def _gamma_series(coeffs, k_f: Fraction, tau):
    """sum over M of a(M) M^(k_f-1) Gamma(1-k_f, 4 pi M v) q^(-M) for the
    coefficients a(M) of the series coeffs, and the number of terms."""
    v = mp.im(tau)
    q = mp.e ** (2j * mp.pi * tau)
    s = Fraction(1) - k_f
    acc = mp.mpc(0)
    terms = 0
    for M, aM in coeffs.nonzero_items():
        acc += (
            embed_cyclotomic(aM)
            * mp.mpf(M) ** _to_mpf(k_f - 1)
            * inc_gamma(s, 4 * mp.pi * M * v)
            * q ** (-M)
        )
        terms += 1
    return acc, terms


def _f_minus_raw(alpha_series, l: int, tau):
    """Collapsed truncated sum given the chi-side theta-power coefficients."""
    k_f = weights_for_dim(l).k_f
    acc, terms = _gamma_series(alpha_series, k_f, tau)
    return acc / mp.gamma(_to_mpf(1 - k_f)), terms


def eval_f_minus(cfg: ProjectionConfig, point: UpperHalfPoint, cutoff: int,
                 tail_tolerance=1e-10) -> FMinusValue:
    """Truncated non-holomorphic part

        (1/Gamma(1-k_f)) sum over |m|^2 <= cutoff of chi(m!) (m!)^lambda_chi
            |m|^(2(k_f-1)) Gamma(1-k_f, 4 pi |m|^2 v) q^(-|m|^2)

    collapsed through the chi-side theta-power coefficients.  A rigorous
    bound for the dropped tail is computed first and reported; exceeding
    tail_tolerance is an error, raised before any summation, never a silent
    truncation.
    """
    with mp.workdps(point.dps):
        tau = point.tau()
        tail = f_minus_tail_bound(cfg.l, cfg.chi.parity, mp.im(tau), cutoff)
        if tail > _to_mpf(tail_tolerance):
            raise ValueError(
                f"tail estimate {mp.nstr(tail, 5)} exceeds tolerance {tail_tolerance}; "
                f"raise the cutoff or v"
            )
        alpha = theta_power_direct(cfg.chi, cfg.l, cutoff)
        value, terms = _f_minus_raw(alpha, cfg.l, tau)
        return FMinusValue(value=value, tail_estimate=tail, cutoff=cutoff, terms_used=terms)


def f_minus_tail_bound(l: int, lam_chi: int, v, cutoff: int):
    """Bound on the dropped terms with M = |m|^2 > cutoff.

    Since s = 1 - k_f, the powers of M combine: |q|^(-M) Gamma(s, 4 pi M v)
    M^(k_f-1) <= C_s (4 pi v)^(s-1) M^(-1) e^(-2 pi M v), using
    Gamma(s, x) <= x^(s-1) e^(-x) for s <= 1 and <= s x^(s-1) e^(-x) for
    s > 1, x >= s.  Coefficient size: at most M^((l-1)/2) lattice tuples,
    each contributing (m!)^lambda <= M^(l lambda/2).  The tail is then a
    geometric-type series summed from M = cutoff + 1.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    s = Fraction(1) - weights_for_dim(l).k_f
    v = _to_mpf(v)
    M0 = cutoff + 1
    if s > 1 and 4 * mp.pi * M0 * v < _to_mpf(s):
        return mp.inf
    c_s = mp.mpf(1) if s <= 1 else _to_mpf(s)
    p = Fraction(l - 1, 2) + Fraction(l * lam_chi, 2) - 1
    pf = _to_mpf(p)
    first = mp.mpf(M0) ** max(pf, mp.mpf(0)) * mp.e ** (-2 * mp.pi * M0 * v)
    ratio = mp.e ** (-2 * mp.pi * v) * (mp.mpf(M0 + 1) / M0) ** max(pf, mp.mpf(0))
    if ratio >= 1:
        return mp.inf
    scale = c_s * (4 * mp.pi * v) ** _to_mpf(s - 1) / abs(mp.gamma(_to_mpf(s)))
    return scale * first / (1 - ratio)


def xi_finite_difference(func, tau, kappa: int, h):
    """2 i v^kappa conj(d/d tau-bar) of func by central differences in u and
    v (d/d tau-bar = (d/du + i d/dv)/2)."""
    u, v = mp.re(tau), mp.im(tau)
    h = _to_mpf(h)
    du = (func(mp.mpc(u + h, v)) - func(mp.mpc(u - h, v))) / (2 * h)
    dv = (func(mp.mpc(u, v + h)) - func(mp.mpc(u, v - h))) / (2 * h)
    dtaubar = (du + 1j * dv) / 2
    return 2j * v ** kappa * mp.conj(dtaubar)


@dataclass(frozen=True)
class XiCheckResult:
    fd_value: object
    closed_value: object
    rel_error: object
    h: object
    cutoff: int


def xi_check(cfg: ProjectionConfig, point: UpperHalfPoint, h,
             cutoff: int = 400) -> XiCheckResult:
    """Finite-difference xi_kappa of (f_minus * theta_psi^l) against the
    closed formula

        -(4 pi)^(1-k_f) / Gamma(1-k_f) * v^(k_g) * theta_conj(chi)^l(tau)
            * conj(theta_psi(tau))^l .

    The |theta|^(2l)/theta^l factor is evaluated as conj(theta_psi)^l
    (identical away from theta zeros, which the evaluation point must avoid);
    the differences are applied only to the smooth non-holomorphic product,
    the holomorphic part being annihilated analytically.
    """
    with mp.workdps(point.dps):
        tau = point.tau()
        v = mp.im(tau)
        l = cfg.l
        w = weights_for_dim(l)

        # the tail first: theta_numeric needs about 1/sqrt(v) terms
        tail = f_minus_tail_bound(l, cfg.chi.parity, v - _to_mpf(h), cutoff)
        if tail > mp.mpf("1e-25"):
            raise ValueError("cutoff too small for the finite-difference stencil")
        theta_psi_here = theta_numeric(cfg.psi, tau)
        if abs(theta_psi_here) < mp.mpf("1e-6"):
            raise ValueError("evaluation point too close to a theta zero")

        alpha = theta_power_direct(cfg.chi, l, cutoff)

        def F(t):
            fm, _ = _f_minus_raw(alpha, l, t)
            return fm * theta_numeric(cfg.psi, t) ** l

        fd = xi_finite_difference(F, tau, w.kappa, h)

        chibar = char_conjugate(cfg.chi)
        series = theta_power_direct(chibar, l, cutoff)
        q = mp.e ** (2j * mp.pi * tau)
        theta_chibar_l = mp.mpc(0)
        for M, aM in series.nonzero_items():
            theta_chibar_l += embed_cyclotomic(aM) * q ** M
        closed = (
            -((4 * mp.pi) ** _to_mpf(1 - w.k_f))
            / mp.gamma(_to_mpf(1 - w.k_f))
            * v ** _to_mpf(w.k_g)
            * theta_chibar_l
            * mp.conj(theta_psi_here) ** l
        )
        rel = abs(fd - closed) / abs(closed)
        return XiCheckResult(fd_value=fd, closed_value=closed, rel_error=rel,
                             h=_to_mpf(h), cutoff=cutoff)


def eichler_integral(chi: DirichletCharacter, lam_shift: int, point: UpperHalfPoint,
                     path_truncation=12):
    """Integral from -conj(tau) to i*infinity of theta_chi(w) /
    (-i (w + tau))^(3/2 - lam_shift) dw, by quadrature along the vertical
    path w = -u + i (v + t).  The integrand decays like e^(-2 pi (v + t)), so
    truncating the path at t = path_truncation leaves a tail below
    e^(-2 pi path_truncation)."""
    if lam_shift not in (0, 1):
        raise ValueError("lam_shift must be 0 or 1")
    with mp.workdps(point.dps):
        tau = point.tau()
        u, v = mp.re(tau), mp.im(tau)
        s = mp.mpf(3) / 2 - lam_shift

        def integrand(t):
            w = mp.mpc(-u, v + t)
            return theta_numeric(chi, w) / (2 * v + t) ** s

        return 1j * mp.quad(integrand, [0, _to_mpf(path_truncation)])


@dataclass
class EichlerCalibration:
    constant: object
    rel_errors: list
    fit_point: dict
    verify_points: list


def calibrate_eichler(chi: DirichletCharacter, lam_shift: int,
                      fit_point: UpperHalfPoint, verify_points) -> EichlerCalibration:
    """Fit the single proportionality constant between the period integral
    and the incomplete-Gamma series at one point, then verify it at the
    others.  The series runs over theta_chi, chi(mu) mu^lambda at mu^2, for
    mu <= 60."""
    k_f = Fraction(3, 2) - lam_shift
    theta = theta_series(chi, 60 * 60)

    def series(point):
        with mp.workdps(point.dps):
            return _gamma_series(theta, k_f, point.tau())[0]

    c = eichler_integral(chi, lam_shift, fit_point) / series(fit_point)
    errs = []
    for pt in verify_points:
        e = eichler_integral(chi, lam_shift, pt)
        errs.append(abs(e - c * series(pt)) / abs(e))
    return EichlerCalibration(
        constant=c,
        rel_errors=errs,
        fit_point={"u": str(fit_point.u), "v": str(fit_point.v)},
        verify_points=[{"u": str(p.u), "v": str(p.v)} for p in verify_points],
    )
