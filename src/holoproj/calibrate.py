"""Calibrate-then-verify on the one-dimensional instances the paper builds on.

Each family reads its cancellation as lhs(r) = sum_k scalar_k * basis_k(r),
solves the unknown scalars exactly from the first probe rows and verifies
them on every further row.  The projection sum of all three families is this
package's own l = 1 ordered side: classical-d2 and kernel-1dim read it under
the l = 1 kernel, classical-d under the power difference nu^(1 - 2 lam) -
mu^(1 - 2 lam).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from types import SimpleNamespace

from .characters import DirichletCharacter, char_conjugate
from .kernel import ProjectionKernel, _integer_form, kernel_bivariate, weights_for_dim
from .projection import ProjectionConfig, ordered_coefficient, sigma_coefficient
from .rings import cyc, value_to_json
from .smalldiv import divisor_sum, require_twist_pair, sigma_sm_classical

CAL_UNKNOWNS = {"classical-d": ("alpha", "C"), "classical-d2": ("C",), "kernel-1dim": ("C",)}
CAL_FAMILIES = tuple(CAL_UNKNOWNS)


@dataclass(frozen=True)
class CalibrationInstance:
    """One-dimensional cancellation instance.

    classical-d:   weight d,   psi = chi non-trivial; unknowns (alpha, C)
                   where alpha scales the weight-2 Eisenstein correction and
                   C the projection sum.
    classical-d2:  weight d^2, psi odd, chi even non-trivial; unknown C.
    kernel-1dim:   this package's kernel-weighted sigma at l = 1; unknown C.
    """

    family: str
    psi: DirichletCharacter
    chi: DirichletCharacter

    def __post_init__(self):
        if self.family not in CAL_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "classical-d":
            if self.psi != self.chi or self.psi.is_trivial():
                raise ValueError("classical-d needs psi = chi, non-trivial")
        else:
            require_twist_pair(self.psi, self.chi)


@dataclass
class CalibrationResult:
    family: str
    scalars: dict
    consistent: bool
    underdetermined: bool
    probe_rows: int
    verified_rows: int
    failures: list

    def to_json_obj(self):
        return {**asdict(self), "scalars": {k: value_to_json(v) for k, v in self.scalars.items()}}


def _power_difference_kernel(lam: int) -> ProjectionKernel:
    """nu^(1 - 2 lam) - mu^(1 - 2 lam): the kappa = 2 kernel (Jacobi factor 1)
    at the weight k_f = 3/2 - lam of the corrected quotient."""
    w = replace(weights_for_dim(1), k_f=Fraction(3, 2) - lam, kappa=2, two_e=1 - 2 * lam)
    return ProjectionKernel(w, "prefactor_on_larger", *_integer_form(kernel_bivariate(w)))


def _classical_d_side(psi: DirichletCharacter):
    """Config and kernel of classical-d's projection sum, the l = 1 ordered
    side of (psi, conj psi) under the power-difference kernel, built once per
    calibration.  conj(psi) is odd, which ProjectionConfig rejects as chi, so
    the config is relaxed to the three fields ordered_coefficient reads."""
    cfg = SimpleNamespace(psi=psi, chi=char_conjugate(psi), l=1)
    return cfg, _power_difference_kernel(psi.parity)


def _calibration_equation(inst: CalibrationInstance, r: int, side=None):
    """Row (coefficients-of-unknowns, rhs) of the linear system at exponent r.

    The cancellation reads lhs(r) = sum_k scalar_k * basis_k(r); rows are
    returned as ([basis_k(r)...], lhs(r)).  classical-d reads side, its
    _classical_d_side(psi), built here when not given.
    """
    psi, chi = inst.psi, inst.chi
    if inst.family == "classical-d":
        # sigma(r) + alpha e2(r) - C proj(r) = 0
        proj = ordered_coefficient(*(side or _classical_d_side(psi)), r)
        return [cyc(-24 * divisor_sum(r, 1)), -proj], -sigma_sm_classical(r, psi, chi, power=1)

    # classical-d2 and kernel-1dim: every pair with nu^2 - mu^2 = r has
    # nu > mu, so the l = 1 ordered side is the whole projection sum
    cfg = ProjectionConfig(psi, chi, 1, r, modes=("ordered",))
    proj = ordered_coefficient(cfg, cfg.kernel(), r)
    if inst.family == "classical-d2":
        return [proj], sigma_sm_classical(r, psi, chi, power=2)
    return [proj], sigma_coefficient(cfg, cfg.kernel(), r)


def calibrate_constants(inst: CalibrationInstance, probe_count: int = 12,
                        verify_rows: int = 120) -> CalibrationResult:
    """Solve the unknown scalars from the first probe_count cancellation
    equations exactly, then verify the cancellation on every computed row
    (the probes and the following verify_rows coefficients).  An inconsistent
    system is a finding, not an error: the offending rows land in
    ``failures``.
    """
    names = CAL_UNKNOWNS[inst.family]
    n_unknown = len(names)
    if probe_count < n_unknown + 1:
        raise ValueError(f"probe_count must be >= {n_unknown + 1}")
    if verify_rows < 0:
        raise ValueError(f"verify_rows must be >= 0, got {verify_rows}")

    side = _classical_d_side(inst.psi) if inst.family == "classical-d" else None
    equations = [_calibration_equation(inst, r, side) for r in range(1, probe_count + 1)]
    solution = _solve_from_pivots(equations, n_unknown)
    if solution is None:
        return CalibrationResult(inst.family, {}, False, True,
                                 probe_count, 0, failures=[])

    failures = []
    for r in range(1, probe_count + verify_rows + 1):
        basis, rhs = (equations[r - 1] if r <= probe_count
                      else _calibration_equation(inst, r, side))
        acc = cyc(0)
        for coeff, scal in zip(basis, solution):
            acc = acc + coeff * scal
        if acc != rhs:
            failures.append(r)
    return CalibrationResult(
        inst.family,
        dict(zip(names, solution)),
        consistent=not failures,
        underdetermined=False,
        probe_rows=probe_count,
        verified_rows=verify_rows,
        failures=failures,
    )


def _solve_from_pivots(equations, n_unknown):
    """Exact Gaussian elimination over the cyclotomic field using the first
    independent probe rows; returns None when the probes cannot determine all
    unknowns.  Inconsistency is not detected here; the verification pass
    checks every row against the returned solution."""
    work = [([b for b in basis], rhs) for basis, rhs in equations]
    pivot_rows = {}
    for col in range(n_unknown):
        pivot = None
        for idx, (basis, _) in enumerate(work):
            if idx not in pivot_rows and not basis[col].is_zero():
                pivot = idx
                break
        if pivot is None:
            return None
        pivot_rows[pivot] = col
        pb, prhs = work[pivot]
        inv = pb[col].inverse()
        for idx, (basis, rhs) in enumerate(work):
            if idx == pivot or basis[col].is_zero():
                continue
            factor = basis[col] * inv
            work[idx] = (
                [b - factor * p for b, p in zip(basis, pb)],
                rhs - factor * prhs,
            )
    solution = [cyc(0)] * n_unknown
    for idx, col in pivot_rows.items():
        basis, rhs = work[idx]
        solution[col] = rhs * basis[col].inverse()
    return solution
