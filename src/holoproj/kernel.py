"""Projection kernels: weight bookkeeping, exact homogeneous forms and
closed-form cross-checks.

The kernel for dimension l is built from the degree-(kappa-2) Jacobi
polynomial with parameters (1-k_f, 1-kappa), where k_f = 2 - l/2 and
kappa = l + 2.  Two variable orientations are implemented:

* ``prefactor_on_larger`` (default): K(x, y) = x^(2(k_f-1)) * P(1 - 2 y^2/x^2)
  - y^(2(k_f-1)), with x the square root of the larger squared norm.  This is
  the orientation under which the projection sum is stated, and the package's
  authoritative choice.
* ``prefactor_on_smaller``: the same expression with the slots exchanged.
  The tabulated closed forms below are printed in this orientation, so the
  cross-check reports which orientation matched.

The two differ exactly by the swap x <-> y; both are kept runnable because
the defining condition is printed inconsistently across its sources and only
one choice can cancel termwise against the projection sum.

The printed kernel and every tabulated closed form are homogeneous in x and
y, so each is a ``HomogeneousForm`` x^deg t^low P(t) in t = y/x, P a
``UnivariatePoly``.  ``ProjectionKernel`` holds the printed kernel in one
encoding, K = (y - x)^a H(x, y) / (D y^p x^q) with H an integer form,
H(x, x) != 0, and x and y the larger and smaller squared norms (their square
roots when 2(k_f-1) is odd); ``ProjectionKernel.along_gap`` is its one
evaluator.  The orientation is decided once, in ``kernel_bivariate``.  For
the default orientation and even l, p = l/2 - 1, q = deg P + p, a = l + 1
and deg H <= 3 up to l = 10.  The u-form P(1 - 2u) is read off the 2F1 sum
in u (``jacobi.jacobi_hypergeom_u``: even l never uses the recurrence, whose
c1 vanishes at j = l/2 + 1; acceptance criterion 2 still asserts the
recurrence/2F1 cross-check).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, lcm
from typing import NamedTuple

from .jacobi import jacobi_hypergeom_u
from .rings import UnivariatePoly, rational_to_str


class WeightError(ValueError):
    """Dimension outside the admissible weight range (l = 2 is excluded)."""


class NonSquareArgumentError(ValueError):
    """An odd-dimension kernel was evaluated at a non-square argument.

    Odd powers of the norms obstruct a divisor-side definition unless both
    squared norms are perfect squares; the error surfaces that obstruction
    instead of approximating."""


ORIENTATIONS = ("prefactor_on_larger", "prefactor_on_smaller")


class WeightData(NamedTuple):
    l: int
    k_f: Fraction          # 2 - l/2
    kappa: int             # l + 2
    k_g: Fraction          # 3 l / 2 (odd twist side)
    two_e: int             # 2 (k_f - 1), the prefactor's power of a norm's square root


def weights_for_dim(l: int) -> WeightData:
    if l < 1:
        raise WeightError(f"dimension must be >= 1, got {l}")
    if l == 2:
        raise WeightError("l = 2 is excluded (k_f would be 1)")
    k_f = Fraction(2) - Fraction(l, 2)
    return WeightData(l, k_f, l + 2, Fraction(3 * l, 2), int(2 * (k_f - 1)))


class HomogeneousForm:
    """x^deg t^low P(t) with t = y/x: a Laurent form in x and y, homogeneous of
    total degree deg, whose terms are c_k x^(deg-low-k) y^(low+k) over P's
    coefficients c_k.  P(0) != 0 unless P = 0, and then low = 0, so equal
    forms of one degree have equal fields.  All coefficient arithmetic is
    ``UnivariatePoly``'s."""

    __slots__ = ("deg", "low", "poly")

    def __init__(self, deg: int, low: int, poly):
        """poly: P, a UnivariatePoly or its coefficients ascending in t."""
        poly = poly if isinstance(poly, UnivariatePoly) else UnivariatePoly(poly)
        n = next((k for k, c in enumerate(poly.coeffs) if c), 0)  # t^n divides P
        self.poly = UnivariatePoly(poly.coeffs[n:]) if n else poly
        self.deg, self.low = deg, (low + n if poly.coeffs else 0)

    def __sub__(self, other):
        if self.deg != other.deg:
            raise ValueError(f"forms of degrees {self.deg} and {other.deg}")
        low = min(self.low, other.low)
        p, q = (UnivariatePoly((0,) * (f.low - low) + f.poly.coeffs) for f in (self, other))
        return HomogeneousForm(self.deg, low, p - q)

    def __mul__(self, other):
        if isinstance(other, HomogeneousForm):
            return HomogeneousForm(self.deg + other.deg, self.low + other.low,
                                   self.poly * other.poly)
        return HomogeneousForm(self.deg, self.low, self.poly * other)

    __rmul__ = __mul__

    def shift(self, di: int, dj: int) -> "HomogeneousForm":
        """Multiply by the monomial x^di y^dj = x^(di + dj) t^dj."""
        return HomogeneousForm(self.deg + di + dj, self.low + dj, self.poly)

    def swap_vars(self) -> "HomogeneousForm":
        """Exchange x and y: y^deg (x/y)^low P(x/y) = x^deg t^(deg - low - n)
        t^n P(1/t) with n = deg P, and t^n P(1/t) is P reversed."""
        return HomogeneousForm(self.deg, self.deg - self.low - self.poly.degree(),
                               self.poly.coeffs[::-1])

    def terms(self) -> dict:
        """{(i, j): c} over the terms c x^i y^j, ascending in i."""
        i0, coeffs = self.deg - self.low, self.poly.coeffs
        return {(i0 - k, self.low + k): coeffs[k]
                for k in reversed(range(len(coeffs))) if coeffs[k]}

    def __eq__(self, other):
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        return (self.deg, self.low, self.poly) == (other.deg, other.low, other.poly)

    def evaluate(self, x: Fraction, y: Fraction) -> Fraction:
        t = Fraction(y) / x
        return Fraction(x) ** self.deg * t ** self.low * self.poly(t)

    def __str__(self):
        bits = []
        for (i, j), c in self.terms().items():
            mono = f"x^{i}*y^{j}" if i and j else f"x^{i}" if i else f"y^{j}" if j else "1"
            bits.append(f"({rational_to_str(c)})*{mono}")
        return " + ".join(bits) or "0"

    __repr__ = __str__


def _exact_root(n: int) -> int:
    """The integer square root of n, which must be a perfect square."""
    s = isqrt(n)
    if s * s != n:
        raise NonSquareArgumentError(
            f"an odd-dimension kernel needs perfect-square arguments, got {n}"
        )
    return s


def kernel_u_form(w: WeightData) -> UnivariatePoly:
    """P_{kappa-2}(1 - 2u), with parameters (1 - k_f, 1 - kappa), as a
    polynomial in the squared-norm ratio u = y^2/x^2: the 2F1 sum in
    u = (1 - z)/2 at z = 1 - 2u."""
    return jacobi_hypergeom_u(w.kappa - 2, Fraction(1) - w.k_f, Fraction(1 - w.kappa))


def kernel_bivariate(w: WeightData, orientation: str = "prefactor_on_larger") -> HomogeneousForm:
    """Exact kernel K(x, y), x holding the larger squared norm's square root.

    prefactor_on_larger:  x^(2(k_f-1)) P_{kappa-2}(1 - 2 y^2/x^2) - y^(2(k_f-1))
    prefactor_on_smaller: y^(2(k_f-1)) P_{kappa-2}(1 - 2 x^2/y^2) - x^(2(k_f-1))
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    # x^two_e (P(1 - 2t^2) - t^two_e) = x^two_e t^low (shifted - monomial)
    u_form, low = kernel_u_form(w).coeffs, min(w.two_e, 0)
    shifted = [0] * (2 * len(u_form) - 1 - low)  # t^-low P(1 - 2t^2)
    shifted[-low::2] = u_form
    monomial = UnivariatePoly([0] * (w.two_e - low) + [1])  # t^(two_e - low)
    larger = HomogeneousForm(w.two_e, low, UnivariatePoly(shifted) - monomial)
    return larger if orientation == "prefactor_on_larger" else larger.swap_vars()


class ProjectionKernel(NamedTuple):
    """Evaluation handle: weight data, orientation and the split integer form
    (a, H, D, p, q) of the printed kernel (``from_weights``), evaluated by
    ``along_gap`` alone.  Cached; immutable."""

    weights: WeightData
    orientation: str
    scale: int         # D
    powers: tuple      # (p, q): K = G(x, y) / (D y^p x^q)
    roots: bool        # x and y are the square roots of the norms
    diagonal: int      # a: G = (y - x)^a H with H(x, x) != 0
    cofactor: tuple    # integer coefficients h_0..h_(deg-a) of H, ascending in y

    @classmethod
    def from_weights(cls, w: WeightData, orientation: str = "prefactor_on_larger"):
        """The handle of K = kernel_bivariate(w, orientation); ValueError if K
        is zero.  With all exponents of K even (deg, low and P even), K is a
        Laurent form in the norms x^2 and y^2 and is read in them; otherwise x
        and y stay the norms' square roots.  With y^-p and x^-q the least
        powers of y and x in K and D the least common denominator of its
        coefficients, G(x, y) = D y^p x^q K = x^deg g(y/x), g = D P read in t
        (in t^2 for the norms).  As y - x = x (t - 1), a is the multiplicity
        of the root t = 1 of g, and H is g / (t - 1)^a."""
        K = kernel_bivariate(w, orientation)
        if not K.poly.coeffs:
            raise ValueError(f"the kernel of {w} is identically zero")
        roots = bool(K.deg % 2 or K.low % 2 or any(K.poly.coeffs[1::2]))
        s = 1 if roots else 2
        coeffs = K.poly.coeffs[::s]
        scale = lcm(*(c.denominator for c in coeffs))
        h, a = UnivariatePoly([c.numerator * (scale // c.denominator) for c in coeffs]), 0
        while not h(1):
            h, a = divmod(h, UnivariatePoly([-1, 1]))[0], a + 1
        powers = (-K.low // s, (K.low + K.poly.degree() - K.deg) // s)
        return cls(w, orientation, scale, powers, roots, a, h.coeffs)

    @property
    def l(self) -> int:
        return self.weights.l

    def cofactor_at(self, x: int, y: int) -> int:
        """H(x, y) = sum h_k y^k x^(deg H - k), by homogeneous Horner."""
        acc, y_k = self.cofactor[0], 1
        for h in self.cofactor[1:]:
            y_k *= y
            acc = acc * x + h * y_k
        return acc

    def along_gap(self, r: int, norms: list) -> tuple:
        """(c, ratios): K(M + r, M) = c n/d for (n, d) in ratios, one per M of
        norms, not reduced; needs r >= 1 and every M >= 1.  In the norms
        y - x = -r, so c = (-r)^a / D and n/d = H(M + r, M) / (M^p (M + r)^q);
        in square roots (NonSquareArgumentError unless M + r and M are
        squares) c = 1 and n/d = (y - x)^a H(x, y) / (D y^p x^q).  In the
        norms a constant H (H = 1 at l = 4) is n for every M, without a Horner
        call."""
        if r < 1 or min(norms, default=1) < 1:
            raise ValueError(f"need r >= 1 and M >= 1, got r = {r}, M = {min(norms, default=1)}")
        (p, q), h = self.powers, self.cofactor_at
        if self.roots:
            xy = [(_exact_root(M + r), _exact_root(M)) for M in norms]
            return Fraction(1), [((y - x) ** self.diagonal * h(x, y), self.scale * y ** p * x ** q)
                                 for x, y in xy]
        c = Fraction((-r) ** self.diagonal, self.scale)
        if len(self.cofactor) == 1:
            h0 = self.cofactor[0]
            return c, [(h0, M ** p * (M + r) ** q) for M in norms]
        return c, [(h(M + r, M), M ** p * (M + r) ** q) for M in norms]

    def eval(self, N: int, M: int) -> Fraction:
        """K at (larger squared norm N, smaller squared norm M), exact:
        N^(k_f-1) P(1 - 2M/N) - M^(k_f-1), slots exchanged for
        prefactor_on_smaller.  The one-term case of ``along_gap``."""
        c, [(n, d)] = self.along_gap(N - M, [M])
        return c * Fraction(n, d)


@lru_cache(maxsize=None)
def projection_kernel(l: int, orientation: str = "prefactor_on_larger") -> ProjectionKernel:
    return ProjectionKernel.from_weights(weights_for_dim(l), orientation)


# -- reference closed forms ---------------------------------------------------

def _x_minus_y_pow(n: int, step: int = 1) -> HomogeneousForm:
    """(x^step - y^step)^n by the binomial theorem."""
    coeffs = [0] * (step * n + 1)
    coeffs[::step] = [(-1) ** k * comb(n, k) for k in range(n + 1)]
    return HomogeneousForm(step * n, 0, coeffs)


def _reference_forms():
    """Tabulated closed forms, in the prefactor-on-smaller printing with x on
    the larger norm; a factor HomogeneousForm(deg, 0, [c_0, c_1, ...]) is
    sum c_k y^k x^(deg - k).  The kappa=10 and kappa=12 rows each carry two
    candidate trailing terms: the y-power believed intended, and the
    as-printed variant (whose stray symbol can only read as the other norm,
    x)."""
    forms = []
    forms.append({
        "l": 4,
        "display": "(x^2-y^2)^5 / (x^2 y^10)",
        "candidates": {
            "as-printed": _x_minus_y_pow(5, 2).shift(-2, -10),
        },
    })
    forms.append({
        "l": 6,
        "display": "(x^2-y^2)^7 (7x^2+y^2) / (x^4 y^16)",
        "candidates": {
            "as-printed": (_x_minus_y_pow(7, 2) * HomogeneousForm(2, 0, [7, 0, 1])).shift(-4, -16),
        },
    })
    forms.append({
        "l": 8,
        "display": "(x^2-y^2)^9 (45x^4+9x^2y^2+[trailing]) / (x^6 y^22)",
        "candidates": {
            "trailing=y^4 (corrected)":
                (_x_minus_y_pow(9, 2) * HomogeneousForm(4, 0, [45, 0, 9, 0, 1])).shift(-6, -22),
            "trailing=x^4 (as printed)":
                (_x_minus_y_pow(9, 2) * HomogeneousForm(4, 0, [46, 0, 9])).shift(-6, -22),
        },
    })
    forms.append({
        "l": 10,
        "display": "(x^2-y^2)^11 (286x^6+66x^4y^2+11x^2y^4+[trailing]) / (x^8 y^28)",
        "candidates": {
            "trailing=y^6 (corrected)":
                (_x_minus_y_pow(11, 2) * HomogeneousForm(6, 0, [286, 0, 66, 0, 11, 0, 1]))
                .shift(-8, -28),
            "trailing=x^6 (as printed)":
                (_x_minus_y_pow(11, 2) * HomogeneousForm(6, 0, [287, 0, 66, 0, 11]))
                .shift(-8, -28),
        },
    })
    forms.append({
        "l": 3,
        "display": "-(x-y)^4 (5x^3+20x^2y+29xy^2+16y^3) / (16 x y^7)",
        "candidates": {
            "as-printed": Fraction(-1, 16)
            * (_x_minus_y_pow(4) * HomogeneousForm(3, 0, [5, 20, 29, 16])).shift(-1, -7),
        },
    })
    forms.append({
        "l": 5,
        "display": "(-693x^13+4095x^11y^2-10010x^9y^4+12870x^7y^6-9009x^5y^8"
                   "+3003x^3y^10-256y^13) / (256 x^3 y^13)",
        "candidates": {
            "as-printed": Fraction(1, 256)
            * HomogeneousForm(13, 0, [-693, 0, 4095, 0, -10010, 0, 12870, 0,
                                      -9009, 0, 3003, 0, 0, -256]).shift(-3, -13),
        },
    })
    return forms


def verify_closed_forms(orientation: str = "prefactor_on_larger") -> dict:
    """Compare each tabulated closed form against the computed kernel,
    directly and under the x<->y orientation swap, term by term.  Mismatches
    are report content (the exact difference polynomials, built only for a
    candidate that matches neither way), never exceptions.
    """
    identities = []
    for form in _reference_forms():
        K = kernel_bivariate(weights_for_dim(form["l"]), orientation)
        candidates = {}
        for label, ref in sorted(form["candidates"].items()):
            if K == ref:
                match, how, diff = True, "direct", "0"
            elif K == ref.swap_vars():
                match, how, diff = True, "swapped", "0"
            else:
                match, how = False, None
                diff = {"direct": str(K - ref), "swapped": str(K - ref.swap_vars())}
            candidates[label] = {
                "match": match,
                "orientation_used": how,
                "difference": diff,
            }
        matched = [c["orientation_used"] for c in candidates.values() if c["match"]]
        identities.append({
            "name": f"kappa={form['l'] + 2} (l={form['l']})",
            "l": form["l"],
            "reference_form": form["display"],
            "computed_form": str(K),
            "match": bool(matched),
            "orientation_used": matched[-1] if matched else None,
            "candidates": candidates,
        })
    return {"kernel_orientation": orientation, "identities": identities}
