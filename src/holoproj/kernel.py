"""Projection kernels: weight bookkeeping, exact bivariate Laurent form and
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

``ProjectionKernel`` holds the integer form of the printed kernel: K from
``kernel_bivariate`` is homogeneous, so clearing its least powers y^p, x^q and
its common denominator D leaves an integer homogeneous form G(x, y) with
K = G(x, y) / (D y^p x^q), x and y the larger and smaller squared norms (their
square roots when 2(k_f-1) is odd).  The orientation is decided once, in
``kernel_bivariate``.  For the default orientation and even l, p = l/2 - 1 and
q = deg P + p.  The u-form P(1 - 2u) is read off the 2F1 sum in u
(``jacobi.jacobi_hypergeom_u``: even l never uses the recurrence, whose c1
vanishes at j = l/2 + 1; acceptance criterion 2 still asserts the
recurrence/2F1 cross-check).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, lcm

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


@dataclass(frozen=True)
class WeightData:
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
    kappa = l + 2
    return WeightData(
        l=l,
        k_f=k_f,
        kappa=kappa,
        k_g=Fraction(3 * l, 2),
        two_e=int(2 * (k_f - 1)),
    )


class BivariateLaurent:
    """Sparse exact Laurent polynomial sum c_ij x^i y^j, integer exponents of
    either sign; zero coefficients are never stored, so the representation is
    canonical.  Coefficients are ints or Fractions, as they come; the two
    compare, hash and print alike (the rings module docstring)."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        """terms: a dict or an iterable of ((i, j), c); repeated exponents add."""
        data = {}
        for (i, j), c in (terms.items() if isinstance(terms, dict) else terms):
            key = (int(i), int(j))
            data[key] = data[key] + c if key in data else c
        self.terms = {k: c for k, c in sorted(data.items()) if c}

    def __add__(self, other):
        return BivariateLaurent([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return BivariateLaurent({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BivariateLaurent):
            return BivariateLaurent([((i1 + i2, j1 + j2), c1 * c2)
                                     for (i1, j1), c1 in self.terms.items()
                                     for (i2, j2), c2 in other.terms.items()])
        return BivariateLaurent({k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    def shift(self, di: int, dj: int) -> "BivariateLaurent":
        """Multiply by the monomial x^di y^dj."""
        return BivariateLaurent({(i + di, j + dj): c for (i, j), c in self.terms.items()})

    def swap_vars(self) -> "BivariateLaurent":
        return BivariateLaurent({(j, i): c for (i, j), c in self.terms.items()})

    def exponents_all_even(self) -> bool:
        return all(i % 2 == 0 and j % 2 == 0 for i, j in self.terms)

    def __eq__(self, other):
        if not isinstance(other, BivariateLaurent):
            return NotImplemented
        return self.terms == other.terms

    def evaluate(self, x: Fraction, y: Fraction) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        acc = Fraction(0)
        for (i, j), c in self.terms.items():
            acc += c * x ** i * y ** j
        return acc

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j), c in self.terms.items():
            mono = []
            if i:
                mono.append(f"x^{i}")
            if j:
                mono.append(f"y^{j}")
            mono = "*".join(mono) or "1"
            bits.append(f"({rational_to_str(c)})*{mono}")
        return " + ".join(bits)

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


def kernel_bivariate(w: WeightData, orientation: str = "prefactor_on_larger") -> BivariateLaurent:
    """Exact kernel K(x, y), x holding the larger squared norm's square root.

    prefactor_on_larger:  x^(2(k_f-1)) P_{kappa-2}(1 - 2 y^2/x^2) - y^(2(k_f-1))
    prefactor_on_smaller: y^(2(k_f-1)) P_{kappa-2}(1 - 2 x^2/y^2) - x^(2(k_f-1))
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    terms = [((w.two_e - 2 * k, 2 * k), c) for k, c in enumerate(kernel_u_form(w).coeffs)]
    larger = BivariateLaurent(terms + [((0, w.two_e), -1)])
    return larger if orientation == "prefactor_on_larger" else larger.swap_vars()


@dataclass(frozen=True)
class ProjectionKernel:
    """Evaluation handle: weight data, orientation and the integer form of
    the printed kernel (``_integer_form``), split as G = (y - x)^a H with
    a = l + 1 for even l (deg H <= 3 up to l = 10): in the norms, K(N, M) is
    (-r)^a / D times H(N, M) / (M^p N^q), r = N - M.  Cached; immutable."""

    weights: WeightData
    orientation: str
    form: tuple        # integer coefficients g_0..g_deg of G, ascending in y
    scale: int         # D
    powers: tuple      # (p, q): K = G(x, y) / (D y^p x^q)
    roots: bool        # x and y are the square roots of the norms
    diagonal: int      # a: G = (y - x)^a H with H(x, x) != 0
    cofactor: tuple    # integer coefficients h_0..h_(deg-a) of H, ascending in y

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

    def ratio(self, N: int, M: int) -> tuple:
        """K at (larger squared norm N, smaller squared norm M) as the ints
        (y - x)^a H(x, y) and D y^p x^q > 0, not reduced."""
        if M < 1 or N <= M:
            raise ValueError(f"need N > M >= 1, got ({N}, {M})")
        x, y = (_exact_root(N), _exact_root(M)) if self.roots else (N, M)
        p, q = self.powers
        return (y - x) ** self.diagonal * self.cofactor_at(x, y), self.scale * y ** p * x ** q

    def along_gap(self, r: int, norms: list) -> tuple:
        """(c, ratios): K(M + r, M) = c n/d for (n, d) in ratios, one per M of
        norms.  In the norms y - x = -r, so c = (-r)^a / D and n/d = H(M + r, M)
        / (M^p (M + r)^q); in square roots c = 1 and (n, d) = ratio(M + r, M)."""
        if self.roots or r < 1 or min(norms, default=1) < 1:  # ratio rejects M < 1
            return Fraction(1), [self.ratio(M + r, M) for M in norms]
        (p, q), h = self.powers, self.cofactor_at
        return (Fraction((-r) ** self.diagonal, self.scale),
                [(h(M + r, M), M ** p * (M + r) ** q) for M in norms])

    def eval(self, N: int, M: int) -> Fraction:
        """K at (larger squared norm N, smaller squared norm M), exact:
        N^(k_f-1) P(1 - 2M/N) - M^(k_f-1), slots exchanged for
        prefactor_on_smaller."""
        return Fraction(*self.ratio(N, M))


def _integer_form(K: BivariateLaurent):
    """ProjectionKernel's fields form to cofactor for the homogeneous K(x, y).

    With all exponents even, K is a Laurent form in the norms x^2 and y^2 and
    is read in them; otherwise x and y stay the norms' square roots.  With
    y^-p and x^-q the least powers of y and x in K and D the least common
    denominator of its coefficients, G(x, y) = D y^p x^q K is an integer form
    of degree deg, stored as g_k = its coefficient of y^k x^(deg - k)."""
    roots = not K.exponents_all_even()
    s = 1 if roots else 2
    terms = {(i // s, j // s): c for (i, j), c in K.terms.items()}
    p = -min(j for _, j in terms)
    q = -min(i for i, _ in terms)
    scale = lcm(*(c.denominator for c in terms.values()))
    form = [0] * (max(j for _, j in terms) + p + 1)
    for (_, j), c in terms.items():
        form[j + p] = int(c * scale)
    # G = (y - x)^a H, y - x = x (t - 1) at t = y/x: divide by t - 1 while the g_k sum to 0
    a, h = 0, list(form)
    while len(h) > 1 and sum(h) == 0:
        for k in range(len(h) - 2, 0, -1):
            h[k] += h[k + 1]
        h, a = h[1:], a + 1
    return tuple(form), scale, (p, q), roots, a, tuple(h)


@lru_cache(maxsize=None)
def projection_kernel(l: int, orientation: str = "prefactor_on_larger") -> ProjectionKernel:
    w = weights_for_dim(l)
    return ProjectionKernel(w, orientation, *_integer_form(kernel_bivariate(w, orientation)))


# -- reference closed forms ---------------------------------------------------

def _x_minus_y_pow(n: int, step: int = 1) -> BivariateLaurent:
    """(x^step - y^step)^n by the binomial theorem."""
    return BivariateLaurent({(step * (n - k), step * k): (-1) ** k * comb(n, k)
                             for k in range(n + 1)})

def _xx_minus_yy_pow(n: int) -> BivariateLaurent:
    return _x_minus_y_pow(n, 2)


def _reference_forms():
    """Tabulated closed forms, in the prefactor-on-smaller printing with x on
    the larger norm.  The kappa=10 and kappa=12 rows each carry two candidate
    trailing terms: the y-power believed intended, and the as-printed variant
    (whose stray symbol can only read as the other norm, x)."""
    forms = []
    forms.append({
        "name": "kappa=6 (l=4)",
        "l": 4,
        "display": "(x^2-y^2)^5 / (x^2 y^10)",
        "candidates": {
            "as-printed": _xx_minus_yy_pow(5).shift(-2, -10),
        },
    })
    forms.append({
        "name": "kappa=8 (l=6)",
        "l": 6,
        "display": "(x^2-y^2)^7 (7x^2+y^2) / (x^4 y^16)",
        "candidates": {
            "as-printed": (
                _xx_minus_yy_pow(7) * BivariateLaurent({(2, 0): 7, (0, 2): 1})
            ).shift(-4, -16),
        },
    })
    forms.append({
        "name": "kappa=10 (l=8)",
        "l": 8,
        "display": "(x^2-y^2)^9 (45x^4+9x^2y^2+[trailing]) / (x^6 y^22)",
        "candidates": {
            "trailing=y^4 (corrected)": (
                _xx_minus_yy_pow(9)
                * BivariateLaurent({(4, 0): 45, (2, 2): 9, (0, 4): 1})
            ).shift(-6, -22),
            "trailing=x^4 (as printed)": (
                _xx_minus_yy_pow(9)
                * BivariateLaurent({(4, 0): 46, (2, 2): 9})
            ).shift(-6, -22),
        },
    })
    forms.append({
        "name": "kappa=12 (l=10)",
        "l": 10,
        "display": "(x^2-y^2)^11 (286x^6+66x^4y^2+11x^2y^4+[trailing]) / (x^8 y^28)",
        "candidates": {
            "trailing=y^6 (corrected)": (
                _xx_minus_yy_pow(11)
                * BivariateLaurent({(6, 0): 286, (4, 2): 66, (2, 4): 11, (0, 6): 1})
            ).shift(-8, -28),
            "trailing=x^6 (as printed)": (
                _xx_minus_yy_pow(11)
                * BivariateLaurent({(6, 0): 287, (4, 2): 66, (2, 4): 11})
            ).shift(-8, -28),
        },
    })
    forms.append({
        "name": "kappa=5 (l=3)",
        "l": 3,
        "display": "-(x-y)^4 (5x^3+20x^2y+29xy^2+16y^3) / (16 x y^7)",
        "candidates": {
            "as-printed": Fraction(-1, 16)
            * (
                _x_minus_y_pow(4)
                * BivariateLaurent({(3, 0): 5, (2, 1): 20, (1, 2): 29, (0, 3): 16})
            ).shift(-1, -7),
        },
    })
    forms.append({
        "name": "kappa=7 (l=5)",
        "l": 5,
        "display": "(-693x^13+4095x^11y^2-10010x^9y^4+12870x^7y^6-9009x^5y^8"
                   "+3003x^3y^10-256y^13) / (256 x^3 y^13)",
        "candidates": {
            "as-printed": Fraction(1, 256)
            * BivariateLaurent({
                (13, 0): -693, (11, 2): 4095, (9, 4): -10010, (7, 6): 12870,
                (5, 8): -9009, (3, 10): 3003, (0, 13): -256,
            }).shift(-3, -13),
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
        overall = False
        orientation_used = None
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
            if match:
                overall = True
                orientation_used = how
        identities.append({
            "name": form["name"],
            "l": form["l"],
            "reference_form": form["display"],
            "computed_form": str(K),
            "match": overall,
            "orientation_used": orientation_used,
            "candidates": candidates,
        })
    return {"kernel_orientation": orientation, "identities": identities}
