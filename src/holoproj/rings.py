"""Exact coefficient arithmetic: rationals, polynomials and cyclotomic numbers.

Every identity checked by this package is an equality of exact values, never a
floating-point comparison.  A rational coordinate is an ``int`` when it is
integral and a ``fractions.Fraction`` otherwise, never a float; an int and
the equal Fraction compare, hash and print alike.  ``UnivariatePoly`` (with
int or Fraction coefficients) is the package's one dense polynomial type over
Q: it builds Phi_e here, the Jacobi polynomials in ``jacobi`` and the kernel's
u-form and homogeneous forms in ``kernel``.  Cyclotomic numbers are
elements of Q[z]/Phi_e(z) stored as dense coordinate vectors of length
phi(e); reduction modulo the e-th cyclotomic polynomial is canonical, so two
equal values at the same order have identical coordinates.  Their hot
operations stay on coordinate tuples and share the polynomial type's
list-level product and long division.  Mixed-order arithmetic lifts both
operands to the lcm order, so callers never manage orders themselves.
``_factorize``, read by phi(e) and the Kronecker symbol, is the one
factorization.  ``graded_readout`` turns integer sums per grade into tagged
values with the tags addition gives; it reads the lattice theta powers and
the sigma and ordered powers alike.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)  # integer arithmetic, never rounded
_SPLIT_BITS = 1 << 14  # an int up to this width (about 4,900 digits) converts in one step
_WORD_BITS = 64  # an int up to this width prints by str(), uncached


@lru_cache(maxsize=None)
def _decimal_power_of_two(k: int) -> Decimal:
    """2^k as a Decimal, for k a power of two."""
    if k <= _SPLIT_BITS:
        return Decimal(1 << k)
    half = _decimal_power_of_two(k // 2)
    return _EXACT.multiply(half, half)


def _to_decimal(n: int) -> Decimal:
    """n >= 0 as an exact Decimal.  Decimal(n) takes time quadratic in the
    digits, so a wider n is split at the largest power of two k below its
    width, n = hi 2^k + lo, and the two halves' Decimals are joined by one
    exact fused multiply-add with the cached 2^k, which libmpdec multiplies
    in subquadratic time (Karatsuba, then number-theoretic transform)."""
    width = n.bit_length()
    if width <= _SPLIT_BITS:
        return Decimal(n)
    k = 1 << ((width - 1).bit_length() - 1)
    hi = n >> k
    return _EXACT.fma(_to_decimal(hi), _decimal_power_of_two(k), _to_decimal(n - (hi << k)))


@lru_cache(maxsize=512)
def _wide_to_str(n: int) -> str:
    """str(_to_decimal(n)) for n >= 0 wider than a machine word, kept for the
    last 512 such n.  A report prints each value of its last bound at least
    twice, in its rows and in that bound's schedule row, and prints
    residual_full = -full once more where sigma is 0.  512 holds every repeat
    of a report like cyclo-l4's (l = 4 over Q(i), rmax 32: 539 distinct wide
    magnitudes, each repeat within 384 distinct values of its first print)."""
    return str(_to_decimal(n))


def _int_to_str(n: int) -> str:
    """The decimal digits of n: str(n) for a machine word, and the cached
    conversion of |n| for a wider n."""
    if n.bit_length() <= _WORD_BITS:
        return str(n)
    return "-" + _wide_to_str(-n) if n < 0 else _wide_to_str(n)


def rational_to_str(q: int | Fraction) -> str:
    """Serialize a rational as "p/q" ("p" when the denominator is 1).

    An integer wider than a machine word prints through Decimal, which
    converts an int exactly and, unlike str(), has no digit limit; a wide one
    is converted in halves, and a recently printed magnitude is read from a
    cache."""
    if q.denominator == 1:
        return _int_to_str(q.numerator)
    return f"{_int_to_str(q.numerator)}/{_int_to_str(q.denominator)}"


class UnivariatePoly:
    """Polynomial over Q, the package's one dense polynomial type.

    ``coeffs[k]`` is the z^k coefficient, an int or a Fraction as it came
    (anything else becomes a Fraction); trailing zeros are trimmed, so equal
    polynomials compare equal.  Arithmetic accepts polynomials and rationals
    on either side; calling a polynomial evaluates it by Horner's rule, and
    composes when the argument is a polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not {int, Fraction}.issuperset(map(type, coeffs)):  # checked at C speed
            coeffs = [c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __call__(self, z):
        acc = UnivariatePoly(()) if isinstance(z, UnivariatePoly) else 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, _as_poly(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        return UnivariatePoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return UnivariatePoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        a, b = self.coeffs, _as_poly(other).coeffs
        if not a or not b:
            return UnivariatePoly(())
        return UnivariatePoly(_times(a, b))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _as_poly(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod(self.coeffs, other.coeffs)
        return UnivariatePoly(q), UnivariatePoly(r)

    def __eq__(self, other):
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        return "Poly(" + " + ".join(f"({c})*z^{k}" for k, c in enumerate(self.coeffs)) + ")"


def _as_poly(x) -> UnivariatePoly:
    return x if isinstance(x, UnivariatePoly) else UnivariatePoly((x,))


def _times(a, b):
    """Product of dense ascending coefficient lists, both nonempty."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divmod(a, b):
    """Long division of dense ascending coefficient lists, b[-1] nonzero:
    (quotient, remainder), the remainder untrimmed and at most len(b) - 1
    long.  Division by a non-monic lead is exact: an int over an int lead
    becomes a Fraction, never a float."""
    a = list(a)
    n, lead = len(b) - 1, b[-1]
    q = [0] * max(len(a) - n, 0)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + n]
        if c:
            if lead != 1:
                c = Fraction(c, lead) if type(c) is type(lead) is int else c / lead
            q[i] = c
            for j, bj in enumerate(b):
                if bj:
                    a[i + j] -= c * bj
    return q, a[:n]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple:
    """Integer coefficients of Phi_e, ascending degree: x^e - 1 divided by
    Phi_d for every proper divisor d of e."""
    num = UnivariatePoly([-1] + [0] * (e - 1) + [1])
    for d in range(1, e):
        if e % d == 0:
            num = divmod(num, UnivariatePoly(cyclotomic_polynomial(d)))[0]
    return num.coeffs


def _factorize(n: int) -> dict:
    """{p: k} with n the product of the p^k, for n >= 1, by trial division."""
    factors, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = 1
    return factors


@lru_cache(maxsize=None)
def euler_phi(e: int) -> int:
    """phi(e), the degree of Phi_e, from the primes of e: no Phi_d is built."""
    if e < 1:
        raise ValueError(f"euler_phi needs a positive argument, got {e}")
    phi = e
    for p in _factorize(e):
        phi -= phi // p
    return phi


@lru_cache(maxsize=None)
def _traces(e: int) -> tuple:
    """Tr(zeta_e^k) / phi(e) for k < phi(e): mu(d) / phi(d), d the order of zeta_e^k;
    mu(d), the sum of the roots of Phi_d, is minus its second-highest coefficient."""
    orders = [e // gcd(e, k) for k in range(euler_phi(e))]
    return tuple(Fraction(-cyclotomic_polynomial(d)[-2], euler_phi(d)) for d in orders)


def _reduce_mod_cyclotomic(coeffs, e):
    """Reduce a rational coefficient list modulo Phi_e; returns a tuple of
    length phi(e), each integral Fraction read as an int."""
    phi = cyclotomic_polynomial(e)
    rem = _divmod(coeffs, phi)[1]
    return _exact(tuple(rem) + (0,) * (len(phi) - 1 - len(rem)))


def _rational(c):
    """c as an int when integral, else as a Fraction (exact from a float)."""
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _exact(coords: tuple) -> tuple:
    """coords, ints and Fractions, with each integral Fraction as an int."""
    if Fraction not in map(type, coords):  # checked at C speed
        return coords
    return tuple([c if type(c) is int else _rational(c) for c in coords])


class CyclotomicNumber:
    """Element of Q(zeta_e), zeta_e = exp(2*pi*i/e).

    ``coords[k]`` is the coefficient of zeta_e^k in the canonical basis
    1, zeta, ..., zeta^(phi(e)-1), an int or a non-integral Fraction.
    Instances are immutable; all operations return new values and are safe
    to share across workers.
    """

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords):
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        coords = tuple([c if type(c) is int else _rational(c) for c in coords])
        if 2 * len(coords) ** 2 < order:  # phi(e) >= sqrt(e/2): refused before e is factored
            raise ValueError(
                f"need phi({order}) >= sqrt({order}/2) coordinates, got {len(coords)}")
        if len(coords) != euler_phi(order):
            raise ValueError(
                f"need phi({order}) = {euler_phi(order)} coordinates, got {len(coords)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicNumber is immutable")

    def __reduce__(self):
        return (CyclotomicNumber, (self.order, self.coords))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeta(cls, e: int, k: int = 1) -> "CyclotomicNumber":
        """zeta_e^k."""
        raw = [0] * (k % e) + [1]
        return cls(e, _reduce_mod_cyclotomic(raw, e))

    # -- order management --------------------------------------------------

    def lift(self, e: int) -> "CyclotomicNumber":
        """Represent the same value at order e; requires self.order | e."""
        if e == self.order:
            return self
        if e % self.order != 0:
            raise ValueError(f"cannot lift order {self.order} to non-multiple {e}")
        step = e // self.order
        raw = [0] * ((len(self.coords) - 1) * step + 1)
        raw[::step] = self.coords
        return _trusted(e, _reduce_mod_cyclotomic(raw, e))

    def _common(self, other):
        if self.order == other.order:
            return self, other
        e = lcm(self.order, other.order)
        return self.lift(e), other.lift(e)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coords[0]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, CyclotomicNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return CyclotomicNumber(1, (x,))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return _trusted(1, _exact((self.coords[0] + other.coords[0],)))
        a, b = self._common(other)
        return _trusted(a.order, _exact(tuple([x + y for x, y in zip(a.coords, b.coords)])))

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.order, tuple([-c for c in self.coords]))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return _trusted(1, _exact((self.coords[0] * other.coords[0],)))
        a, b = self._common(other)
        return _trusted(a.order, _reduce_mod_cyclotomic(_times(a.coords, b.coords), a.order))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return (self ** (-n)).inverse()
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation: the Galois action zeta -> zeta^(-1)."""
        e = self.order
        raw = [0] * e
        for k, c in enumerate(self.coords):
            raw[(e - k) % e] += c
        return _trusted(e, _reduce_mod_cyclotomic(raw, e))

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via extended Euclid against Phi_e in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic inverse of zero")
        if self.order == 1:
            return _trusted(1, _exact((Fraction(1, self.coords[0]),)))
        r0, r1 = UnivariatePoly(cyclotomic_polynomial(self.order)), UnivariatePoly(self.coords)
        s0, s1 = UnivariatePoly(()), UnivariatePoly((1,))
        while r1.degree() > 0:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        # Phi_e is irreducible, so the last remainder is a nonzero constant
        inv = s1 * Fraction(1, r1.coeffs[0])
        return _trusted(self.order, _reduce_mod_cyclotomic(inv.coeffs, self.order))

    def multiplicative_order(self, bound: int = 10_000) -> int:
        """Smallest k >= 1 with self^k == 1 (for roots of unity)."""
        acc = self
        for k in range(1, bound + 1):
            if acc == _ONE:
                return k
            acc = acc * self
        raise ValueError("not a root of unity within bound")

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            return self.coords == other.coords
        a, b = self._common(other)
        return a.coords == b.coords

    def __hash__(self):
        # the normalised trace Tr(z) / phi(order): the same at every order
        # that spells z, and z itself when z is rational
        return hash(sum(c * t for c, t in zip(self.coords, _traces(self.order)) if c))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({rational_to_str(self.coords[0])})"
        terms = ", ".join(rational_to_str(c) for c in self.coords)
        return f"Cyc(order={self.order}, [{terms}])"


_ONE = CyclotomicNumber(1, (1,))
_new, _set_order, _set_coords = (object.__new__, CyclotomicNumber.order.__set__,
                                 CyclotomicNumber.coords.__set__)


def _trusted(order: int, coords: tuple) -> CyclotomicNumber:
    """CyclotomicNumber(order, coords) without its checks, for coordinates the package
    built: a tuple of phi(order) ints and non-integral Fractions, as the checks leave them."""
    z = _new(CyclotomicNumber)
    _set_order(z, order)
    _set_coords(z, coords)
    return z


def cyc(x) -> CyclotomicNumber:
    """Coerce an int / Fraction / CyclotomicNumber to CyclotomicNumber."""
    if isinstance(x, CyclotomicNumber):
        return x
    return CyclotomicNumber(1, (x,))


def graded_readout(columns: dict, values: dict) -> dict:
    """Integer sums per grade as tagged values: per key that some column of
    columns ({grade: {key: int or Fraction}}) holds, the sum of amount *
    values[grade] over the columns holding it, at the lcm of their tags,
    zero amounts included, as adding the terms one at a time to cyc(0) gives
    it.  Coordinates at that lcm are read once per set of grades present,
    keyed by grade (value equality ignores tags), lifting only values below."""
    present, plans, out = {}, {}, {}
    for grade, col in columns.items():
        for key in col:
            present[key] = present.get(key, ()) + (grade,)
    for key, grades in present.items():
        if grades not in plans:
            e = lcm(*(values[g].order for g in grades))
            plans[grades] = e, euler_phi(e), [
                (columns[g], (values[g] if values[g].order == e else values[g].lift(e)).coords)
                for g in grades]
        e, phi, parts = plans[grades]
        total = [0] * phi
        for col, coords in parts:
            amount = col[key]
            for k, c in enumerate(coords):
                total[k] += amount * c
        out[key] = _trusted(e, _exact(tuple(total)))
    return out


# -- serialization (report-file format) -------------------------------------

def value_to_json(z: CyclotomicNumber):
    """Order-1 values serialize as the rational string "p/q", higher orders
    as {"order": e, "coords": ["p/q", ...]}."""
    if z.order == 1:
        return rational_to_str(z.coords[0])
    return {"order": z.order, "coords": [rational_to_str(c) for c in z.coords]}


def _json_rational(c):
    """A JSON rational: an integer (not a bool) or a "p/q" string; a float
    or a bool is rejected rather than read as a rational."""
    if type(c) is not int and not isinstance(c, str):
        raise TypeError(f"a rational must be an integer or a \"p/q\" string, got {c!r}")
    return c


def value_from_json(obj) -> CyclotomicNumber:
    """The inverse of value_to_json; a malformed value raises ValueError."""
    try:
        if isinstance(obj, dict):
            if obj.keys() != {"order", "coords"}:
                raise KeyError("need the keys order and coords, and no other")
            if type(obj["order"]) is not int or not isinstance(obj["coords"], list):
                raise TypeError("order must be an integer and coords a list")
            return CyclotomicNumber(obj["order"], [_json_rational(c) for c in obj["coords"]])
        return CyclotomicNumber(1, (_json_rational(obj),))
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed value {obj!r}: {exc!r}") from None
