"""Exact coefficient arithmetic: rationals, polynomials and cyclotomic numbers.

Every identity checked by this package is an equality of exact values, never a
floating-point comparison.  A rational coordinate is an ``int`` when it is
integral and a ``fractions.Fraction`` otherwise, never a float; an int and
the equal Fraction compare, hash and print alike.  ``UnivariatePoly`` (with
Fraction coefficients) is the package's one dense polynomial type over Q: it
builds Phi_e here, the Jacobi polynomials in ``jacobi`` and the kernel's
u-form in ``kernel``.  Cyclotomic numbers are
elements of Q[z]/Phi_e(z) stored as dense coordinate vectors of length
phi(e); reduction modulo the e-th cyclotomic polynomial is canonical, so two
equal values at the same order have identical coordinates.  Their hot
operations stay on coordinate tuples and share the polynomial type's
list-level long division.  Mixed-order arithmetic lifts both operands to the
lcm order, so callers never manage orders themselves.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd


def rational_to_str(q: int | Fraction) -> str:
    """Serialize a rational as "p/q" ("p" when the denominator is 1).

    Integers print through Decimal, which converts an int exactly and, unlike
    str(), has no digit limit."""
    if q.denominator == 1:
        return str(Decimal(q.numerator))
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


class UnivariatePoly:
    """Dense polynomial over Q, the package's one polynomial type.

    ``coeffs[k]`` is the z^k coefficient, a Fraction; trailing zeros are
    trimmed, so equal polynomials compare equal.  Arithmetic accepts
    polynomials and rationals on either side; calling a polynomial evaluates
    it by Horner's rule, and composes when the argument is a polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __call__(self, z):
        acc = UnivariatePoly(()) if isinstance(z, UnivariatePoly) else Fraction(0)
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
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return UnivariatePoly(out)

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


def _divmod(a, b):
    """Long division of dense ascending coefficient lists, b[-1] nonzero:
    (quotient, remainder), the remainder untrimmed and at most len(b) - 1
    long.  Entries must be Fractions unless b is monic."""
    a = list(a)
    n, lead = len(b) - 1, b[-1]
    q = [0] * max(len(a) - n, 0)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + n]
        if c:
            if lead != 1:
                c = c / lead
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
    return tuple(int(c) for c in num.coeffs)


def euler_phi(e: int) -> int:
    """phi(e), the degree of Phi_e."""
    if e < 1:
        raise ValueError(f"euler_phi needs a positive argument, got {e}")
    return len(cyclotomic_polynomial(e)) - 1


def _reduce_mod_cyclotomic(coeffs, e):
    """Reduce a rational coefficient list modulo Phi_e; returns a tuple of
    length phi(e)."""
    phi = cyclotomic_polynomial(e)
    rem = _divmod(coeffs, phi)[1]
    return tuple(rem) + (0,) * (len(phi) - 1 - len(rem))


def _rational(c):
    """c as an int when integral, else as a Fraction (exact from a float)."""
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


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
        k %= e
        raw = [0] * (k + 1)
        raw[k] = 1
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
        for k, c in enumerate(self.coords):
            raw[k * step] = c
        return CyclotomicNumber(e, _reduce_mod_cyclotomic(raw, e))

    def _common(self, other):
        if self.order == other.order:
            return self, other
        e = self.order * other.order // gcd(self.order, other.order)
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
            return CyclotomicNumber(1, (self.coords[0] + other.coords[0],))
        a, b = self._common(other)
        return CyclotomicNumber(a.order, tuple(x + y for x, y in zip(a.coords, b.coords)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, tuple(-c for c in self.coords))

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
            return CyclotomicNumber(1, (self.coords[0] * other.coords[0],))
        a, b = self._common(other)
        n = len(a.coords)
        raw = [0] * (2 * n - 1)
        for i, x in enumerate(a.coords):
            if x:
                for j, y in enumerate(b.coords):
                    if y:
                        raw[i + j] += x * y
        return CyclotomicNumber(a.order, _reduce_mod_cyclotomic(raw, a.order))

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
        return CyclotomicNumber(e, _reduce_mod_cyclotomic(raw, e))

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via extended Euclid against Phi_e in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic inverse of zero")
        if self.order == 1:
            return CyclotomicNumber(1, (Fraction(1, self.coords[0]),))
        r0, r1 = UnivariatePoly(cyclotomic_polynomial(self.order)), UnivariatePoly(self.coords)
        s0, s1 = UnivariatePoly(()), UnivariatePoly((1,))
        while r1.degree() > 0:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        # Phi_e is irreducible, so the last remainder is a nonzero constant
        inv = s1 * Fraction(1, r1.coeffs[0])
        return CyclotomicNumber(self.order, _reduce_mod_cyclotomic(inv.coeffs, self.order))

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
        if self.is_rational():
            return hash(self.coords[0])
        return hash((self.order, self.coords))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({rational_to_str(self.coords[0])})"
        terms = ", ".join(rational_to_str(c) for c in self.coords)
        return f"Cyc(order={self.order}, [{terms}])"


_ONE = CyclotomicNumber(1, (1,))


def cyc(x) -> CyclotomicNumber:
    """Coerce an int / Fraction / CyclotomicNumber to CyclotomicNumber."""
    if isinstance(x, CyclotomicNumber):
        return x
    return CyclotomicNumber(1, (x,))


# -- serialization (report-file format) -------------------------------------

def value_to_json(z: CyclotomicNumber):
    """Order-1 values serialize as the rational string "p/q", higher orders
    as {"order": e, "coords": ["p/q", ...]}."""
    if z.order == 1:
        return rational_to_str(z.coords[0])
    return {"order": z.order, "coords": [rational_to_str(c) for c in z.coords]}


def value_from_json(obj) -> CyclotomicNumber:
    """The inverse of value_to_json; a malformed value raises ValueError."""
    try:
        if isinstance(obj, dict):
            if type(obj["order"]) is not int:
                raise TypeError("order must be an integer")
            return CyclotomicNumber(obj["order"], obj["coords"])
        return CyclotomicNumber(1, (obj,))
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed value {obj!r}: {exc!r}") from None
