"""Truncated Laurent q-expansions over cyclotomic rationals.

A QSeries knows its coefficients exactly for exponents in [valuation,
truncation]; coefficients below the valuation are exactly zero and
coefficients above the truncation are unknown.  Every operation's output
range is a deterministic function of the input ranges, so reports can state
exactly which coefficients are certified.  Storage is dense over the window
(exponent ranges stay small, predictable memory beats sparse bookkeeping).

Products use Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", 2009): the terms of
one order tag are scaled to integer coordinate vectors and packed, q and
zeta together, as the base-256^n digits of one Python int per operand, so a
product costs one int multiplication per pair of order tags instead of a
cyclotomic multiplication per pair of terms.  Only every g-th exponent gets a
digit, g the gcd of the exponent gaps: a theta power of a character of even
modulus has all its exponents in one class mod 8 (mod 24 for kronecker 12).
The digits are read back as slices of one byte string, then reduced mod
Phi_e; values and order tags are those of adding the term products one pair
at a time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .rings import (
    CyclotomicNumber,
    _divmod,
    _exact,
    _trusted,
    cyc,
    cyclotomic_polynomial,
    rational_to_str,
    value_to_json,
)


class SeriesRangeError(ValueError):
    """Coefficient requested outside the certified exponent window."""


_ZERO = cyc(0)


def _order_groups(series: "QSeries") -> dict:
    """order tag -> the nonzero terms (exponent, value) of that order, in
    increasing exponent."""
    groups: dict[int, list] = {}
    for e, c in series.nonzero_items():
        groups.setdefault(c.order, []).append((e, c))
    return groups


def _integer_rows(terms, order: int):
    """The terms' coordinates at the given order times their common
    denominator: (integer rows, denominator); at denominator 1 the rows are
    the coordinates, which are then ints."""
    coords = [c.coords if c.order == order else c.lift(order).coords for _, c in terms]
    scale = lcm(*(x.denominator for row in coords for x in row))
    if scale == 1:
        return coords, 1
    return [[x.numerator * (scale // x.denominator) for x in row] for row in coords], scale


def _pack(terms, rows, stride: int, step: int, size: int) -> int:
    """Sum of rows[i][k] * X^((e_i - e_0) / step * stride + k), X = 256^size:
    the digits are written as size little-endian bytes, positive and negative
    ones in separate byte strings, so packing is linear in the output size."""
    base = terms[0][0]
    pos = [bytes(size)] * ((terms[-1][0] - base) // step * stride + len(rows[0]))
    neg = list(pos)
    for (e, _), row in zip(terms, rows):
        at = (e - base) // step * stride
        for k, x in enumerate(row):
            if x:
                (pos if x > 0 else neg)[at + k] = abs(x).to_bytes(size, "little")
    return int.from_bytes(b"".join(pos), "little") - int.from_bytes(b"".join(neg), "little")


def _product_digits(terms_a, rows_a, terms_b, rows_b, stride: int, step: int, bound: int,
                    count: int) -> list:
    """The lowest count digits of the product of the operands packed at the
    step of their exponents (see _pack), each at most bound in absolute value,
    in balanced base 256^n, where n bytes hold 2 bound.  A square (terms_b is
    terms_a, rows equal) packs once.  One int product gets 2^(8 n - 1) added
    to every digit at once, which leaves no borrow between digits, so each
    digit is a slice of one to_bytes().  On theta-power products (CPython
    3.11) the int product took 0.3-0.94 of the time of a libmpdec Decimal
    product of the same digits below 1.7 * 10^5 bits, 0.9-1.03 of it up to
    3.1 * 10^5, and 1.1-2.0 times it from 3.6 * 10^5 to 1.4 * 10^6 bits,
    where libmpdec's number-theoretic transform wins."""
    size = ((2 * bound).bit_length() + 7) // 8
    span = terms_a[-1][0] - terms_a[0][0] + terms_b[-1][0] - terms_b[0][0]
    total = (span // step + 1) * stride
    packed_a = _pack(terms_a, rows_a, stride, step, size)
    packed_b = packed_a if terms_b is terms_a else _pack(terms_b, rows_b, stride, step, size)
    half = 1 << 8 * size - 1
    bias = int.from_bytes(half.to_bytes(size, "little") * total, "little")
    raw = (packed_a * packed_b + bias).to_bytes(total * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") - half for i in range(0, count * size, size)]


def _convolve(data: list, v: int, n: int, terms_a: list, terms_b: list, order: int) -> None:
    """Add every product of a term of terms_a and a term of terms_b that
    lands at or below n into data (the slots of exponents v..n), at the
    given order.

    Kronecker substitution: g is the gcd of every term's offset from its
    operand's first exponent e_0 (8 for theta powers of kronecker -4; 1 when
    both are single terms).  Each operand's coordinates are scaled to integers
    and packed into one number, the z^k coordinate of the q^e term at digit
    (e - e_0) / g * (2 phi - 1) + k, so one int product holds every
    coefficient of the product in Z[q^g, z], whose z-degree stays below
    2 phi - 1; slot s is the exponent base + s * g.  A product digit sums at
    most min(n_a, n_b) * phi products of coordinates, which bounds it (see
    _product_digits).  Each slot's digits are then reduced mod Phi_order and
    divided by the two denominators.
    """
    square = terms_a is terms_b
    terms_a = [t for t in terms_a if t[0] + terms_b[0][0] <= n]
    if not terms_a:
        return
    terms_b = terms_a if square else [t for t in terms_b if t[0] + terms_a[0][0] <= n]
    step = gcd(*[e - t[0][0] for t in (terms_a, terms_b) for e, _ in t]) or 1
    rows_a, scale_a = _integer_rows(terms_a, order)
    rows_b, scale_b = (rows_a, scale_a) if square else _integer_rows(terms_b, order)
    phi = len(rows_a[0])
    stride = 2 * phi - 1
    pairs = min(len(terms_a), len(terms_b))
    bound = (max(abs(x) for row in rows_a for x in row)
             * max(abs(x) for row in rows_b for x in row) * pairs * phi)
    base = terms_a[0][0] + terms_b[0][0]
    slots = min(n - base, terms_a[-1][0] + terms_b[-1][0] - base) // step + 1  # q-slots read
    digits = _product_digits(terms_a, rows_a, terms_b, rows_b, stride, step, bound, slots * stride)
    scale = scale_a * scale_b
    # above order 1 a slot whose products cancel still takes the order tag: find
    # the exponents some term pair lands on, by the same substitution on 0/1 rows
    hits = digits if order == 1 else _product_digits(
        terms_a, [[1]] * len(terms_a), terms_b, [[1]] * len(terms_b), 1, step, pairs, slots)
    modulus = cyclotomic_polynomial(order)
    for s in range(slots):
        if hits[s]:
            coords = ((hits[s],) if order == 1  # Phi_1 leaves one digit as it is
                      else _divmod(digits[s * stride:(s + 1) * stride], modulus)[1])
            i = base + s * step - v
            value = _trusted(order, tuple(coords) if scale == 1
                             else _exact(tuple([Fraction(c, scale) for c in coords])))
            data[i] = value if data[i] is _ZERO else data[i] + value  # as _ZERO + value


class QSeries:
    __slots__ = ("valuation", "truncation", "_coeffs")

    def __init__(self, valuation: int, truncation: int, coeffs=None):
        if truncation < valuation:
            raise ValueError(f"empty window [{valuation}, {truncation}]")
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "truncation", truncation)
        data = [_ZERO] * (truncation - valuation + 1)
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e, v in items:
                if not valuation <= e <= truncation:
                    raise SeriesRangeError(
                        f"exponent {e} outside window [{valuation}, {truncation}]"
                    )
                data[e - valuation] = cyc(v)
        object.__setattr__(self, "_coeffs", data)

    def __setattr__(self, *a):
        raise AttributeError("QSeries is immutable")

    def __reduce__(self):
        """The window and every stored coefficient, a zero with an order tag
        included; the unset slots come back unset."""
        v = self.valuation
        return QSeries, (v, self.truncation, {v + i: c for i, c in enumerate(self._coeffs)
                                              if c is not _ZERO})

    # -- access --------------------------------------------------------------

    def coeff(self, e: int) -> CyclotomicNumber:
        """Coefficient of q^e; exact zero below the valuation, error above the
        truncation (that coefficient is not certified)."""
        if e < self.valuation:
            return _ZERO
        if e > self.truncation:
            raise SeriesRangeError(
                f"coefficient of q^{e} not certified (window ends at {self.truncation})"
            )
        return self._coeffs[e - self.valuation]

    def nonzero_items(self):
        v = self.valuation
        for i, c in enumerate(self._coeffs):
            if c is not _ZERO and any(c.coords):
                yield v + i, c

    def min_nonzero_exponent(self) -> int:
        """Smallest exponent with a nonzero stored coefficient (the series
        valuation in the strict sense)."""
        for e, _ in self.nonzero_items():
            return e
        raise ValueError("series is zero on its entire certified window")

    def is_zero_on_window(self) -> bool:
        return all(c.is_zero() for c in self._coeffs)

    # -- ring operations -------------------------------------------------------

    def __mul__(self, other: "QSeries") -> "QSeries":
        """Exact Cauchy product by Kronecker substitution; output window
        [v_a + v_b, min(N_a + v_b, N_b + v_a)].

        Each operand's nonzero terms are grouped by order tag, and every pair
        of groups is multiplied with one integer product at E, the lcm of the
        two orders (see _convolve).  The order tag of an output slot is the
        lcm of E over the group pairs with a term pair landing on it, even
        when their sum cancels: the tag of adding the term products one at a
        time to an order-1 zero.
        """
        if not isinstance(other, QSeries):
            return NotImplemented
        v = self.valuation + other.valuation
        n = min(self.truncation + other.valuation, other.truncation + self.valuation)
        out = QSeries(v, n)
        groups_a = _order_groups(self)
        groups_b = groups_a if other is self else _order_groups(other)
        for order_a, terms_a in groups_a.items():
            for order_b, terms_b in groups_b.items():
                _convolve(out._coeffs, v, n, terms_a, terms_b, lcm(order_a, order_b))
        return out

    def pow(self, exponent: int) -> "QSeries":
        """Repeated-squaring exact power, exponent >= 1."""
        if exponent < 1:
            raise ValueError(f"power must be >= 1, got {exponent}")
        base = self
        out = None
        k = exponent
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def divide(self, other: "QSeries") -> "QSeries":
        """Laurent quotient q with q * other == self on the certified window.

        Divisor leading coefficients are taken at its first nonzero exponent;
        a divisor that is zero on its whole window is an error.  The quotient
        window is [va - vb, min(Na - vb, Nb + va - 2*vb)] with va, vb the
        strict valuations, never empty as va <= Na and vb <= Nb.
        """
        if not isinstance(other, QSeries):
            raise TypeError("divide expects a QSeries")
        if other.is_zero_on_window():
            raise ZeroDivisionError("divisor is identically zero on its stored range")
        vb = other.min_nonzero_exponent()
        if self.is_zero_on_window():
            # 0 / b: zero quotient on the best-supported window
            v = self.valuation - vb
            return QSeries(v, self.truncation - vb)
        va = self.min_nonzero_exponent()
        lead = other.coeff(vb)
        lead_inv = lead.inverse()
        vq = va - vb
        nq = min(self.truncation - vb, other.truncation + va - 2 * vb)
        q = [_ZERO] * (nq - vq + 1)
        for r in range(vq, nq + 1):
            acc = self.coeff(r + vb)
            for i in range(vq, r):
                qi = q[i - vq]
                if not qi.is_zero():
                    b = other.coeff(r + vb - i)
                    if not b.is_zero():
                        acc = acc - qi * b
            q[r - vq] = acc * lead_inv
        return QSeries(vq, nq, {vq + i: c for i, c in enumerate(q)})

    # -- comparison -------------------------------------------------------------

    def agrees_with(self, other: "QSeries", lo: int | None = None, hi: int | None = None) -> bool:
        """Exact coefficient-wise equality on the overlap of the certified
        windows (or on [lo, hi] if given)."""
        lo = max(self.valuation, other.valuation) if lo is None else lo
        hi = min(self.truncation, other.truncation) if hi is None else hi
        va, vb = self.valuation, other.valuation
        if max(va, vb) <= lo <= hi <= min(self.truncation, other.truncation):
            return self._coeffs[lo - va:hi - va + 1] == other._coeffs[lo - vb:hi - vb + 1]
        return all(self.coeff(e) == other.coeff(e) for e in range(lo, hi + 1))

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.valuation == other.valuation
            and self.truncation == other.truncation
            and self._coeffs == other._coeffs
        )

    def __repr__(self):
        head = ", ".join(f"q^{e}:{c!r}" for e, c in list(self.nonzero_items())[:6])
        return f"QSeries([{self.valuation},{self.truncation}], {head} ...)"

    # -- export ------------------------------------------------------------------

    def to_json_obj(self) -> dict:
        """JSON dump: certified window plus nonzero rows {exponent, value};
        absent exponents inside the window are exact zeros."""
        return {
            "valuation": self.valuation,
            "truncation": self.truncation,
            "rows": [
                {"exponent": e, "value": value_to_json(c)} for e, c in self.nonzero_items()
            ],
        }

    def to_csv_rows(self):
        for e, c in self.nonzero_items():
            if c.order == 1:
                yield (e, rational_to_str(c.coords[0]))
            else:
                yield (e, repr(c))
