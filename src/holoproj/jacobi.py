"""Jacobi polynomials with rational (half-integer, negative) parameters.

Two independent exact constructions: the three-term recurrence, and the
terminating hypergeometric sum with all Gamma quotients evaluated as rising
factorials (no Gamma function over the rationals, so poles at negative
parameters never arise).  Both build on ``rings.UnivariatePoly``, the
package's one polynomial type, re-exported here.

For every even l the kernel parameters (l/2 - 1, -l - 1) make the recurrence's
c1(j) vanish at j = l/2 + 1, so the kernels never use the recurrence: the 2F1
sum is a polynomial in u = (1 - z)/2, which ``kernel.kernel_u_form`` reads
from ``jacobi_hypergeom_u``.  Acceptance criterion 2 still asserts the
recurrence/2F1 cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .rings import UnivariatePoly


class DegenerateRecurrenceError(ArithmeticError):
    """The recurrence leading factor c1(j) vanished at step j."""

    def __init__(self, j, a, b):
        self.j = j
        super().__init__(f"c1({j}) = 0 for parameters ({a}, {b})")


class HypergeomPoleError(ArithmeticError):
    """A denominator Pochhammer factor of the 2F1 sum vanished."""


_Z = UnivariatePoly([0, 1])


@lru_cache(maxsize=None)
def jacobi_recurrence(r: int, a: Fraction, b: Fraction) -> UnivariatePoly:
    """Degree-r Jacobi polynomial by the three-term recurrence.

    Base cases P0 = 1 and P1 = (a - b + (a + b + 2) z) / 2; then

        c1(j) P_{j+1} = (c2(j) + c3(j) z) P_j - c4(j) P_{j-1}

    with c1(j) = 2 (j+1) (j+a+b+1) (2j+a+b).  Raises
    DegenerateRecurrenceError when some intermediate c1(j) vanishes; callers
    fall back to jacobi_hypergeom.
    """
    if r < 0:
        raise ValueError("degree must be >= 0")
    a, b = Fraction(a), Fraction(b)
    p_prev = UnivariatePoly([1])
    if r == 0:
        return p_prev
    p_cur = Fraction(a + b + 2, 2) * _Z + Fraction(a - b, 2)
    for j in range(1, r):
        c1 = 2 * (j + 1) * (j + a + b + 1) * (2 * j + a + b)
        if c1 == 0:
            raise DegenerateRecurrenceError(j, a, b)
        c2 = (2 * j + a + b + 1) * (a * a - b * b)
        c3 = (2 * j + a + b) * (2 * j + a + b + 1) * (2 * j + a + b + 2)
        c4 = 2 * (j + a) * (j + b) * (2 * j + a + b + 2)
        p_prev, p_cur = p_cur, ((c3 * _Z + c2) * p_cur - c4 * p_prev) * (1 / c1)
    return p_cur


@lru_cache(maxsize=None)
def jacobi_hypergeom_u(r: int, a: Fraction, b: Fraction) -> UnivariatePoly:
    """Degree-r Jacobi polynomial as a polynomial in u = (1 - z)/2, from the
    terminating 2F1 representation

        ((a+1)_r / r!) * sum_k ((-r)_k (a+b+r+1)_k / ((a+1)_k k!)) u^k.

    Every Gamma quotient is a rising factorial, exact for half-integer
    parameters.  Raises HypergeomPoleError if a denominator Pochhammer
    vanishes while the numerator term is still nonzero.
    """
    if r < 0:
        raise ValueError("degree must be >= 0")
    a, b = Fraction(a), Fraction(b)
    d = lcm(a.denominator, b.denominator)  # a = p/d and b = q/d
    p, q = int(a * d), int(b * d)
    # every Pochhammer factor is an integer over d; the d's of the k-th term's
    # numerator and denominator cancel, those of (a+1)_r sit in scale_den
    scale_num, scale_den = prod(p + i * d for i in range(1, r + 1)), factorial(r) * d ** r
    terms = []
    num = den = 1  # d^k (-r)_k (a+b+r+1)_k and d^k (a+1)_k k!
    for k in range(r + 1):
        if k > 0:
            num *= (k - 1 - r) * (p + q + (r + k) * d)
            den *= (p + k * d) * k
        if num == 0:
            break  # the rising factorial stays zero from here on
        if den == 0:
            raise HypergeomPoleError(
                f"denominator Pochhammer vanished at k={k} for parameters ({a}, {b})"
            )
        terms.append(Fraction(scale_num * num, scale_den * den))
    return UnivariatePoly(terms)


@lru_cache(maxsize=None)
def jacobi_hypergeom(r: int, a: Fraction, b: Fraction) -> UnivariatePoly:
    """Degree-r Jacobi polynomial in z: ``jacobi_hypergeom_u`` with
    u = (1 - z)/2 substituted."""
    return jacobi_hypergeom_u(r, a, b)(UnivariatePoly([Fraction(1, 2), Fraction(-1, 2)]))


def jacobi_poly(r: int, a, b) -> UnivariatePoly:
    """Recurrence first, hypergeometric fallback on degeneracy."""
    a, b = Fraction(a), Fraction(b)
    try:
        return jacobi_recurrence(r, a, b)
    except DegenerateRecurrenceError:
        return jacobi_hypergeom(r, a, b)
