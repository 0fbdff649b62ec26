import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from holoproj.characters import char_kronecker
from holoproj.rings import (
    CyclotomicNumber,
    UnivariatePoly,
    cyc,
    cyclotomic_polynomial,
    euler_phi,
    rational_to_str,
    value_from_json,
    value_to_json,
)
from holoproj.theta import theta_power_direct, theta_power_series


def zeta(e, k=1):
    return CyclotomicNumber.zeta(e, k)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_i_squared_is_minus_one():
    assert zeta(4) * zeta(4) == cyc(-1)


def test_cube_root_sum():
    assert zeta(3) + zeta(3, 2) == cyc(-1)


def test_order_one_is_plain_rational_arithmetic():
    a = cyc(Fraction(2, 3))
    b = cyc(Fraction(1, 2))
    assert (a * b).rational_value() == Fraction(1, 3)
    assert (a + b).rational_value() == Fraction(7, 6)


def test_lift_identity_case():
    one = cyc(1)
    lifted = one.lift(4)
    assert lifted.order == 4
    assert lifted == one


def test_lift_zeta2_is_zeta4_squared():
    assert zeta(2).lift(4) == zeta(4, 2)
    assert zeta(2) == cyc(-1)


def test_lift_requires_divisible_order():
    with pytest.raises(ValueError):
        zeta(4).lift(6)


def test_mixed_order_arithmetic_lands_in_lcm():
    z = zeta(4) + zeta(3)
    assert z.order == 12


@st.composite
def cyclo_values(draw, orders=(1, 2, 3, 4, 6, 8, 12)):
    e = draw(st.sampled_from(orders))
    coords = draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            min_size=euler_phi(e),
            max_size=euler_phi(e),
        )
    )
    return CyclotomicNumber(e, coords)


@given(cyclo_values(), cyclo_values(), cyclo_values())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(cyclo_values())
@settings(max_examples=40, deadline=None)
def test_conjugate_is_involution(z):
    assert z.conjugate().conjugate() == z


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(40):
        e = rng.choice([1, 3, 4, 5, 8, 12])
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(e))]
        z = CyclotomicNumber(e, coords)
        if z.is_zero():
            continue
        assert z * z.inverse() == cyc(1)


def test_lift_round_trip_random():
    rng = random.Random(11)
    for _ in range(100):
        e = rng.choice([1, 2, 3, 4, 6])
        mult = rng.choice([2, 3, 4])
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(euler_phi(e))]
        z = CyclotomicNumber(e, coords)
        assert z.lift(e * mult) == z


def _exact_coords(z):
    """Every coordinate is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in z.coords)


def test_rational_inverse_is_a_fraction_not_a_float():
    third = cyc(3).inverse()
    assert third.coords == (Fraction(1, 3),) and type(third.coords[0]) is Fraction
    assert cyc(Fraction(1, 3)).inverse().coords == (3,)
    assert type(cyc(Fraction(1, 3)).inverse().coords[0]) is int
    assert type(CyclotomicNumber(4, [3, 0]).inverse().coords[0]) is Fraction


def test_coordinates_are_ints_when_integral():
    assert type(CyclotomicNumber(1, [Fraction(6, 3)]).coords[0]) is int
    assert type(CyclotomicNumber(1, [True]).coords[0]) is int
    assert CyclotomicNumber(1, [0.5]).coords == (Fraction(1, 2),)
    assert CyclotomicNumber(1, ["-4/2"]).coords == (-2,)
    assert type(CyclotomicNumber(1, ["-4/2"]).coords[0]) is int


_OPS = ("+", "-", "*", "**", "inverse", "conjugate", "lift", "==")


def _apply(op, a, b, k):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "**":
        return a ** k if k >= 0 or not a.is_zero() else a ** -k
    if op == "inverse":
        return a.inverse() if not a.is_zero() else a
    if op == "conjugate":
        return a.conjugate()
    return a.lift(a.order * (abs(k) + 1))


@given(
    st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 12)).flatmap(
        lambda e: st.tuples(st.just(e), st.lists(st.integers(-6, 6), min_size=euler_phi(e),
                                                 max_size=euler_phi(e)))),
        min_size=1, max_size=3),
    st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 20), st.integers(0, 20),
                       st.integers(-2, 3)), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_int_and_fraction_coordinates_give_the_same_values(starts, ops):
    """The same operations on values built from int coordinates and from the
    equal Fraction coordinates: equal results, hashes and report strings, and
    never a float or an integral Fraction among the coordinates."""
    ints = [CyclotomicNumber(e, coords) for e, coords in starts]
    fracs = [CyclotomicNumber(e, [Fraction(c) for c in coords]) for e, coords in starts]
    for op, i, j, k in ops:
        a, b = ints[i % len(ints)], ints[j % len(ints)]
        fa, fb = fracs[i % len(fracs)], fracs[j % len(fracs)]
        if op == "==":
            assert (a == b) == (fa == fb) == (a == fb) == (fa == b)
            continue
        ints.append(_apply(op, a, b, k))
        fracs.append(_apply(op, fa, fb, k))
    for x, y in zip(ints, fracs):
        assert x == y and x.order == y.order and x.coords == y.coords
        assert hash(x) == hash(y)
        assert value_to_json(x) == value_to_json(y)
        assert _exact_coords(x) and _exact_coords(y), (x.coords, y.coords)


def test_theta_powers_of_a_real_character_hold_only_int_coordinates():
    psi = char_kronecker(-4)
    for power in (theta_power_direct(psi, 4, 512), theta_power_series(psi, 4, 512)):
        coords = [c for _, value in power.nonzero_items() for c in value.coords]
        assert coords and all(type(c) is int for c in coords)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        cyc(0).inverse()


def test_multiplicative_order():
    assert zeta(4).multiplicative_order() == 4
    assert cyc(1).multiplicative_order() == 1
    assert cyc(-1).multiplicative_order() == 2


def test_rational_serialization():
    assert rational_to_str(Fraction(-3, 7)) == "-3/7"
    assert rational_to_str(Fraction(5)) == "5"


def test_value_serialization_round_trip():
    z = zeta(8) + cyc(Fraction(1, 2))
    obj = value_to_json(z)
    assert obj["order"] == 8
    assert value_from_json(obj) == z
    r = cyc(Fraction(-2, 9))
    assert value_to_json(r) == "-2/9"
    assert value_from_json("-2/9") == r


@pytest.mark.parametrize("obj", [{"order": "2", "coords": ["-1"]}, {"order": 2.0, "coords": ["-1"]},
                                 {"order": True, "coords": ["1"]}, {"order": 2, "coords": 5}])
def test_value_with_a_non_integer_order_or_bad_coords_is_malformed(obj):
    with pytest.raises(ValueError, match=re.escape(f"malformed value {obj!r}")):
        value_from_json(obj)


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for e in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(e, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(e) == tuple(int(c) for c in expected), e
        assert euler_phi(e) == sympy.totient(e), e


def test_univariate_poly_arithmetic():
    p = UnivariatePoly([1, -3, 0, 2])
    d = UnivariatePoly([Fraction(1, 2), 1])
    q, r = divmod(p, d)
    assert q * d + r == p and r.degree() < d.degree()
    assert p - p == UnivariatePoly([]) and 1 + p - 1 == p
    # calling with a polynomial composes: p(1 - 2u) evaluated at u = 1/4
    composed = p(UnivariatePoly([1, -2]))
    assert composed(Fraction(1, 4)) == p(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        divmod(p, UnivariatePoly([0]))


def _chunked_decimal(n: int) -> str:
    """Decimal digits of n by repeated divmod by 10^9: str() only ever sees
    integers of at most nine digits."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= 10 ** 9:
        n, low = divmod(n, 10 ** 9)
        chunks.append(f"{low:09d}")
    chunks.append(str(n))
    return sign + "".join(reversed(chunks))


def test_rational_to_str_past_the_int_str_limit(default_int_str_limit):
    q = Fraction(-(3 ** 11000) - 1, 7 ** 6000)
    p, d = q.numerator, q.denominator
    for part in (p, d):
        assert len(_chunked_decimal(abs(part))) > max(5000, default_int_str_limit)
        with pytest.raises(ValueError):
            str(part)
    assert rational_to_str(q) == f"{_chunked_decimal(p)}/{_chunked_decimal(d)}"
    assert rational_to_str(Fraction(p)) == _chunked_decimal(p)
    assert value_to_json(cyc(q)) == rational_to_str(q)
    assert sys.get_int_max_str_digits() == default_int_str_limit
