import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from holoproj.characters import char_from_table, char_kronecker
from holoproj.kernel import projection_kernel
from holoproj.projection import _kernel_sum
from holoproj.qseries import QSeries
from holoproj.rings import (
    _SPLIT_BITS,
    _WORD_BITS,
    CyclotomicNumber,
    UnivariatePoly,
    _factorize,
    cyc,
    cyclotomic_polynomial,
    euler_phi,
    graded_readout,
    rational_to_str,
    value_from_json,
    value_to_json,
)
from holoproj.theta import theta_power_direct, theta_power_series, theta_series


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
                                 {"order": True, "coords": ["1"]}, {"order": 2, "coords": 5},
                                 {"order": 4, "coords": "01"}, {"order": 2, "coords": ("-1",)},
                                 {"order": 2, "coords": ["-1"], "name": "-1"}, {"coords": ["-1"]},
                                 {"order": 4, "coords": [False, True]}, {"order": 2, "coords": [-1.0]},
                                 True, -1.0, 0.5])
def test_value_with_a_non_integer_order_or_bad_coords_is_malformed(obj):
    """Also a bool or a float as a value or a coordinate: a JSON rational is
    an integer or a "p/q" string."""
    with pytest.raises(ValueError, match=re.escape(f"malformed value {obj!r}")):
        value_from_json(obj)


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for e in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(e, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(e) == tuple(int(c) for c in expected), e
        assert euler_phi(e) == sympy.totient(e), e


def test_factorize_and_euler_phi_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 3001):
        assert _factorize(n) == sympy.factorint(n), n
        assert euler_phi(n) == sympy.totient(n), n
    with pytest.raises(ValueError, match="euler_phi needs a positive argument, got 0"):
        euler_phi(0)


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


def test_univariate_poly_keeps_ints_and_divides_exactly():
    """Int coefficients stay ints, and a division by a non-monic int divisor
    is exact: an int over an int lead becomes a Fraction, never a float.  The
    cyclotomic inverse divides int coordinates by such divisors."""
    p, d = UnivariatePoly([1, -3, 0, 2]), UnivariatePoly([1, 3])
    assert all(type(c) is int for c in (p * d - p + 1).coeffs + (p(2),))
    q, r = divmod(p, d)
    assert q * d + r == p and r.degree() < d.degree()
    assert q.coeffs == (Fraction(-25, 27), Fraction(-2, 9), Fraction(2, 3))
    assert r.coeffs == (Fraction(52, 27),)
    assert all(type(c) in (int, Fraction) for c in q.coeffs + r.coeffs)
    x = CyclotomicNumber(3, (2, 3))  # 2 + 3 zeta_3: Phi_3 over the lead 3
    inv = x.inverse()
    assert x * inv == 1
    assert all(type(c) in (int, Fraction) for c in inv.coords)


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


@settings(max_examples=60, deadline=None)
@given(width=st.integers(0, 5 * _SPLIT_BITS), rng=st.randoms(use_true_random=False),
       negative=st.booleans())
@example(width=0, rng=random.Random(0), negative=False)
@example(width=_WORD_BITS - 1, rng=random.Random(0), negative=True)
@example(width=_WORD_BITS, rng=random.Random(0), negative=False)
@example(width=_WORD_BITS + 1, rng=random.Random(0), negative=True)
@example(width=_SPLIT_BITS, rng=random.Random(0), negative=True)
@example(width=_SPLIT_BITS + 1, rng=random.Random(0), negative=True)
@example(width=4 * _SPLIT_BITS + 1, rng=random.Random(0), negative=False)
def test_rational_to_str_agrees_with_one_decimal_conversion(width, rng, negative):
    """str() up to a machine word, the cached conversion above it, split
    above _SPLIT_BITS and one Decimal conversion below: the same digits as
    str(Decimal(n)) on both sides of each threshold, for negative n and for
    0.  The top bit is set, so n has exactly `width` bits."""
    n = rng.getrandbits(width) | (1 << width >> 1)
    n = -n if negative else n
    assert n.bit_length() == width
    assert rational_to_str(n) == str(Decimal(n))
    q = Fraction(n, 3 ** 5000)
    assert rational_to_str(q) == (f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"
                                  if n else "0")


# -- the graded readout ---------------------------------------------------------

READOUT_VALUES = {
    "one": cyc(1),
    "minus": cyc(-1),
    "three_at_2": CyclotomicNumber(2, (3,)),
    "w": zeta(3),
    "i": zeta(4),
    "minus_i": -zeta(4),
    "one_at_4": CyclotomicNumber(4, (1, 0)),  # 1 spelled at tag 4
}


def _readout_oracle(columns, values):
    """amount * value added one term at a time to cyc(0), per key."""
    out = {}
    for grade, col in columns.items():
        for key, amount in col.items():
            out[key] = out.get(key, cyc(0)) + amount * values[grade]
    return {key: value_to_json(v) for key, v in out.items()}


def _readout_json(columns, values):
    return {key: value_to_json(v) for key, v in graded_readout(columns, values).items()}


@pytest.mark.parametrize("columns, expected", [
    # tags 1, 2, 3 and 4, one grade per key
    ({"one": {1: 5}, "three_at_2": {2: 7}, "w": {3: -2}, "i": {4: 3}},
     {1: "5", 2: {"order": 2, "coords": ["21"]}, 3: {"order": 3, "coords": ["0", "-2"]},
      4: {"order": 4, "coords": ["0", "3"]}}),
    # tags 3 and 4 at one key: e = 12
    ({"w": {1: 2}, "i": {1: -3}}, None),
    # 1 spelled at tag 4 next to -1 at tag 1: the key holding both is at tag 4,
    # and 1 at tag 4 alone is not 1 at tag 1 alone
    ({"one_at_4": {1: 2, 2: 5}, "minus": {1: 7, 3: 1}, "one": {4: 6}},
     {1: {"order": 4, "coords": ["-5", "0"]}, 2: {"order": 4, "coords": ["5", "0"]}, 3: "-1",
      4: "6"}),
    # terms that cancel at tag 4, and a zero amount at tag 4, keep the tag
    ({"i": {1: 2, 2: 0}, "minus_i": {1: 2}, "one": {2: 3}},
     {1: {"order": 4, "coords": ["0", "0"]}, 2: {"order": 4, "coords": ["3", "0"]}}),
    # Fraction amounts
    ({"w": {1: Fraction(1, 3)}, "one": {1: Fraction(-2, 5), 2: Fraction(7, 4)}},
     {1: {"order": 3, "coords": ["-2/5", "1/3"]}, 2: "7/4"}),
    # keys that only some columns hold
    ({"i": {1: 1, 2: 4}, "one": {2: 3, 3: 1}, "w": {3: 2}},
     {1: {"order": 4, "coords": ["0", "1"]}, 2: {"order": 4, "coords": ["3", "4"]},
      3: {"order": 3, "coords": ["1", "2"]}}),
    # empty columns
    ({}, {}),
    ({"i": {}, "w": {}}, {}),
    ({"i": {}, "one": {1: 2}}, {1: "2"}),
])
def test_graded_readout_matches_one_term_at_a_time(columns, expected):
    got = _readout_json(columns, READOUT_VALUES)
    assert got == _readout_oracle(columns, READOUT_VALUES)
    if expected is not None:
        assert got == expected
    else:
        assert {v["order"] for v in got.values()} == {12}


def test_graded_readout_lifts_no_value_already_at_its_tag(monkeypatch):
    calls = []
    lift = CyclotomicNumber.lift
    monkeypatch.setattr(CyclotomicNumber, "lift", lambda z, e: calls.append(e) or lift(z, e))
    values = {"one": cyc(1), "minus": cyc(-1), "i": zeta(4), "one_at_4": READOUT_VALUES["one_at_4"]}
    graded_readout({"one": {k: k for k in range(9)}, "minus": {k: 1 for k in range(0, 9, 2)}},
                   values)
    assert calls == []
    graded_readout({"i": {1: 1, 2: 2}, "one_at_4": {2: 3}, "one": {2: 1, 3: 5}}, values)
    assert calls == [4]  # 1 at tag 1 beside tag-4 grades, once for the one set holding all three


@st.composite
def readout_inputs(draw):
    """Up to four grades, each value spelled at a multiple of its least tag
    (equal values at two tags among them), and columns over six keys with
    int or Fraction amounts, zeros included."""
    values = {}
    for grade in range(draw(st.integers(0, 4))):
        v = draw(st.one_of(st.sampled_from(list(READOUT_VALUES.values())),
                           cyclo_values(orders=(1, 2, 3, 4))))
        values[grade] = v.lift(draw(st.sampled_from([e for e in (1, 2, 3, 4, 12)
                                                     if e % v.order == 0])))
    amounts = st.one_of(st.integers(-9, 9),
                        st.fractions(min_value=-5, max_value=5, max_denominator=6))
    columns = {grade: draw(st.dictionaries(st.integers(0, 5), amounts, max_size=6))
               for grade in values}
    return columns, values


@given(readout_inputs())
@settings(max_examples=80, deadline=None)
def test_graded_readout_property(inputs):
    columns, values = inputs
    assert _readout_json(columns, values) == _readout_oracle(columns, values)


# -- values built without re-validation ----------------------------------------

def _as_validated(z):
    """z has the order, the coords and the coordinate types that
    CyclotomicNumber's checks give its coordinates (which also check their
    count), and its coords are a tuple."""
    checked = CyclotomicNumber(z.order, z.coords)
    assert type(z) is CyclotomicNumber and type(z.coords) is tuple
    assert (z.order, z.coords) == (checked.order, checked.coords)
    assert list(map(type, z.coords)) == list(map(type, checked.coords))
    return True


@given(cyclo_values(), cyclo_values(), st.integers(1, 3), st.integers(-3, 3))
@example(cyc(Fraction(1, 2)), cyc(Fraction(1, 2)), 2, 2)  # 1/2 + 1/2 = 1, an int
@example(CyclotomicNumber(4, (Fraction(1, 2), 0)), CyclotomicNumber(4, (Fraction(1, 2), 0)), 3, -1)
@settings(max_examples=80, deadline=None)
def test_ring_arithmetic_builds_values_as_validated(a, b, k, n):
    results = [a + b, a - b, -a, a * b, a.lift(a.order * k), a.conjugate(), a + 1, 2 * a]
    if not a.is_zero():
        results += [a.inverse(), a ** n]
    assert all(map(_as_validated, results))


@given(readout_inputs())
@settings(max_examples=60, deadline=None)
def test_graded_readout_builds_values_as_validated(inputs):
    assert all(map(_as_validated, graded_readout(*inputs).values()))


@st.composite
def cyclo_series(draw):
    v = draw(st.integers(-2, 2))
    width = draw(st.integers(0, 6))
    coeffs = draw(st.dictionaries(st.integers(v, v + width), cyclo_values(orders=(1, 3, 4)),
                                  max_size=width + 1))
    return QSeries(v, v + width, coeffs)


@given(cyclo_series(), cyclo_series())
@settings(max_examples=60, deadline=None)
def test_series_products_build_values_as_validated(a, b):
    assert all(_as_validated(c) for _, c in (a * b).nonzero_items())


@pytest.mark.parametrize("psi", [char_kronecker(-4), char_kronecker(12), char_from_table(
    5, [cyc(0), cyc(1), zeta(4), -zeta(4), cyc(-1)])], ids=["kron_m4", "kron_12", "quartic_mod5"])
def test_theta_builds_values_as_validated(psi):
    for series in (theta_series(psi, 200), theta_power_direct(psi, 3, 200),
                   theta_power_series(psi, 3, 200)):
        assert all(_as_validated(c) for _, c in series.nonzero_items())


@given(st.lists(st.tuples(cyclo_values(orders=(1, 2, 4, 6)), cyclo_values(orders=(1, 3, 4))),
                max_size=6),
       st.integers(1, 12), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_kernel_sum_builds_values_as_validated(pairs, r, half):
    terms = [(3 * i + 1, a, b) for i, (a, b) in enumerate(pairs)]
    assert all(map(_as_validated, _kernel_sum(projection_kernel(4), r, terms, half)))


# -- hashing across order tags, and phi without Phi_e ---------------------------

@given(cyclo_values(), st.integers(1, 4))
@example(zeta(4), 2)  # i at tag 4 and at tag 8
@example(cyc(Fraction(-3, 7)), 6)
@settings(max_examples=80, deadline=None)
def test_hash_is_the_same_at_every_order_tag(z, k):
    """Equal values hash alike whatever order spells them, and a rational
    value hashes as the rational itself."""
    lifted = z.lift(k * z.order)
    assert lifted == z and hash(lifted) == hash(z)
    assert lifted in {z} and z in {lifted}
    if z.is_rational():
        assert hash(z) == hash(z.rational_value())


def test_a_character_spelled_at_two_tags_is_one_set_element():
    i4, i8 = zeta(4), zeta(4).lift(8)
    psi4 = char_from_table(5, [cyc(0), cyc(1), i4, -i4, cyc(-1)])
    psi8 = char_from_table(5, [cyc(0), cyc(1), i8, -i8, cyc(-1)])
    assert psi4(2).order == 4 and psi8(2).order == 8
    assert psi4 == psi8 and len({psi4, psi8}) == 1


def test_a_wrong_coordinate_count_is_rejected_before_any_phi_e(no_large_cyclotomic_polynomial):
    with pytest.raises(ValueError, match=r"need phi\(1000000000\) >= sqrt\(1000000000/2\) "
                                         r"coordinates, got 1"):
        value_from_json({"order": 10 ** 9, "coords": ["1"]})
    with pytest.raises(ValueError, match=r"need phi\(12\) = 4 coordinates, got 3"):
        value_from_json({"order": 12, "coords": ["1", "0", "0"]})
    assert euler_phi(200000) == 80000 and euler_phi(10 ** 9 + 7) == 10 ** 9 + 6
