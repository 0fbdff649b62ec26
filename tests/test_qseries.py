import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from holoproj import qseries
from holoproj.characters import char_from_table, char_kronecker
from holoproj.qseries import QSeries, SeriesRangeError
from holoproj.rings import CyclotomicNumber, cyc, euler_phi, value_to_json
from holoproj.theta import theta_power_direct, theta_power_series, theta_series
from test_theta import ORACLE_CHARS


def series(valuation, truncation, coeffs):
    return QSeries(valuation, truncation, coeffs)


def test_binomial_product():
    a = series(1, 8, {1: 1, 4: 1})
    p = a * a
    assert p.valuation == 2
    assert p.truncation == 9  # min(8+1, 8+1)
    assert p.coeff(2) == cyc(1)
    assert p.coeff(5) == cyc(2)
    assert p.coeff(8) == cyc(1)
    assert p.coeff(3).is_zero()


def test_multiplicative_identity():
    a = series(0, 10, {0: 3, 2: Fraction(1, 2), 7: -1})
    one = QSeries(0, 10, {0: 1})
    assert (a * one).agrees_with(a, 0, 10)


def test_pow_one_is_identity():
    a = series(1, 9, {1: 1, 9: -3})
    assert a.pow(1) == a


def test_pow_binomial():
    a = series(1, 20, {1: 1, 9: -3})
    sq = a.pow(2)
    assert sq.coeff(2) == cyc(1)
    assert sq.coeff(10) == cyc(-6)
    assert sq.coeff(18) == cyc(9)
    assert sq.coeff(5).is_zero()


def test_pow_rejects_zero_exponent():
    with pytest.raises(ValueError):
        series(0, 3, {0: 1}).pow(0)


def test_mul_window_bookkeeping():
    a = series(-2, 5, {-2: 1})
    b = series(1, 3, {1: 1})
    p = a * b
    assert p.valuation == -1
    assert p.truncation == min(5 + 1, 3 - 2)


def test_divide_monomials():
    q2 = series(2, 6, {2: 1})
    q1 = series(1, 6, {1: 1})
    quo = q2.divide(q1)
    assert quo.min_nonzero_exponent() == 1
    assert quo.coeff(1) == cyc(1)


def test_divide_round_trip_random():
    rng = random.Random(5)
    for _ in range(30):
        av = rng.randint(-3, 3)
        a = series(av, av + 12,
                   {av + i: rng.randint(-4, 4) for i in range(0, 12, rng.randint(1, 3))})
        bv = rng.randint(-2, 2)
        b_coeffs = {bv: rng.choice([1, -1, 2])}
        for i in range(1, 10):
            b_coeffs[bv + i] = rng.randint(-3, 3)
        b = series(bv, bv + 10, b_coeffs)
        quo = (a * b).divide(b)
        assert quo.agrees_with(a)


def test_divide_by_zero_window():
    z = series(0, 5, {})
    with pytest.raises(ZeroDivisionError):
        series(0, 5, {0: 1}).divide(z)


def test_divide_zero_numerator():
    z = series(0, 5, {})
    b = series(0, 5, {0: 1, 1: 2})
    assert z.divide(b).is_zero_on_window()


def test_divide_skips_leading_zeros_of_divisor():
    # divisor windows start below its first nonzero coefficient
    b = series(0, 8, {2: 1, 3: 1})
    a = series(2, 10, {2: 1, 3: 1})
    quo = a.divide(b)
    assert quo.coeff(0) == cyc(1)
    assert (quo * b).agrees_with(a)


def test_agrees_with_outside_the_shared_window():
    """Below a valuation the coefficients are exact zeros, above a
    truncation they are not certified, and an empty range agrees."""
    a = series(2, 8, {2: 1, 5: 3})
    assert a.agrees_with(series(0, 6, {2: 1, 5: 3}), 0, 6)
    assert not a.agrees_with(series(0, 6, {1: 1, 2: 1, 5: 3}), 0, 6)
    with pytest.raises(SeriesRangeError):
        a.agrees_with(series(0, 6, {2: 1, 5: 3}), 2, 7)
    assert a.agrees_with(series(0, 6, {5: 9}), 5, 4)


def test_valuation_accessors():
    a = series(0, 10, {3: 1, 7: -2})
    assert a.min_nonzero_exponent() == 3
    with pytest.raises(ValueError):
        series(0, 4, {}).min_nonzero_exponent()


def test_coeff_window_contract():
    a = series(2, 5, {3: 1})
    assert a.coeff(0).is_zero()  # below valuation: exact zero
    assert a.coeff(4).is_zero()  # inside window, absent: exact zero
    with pytest.raises(SeriesRangeError):
        a.coeff(6)  # beyond certification


def test_constructor_rejects_out_of_window():
    with pytest.raises(SeriesRangeError):
        series(0, 3, {5: 1})


@st.composite
def small_series(draw):
    v = draw(st.integers(min_value=-3, max_value=3))
    width = draw(st.integers(min_value=0, max_value=8))
    coeffs = {}
    for i in range(width + 1):
        c = draw(st.integers(min_value=-5, max_value=5))
        if c:
            coeffs[v + i] = c
    return QSeries(v, v + width, coeffs)


@given(small_series(), small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_mul_commutative_associative(a, b, c):
    assert (a * b).agrees_with(b * a)
    assert ((a * b) * c).agrees_with(a * (b * c))


@given(small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_truncation_narrowing_preserves_shared_coefficients(a, b):
    # narrow a's certification window; products agree on the shared range
    if a.truncation == a.valuation:
        return
    narrowed = QSeries(a.valuation, a.truncation - 1,
                       {e: c for e, c in a.nonzero_items() if e <= a.truncation - 1})
    full = a * b
    part = narrowed * b
    assert full.agrees_with(part)


def test_json_rows():
    a = series(1, 9, {1: 1, 9: -3})
    obj = a.to_json_obj()
    assert obj["valuation"] == 1 and obj["truncation"] == 9
    assert obj["rows"] == [
        {"exponent": 1, "value": "1"},
        {"exponent": 9, "value": "-3"},
    ]


def test_csv_rows():
    a = series(0, 4, {0: Fraction(1, 3), 4: -2})
    assert list(a.to_csv_rows()) == [(0, "1/3"), (4, "-2")]


def test_pickle_keeps_values_and_order_tags():
    """A side crosses a process pool pickled: every stored coefficient comes
    back, a sum that cancelled at tag 4 with its tag."""
    i = CyclotomicNumber.zeta(4)
    tagged = QSeries(1, 6, {2: i + (-i), 3: i, 5: Fraction(7, 2)})
    assert value_to_json(tagged.coeff(2)) == {"order": 4, "coords": ["0", "0"]}
    for s in (theta_power_direct(char_kronecker(-4), 2, 20),
              theta_power_direct(ORACLE_CHARS["quartic_mod5"], 2, 20), tagged):
        back = pickle.loads(pickle.dumps(s))
        assert back == s and slots(back) == slots(s)


# -- QSeries.__mul__ against the schoolbook product -------------------------

def schoolbook_product(a, b):
    """The Cauchy product one term pair at a time: every pair adds its
    product to a slot that starts as an order-1 zero, which fixes both the
    values and the order tags."""
    v = a.valuation + b.valuation
    n = min(a.truncation + b.valuation, b.truncation + a.valuation)
    slots = [cyc(0)] * (n - v + 1)
    for ea, ca in a.nonzero_items():
        for eb, cb in b.nonzero_items():
            if ea + eb <= n:
                slots[ea + eb - v] = slots[ea + eb - v] + ca * cb
    return QSeries(v, n, {v + i: c for i, c in enumerate(slots)})


def schoolbook_pow(a, exponent):
    out, base = None, a
    while exponent:
        if exponent & 1:
            out = base if out is None else schoolbook_product(out, base)
        exponent >>= 1
        if exponent:
            base = schoolbook_product(base, base)
    return out


def slots(series):
    """Window and every slot's JSON value, zeros included, so order tags
    count even where a sum cancels."""
    return (series.valuation, series.truncation,
            [value_to_json(series.coeff(e))
             for e in range(series.valuation, series.truncation + 1)])


# numerators up to 2^80 exercise the digit width, +-(2^k - 1) fill their bits
# exactly; mixed denominators exercise the scaling
coordinate = st.builds(
    Fraction,
    st.one_of(st.integers(-6, 6), st.integers(-2 ** 80, 2 ** 80),
              st.builds(lambda k, sign: sign * (2 ** k - 1), st.integers(1, 72),
                        st.sampled_from([1, -1]))),
    st.sampled_from([1, 1, 2, 3, 4, 9, 35]),
)


@st.composite
def tagged_value(draw, orders):
    order = draw(st.sampled_from(orders))
    coords = [draw(coordinate) for _ in range(euler_phi(order))]
    if draw(st.booleans()):
        coords[1:] = [0] * (len(coords) - 1)  # a rational value carried at this order
    return CyclotomicNumber(order, coords)


@st.composite
def tagged_series(draw):
    orders = draw(st.lists(st.sampled_from([1, 3, 4, 6]), min_size=1, max_size=3, unique=True))
    v = draw(st.integers(min_value=-4, max_value=4))
    width = draw(st.integers(min_value=0, max_value=14))
    coeffs = {}
    for e in range(v, v + width + 1):
        if draw(st.integers(0, 2)):  # a third of the slots stay zero gaps
            coeffs[e] = draw(tagged_value(orders))
    return QSeries(v, v + width, coeffs)


@given(tagged_series(), tagged_series())
@example(QSeries(0, 2, {0: 15, 1: -15}), QSeries(0, 2, {0: 17}))  # 255: 8 bits and a sign
@settings(max_examples=300, deadline=None)
def test_mul_matches_schoolbook_product(a, b):
    assert slots(a * b) == slots(schoolbook_product(a, b))


@st.composite
def stepped_series(draw):
    """Each order group's terms on its own start + step * k, step 1 to 9;
    the window's end falls on or off a group's step."""
    v = draw(st.integers(min_value=-6, max_value=4))
    coeffs = {}
    for order in draw(st.lists(st.sampled_from([1, 3, 4, 6]), min_size=1, max_size=3,
                               unique=True)):
        start, step = v + draw(st.integers(0, 5)), draw(st.integers(1, 9))
        for k in draw(st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True)):
            coeffs[start + step * k] = draw(tagged_value([order]))
    return QSeries(v, max(coeffs) + draw(st.integers(0, 10)), coeffs)


_I = CyclotomicNumber.zeta(4)


@given(stepped_series(), stepped_series())
# steps 2 against 3: the gcd is 1
@example(QSeries(0, 20, {0: 1, 2: -1, 4: 3}), QSeries(1, 16, {1: 2, 4: 1, 7: -5}))
# an order-4 group at step 8 beside an order-1 group at step 4, windows off the steps
@example(QSeries(-3, 30, {0: 1, 4: -1, 8: 3, 1: _I, 9: -_I, 17: 2 * _I}),
         QSeries(-2, 21, {-2: _I, 6: 3 * _I, 14: -_I, 0: 5, 4: -2, 12: 1}))
# i * (-i) + i * i cancels at q^3 on step 3: the zero keeps order 4
@example(QSeries(0, 7, {0: _I, 3: _I}), QSeries(0, 8, {0: _I, 3: -_I}))
# single terms at negative valuations
@example(QSeries(-5, -1, {-4: 3 * _I}), QSeries(-2, 4, {-2: Fraction(1, 3)}))
@settings(max_examples=300, deadline=None)
def test_mul_matches_schoolbook_product_on_stepped_supports(a, b):
    assert slots(a * b) == slots(schoolbook_product(a, b))


def test_mul_packs_theta_square_at_the_exponents_step(monkeypatch):
    """theta of kronecker -4 has its exponents n^2 = 1 mod 8: the square asks
    for one slot in 8 of its window, not every slot."""
    counts = []
    product_digits = qseries._product_digits

    def counted(*args):
        counts.append(args[-1])
        return product_digits(*args)

    monkeypatch.setattr(qseries, "_product_digits", counted)
    theta_power_series(char_kronecker(-4), 2, 3072)
    assert counts and max(counts) <= 3072 // 8 + 1


def test_mul_matches_schoolbook_product_landmarks(default_int_str_limit):
    i = CyclotomicNumber.zeta(4)
    w = CyclotomicNumber.zeta(3)
    big = 2 ** 64 + 1
    cases = [
        # i * (-i) + i * i cancels at q^1: the zero there keeps order 4
        (QSeries(0, 4, {0: i, 1: i}), QSeries(0, 4, {0: i, 1: -i})),
        (QSeries(0, 4, {0: i, 1: 1}), QSeries(0, 4, {0: i, 1: 1})),
        (QSeries(-3, 2, {-3: Fraction(-1, 3), 0: w, 2: big}),
         QSeries(1, 9, {1: CyclotomicNumber(6, [big, -big]), 5: Fraction(5, 7)})),
        (QSeries(0, 5, {0: CyclotomicNumber(4, [Fraction(1, 2), 0])}), QSeries(0, 5, {3: 2})),
        (QSeries(0, 6, {0: -big * big, 6: 1}), QSeries(0, 6, {0: big * big})),
    ]
    # decimal digit boundaries: coefficients +-(10^k - 1) and +-5 * 10^(k-1)
    # fill or half-fill k decimal places; the one product digit of two
    # single terms is the bound itself, and 5 * 10^(k-1) is exactly the bias
    # of a width-k digit, so the width must go past k
    for k in (1, 2, 3, 9, 10, 19, 20, 38):
        nines, fives = 10 ** k - 1, 5 * 10 ** (k - 1)
        cases += [
            (QSeries(0, 3, {0: nines, 1: -nines, 2: fives, 3: -fives}),
             QSeries(0, 3, {0: fives, 1: nines, 2: -nines, 3: 1})),
            (QSeries(0, 0, {0: fives}), QSeries(0, 0, {0: 1})),
            (QSeries(0, 0, {0: -fives}), QSeries(0, 0, {0: 1})),
            (QSeries(0, 1, {0: fives - 1, 1: fives + 1}), QSeries(0, 1, {0: -1, 1: 1})),
            (QSeries(0, 2, {0: CyclotomicNumber(4, [nines, -fives])}),
             QSeries(0, 2, {0: CyclotomicNumber(4, [-fives, nines]), 2: i})),
        ]
    # products that cancel to a zero digit (its biased slice is the bias
    # itself): order 1 keeps the shared zero, order 4 keeps its tag
    cases += [
        (QSeries(0, 2, {0: 5, 1: 5}), QSeries(0, 2, {0: 1, 1: -1})),
        (QSeries(0, 2, {0: 5 * i, 1: 5 * i}), QSeries(0, 2, {0: i, 1: -i})),
    ]
    for a, b in cases:
        assert slots(a * b) == slots(schoolbook_product(a, b))
        assert slots(b * a) == slots(schoolbook_product(b, a))
    assert value_to_json((cases[0][0] * cases[0][1]).coeff(1)) == {"order": 4, "coords": ["0", "0"]}
    assert value_to_json((cases[-2][0] * cases[-2][1]).coeff(1)) == "0"
    assert value_to_json((cases[-1][0] * cases[-1][1]).coeff(1)) == {"order": 4, "coords": ["0", "0"]}
    # a coefficient past the 4,300-digit limit of int <-> str conversion,
    # sized by bit length (printing it as an int would raise)
    huge = 7 ** 5200 + 1
    assert huge.bit_length() * 30103 // 100000 > 4300
    a = QSeries(0, 3, {0: huge, 1: -huge, 3: 2})
    b = QSeries(0, 3, {0: huge - 1, 2: Fraction(1, 3), 3: CyclotomicNumber(4, [huge, -1])})
    assert (a * b).coeff(1) == cyc(-huge * (huge - 1))
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        assert slots(x * y) == slots(schoolbook_product(x, y))
    assert sys.get_int_max_str_digits() == default_int_str_limit


def test_mul_reads_digits_on_both_sides_of_the_least_int_str_limit(default_int_str_limit):
    """Product digits 600 to 700 decimal places wide, under the least
    int<->str limit (640 digits) Python allows."""
    sys.set_int_max_str_digits(640)
    for k in (295, 300, 320, 325, 340):
        big = 10 ** k - 1
        a = QSeries(0, 2, {0: big, 1: -big, 2: CyclotomicNumber(4, [big, 3])})
        b = QSeries(0, 2, {0: big - 2, 1: Fraction(1, 3)})
        for x, y in ((a, b), (a, a)):
            assert slots(x * y) == slots(schoolbook_product(x, y))


def _quartic_mod16():
    """The quartic character mod 16 with psi(5) = i and psi(-1) = 1 (5 and -1
    generate the units): theta's exponents sit on 1 mod 8, its values mix
    orders 1 and 4."""
    table = [cyc(0)] * 16
    for k in range(4):
        for sign in (1, -1):
            table[sign * 5 ** k % 16] = cyc(1) if k == 0 else _I ** k
    return char_from_table(16, table)


SERIES_CHARS = {**ORACLE_CHARS, "quartic_mod16": _quartic_mod16()}


@pytest.mark.parametrize("name", ["quartic_mod5", "sextic_mod7", "kron_m4", "kron_8", "kron_m3",
                                  "kron_12", "quartic_mod16"])
@pytest.mark.parametrize("l", [2, 4, 6])
def test_theta_power_series_matches_lattice_and_schoolbook(name, l):
    psi, n = SERIES_CHARS[name], 120
    powered = theta_power_series(psi, l, n)
    assert powered.agrees_with(theta_power_direct(psi, l, n), l, n)
    oracle = schoolbook_pow(theta_series(psi, n), l)
    assert powered.to_json_obj() == oracle.to_json_obj()
    assert slots(powered) == slots(oracle)


# -- _product_digits on packed inputs, at the tightest bound ------------------
#
# a * b passes _convolve's bound, which is loose; these pass the largest digit
# or coordinate itself, so a field holds exactly the values it must.


def schoolbook_digits(terms_a, rows_a, terms_b, rows_b, stride, step, count):
    """The lowest count digits of the product of the packed operands, one
    coordinate pair at a time."""
    out = [0] * count
    for (ea, _), ra in zip(terms_a, rows_a):
        for (eb, _), rb in zip(terms_b, rows_b):
            at = (ea - terms_a[0][0] + eb - terms_b[0][0]) // step * stride
            for k, x in enumerate(ra):
                for m, y in enumerate(rb):
                    if at + k + m < count:
                        out[at + k + m] += x * y
    return out


def digits_args(exps_a, rows_a, exps_b=None, rows_b=None, step=1, count=None, bound=None):
    """_product_digits' arguments for rows on the given exponents (a square
    without exps_b), at _convolve's stride; count defaults to every digit of
    the product and bound to its largest digit or coordinate, the tightest
    bound allowed."""
    terms_a = [(e, None) for e in exps_a]
    terms_b, rows_b = (terms_a, rows_a) if exps_b is None else ([(e, None) for e in exps_b], rows_b)
    stride = 2 * len(rows_a[0]) - 1
    span = terms_a[-1][0] - terms_a[0][0] + terms_b[-1][0] - terms_b[0][0]
    total = span // step * stride + stride
    digits = schoolbook_digits(terms_a, rows_a, terms_b, rows_b, stride, step, total)
    tight = max(1, *map(abs, digits), *(abs(x) for row in rows_a + rows_b for x in row))
    assert bound is None or bound >= tight
    return terms_a, rows_a, terms_b, rows_b, stride, step, bound or tight, count or total


def assert_digits_match_schoolbook(args):
    terms_a, rows_a, terms_b, rows_b, stride, step, _, count = args
    want = schoolbook_digits(terms_a, rows_a, terms_b, rows_b, stride, step, count)
    assert qseries._product_digits(*args) == want


def test_product_digits_match_schoolbook_at_byte_landmarks():
    # 2^(8k) - 1 fills k bytes, 2^(8k-1) is the bias of a k-byte field and
    # 2^(8k-1) - 1 the largest digit that fits it
    for k in (1, 2, 3, 4, 5, 8, 9, 16):
        for x in (2 ** (8 * k) - 1, 2 ** (8 * k - 1), 2 ** (8 * k - 1) - 1):
            for sign in (1, -1):
                assert_digits_match_schoolbook(digits_args([0], [[sign * x]], [0], [[1]]))
                assert_digits_match_schoolbook(digits_args([0, 1, 2], [[sign * x], [x], [-x]],
                                                           [0, 1], [[1], [sign]]))
        full = 2 ** (8 * k) - 1
        assert_digits_match_schoolbook(digits_args([0, 8], [[full, -full], [1, full]], step=8))
    # 5 * 1 + 5 * (-1) cancels to a zero digit
    assert_digits_match_schoolbook(digits_args([0, 1], [[5], [5]], [0, 1], [[1], [-1]]))
    # the 0/1 rows of the order-tag products, at a step, with every slot read
    # or only the lowest ones
    for count in (None, 5):
        assert_digits_match_schoolbook(
            digits_args([1, 9, 17, 41], [[1]] * 4, [1, 25, 33], [[1]] * 3, step=8, count=count))
    # Fraction coordinates scaled to integer rows over their common denominator
    i = CyclotomicNumber.zeta(4)
    terms = [(0, cyc(Fraction(1, 3))), (1, CyclotomicNumber(4, [Fraction(1, 2), Fraction(-5, 7)])),
             (3, Fraction(-9, 4) * i)]
    rows, scale = qseries._integer_rows(terms, 4)
    assert scale == 84
    exps = [e for e, _ in terms]
    assert_digits_match_schoolbook(digits_args(exps, rows))
    assert_digits_match_schoolbook(digits_args(exps, rows, [2, 3], [[3, -1], [0, 2 ** 40]]))


digit_value = st.one_of(
    st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
    st.builds(lambda k, sign: sign * 2 ** k, st.integers(0, 72), st.sampled_from([1, -1])),
    st.builds(lambda k, sign: sign * (2 ** k - 1), st.integers(1, 72), st.sampled_from([1, -1])),
)


@st.composite
def packed_inputs(draw):
    """Two operands (or a square) at one step and coordinate count, the bound
    the tightest one or _convolve's, the count any prefix of the product."""
    phi, step = draw(st.sampled_from([1, 2, 4])), draw(st.integers(1, 9))

    def operand():
        base = draw(st.integers(-20, 20))
        gaps = draw(st.lists(st.integers(0, 12), min_size=1, max_size=8, unique=True))
        exps = sorted(base + step * g for g in gaps)
        return exps, [[draw(digit_value) for _ in range(phi)] for _ in exps]

    exps_a, rows_a = operand()
    exps_b, rows_b = (None, None) if draw(st.booleans()) else operand()
    args = digits_args(exps_a, rows_a, exps_b, rows_b, step=step)
    rows_b = args[3]
    bound = (max(abs(x) for row in rows_a for x in row) * max(abs(x) for row in rows_b for x in row)
             * min(len(rows_a), len(rows_b)) * phi)
    if bound and draw(st.booleans()):  # _convolve's bound, for operands that are not 0
        args = digits_args(exps_a, rows_a, exps_b, rows_b, step=step, bound=bound)
    return args[:7] + (draw(st.integers(1, args[7])),)


@given(packed_inputs())
@settings(max_examples=300, deadline=None)
def test_product_digits_match_schoolbook(args):
    assert_digits_match_schoolbook(args)
