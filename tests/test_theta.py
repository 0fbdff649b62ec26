import sys
from collections import Counter
from functools import lru_cache
from itertools import groupby, product
from math import factorial, gcd, isqrt, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from holoproj.characters import char_from_table, char_kronecker
from holoproj.qseries import QSeries
from holoproj.rings import CyclotomicNumber, cyc, euler_phi
from holoproj.theta import theta_power_direct, theta_power_series, theta_series


CHI_M4 = char_kronecker(-4)
CHI_8 = char_kronecker(8)


def test_theta_chi_minus4_expansion():
    t = theta_series(CHI_M4, 60)
    assert dict(t.nonzero_items()) == {1: cyc(1), 9: cyc(-3), 25: cyc(5), 49: cyc(-7)}


def test_theta_chi8_expansion():
    t = theta_series(CHI_8, 60)
    assert dict(t.nonzero_items()) == {1: cyc(1), 9: cyc(-1), 25: cyc(-1), 49: cyc(1)}


def test_non_square_coefficients_vanish():
    t = theta_series(CHI_M4, 100)
    squares = {n * n for n in range(1, 11)}
    for e in range(1, 101):
        if e not in squares:
            assert t.coeff(e).is_zero()


def test_trivial_character_rejected():
    triv = char_from_table(1, [1])
    with pytest.raises(ValueError):
        theta_series(triv, 10)
    with pytest.raises(ValueError):
        theta_power_direct(triv, 2, 10)


def test_power_one_reproduces_series():
    assert theta_power_direct(CHI_M4, 1, 200) == theta_series(CHI_M4, 200)
    assert theta_power_direct(CHI_8, 1, 200) == theta_series(CHI_8, 200)


def test_fourth_power_landmark_coefficients():
    t4 = theta_power_direct(CHI_M4, 4, 20)
    assert t4.coeff(4) == cyc(1)      # only (1,1,1,1)
    assert t4.coeff(12) == cyc(-12)   # four orderings of (3,1,1,1)


@pytest.mark.parametrize("char", [CHI_M4, CHI_8], ids=["chi_m4", "chi_8"])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_dual_path_agreement(char, l):
    n = 200
    direct = theta_power_direct(char, l, n)
    powered = theta_power_series(char, l, n)
    assert powered.agrees_with(direct, l, n)


@pytest.mark.parametrize("name, l, n", [("kron_m4", 6, 4096), ("kron_m4", 8, 2048),
                                        ("quartic_mod5", 4, 512)])
def test_series_matches_lattice_at_transform_sizes(name, l, n):
    """Series products whose largest packed product has more than 1,024
    words of 19 decimal digits, where libmpdec switches from Karatsuba to a
    number-theoretic transform."""
    psi = ORACLE_CHARS[name]
    assert theta_power_series(psi, l, n).agrees_with(theta_power_direct(psi, l, n), l, n)


def test_odd_character_sign_pattern():
    for d in (-4, -8, -3):
        psi = char_kronecker(d)
        assert psi.parity == 1
        t = theta_series(psi, 150)
        for n in range(1, 13):
            v = t.coeff(n * n)
            expected = psi(n) * n
            assert v == expected


def test_complex_character_theta():
    i = CyclotomicNumber.zeta(4)
    chi = char_from_table(5, [cyc(0), cyc(1), i, -i, cyc(-1)])
    t = theta_series(chi, 30)
    assert t.coeff(1) == cyc(1)
    assert t.coeff(4) == 2 * i          # chi(2) * 2^1, odd character
    assert t.coeff(9) == -3 * i
    assert t.coeff(16) == cyc(-4)
    assert t.coeff(25).is_zero()
    sq = theta_power_direct(chi, 2, 30)
    assert sq.agrees_with(theta_power_series(chi, 2, 30), 2, 30)
    # q^2 term: (1,1) only
    assert sq.coeff(2) == cyc(1)
    # q^5 term: (1,2) and (2,1), each chi(2)*2 = 2i
    assert sq.coeff(5) == 4 * i


def test_certified_window():
    t4 = theta_power_direct(CHI_M4, 4, 50)
    assert t4.valuation == 4
    assert t4.truncation == 50


def test_strict_valuations():
    assert theta_series(CHI_M4, 30).min_nonzero_exponent() == 1
    for l in (1, 2, 3, 4, 6):
        assert theta_power_direct(CHI_M4, l, 60).min_nonzero_exponent() == l


def _sextic_mod7():
    """The order-6 character mod 7 (3 generates the units), its values
    tagged at orders 1, 3 and 6 so that one bucket mixes all three."""
    zeta6 = CyclotomicNumber.zeta(6)
    table, g = [cyc(0)] * 7, 1
    for k in range(6):
        value = zeta6 ** k
        if k in (2, 4):  # zeta_6^2, zeta_6^4 are cube roots of unity
            value = CyclotomicNumber.zeta(3, k // 2)
        table[g] = value
        g = g * 3 % 7
    return char_from_table(7, table)


ORACLE_CHARS = {
    "kron_m4": char_kronecker(-4),
    "kron_8": char_kronecker(8),
    "kron_m3": char_kronecker(-3),
    "kron_12": char_kronecker(12),
    "quartic_mod5": char_from_table(5, [cyc(0), cyc(1), CyclotomicNumber.zeta(4),
                                        -CyclotomicNumber.zeta(4), cyc(-1)]),
    "sextic_mod7": _sextic_mod7(),
}


@lru_cache(maxsize=None)
def _norm_product_counts(l, N):
    """(norm, product) -> number of points of {1..isqrt(N)}^l with norm <= N."""
    counts = Counter()
    for point in product(range(1, isqrt(N) + 1), repeat=l):
        norm = sum(n * n for n in point)
        if norm <= N:
            counts[norm, prod(point)] += 1
    return counts


def _theta_power_oracle(psi, l, N):
    """Brute force: every lattice point bucketed by (norm, product mod m), the
    character applied as cyc(0) + sum of psi(residue) * bucket over the sorted
    residues where psi is nonzero, which fixes both the values and their
    order tags."""
    buckets = {}
    for (norm, p), count in _norm_product_counts(l, N).items():
        slot = buckets.setdefault(norm, {})
        slot[p % psi.modulus] = slot.get(p % psi.modulus, 0) + count * p ** psi.parity
    coeffs = {}
    for norm in sorted(buckets):
        acc = cyc(0)
        for res in sorted(buckets[norm]):
            if not psi.values[res].is_zero():
                acc = acc + psi.values[res] * buckets[norm][res]
        if not acc.is_zero():
            coeffs[norm] = acc
    return QSeries(l, N, coeffs) if N >= l else QSeries(1, N, {})


@pytest.mark.parametrize("name", sorted(ORACLE_CHARS))
@pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6, 8])
def test_direct_power_matches_brute_force_oracle(name, l):
    psi = ORACLE_CHARS[name]
    for N in sorted({1, max(l - 1, 1), l, 7, 40}):
        got = theta_power_direct(psi, l, N)
        want = _theta_power_oracle(psi, l, N)
        assert got.to_json_obj() == want.to_json_obj(), (l, N)
        assert (got.valuation, got.truncation) == (want.valuation, want.truncation), (l, N)


def _keyed_walk_power(psi, l, N):
    """The keyed-dict lattice power the dense rows replaced, kept verbatim as
    the reference: sums per (norm, residue of the product) in one dict, then
    per norm a groupby over the sorted keys, the lcm of the residues' tags
    and a coordinate loop."""
    if N < l:
        return QSeries(1, N, {})
    mod = psi.modulus
    lam = psi.parity
    ns = [n for n in range(1, isqrt(N - l + 1) + 1) if not psi.values[n % mod].is_zero()]
    squares = [n * n for n in ns]
    powers = [n ** lam for n in ns]
    count = len(ns)

    # norm * mod + residue of the product -> sum of weight * product^lambda
    sums: dict[int, int] = {}

    def last(start, budget, prod, res, weight, run):
        """The final coordinate, from index start on; the first candidate
        repeats the previous coordinate and extends its run."""
        norm = N - budget
        w = weight // (run + 1)
        for j in range(start, count):
            sq = squares[j]
            if sq > budget:
                return
            key = (norm + sq) * mod + res * ns[j] % mod
            sums[key] = sums.get(key, 0) + w * prod * powers[j]
            w = weight

    def descend(position, start, budget, prod, res, weight, run):
        left = l - position
        if left == 1:
            last(start, budget, prod, res, weight, run)
            return
        for j in range(start, count):
            sq = squares[j]
            if sq * left > budget:
                return
            k = run + 1 if j == start else 1
            descend(position + 1, j, budget - sq, prod * powers[j],
                    res * ns[j] % mod, weight // k, k)

    descend(0, 0, N, 1, 1 % mod, factorial(l), 0)

    @lru_cache(maxsize=None)
    def coordinates(res, e):
        """psi(res) at order e, its coordinates."""
        value = psi.values[res]
        return (value if value.order == e else value.lift(e)).coords

    coeffs = {}
    for norm, keys in groupby(sorted(sums), key=lambda key: key // mod):
        slot = [(key % mod, sums[key]) for key in keys]
        e = lcm(*(psi.values[res].order for res, _ in slot))
        total = [0] * euler_phi(e)
        for res, amount in slot:
            for k, c in enumerate(coordinates(res, e)):
                total[k] += amount * c
        if any(total):
            coeffs[norm] = CyclotomicNumber(e, total)
    return QSeries(l, N, coeffs)


def _mod13_character(order, tag12):
    """The character mod 13 of the given order, psi(2^k) = zeta_order^k (2
    generates the units).  Values are spelled at their least tags (+-1 at
    tag 1), or all at tag 12 when tag12 is set, so no residue is rational."""
    table, g = [cyc(0)] * 13, 1
    for k in range(12):
        j = k * 12 // order % 12               # zeta_order^k = zeta_12^j
        m = 12 // gcd(12, j)                   # the least tag of that value
        if tag12:
            table[g] = CyclotomicNumber.zeta(12, j)
        else:
            table[g] = cyc(1 if j == 0 else -1) if m <= 2 else CyclotomicNumber.zeta(m, j * m // 12)
        g = g * 2 % 13
    return char_from_table(13, table)


_I = CyclotomicNumber.zeta(4)
ROW_CHARS = {
    **{f"kron_{d}": char_kronecker(d) for d in (-4, 8, -3, -7, 12, 13)},
    "quartic_mod5": ORACLE_CHARS["quartic_mod5"],
    # psi(1) at tag 4 and psi(4) = -1 at tag 2: rational values with their own rows
    "quartic_mod5_tagged": char_from_table(5, [cyc(0), CyclotomicNumber(4, [1, 0]), _I, -_I,
                                               CyclotomicNumber(2, [-1])]),
    **{f"mod13_order{o}{'_tag12' if t else ''}": _mod13_character(o, t)
       for o in (12, 6, 4, 3) for t in (False, True)},
}


@pytest.mark.parametrize("name", sorted(ROW_CHARS))
def test_dense_rows_match_the_keyed_walk(name):
    psi = ROW_CHARS[name]
    for l in range(1, 9):
        for N in sorted({max(l - 1, 1), l, l + 1, 300}):
            got, want = theta_power_direct(psi, l, N), _keyed_walk_power(psi, l, N)
            assert got.to_json_obj() == want.to_json_obj(), (l, N)
            assert (got.valuation, got.truncation) == (want.valuation, want.truncation), (l, N)


@given(st.sampled_from(sorted(ROW_CHARS)), st.integers(1, 6), st.integers(1, 300))
@settings(max_examples=40, deadline=None)
def test_dense_rows_match_the_keyed_walk_property(name, l, N):
    psi = ROW_CHARS[name]
    assert theta_power_direct(psi, l, N).to_json_obj() == _keyed_walk_power(psi, l, N).to_json_obj()


def test_rational_value_at_a_higher_tag_keeps_its_tag():
    """psi(4) = i^2 = -1 carries tag 4, so it keeps its own row, and the
    coefficient at 8 = 2^2 + 2^2 (psi(4) * 2 * 2) stays at order 4."""
    table, g = [cyc(0)] * 13, 1
    for k in range(12):
        table[g] = _I ** k
        g = g * 2 % 13
    psi = char_from_table(13, table)
    assert psi.values[4].order == 4
    rows = theta_power_direct(psi, 2, 20).to_json_obj()["rows"]
    assert {"exponent": 8, "value": {"order": 4, "coords": ["-4", "0"]}} in rows


# kronecker -4 with psi(3) = -1 spelled at tag 2, so it keeps its own row
_M4_AT_TAG2 = char_from_table(4, [cyc(0), cyc(1), cyc(0), CyclotomicNumber(2, [-1])])


@pytest.mark.parametrize("l", [2, 4, 6])
def test_folded_and_per_point_last_coordinates_agree(l):
    """One real table spelled twice: with -1 at tag 1 the last coordinate
    runs once per prefix norm, with -1 at tag 2 once per prefix.  The values
    are equal; the fold's are all at tag 1, and the tag-2 spelling prints
    the tags of the keyed walk."""
    N = 2000
    folded, per_point = theta_power_direct(CHI_M4, l, N), theta_power_direct(_M4_AT_TAG2, l, N)
    assert folded == per_point
    assert {value.order for _, value in folded.nonzero_items()} == {1}
    assert {value.order for _, value in per_point.nonzero_items()} == {1, 2}
    assert per_point.to_json_obj() == _keyed_walk_power(_M4_AT_TAG2, l, N).to_json_obj()


def test_lattice_power_past_the_recursion_limit():
    """The walk keeps its prefixes on a stack, not one frame per coordinate."""
    l, N = 1200, 1300
    assert l > sys.getrecursionlimit()
    direct = theta_power_direct(CHI_M4, l, N)
    assert direct.coeff(l + 8) == cyc(-3 * l)  # one coordinate 3, the rest 1
    assert theta_power_series(CHI_M4, l, N).agrees_with(direct, l, N)


# -- a large-N oracle for the series power: eta quotients --------------------
#
# theta of kronecker -4 is sum (-4/n) n q^(n^2) = eta(8 tau)^3 (Jacobi), so its
# l-th power is eta(8 tau)^(3 l).  At l = 4 that is g(4 tau), g = eta(2 tau)^12
# the newform of weight 6 and level 4; at l = 8 it is Delta(8 tau).  Both are
# normalised Hecke eigenforms, so their coefficients obey relations that need
# no second theta and hold at every N: each wide coefficient of the packed
# product is checked against its neighbours' factors.

def _hecke_eigenform_defects(a: list, k: int, level: int) -> list:
    """The n in 1..len(a) - 1 at which a[n] breaks the rules of a normalised
    Hecke eigenform of weight k, trivial character and the given level:
    a(1) = 1; a(m n) = a(m) a(n) for coprime m and n; and at a prime p,
    a(p^(j+1)) = a(p) a(p^j) - p^(k-1) a(p^(j-1)), the last term dropped
    when p divides the level (so a(p^2) = a(p)^2 - p^(k-1) where it does not)."""
    X = len(a) - 1
    least = list(range(X + 1))  # least prime factor
    for p in range(2, isqrt(X) + 1):
        if least[p] == p:
            for m in range(p * p, X + 1, p):
                if least[m] == m:
                    least[m] = p
    bad = [] if a[1] == 1 else [1]
    for n in range(2, X + 1):
        p, q, j = least[n], n, 0
        while q % p == 0:
            q, j = q // p, j + 1
        if q > 1:
            want = a[n // q] * a[q]
        elif j >= 2:
            want = a[p] * a[n // p] - (0 if level % p == 0 else p ** (k - 1) * a[n // p // p])
        else:
            continue  # a prime: a(p) is free
        if a[n] != want:
            bad.append(n)
    return bad


@pytest.mark.parametrize("l,step,k,level,head", [
    (4, 4, 6, 4, [1, 0, -12, 0, 54]),              # beta(4 n) = [q^n] eta(2 tau)^12
    (8, 8, 12, 1, [1, -24, 252, -1472, 4830]),      # beta(8 n) = tau(n)
], ids=["l4-eta12", "l8-delta"])
def test_series_power_of_kronecker_m4_is_an_eta_quotient_at_large_n(l, step, k, level, head):
    """theta^l of kronecker -4 by series at N = 2^18: its support lies on the
    multiples of step, and a(n) = beta(step n) is a normalised Hecke
    eigenform of weight k (multiplicative, with the Hecke relation at every
    prime power), beginning with head."""
    N = 2 ** 18
    beta = dict(theta_power_series(CHI_M4, l, N).nonzero_items())
    assert all(value.order == 1 for value in beta.values())
    assert all(M % step == 0 for M in beta)
    a = [0] + [beta[step * n].coords[0] if step * n in beta else 0
               for n in range(1, N // step + 1)]
    assert a[1:len(head) + 1] == head
    assert _hecke_eigenform_defects(a, k, level) == []
