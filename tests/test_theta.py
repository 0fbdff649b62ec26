from collections import Counter
from functools import lru_cache
from itertools import product
from math import isqrt, prod

import pytest

from holoproj.characters import char_from_table, char_kronecker
from holoproj.qseries import QSeries
from holoproj.rings import CyclotomicNumber, cyc
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
