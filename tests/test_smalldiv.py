import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from holoproj.characters import char_from_table, char_kronecker
from holoproj.kernel import projection_kernel
from holoproj.rings import CyclotomicNumber, cyc, value_to_json
from holoproj.smalldiv import (
    CharacterParityError,
    CharacterPlacement,
    MultiIndex,
    divisor_sum,
    sigma_sm,
    sigma_sm_classical,
    small_divisors,
    substitutions,
)

CHI_M4 = char_kronecker(-4)
CHI_8 = char_kronecker(8)
_I = CyclotomicNumber.zeta(4)
PSI_MOD5 = char_from_table(5, [cyc(0), cyc(1), _I, -_I, cyc(-1)])  # order 4, odd


def test_small_divisors_examples():
    assert small_divisors(1) == [1]
    assert small_divisors(4) == [2]     # d=1 fails parity against 4
    assert small_divisors(15) == [1, 3]
    assert small_divisors(2) == []


def test_parity_guarantee_up_to_1e4():
    for n in range(1, 10_001):
        for d in small_divisors(n):
            q = n // d
            assert (q + d) % 2 == 0
            assert (q - d) % 2 == 0


def test_ab_substitution_values():
    assert substitutions(8) == [(3, 1)]
    assert substitutions(9) == [(5, 4), (3, 0)]
    assert substitutions(15) == [(8, 7), (4, 1)]
    assert substitutions(2) == []


def test_ab_substitution_round_trip():
    for n in range(1, 201):
        pairs = substitutions(n)
        assert len(pairs) == len(small_divisors(n))
        for (a, b), d in zip(pairs, small_divisors(n)):
            assert a * a - b * b == n
            assert a - b == d
            assert a + b == n // d


def test_multi_index_accessors():
    n = MultiIndex((3, 1, 4))
    assert n.entries == (3, 1, 4) and len(n) == 3
    assert MultiIndex(["3", 1, 4.0]) == n and repr(n) == "MultiIndex(entries=(3, 1, 4))"
    with pytest.raises(ValueError):
        MultiIndex((0, 1))
    with pytest.raises(ValueError):
        MultiIndex(())


def test_sigma_sm_all_ones_vanishes():
    k = projection_kernel(4)
    assert sigma_sm(MultiIndex((1, 1, 1, 1)), CHI_M4, CHI_8, k).is_zero()


def test_sigma_sm_8888_single_tuple():
    # only surviving tuple d = (2,2,2,2): a = (3,3,3,3), b = (1,1,1,1)
    k = projection_kernel(4)
    val = sigma_sm(MultiIndex((8, 8, 8, 8)), CHI_M4, CHI_8, k)
    assert val == cyc(81 * k.eval(36, 4))
    assert val == cyc(Fraction(-8192, 729))
    k_sm = projection_kernel(4, "prefactor_on_smaller")
    val_sm = sigma_sm(MultiIndex((8, 8, 8, 8)), CHI_M4, CHI_8, k_sm)
    assert val_sm == cyc(81 * Fraction(8192, 9))


def test_sigma_sm_one_dim_9_vanishes():
    # d=1 gives b=4 with chi_8(4)=0; d=3 gives b=0
    k = projection_kernel(1)
    assert sigma_sm(MultiIndex((9,)), CHI_M4, CHI_8, k).is_zero()


def test_sigma_sm_structural_vanishing_entries_1_and_2():
    k = projection_kernel(4)
    for nvec in [(1, 3, 3, 3), (2, 8, 8, 8), (8, 8, 2, 8), (8, 1, 8, 8)]:
        assert sigma_sm(MultiIndex(nvec), CHI_M4, CHI_8, k).is_zero()


def test_sigma_sm_placement_flag_changes_values():
    k = projection_kernel(4)
    default = sigma_sm(MultiIndex((8, 8, 8, 8)), CHI_M4, CHI_8, k,
                       CharacterPlacement.PSI_ON_LARGER)
    swapped = sigma_sm(MultiIndex((8, 8, 8, 8)), CHI_M4, CHI_8, k,
                       CharacterPlacement.CHI_ON_LARGER)
    # swapped printing puts chi_8 on a! = 81 (value 1, no power factor)
    # and chi_m4 on b! = 1 (power factor 1)
    assert swapped == cyc(k.eval(36, 4))
    assert default != swapped


def test_sigma_sm_parity_validation():
    k = projection_kernel(4)
    with pytest.raises(CharacterParityError):
        sigma_sm(MultiIndex((8, 8, 8, 8)), CHI_8, CHI_8, k)   # psi must be odd
    with pytest.raises(CharacterParityError):
        sigma_sm(MultiIndex((8, 8, 8, 8)), CHI_M4, CHI_M4, k)  # chi must be even
    with pytest.raises(ValueError):
        sigma_sm(MultiIndex((8, 8)), CHI_M4, CHI_8, k)        # dimension mismatch


def _divisor_tuples(entries):
    """(a, b) per tuple of small divisors d_j | n_j, componentwise
    a = (n/d + d)/2, b = (n/d - d)/2."""
    for ds in product(*(small_divisors(n) for n in entries)):
        yield ([(n // d + d) // 2 for n, d in zip(entries, ds)],
               [(n // d - d) // 2 for n, d in zip(entries, ds)])


def _sigma_sm_divisor_tuple_scan(entries, on_a, on_b, kernel):
    """sigma_sm as the scan over divisor tuples: each gives the term
    on_a(prod a) on_b(prod b) (prod a)^lambda (prod b)^lambda K(|a|^2, |b|^2),
    skipped once a character at a product vanishes."""
    total = cyc(0)
    for a, b in _divisor_tuples(entries):
        ca, cb = on_a(prod(a)), on_b(prod(b))
        if ca.is_zero() or cb.is_zero():
            continue
        k = kernel.eval(sum(x * x for x in a), sum(x * x for x in b))
        total = total + ca * cb * cyc(k * prod(a) ** on_a.parity * prod(b) ** on_b.parity)
    return total


@pytest.mark.parametrize("placement", list(CharacterPlacement), ids=lambda p: p.value)
@pytest.mark.parametrize("psi", [CHI_M4, PSI_MOD5], ids=["m4", "psi_mod5"])
@pytest.mark.parametrize("l", [1, 4, 6])
def test_sigma_sm_matches_divisor_tuple_scan(l, psi, placement):
    """Every index with entries <= 12 at l = 1; else the constant ones and a
    fixed sample over the entries with a nonzero term, so most values are
    nonzero."""
    on_a, on_b = (psi, CHI_8) if placement == CharacterPlacement.PSI_ON_LARGER else (CHI_8, psi)
    live = [n for n in range(1, 13) if any(
        not (on_a(a[0]) * on_b(b[0])).is_zero() for a, b in _divisor_tuples((n,)))]
    rng = random.Random(l)
    indices = [(n,) * l for n in range(1, 13)] + [
        tuple(rng.choice(live) for _ in range(l)) for _ in range(0 if l == 1 else 60)]
    k = projection_kernel(l)
    nonzero = 0
    for n in indices:
        want = _sigma_sm_divisor_tuple_scan(n, on_a, on_b, k)
        got = sigma_sm(MultiIndex(n), psi, CHI_8, k, placement)
        assert value_to_json(got) == value_to_json(want), n
        nonzero += not want.is_zero()
    assert nonzero >= len(live)


def test_sigma_sm_order_tag_of_the_product_landmark():
    """The characters act on the products: each entry gives a = 2, b = 1, and
    psi(16) = 1 prints as a rational, where the product of the per-entry
    values psi(2)^4 = i^4 would keep order tag 4."""
    val = sigma_sm(MultiIndex((3, 3, 3, 3)), PSI_MOD5, CHI_8, projection_kernel(4))
    assert value_to_json(val) == "-243/256"


def test_sigma_sm_classical_values():
    assert sigma_sm_classical(8, CHI_M4, CHI_8, power=2) == cyc(-4)
    assert sigma_sm_classical(2, CHI_M4, CHI_8, power=1).is_zero()
    assert sigma_sm_classical(2, CHI_M4, CHI_8, power=2).is_zero()


@pytest.mark.parametrize("psi", [CHI_M4, CHI_8], ids=["m4", "8"])
def test_sigma_sm_classical_brute_force_oracle(psi):
    # independent oracle: scan every divisor d of n with the three conditions
    for n in range(1, 501):
        expected = cyc(0)
        for d in range(1, n + 1):
            if n % d != 0 or d > n // d or (d - n // d) % 2 != 0:
                continue
            q = n // d
            expected = expected + psi((q - d) // 2) * psi((q + d) // 2) * d
        assert sigma_sm_classical(n, psi, psi, power=1) == expected


def test_divisor_sum():
    assert divisor_sum(1, 1) == 1
    assert divisor_sum(4, 1) == 7
    assert divisor_sum(6, 1) == 12
    assert divisor_sum(6, 0) == 4
    assert divisor_sum(4, 2) == 21


def test_small_divisors_and_divisor_sums_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 3001):
        divisors = sympy.divisors(n)
        assert small_divisors(n) == [d for d in divisors
                                     if d * d <= n and (d - n // d) % 2 == 0], n
        for k in range(4):
            assert divisor_sum(n, k) == sympy.divisor_sigma(n, k), (n, k)
    for bad in (0, -3):
        for f in (small_divisors, divisor_sum):
            with pytest.raises(ValueError, match=f"n must be positive, got {bad}"):
                f(bad)
