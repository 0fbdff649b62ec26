from itertools import combinations_with_replacement

import pytest

from holoproj.characters import (
    CharacterTableError,
    char_conjugate,
    char_from_spec,
    char_from_table,
    char_kronecker,
    is_fundamental_discriminant,
    kronecker_symbol,
)
from holoproj.rings import CyclotomicNumber, cyc


def test_trivial_character_mod_1():
    chi = char_from_table(1, [1])
    assert chi.parity == 0
    assert chi.order == 1
    assert chi(0) == cyc(1)
    assert chi.is_trivial()


def test_chi_minus4_from_table():
    chi = char_from_table(4, [0, 1, 0, -1])
    assert chi.parity == 1
    assert chi.order == 2
    assert chi(3) == cyc(-1)
    assert chi(7) == cyc(-1)


def test_even_character_mod_4_is_accepted():
    # value(3) = +1 passes: multiplicativity holds, it is just the even one
    chi = char_from_table(4, [0, 1, 0, 1])
    assert chi.parity == 0


def test_table_validation_rejects():
    with pytest.raises(CharacterTableError):
        char_from_table(4, [0, -1, 0, 1])  # value(1) != 1
    with pytest.raises(CharacterTableError):
        char_from_table(4, [0, 1, 1, 1])  # nonzero at gcd > 1
    with pytest.raises(CharacterTableError):
        char_from_table(4, [0, 1, 0, 0])  # zero at a unit
    with pytest.raises(CharacterTableError):
        # multiplicativity: 2*2 = 4 = 1 mod 5 but table says chi(4) = -1, chi(2)^2 = 1
        char_from_table(5, [0, 1, 1, 1, -1])
    with pytest.raises(CharacterTableError):
        char_from_table(4, [0, 1])  # missing residues


def test_kronecker_minus4():
    chi = char_kronecker(-4)
    assert chi.modulus == 4
    assert chi.parity == 1
    assert chi(3) == cyc(-1)
    assert chi(2) == cyc(0)


def test_kronecker_8():
    chi = char_kronecker(8)
    assert [chi(a) for a in (1, 3, 5, 7)] == [cyc(1), cyc(-1), cyc(-1), cyc(1)]
    assert chi.parity == 0


def test_kronecker_non_fundamental_rejected():
    for bad in (9, 2, -2, 12 * 4, 0, 45):
        if not is_fundamental_discriminant(bad):
            with pytest.raises(CharacterTableError):
                char_kronecker(bad)


def test_fundamental_discriminants():
    assert is_fundamental_discriminant(-4)
    assert is_fundamental_discriminant(8)
    assert is_fundamental_discriminant(-8)
    assert is_fundamental_discriminant(5)
    assert is_fundamental_discriminant(-3)
    assert is_fundamental_discriminant(12)
    assert not is_fundamental_discriminant(9)
    assert not is_fundamental_discriminant(2)


def test_kronecker_symbol_values():
    assert kronecker_symbol(5, 2) == -1
    assert kronecker_symbol(-4, 0) == 0
    assert kronecker_symbol(1, 0) == 1


def test_fundamental_discriminant_filter_matches_the_definition():
    """The oracle test below selects its D with this filter, so a filter that
    dropped valid D would shrink that oracle without failing it."""
    sympy = pytest.importorskip("sympy")

    def squarefree(m):
        return all(k == 1 for k in sympy.factorint(abs(m)).values())

    expected = [D for D in range(-200, 201)
                if (D % 4 == 1 and squarefree(D))
                or (D % 4 == 0 and D // 4 % 4 in (2, 3) and squarefree(D // 4))]
    assert [D for D in range(-200, 201) if is_fundamental_discriminant(D)] == expected
    assert len(expected) == 123


def test_kronecker_symbol_matches_sympy():
    pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import kronecker_symbol as oracle

    for D in range(-200, 201):
        if is_fundamental_discriminant(D):
            for n in range(300):
                assert kronecker_symbol(D, n) == oracle(D, n), (D, n)


def test_product_of_chi_minus4_with_itself_is_even():
    chi = char_kronecker(-4)
    sq = [chi(a) * chi(a) for a in range(4)]
    assert sq == [cyc(0), cyc(1), cyc(0), cyc(1)]  # sq at -1 = 3 is 1: even


def test_real_characters_self_conjugate():
    chi8 = char_kronecker(8)
    assert char_conjugate(chi8) == chi8


def test_product_parity_is_xor():
    builtins = [char_kronecker(d) for d in (-4, 8, -8, 5, -3, 12, 13)]
    for psi, chi in combinations_with_replacement(builtins, 2):
        minus_one = psi.modulus * chi.modulus - 1
        assert psi(minus_one) * chi(minus_one) == cyc((-1) ** (psi.parity ^ chi.parity))


def test_parity_of_chi_minus4_times_chi8():
    psi, chi = char_kronecker(-4), char_kronecker(8)
    prod = [psi(a) * chi(a) for a in range(32)]
    assert prod[7] == cyc(-1)             # odd
    assert prod == prod[:8] * 4           # period 8


def test_kronecker_values_collapse_to_rationals():
    for d in (-4, 8, -8, 5, -3, 12):
        chi = char_kronecker(d)
        assert all(v.order == 1 for v in chi.values)
        assert chi.order in (1, 2)


def test_quartic_character_mod_5():
    i = CyclotomicNumber.zeta(4)
    chi = char_from_table(5, [cyc(0), cyc(1), i, -i, cyc(-1)])
    assert chi.order == 4
    assert chi.parity == 1
    conj = char_conjugate(chi)
    assert conj(2) == -i
    # chi^2 is the Legendre symbol mod 5
    legendre = char_kronecker(5)
    for a in range(5):
        assert chi(a) * chi(a) == legendre(a)


def test_char_from_spec_formats():
    assert char_from_spec({"kronecker": -4}) == char_kronecker(-4)
    chi = char_from_spec({"modulus": 4, "values": ["0", "1", "0", "-1"]})
    assert chi == char_kronecker(-4)
    # a key or a JSON type the spec does not read is rejected, not ignored
    # or converted
    for spec in [{"nonsense": 1}, {"kronecker": -4.9}, {"kronecker": "-4"}, {"kronecker": True},
                 {"kronecker": -4, "modulus": 5}, {"modulus": 2, "values": "01"},
                 {"modulus": "4", "values": ["0", "1", "0", "-1"]},
                 {"modulus": 4, "values": ["0", "1", "0", "-1"], "order": 2}]:
        with pytest.raises(CharacterTableError, match="character spec must be"):
            char_from_spec(spec)
