"""Dirichlet characters with exact cyclotomic values.

A character is a named-tuple record holding its explicit value table over
the residues 0..M-1 (the moduli in play are tiny), validated for
multiplicativity on every residue pair.  Zero entries are genuine cyclotomic
zeros so coefficient arithmetic downstream needs no special cases.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .rings import CyclotomicNumber, _factorize, cyc, value_from_json


class CharacterTableError(ValueError):
    """Raised when a value table fails Dirichlet-character validation."""


class DirichletCharacter(NamedTuple):
    """Character mod M given by its full value table, values[a] = value(a).

    parity is 0 for even characters (value(-1) = 1) and 1 for odd ones.
    order is the multiplicative order of the character in the dual group.
    Both are functions of the values, so equality and hashing over all four
    fields compare the tables.
    """

    modulus: int
    values: tuple
    order: int
    parity: int

    def __call__(self, n: int) -> CyclotomicNumber:
        return self.values[n % self.modulus]

    def is_odd(self) -> bool:
        return self.parity == 1

    def is_even(self) -> bool:
        return self.parity == 0

    def is_trivial(self) -> bool:
        return self.order == 1

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, order {self.order}, parity {self.parity})"


def char_from_table(modulus: int, values) -> DirichletCharacter:
    """Build and validate a character from its values, a sequence indexed by
    residue; entries coerce from int / Fraction / CyclotomicNumber.
    """
    if modulus < 1:
        raise CharacterTableError(f"modulus must be positive, got {modulus}")
    table = [cyc(v) for v in values]
    if len(table) != modulus:
        raise CharacterTableError(f"table covers {len(table)} residues, modulus is {modulus}")

    if table[1 % modulus] != 1:
        raise CharacterTableError("value(1) must be 1")
    for a in range(modulus):
        if gcd(a, modulus) > 1:
            if not table[a].is_zero():
                raise CharacterTableError(f"value({a}) must be 0 (gcd({a},{modulus})>1)")
        elif table[a].is_zero():
            raise CharacterTableError(f"value({a}) must be nonzero (unit residue)")
    for a in range(modulus):
        for b in range(modulus):
            if table[(a * b) % modulus] != table[a] * table[b]:
                raise CharacterTableError(
                    f"multiplicativity fails at ({a},{b}) mod {modulus}"
                )

    # value(-1)^2 = value(1) = 1 by multiplicativity, so value(-1) is 1 or -1
    parity = 0 if table[(modulus - 1) % modulus] == 1 else 1

    order = lcm(*(table[a].multiplicative_order(bound=4 * modulus * modulus)
                  for a in range(modulus) if gcd(a, modulus) == 1))
    return DirichletCharacter(modulus, tuple(table), order, parity)


def kronecker_symbol(D: int, n: int) -> int:
    """Kronecker symbol (D|n) for n >= 0."""
    if n == 0:
        return 1 if D in (1, -1) else 0
    if n < 0:
        raise ValueError("kronecker_symbol expects n >= 0 here")
    out = 1
    for p, k in _factorize(n).items():
        if p == 2:
            s = (0, 1, 0, -1, 0, -1, 0, 1)[D % 8]  # (D|2) by D mod 8
        else:
            s = pow(D % p, (p - 1) // 2, p)  # Euler's criterion: 0, 1 or p - 1
            if s == p - 1:
                s = -1
        out *= s ** k
    return out


def is_fundamental_discriminant(D: int) -> bool:
    """D = 1 mod 4 squarefree, or D = 4m with m = 2, 3 mod 4 squarefree."""
    if D % 4 == 1:
        m = D
    elif D % 4 == 0 and (D // 4) % 4 in (2, 3):
        m = D // 4
    else:
        return False
    return all(k == 1 for k in _factorize(abs(m)).values())


def char_kronecker(D: int) -> DirichletCharacter:
    """Real character of modulus |D| given by the Kronecker symbol (D|.).

    D must be a fundamental discriminant; D = 1 yields the trivial character
    of modulus 1.
    """
    if not is_fundamental_discriminant(D):
        raise CharacterTableError(f"{D} is not a fundamental discriminant")
    M = abs(D)
    return char_from_table(M, [kronecker_symbol(D, a) for a in range(M)])


def char_conjugate(chi: DirichletCharacter) -> DirichletCharacter:
    """Complex conjugate character (coordinate-wise zeta -> zeta^(-1))."""
    return char_from_table(chi.modulus, [v.conjugate() for v in chi.values])


def char_from_spec(spec) -> DirichletCharacter:
    """Config-file character spec: {"kronecker": D} or
    {"modulus": M, "values": [...]} (values as ints, "p/q" strings, or
    {order, coords} objects).  D and M must be JSON integers, the values a
    list, and no other key may appear."""
    if isinstance(spec, dict) and spec.keys() == {"kronecker"} and type(spec["kronecker"]) is int:
        return char_kronecker(spec["kronecker"])
    if (isinstance(spec, dict) and spec.keys() == {"modulus", "values"}
            and type(spec["modulus"]) is int and isinstance(spec["values"], list)):
        return char_from_table(spec["modulus"], [value_from_json(v) for v in spec["values"]])
    raise CharacterTableError(
        "character spec must be {\"kronecker\": integer} or "
        f"{{\"modulus\": integer, \"values\": list}}, got {spec!r}")
