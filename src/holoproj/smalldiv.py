"""The small-divisor layer: the sets D_n, the divisor substitution over them,
the placement of the two characters, the per-entry table built from both, and
the small divisor functions (one-dimensional and multi-index) that read it,
and the divisor sums with the weight-2 Eisenstein series built from them.

D_n is the set of divisors d | n with d <= n/d and d = n/d (mod 2); the
parity condition makes a = (n/d + d)/2 and b = (n/d - d)/2 integers, with
a^2 - b^2 = n, a - b = d and a + b = n/d.  `substitutions` is the one place
that computes them; `_divisor_pairs`, the one divisor walk, also gives the
divisor sums.
"""

from __future__ import annotations

import enum
from itertools import product
from math import isqrt, prod

from .characters import DirichletCharacter
from .kernel import ProjectionKernel
from .qseries import QSeries
from .rings import CyclotomicNumber, cyc


class CharacterParityError(ValueError):
    """The twist pair violates the required parities (psi odd, chi even
    non-trivial)."""


def _divisor_pairs(n: int) -> list[tuple[int, int]]:
    """(d, n // d) for each divisor d <= sqrt(n) of n, by increasing d: the
    one divisor walk, read by D_n and by the divisor sums."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return [(d, n // d) for d in range(1, isqrt(n) + 1) if n % d == 0]


def small_divisors(n: int) -> list[int]:
    """D_n as a sorted list: d | n with d <= n/d and d = n/d mod 2."""
    return [d for d, e in _divisor_pairs(n) if (d - e) % 2 == 0]


def substitutions(n: int) -> list[tuple[int, int]]:
    """(a, b) = ((n/d + d)/2, (n/d - d)/2) for each d in D_n, by increasing d."""
    return [((n // d + d) // 2, (n // d - d) // 2) for d in small_divisors(n)]


def divisor_sum(n: int, k: int = 1) -> int:
    """sigma_k(n) = sum of d^k over all divisors d of n."""
    return sum(d ** k + e ** k if d != e else d ** k for d, e in _divisor_pairs(n))


def eisenstein_e2(N: int) -> QSeries:
    """1 - 24 sum_{n>=1} sigma_1(n) q^n, exact to exponent N."""
    if N < 0:
        raise ValueError("need N >= 0")
    return QSeries(0, N, {0: 1, **{n: -24 * divisor_sum(n, 1) for n in range(1, N + 1)}})


class MultiIndex(tuple):
    """The multi-index (n_1, ..., n_l), a tuple of its positive entries."""

    __slots__ = ()
    entries = property(tuple)  # the entries as a plain tuple

    def __new__(cls, entries):
        self = super().__new__(cls, map(int, entries))
        if not self or min(self) < 1:
            raise ValueError(f"entries must all be >= 1, got {tuple(self)}")
        return self

    def __repr__(self):
        return f"MultiIndex(entries={tuple(self)!r})"


class CharacterPlacement(enum.Enum):
    """Which character evaluates on the larger substitution argument a.

    PSI_ON_LARGER is the placement that cancels termwise against the
    projection sum (and matches the one-dimensional definition); CHI_ON_LARGER
    is the swapped printing, kept runnable so the discrepancy between the two
    is demonstrable."""

    PSI_ON_LARGER = "psi_on_larger"
    CHI_ON_LARGER = "chi_on_larger"

    def characters(self, psi: DirichletCharacter, chi: DirichletCharacter):
        """(the character on a, the character on b)."""
        return (psi, chi) if self is CharacterPlacement.PSI_ON_LARGER else (chi, psi)


def require_twist_pair(psi: DirichletCharacter, chi: DirichletCharacter) -> None:
    if not psi.is_odd():
        raise CharacterParityError("psi must be odd")
    if not chi.is_even():
        raise CharacterParityError("chi must be even")
    if chi.is_trivial():
        raise CharacterParityError("chi must be non-trivial")


def _surviving(n: int, on_larger: DirichletCharacter, on_smaller: DirichletCharacter):
    """(a, b, on_larger(a), on_smaller(b)) for the substitutions of n on which
    both characters are nonzero."""
    for a, b in substitutions(n):
        ca = on_larger(a)
        if ca.is_zero():
            continue
        cb = on_smaller(b)
        if not cb.is_zero():
            yield a, b, ca, cb


def sigma_entry_table(cfg, rmax: int) -> dict:
    """Per entry value n <= rmax with a surviving substitution: its rows
    (a, b, weight) for the characters and placement of cfg, weight =
    on_larger(a) a^lambda * on_smaller(b) b^lambda with each lambda its
    character's parity.  The characters are completely multiplicative, so a
    multi-index term is nonzero exactly when every entry picks a row, and the
    product of the row weights is its character factor (up to the order tag
    the characters print it with)."""
    on_larger, on_smaller = cfg.placement.characters(cfg.psi, cfg.chi)
    table = {}
    for n in range(1, rmax + 1):
        rows = [(a, b, ca * cb * (a ** on_larger.parity * b ** on_smaller.parity))
                for a, b, ca, cb in _surviving(n, on_larger, on_smaller)]
        if rows:
            table[n] = rows
    return table


def sigma_sm(
    n: MultiIndex,
    psi: DirichletCharacter,
    chi: DirichletCharacter,
    kernel: ProjectionKernel,
    placement: CharacterPlacement = CharacterPlacement.PSI_ON_LARGER,
) -> CyclotomicNumber:
    """Multi-index small divisor function with the projection kernel weight.

    Sums over one surviving substitution per entry of n; each choice contributes
    [char-on-larger](a!) (a!)^lambda * [char-on-smaller](b!) (b!)^lambda *
    K(|a|^2, |b|^2), the characters taken at the products.  Choices with a
    vanishing character (for instance b_j = 0, as chi(0) = 0 for non-trivial
    chi) are never formed.
    """
    require_twist_pair(psi, chi)
    if len(n) != kernel.l:
        raise ValueError(f"kernel is for dimension {kernel.l}, index has {len(n)}")
    on_larger, on_smaller = placement.characters(psi, chi)
    total = cyc(0)
    for rows in product(*(_surviving(e, on_larger, on_smaller) for e in n.entries)):
        a, b, _, _ = zip(*rows)
        pa, pb = prod(a), prod(b)
        weight = kernel.eval(sum(x * x for x in a), sum(x * x for x in b))
        total = total + on_larger(pa) * on_smaller(pb) * cyc(
            weight * pa ** on_larger.parity * pb ** on_smaller.parity)
    return total


def sigma_sm_classical(
    n: int,
    psi: DirichletCharacter,
    chi: DirichletCharacter,
    power: int,
) -> CyclotomicNumber:
    """One-dimensional small divisor function with polynomial weight d^power
    (power 1 and 2 are the classically studied cases):

        sum over d in D_n of chi((n/d - d)/2) psi((n/d + d)/2) d^power
    """
    if power not in (1, 2):
        raise ValueError(f"supported weights are d and d^2, got power {power}")
    total = cyc(0)
    for a, b, ca, cb in _surviving(n, psi, chi):
        total = total + ca * cb * ((a - b) ** power)
    return total
