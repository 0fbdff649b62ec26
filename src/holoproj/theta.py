"""Twisted theta series and their powers, computed two independent ways.

theta_series sums the defining series directly: coefficient psi(n) n^lambda
at each square exponent n^2.  theta_power_direct enumerates the rank-l
lattice N^l and never touches series multiplication, so the two paths
cross-check each other (power via repeated squaring vs direct
representation-number enumeration).  The enumeration walks one nondecreasing
tuple per orbit of coordinate permutations, weighted by the orbit's size, with
radius pruning; it sums integers per (norm, residue of the product) and
applies the character once per exponent on integer coordinate vectors.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import factorial, isqrt, lcm

from .characters import DirichletCharacter
from .qseries import QSeries
from .rings import CyclotomicNumber, euler_phi


def theta_series(psi: DirichletCharacter, N: int) -> QSeries:
    """Sum over n >= 1 of psi(n) n^lambda q^(n^2), certified to exponent N.

    The trivial character of modulus 1 is rejected: its n = 0 term would
    contribute a constant 1/2 and no identity here needs it.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if psi.modulus == 1:
        raise ValueError("trivial character mod 1 is not admitted (n=0 term)")
    lam = psi.parity
    coeffs = {}
    n = 1
    while n * n <= N:
        v = psi(n)
        if not v.is_zero():
            coeffs[n * n] = v * (n ** lam)
        n += 1
    return QSeries(1, N, coeffs)


def theta_power_direct(psi: DirichletCharacter, l: int, N: int) -> QSeries:
    """Coefficient of q^M as the direct lattice sum over n in {1,2,...}^l with
    |n|^2 = M of psi(n_1...n_l) (n_1...n_l)^lambda.

    The summand is symmetric, so the descent walks one nondecreasing tuple
    per orbit of coordinate permutations, weighted by the orbit's size
    l!/prod(run length)!.  A coordinate n at position p is tried only if
    psi(n) != 0 (exact, by complete multiplicativity) and n^2 (l - p) fits
    the remaining norm, every later coordinate being at least n.  The
    weighted products^lambda are summed as integers per (norm, residue of
    the product); per exponent the character is then applied once, as the
    sums times the integer coordinates of psi's values at e, the lcm of
    their orders.  Reduction mod Phi_e is canonical, so values and order
    tags equal those of adding psi(residue) * sum one residue at a time.
    """
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if psi.modulus == 1:
        raise ValueError("trivial character mod 1 is not admitted")
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
        """psi(res) at order e as integer coordinates."""
        value = psi.values[res]
        if value.order != e:
            value = value.lift(e)
        return tuple(c.numerator if c.denominator == 1 else c for c in value.coords)

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


def theta_power_series(psi: DirichletCharacter, l: int, N: int) -> QSeries:
    """The same power through repeated squaring of theta_series: the second,
    independent path used by the dual-path cross-check."""
    return theta_series(psi, N).pow(l)
