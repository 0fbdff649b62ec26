"""Twisted theta series and their powers, computed two independent ways.

theta_series sums the defining series directly: coefficient psi(n) n^lambda
at each square exponent n^2.  theta_power_direct enumerates the rank-l
lattice N^l and never touches series multiplication, so the two paths
cross-check each other (power via repeated squaring vs direct
representation-number enumeration).  The enumeration walks one nondecreasing
tuple per orbit of coordinate permutations, weighted by the orbit's size, with
radius pruning, into dense integer rows indexed by norm: psi's rational
values (order tag 1, so +-1) fold their signs into the last coordinate's
power and share one row, and each residue whose value has a higher tag keeps
its own.  Per norm the character is applied once, at the lcm of the tags
present, on integer coordinate vectors.
"""

from __future__ import annotations

from bisect import bisect_right
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
            coeffs[n * n] = CyclotomicNumber(v.order, [c * n ** lam for c in v.coords])
        n += 1
    return QSeries(1, N, coeffs)


def theta_power_direct(psi: DirichletCharacter, l: int, N: int) -> QSeries:
    """Coefficient of q^M as the direct lattice sum over n in {1,2,...}^l with
    |n|^2 = M of psi(n_1...n_l) (n_1...n_l)^lambda.

    The summand is symmetric, so the descent walks one nondecreasing tuple
    per orbit of coordinate permutations, weighted by the orbit's size
    l!/prod(run length)!, the last two coordinates in one frame.  A
    coordinate n is tried only if psi(n) != 0 (exact, by complete
    multiplicativity) and n^2 times the coordinates left fits the remaining
    norm.  The sums go into rows indexed by norm: one for the residues of
    the product where psi is +-1 at tag 1, its sign folded into the last
    power, and one per residue of a higher tag, whose positive entries say
    where a point landed.  Per norm, e is the lcm of the tags present (tag 1
    never changes it) and psi is applied once, at e, on integer coordinates,
    the rational row on coordinate 0.  Reduction mod Phi_e is canonical, so
    values and tags equal those of adding psi(residue) * sum one at a time.
    """
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if psi.modulus == 1:
        raise ValueError("trivial character mod 1 is not admitted")
    if N < l:
        return QSeries(1, N, {})
    mod, values = psi.modulus, psi.values
    lam = psi.parity
    ns = [n for n in range(1, isqrt(N - l + 1) + 1) if not values[n % mod].is_zero()]
    squares = [n * n for n in ns]
    powers = [n ** lam for n in ns]

    rational = [0] * (N + 1)
    rows = {res: rational if v.order == 1 else [0] * (N + 1)
            for res, v in enumerate(values) if not v.is_zero()}
    # residue of a product -> (row, signed power) of each next coordinate
    tables = [None] * mod
    for res in rows:
        targets = [res * n % mod for n in ns]
        tables[res] = ([rows[t] for t in targets],
                       [p * values[t].coords[0] if rows[t] is rational else p
                        for p, t in zip(powers, targets)])

    def pair(start, norm, prod, res, weight, run):
        """The last two coordinates a <= b, from index start on; a first
        candidate that repeats the previous coordinate extends its run."""
        for a in range(start, bisect_right(squares, (N - norm) // 2, start)):
            k = run + 1 if a == start else 1
            part = prod * powers[a]
            base = norm + squares[a]
            row, pw = tables[res * ns[a] % mod]
            row[a][base + squares[a]] += weight // k // (k + 1) * part * pw[a]
            c = weight // k * part
            for b in range(a + 1, bisect_right(squares, N - base, a + 1)):
                row[b][base + squares[b]] += c * pw[b]

    def descend(left, start, norm, prod, res, weight, run):
        if left == 2:
            pair(start, norm, prod, res, weight, run)
            return
        for j in range(start, bisect_right(squares, (N - norm) // left, start)):
            k = run + 1 if j == start else 1
            descend(left - 1, j, norm + squares[j], prod * powers[j],
                    res * ns[j] % mod, weight // k, k)

    if l == 1:
        row, pw = tables[1 % mod]
        for j, sq in enumerate(squares):
            row[j][sq] += pw[j]
    else:
        descend(l, 0, 0, 1, 1 % mod, factorial(l), 0)

    own = [(values[res], row) for res, row in rows.items() if row is not rational]
    if not own:
        return QSeries(l, N, {norm: CyclotomicNumber(1, (s,))
                              for norm, s in enumerate(rational) if s})
    plans = {}
    coeffs = {}
    for norm, sums in enumerate(zip(rational, *(row for _, row in own))):
        if not any(sums):
            continue
        present = tuple(i for i in range(1, len(sums)) if sums[i])
        plan = plans.get(present)
        if plan is None:
            e = lcm(1, *(own[i - 1][0].order for i in present))
            plan = plans[present] = (e, euler_phi(e), [
                (i, own[i - 1][0].lift(e).coords) for i in present])
        e, phi, parts = plan
        total = [sums[0]] + [0] * (phi - 1)
        for i, coords in parts:
            amount = sums[i]
            for k, c in enumerate(coords):
                total[k] += amount * c
        if any(total):
            coeffs[norm] = CyclotomicNumber(e, total)
    return QSeries(l, N, coeffs)


def theta_power_series(psi: DirichletCharacter, l: int, N: int) -> QSeries:
    """The same power through repeated squaring of theta_series: the second,
    independent path used by the dual-path cross-check."""
    return theta_series(psi, N).pow(l)
