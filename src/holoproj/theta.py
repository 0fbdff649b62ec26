"""Twisted theta series and their powers, computed two independent ways.

theta_series sums the defining series directly: coefficient psi(n) n^lambda
at each square exponent n^2.  theta_power_direct enumerates the rank-l
lattice N^l and never touches series multiplication, so the two paths
cross-check each other (power via repeated squaring vs direct
representation-number enumeration).  The enumeration walks one nondecreasing
tuple per orbit of coordinate permutations, weighted by the orbit's size, with
radius pruning, on an explicit stack, into dense integer rows indexed by norm:
psi's rational values (order tag 1, so +-1) fold their signs into the powers
and share one row, and each residue whose value has a higher tag keeps its
own.  With no such residue the last coordinate runs once per prefix norm.
rings.graded_readout, which also reads the sigma and ordered powers, applies
the character to those rows.
"""

from __future__ import annotations

from bisect import bisect_right
from math import factorial, isqrt

from .characters import DirichletCharacter
from .qseries import QSeries
from .rings import _ONE, _trusted, graded_readout


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
            coeffs[n * n] = _trusted(v.order, tuple([c * n ** lam for c in v.coords]))
        n += 1
    return QSeries(1, N, coeffs)


def theta_power_direct(psi: DirichletCharacter, l: int, N: int) -> QSeries:
    """Coefficient of q^M as the direct lattice sum over n in {1,2,...}^l with
    |n|^2 = M of psi(n_1...n_l) (n_1...n_l)^lambda.

    The summand is symmetric, so the walk takes one nondecreasing tuple per
    orbit of coordinate permutations, weighted by the orbit's size
    l!/prod(run length)!, its prefixes on an explicit stack.  A coordinate n
    is tried only if psi(n) != 0 (exact, by complete multiplicativity) and
    n^2 times the coordinates left fits the remaining norm.  The sums go
    into rows indexed by norm: one for the residues of the product where psi
    is +-1 at tag 1, its sign folded into the powers, and one per residue of
    a higher tag, whose positive entries say where a point landed.  With no
    such residue (every Kronecker character) a product of the powers
    psi(n) n^lambda carries psi of its residue, so a prefix of l - 1
    coordinates ending at index a, norm base, adds its b = a point and puts
    its coefficient at start a + 1 in a table for base; one pass per base
    then runs the last coordinate b with a running sum over the starts.
    Otherwise each prefix runs its own b.  rings.graded_readout reads the
    rows, a residue present where its entry is nonzero and the rational row
    graded as residue 0 (psi is 0 there) at value 1, so values and tags
    equal those of adding psi(residue) * sum one at a time; a zero sum is
    dropped.
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
    fold = all(row is rational for row in rows.values())
    if fold:
        # psi(n) n^lambda: a product of them carries psi of its residue
        powers = [p * values[n % mod].coords[0] for p, n in zip(powers, ns)]
        # prefix norm -> {first index of the last coordinate: coefficient};
        # at l = 1 only the empty prefix, its one coordinate from index 0 on
        starts = {} if l > 1 else {0: {0: 1}}
    else:
        # residue of a product -> (row, signed power) of each next coordinate
        tables = [None] * mod
        for res in rows:
            targets = [res * n % mod for n in ns]
            tables[res] = ([rows[t] for t in targets],
                           [p * values[t].coords[0] if rows[t] is rational else p
                            for p, t in zip(powers, targets)])

    # frames (coordinates left, first index, norm, product, residue, weight,
    # run); a first candidate that repeats the previous coordinate extends its run
    stack = [(l, 0, 0, 1, 1 % mod, factorial(l), 0)] if l > 1 else []
    if l == 1 and not fold:
        row, pw = tables[1 % mod]
        for j, sq in enumerate(squares):
            row[j][sq] += pw[j]
    while stack:
        left, start, norm, prod, res, weight, run = stack.pop()
        stop = bisect_right(squares, (N - norm) // left, start)
        if left > 2:
            for j in range(start, stop):
                k = run + 1 if j == start else 1
                stack.append((left - 1, j, norm + squares[j], prod * powers[j],
                              res * ns[j] % mod, weight // k, k))
            continue
        for a in range(start, stop):  # the last prefix coordinate; b >= a follows
            k = run + 1 if a == start else 1
            c = weight // k * prod * powers[a]
            base = norm + squares[a]
            if fold:
                rational[base + squares[a]] += c // (k + 1) * powers[a]
                table = starts.get(base)
                if table is None:
                    starts[base] = {a + 1: c}
                else:
                    table[a + 1] = table.get(a + 1, 0) + c
            else:
                row, pw = tables[res * ns[a] % mod]
                row[a][base + squares[a]] += c // (k + 1) * pw[a]
                for b in range(a + 1, bisect_right(squares, N - base, a + 1)):
                    row[b][base + squares[b]] += c * pw[b]
    if fold:  # the last coordinate once per prefix norm, summing the prefixes it extends
        for base, table in starts.items():
            s = 0
            for b in range(min(table), bisect_right(squares, N - base)):
                if b in table:
                    s += table[b]
                rational[base + squares[b]] += s * powers[b]

    own = {res: row for res, row in rows.items() if row is not rational}
    if not own:
        return QSeries(l, N, {norm: _trusted(1, (s,))
                              for norm, s in enumerate(rational) if s})
    columns = {res: {norm: s for norm, s in enumerate(row) if s}
               for res, row in [(0, rational), *own.items()]}
    weights = graded_readout(columns, {0: _ONE, **{res: values[res] for res in own}})
    return QSeries(l, N, {norm: w for norm, w in weights.items() if w})


def theta_power_series(psi: DirichletCharacter, l: int, N: int) -> QSeries:
    """The same power through repeated squaring of theta_series: the second,
    independent path used by the dual-path cross-check."""
    return theta_series(psi, N).pow(l)
