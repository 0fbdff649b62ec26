"""Twisted theta series and their powers, computed two independent ways.

theta_series sums the defining series directly: coefficient psi(n) n^lambda
at each square exponent n^2.  theta_power_direct enumerates the rank-l
lattice N^l and never touches series multiplication, so the two paths
cross-check each other (power via repeated squaring vs direct
representation-number enumeration).  The enumeration walks one nondecreasing
tuple per orbit of coordinate permutations, weighted by the orbit's size, with
radius pruning, on an explicit stack; the last coordinate runs once per
(prefix norm, residue class of the product), into dense integer rows indexed
by norm: psi's rational values (order tag 1, so +-1) fold their signs into the
powers and share one row, and each residue whose value has a higher tag keeps
its own.  rings.graded_readout, which also reads the sigma and ordered powers,
applies the character to those rows.
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
    l!/prod(run length)!, its prefixes of l - 1 coordinates on an explicit
    stack.  A coordinate n is tried only if psi(n) != 0 (exact, by complete
    multiplicativity) and n^2 times the coordinates left fits the remaining
    norm.  A prefix ending at index a, its product in residue class r, adds
    its b = a point and puts its coefficient at start a + 1 in a table keyed
    by (prefix norm, r); one pass per key then runs the last coordinate b
    with a running sum over the starts.  Points land in rows indexed by norm:
    one for the residues where psi is +-1 at tag 1, the sign carried by the
    power, and one per residue of a higher tag, whose positive entries say
    where a point landed.  With no such residue the powers are psi(n)
    n^lambda, whose products carry psi of their residue, all in class 1.
    rings.graded_readout reads the rows, the rational row as residue 0 at
    value 1, so values and tags equal those of adding psi(residue) * sum one
    at a time; a zero sum is dropped.
    """
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    if psi.modulus == 1:
        raise ValueError("trivial character mod 1 is not admitted")
    if N < l:
        return QSeries(1, N, {})
    mod, values, lam = psi.modulus, psi.values, psi.parity
    ns = [n for n in range(1, isqrt(N - l + 1) + 1) if not values[n % mod].is_zero()]
    squares = [n * n for n in ns]
    powers = [n ** lam for n in ns]

    # rows of N + 1 norms in one flat list: row 0 for tag 1, then one per residue in own
    own = [res for res, v in enumerate(values) if not v.is_zero() and v.order > 1]
    row_of = {res: i for i, res in enumerate(own, 1)}
    width = N + 1
    if own:  # class of a prefix -> class after each next coordinate
        after = {res: [res * n % mod for n in ns]
                 for res, v in enumerate(values) if not v.is_zero()}
    else:  # psi(n) n^lambda: a product of them carries psi of its residue, one class
        powers = [p * values[n % mod].coords[0] for p, n in zip(powers, ns)]
        after = {1: [1] * len(ns)}
    # per class of a prefix: where each next coordinate lands (row offset plus
    # its square) and its power, signed by psi of the target when at tag 1
    lands = {res: ([row_of.get(t, 0) * width + sq for t, sq in zip(nxt, squares)],
                   [p if t in row_of else p * values[t].coords[0] for p, t in zip(powers, nxt)])
             for res, nxt in after.items()}
    # per class before the last prefix coordinate a: the key shift of the
    # prefix, and the slot and power of its b = a point
    lasts = {res: ([sq + t * width for sq, t in zip(squares, nxt)],
                   [lands[t][0][a] + squares[a] for a, t in enumerate(nxt)],
                   [lands[t][1][a] for a, t in enumerate(nxt)])
             for res, nxt in after.items()}

    flat = [0] * (len(own) + 1) * width
    # prefix norm + class * (N + 1) -> {first index of the last coordinate:
    # coefficient}; at l = 1 only the empty prefix (norm 0, class 1), from index 0 on
    starts = {} if l > 1 else {width: {0: 1}}
    # frames (coordinates left, first index, norm, product, class, weight,
    # run); a first candidate that repeats the previous coordinate extends its run
    stack = [(l, 0, 0, 1, 1, factorial(l), 0)] if l > 1 else []
    while stack:
        left, start, norm, prod, cls, weight, run = stack.pop()
        stop = bisect_right(squares, (N - norm) // left, start)
        if left > 2:
            nxt = after[cls]
            for j in range(start, stop):
                k = run + 1 if j == start else 1
                stack.append((left - 1, j, norm + squares[j], prod * powers[j],
                              nxt[j], weight // k, k))
            continue
        shift, diag, dpow = lasts[cls]
        for a in range(start, stop):  # the last prefix coordinate; b >= a follows
            k = run + 1 if a == start else 1
            c = weight // k * prod * powers[a]
            flat[norm + diag[a]] += c // (k + 1) * dpow[a]
            key = norm + shift[a]
            table = starts.get(key)
            if table is None:
                starts[key] = {a + 1: c}
            else:
                table[a + 1] = table.get(a + 1, 0) + c
    # the last coordinate once per key, summing the prefixes it extends
    for key, table in starts.items():
        cls, base = divmod(key, width)
        slot, pw = lands[cls]
        s = 0
        for b in range(min(table), bisect_right(squares, N - base)):
            if b in table:
                s += table[b]
            flat[base + slot[b]] += s * pw[b]

    if not own:
        return QSeries(l, N, {norm: _trusted(1, (s,)) for norm, s in enumerate(flat) if s})
    columns = {res: {norm: s for norm, s in enumerate(flat[i * width:(i + 1) * width]) if s}
               for i, res in enumerate([0, *own])}
    weights = graded_readout(columns, {0: _ONE, **{res: values[res] for res in own}})
    return QSeries(l, N, {norm: w for norm, w in weights.items() if w})


def theta_power_series(psi: DirichletCharacter, l: int, N: int) -> QSeries:
    """The same power through repeated squaring of theta_series: the second,
    independent path used by the dual-path cross-check."""
    return theta_series(psi, N).pow(l)
