"""Both sides of the cancellation identity, computed independently, and the
residual ledger comparing them.

The sigma and ordered sides are l-th powers of bivariate series in X (the
norm M) and Y (the exponent r): every factor of a summand splits over the l
coordinates but the kernel, which depends on M and r alone.  sigma_side
raises H, one term per divisor substitution (a, b) of an entry value;
ordered_pairs_side raises G, one term per coordinate pair n > m on the
characters' support (never via divisors).  The two base series share only
_graded_power, which sums every tuple's term per (r, M, grade) in integers;
rings.graded_readout, which also reads the lattice theta rows, turns them
into weights per M with the tags a term-by-term sum would print, and _side
is the one path from a power to the coefficients 1..rmax.  full_pairs_side
collapses the unrestricted pair sum through the theta-power coefficients,
truncated at a norm bound B with doubling-based tail diagnostics.  Each
side's coefficient of q^r pairs a weight per norm M with the kernel,
sum_M K(M + r, M) c_r(M), and _kernel_sum forms that pairing for all three:
one binary-splitting tree of integer ratios per coordinate, the kernel's
diagonal factor (-r)^a taken out of the gap.  The ordered sum equals the
sigma sum by an exact bijection; whether the full sum does too is precisely
the claim under test, so residual_report, whose jobs are the three sides,
asserts nothing about it and just ledgers the numbers.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

from .characters import DirichletCharacter
from .kernel import ORIENTATIONS, ProjectionKernel, projection_kernel, weights_for_dim
from .qseries import QSeries
from .rings import (_ONE, CyclotomicNumber, _rational, _reduce_mod_cyclotomic, _trusted,
                    cyc, graded_readout, value_to_json)
from .smalldiv import (
    CharacterPlacement,
    eisenstein_e2,  # noqa: F401  (re-exported as holoproj.projection.eisenstein_e2)
    require_twist_pair,
    sigma_entry_table,
)
from .theta import theta_power_direct


class _ConfigFields(NamedTuple):
    psi: DirichletCharacter
    chi: DirichletCharacter
    l: int
    rmax: int
    modes: tuple = ("ordered", "full")
    B: int | None = None
    placement: CharacterPlacement = CharacterPlacement.PSI_ON_LARGER
    orientation: str = "prefactor_on_larger"


class ProjectionConfig(_ConfigFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_twist_pair(self.psi, self.chi)
        weights_for_dim(self.l)  # rejects l = 2
        if self.rmax < 1:
            raise ValueError("rmax must be >= 1")
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if not isinstance(self.placement, CharacterPlacement):
            raise ValueError(f"placement must be a CharacterPlacement, got {self.placement!r}")
        unknown = set(self.modes) - {"ordered", "full"}
        if unknown:
            raise ValueError(f"unknown modes {sorted(unknown)}")
        if "full" in self.modes and self.B is None:
            raise ValueError("full mode needs a norm bound B")
        if self.B is not None and self.B < self.rmax:
            raise ValueError(f"need B >= rmax, got B={self.B} < {self.rmax}")
        return self

    def kernel(self) -> ProjectionKernel:
        return projection_kernel(self.l, self.orientation)


def compositions(total: int, parts: int, keys=None):
    """Every tuple of `parts` members of `keys` (distinct positive integers,
    all of them by default) that sums to `total`, in lexicographic order.  A
    prefix stops as soon as the parts still to come cannot fit at the least
    key.  The one multi-index enumerator: the sigma table and the lemma-gap
    witnesses walk it."""
    keys = sorted(range(1, total + 1) if keys is None else keys)
    if not keys or parts < 1:
        return
    least, members = keys[0], set(keys)

    def walk(prefix, remaining, left):
        if left == 1:
            if remaining in members:
                yield prefix + (remaining,)
            return
        for key in keys:
            if key + (left - 1) * least > remaining:
                return
            yield from walk(prefix + (key,), remaining - key, left - 1)

    try:
        yield from walk((), total, parts)
    finally:  # also when the caller stops early: walk holds itself in its cell, a cycle
        del walk


class GradedPower(NamedTuple):
    """One side's base series raised to the l-th power, truncated at Y-degree
    rmax: rows[r][grade][M] is the integer coefficient of X^M Y^r at that
    grade, and values[grade] is the grade's spelled value."""
    rows: dict
    values: dict


def _graded_power(base: dict, l: int, rmax: int, times) -> dict:
    """base^l truncated at Y-degree rmax, both as {r: {grade: {M: int}}}.

    Two terms multiply by adding their r and their M and by combining their
    grades with times(g, h), memoised here.  The power is l - 1 products by
    the base, which holds one M per coordinate pair or table row: at l = 10
    this measured faster than binary powering, whose squarings pair two
    dense powers.  A partial power keeps only the Y-degrees that the
    factors still to come, each of degree at least the base's least, leave
    room for."""
    least = min(base, default=rmax + 1)
    power = base = {r: grades for r, grades in base.items() if r <= rmax - (l - 1) * least}
    products = {}
    for e in range(2, l + 1):
        cap, out = rmax - (l - e) * least, {}
        for ra, grades_a in power.items():
            for rb, grades_b in base.items():
                if ra + rb > cap:
                    continue
                row = out.setdefault(ra + rb, {})
                for ga, col_a in grades_a.items():
                    for gb, col_b in grades_b.items():
                        g = products.get((ga, gb))
                        if g is None:
                            g = products[ga, gb] = times(ga, gb)
                        col = row.setdefault(g, {})
                        get = col.get
                        for Ma, ca in col_a.items():
                            for Mb, cb in col_b.items():
                                col[Ma + Mb] = get(Ma + Mb, 0) + ca * cb
        power = out
    return power


def _add_term(base: dict, r: int, grade, M: int, c: int) -> None:
    col = base.setdefault(r, {}).setdefault(grade, {})
    col[M] = col.get(M, 0) + c


def sigma_power(cfg, rmax: int, table: dict | None = None) -> GradedPower:
    """H^l with H = sum over the table rows (a, b, w) of w X^(b^2) Y^(a^2 - b^2).

    A row's grade is the unit of w, w divided by its positive integer content
    (the content is a^lambda b^lambda, the unit a character value), and grades
    multiply as CyclotomicNumbers.  So a grade's order tag is the lcm of its
    rows' tags, which is the tag the product of the row weights gets."""
    if table is None:
        table = sigma_entry_table(cfg, rmax)
    base, values = {}, {}
    for n, rows in table.items():
        for _, b, w in rows:
            content = gcd(*w.coords)
            unit = CyclotomicNumber(w.order, [c // content for c in w.coords])
            grade = (unit.order, unit.coords)
            values[grade] = unit
            _add_term(base, n, grade, b * b, content)

    def times(g, h):
        product = values[g] * values[h]
        grade = (product.order, product.coords)
        values.setdefault(grade, product)
        return grade

    return GradedPower(_graded_power(base, cfg.l, rmax, times), values)


def ordered_power(cfg, rmax: int) -> GradedPower:
    """G^l with G = sum over the coordinate pairs n > m >= 1 with chi(m) psi(n)
    nonzero of m^lambda_chi n^lambda_psi X^(m^2) Y^(n^2 - m^2).

    A pair's grade is the class of (m mod q_chi, n mod q_psi) among the unit
    residue pairs, keyed by its signature: chi(uw) psi(vz) spelled (value and
    order tag) for every unit pair (w, z).  Two pairs share a signature when
    their ratio fixes every spelled product, so classes multiply as residues
    do, and a class's value is chi(u) psi(v) at any of its pairs: the value,
    and the tag, that chi(prod m) psi(prod n) has.  Classes are numbered in
    first-seen order.  Never looks at divisors."""
    l, psi, chi = cfg.l, cfg.psi, cfg.chi
    qc, qp = chi.modulus, psi.modulus
    value = {(u, v): chi(u) * psi(v) for u in range(qc) if chi(u) for v in range(qp) if psi(v)}
    spelled = {pair: (z.order, z.coords) for pair, z in value.items()}
    classes, grade, rep = {}, {}, {}
    for u, v in value:
        signature = tuple(spelled[u * w % qc, v * z % qp] for w, z in value)
        g = grade[u, v] = classes.setdefault(signature, len(classes))
        rep.setdefault(g, (u, v))

    def times(g, h):
        (u, v), (w, z) = rep[g], rep[h]
        return grade[u * w % qc, v * z % qp]

    lam_psi, lam_chi = psi.parity, chi.parity
    cap = rmax - 3 * (l - 1)  # each other share is at least 2^2 - 1^2 = 3
    base = {}
    for m in range(1, (cap - 1) // 2 + 1):
        if chi(m):
            for n in range(m + 1, isqrt(cap + m * m) + 1):
                if psi(n):
                    _add_term(base, n * n - m * m, grade[m % qc, n % qp], m * m,
                              m ** lam_chi * n ** lam_psi)
    values = {g: value[pair] for g, pair in rep.items()}
    return GradedPower(_graded_power(base, l, rmax, times), values)


def _pair_power(kernel: ProjectionKernel, r: int, power: GradedPower) -> CyclotomicNumber:
    """The coefficient of q^r: per M, the sum over grades of value times
    integer, read by rings.graded_readout at the lcm of the tags of the
    grades whose column holds M, a zero weight kept, paired by _kernel_sum."""
    weights = graded_readout(power.rows.get(r, {}), power.values)
    if not weights:
        return cyc(0)
    return _kernel_sum(kernel, r, [(M, w, _ONE) for M, w in sorted(weights.items())])[0]


def sigma_coefficient(kernel: ProjectionKernel, r: int, power: GradedPower) -> CyclotomicNumber:
    """Sum of sigma_sm over the multi-indices with entry sum r: the
    coefficient of Y^r in power, sigma_power(cfg, R) for some R >= r, paired
    with the kernel.  Every row has a^2 - b^2 = n, so |a|^2 = |b|^2 + r and
    the kernel depends on M = |b|^2 alone.  Equal, term for term, to summing
    sigma_sm over compositions, a consistency the tests pin down."""
    return _pair_power(kernel, r, power)


def ordered_coefficient(kernel: ProjectionKernel, r: int, power: GradedPower) -> CyclotomicNumber:
    """Sum over pairs (m, n) with n_j > m_j for all j and |n|^2 - |m|^2 = r:
    the coefficient of Y^r in power, ordered_power(cfg, R) for some R >= r,
    paired with the kernel at M = |m|^2.  The characters are completely
    multiplicative, so the tuples of pairs with nonzero character values are
    exactly those of the power."""
    return _pair_power(kernel, r, power)


def _side(cfg, coefficient, power: GradedPower) -> QSeries:
    """coefficient(cfg.kernel(), r, power) for r = 1..cfg.rmax, power built
    to Y-degree at least cfg.rmax: the one path from a graded power to a side."""
    kernel = cfg.kernel()
    return QSeries(1, cfg.rmax, {r: coefficient(kernel, r, power)
                                 for r in range(1, cfg.rmax + 1)})


def sigma_side(cfg: ProjectionConfig) -> QSeries:
    """Coefficient of q^r: sum of sigma_sm over multi-indices with entry sum r."""
    return _side(cfg, sigma_coefficient, sigma_power(cfg, cfg.rmax))


def ordered_pairs_side(cfg: ProjectionConfig) -> QSeries:
    """Coefficient of q^r: the kernel-weighted sum over ordered pairs at r."""
    return _side(cfg, ordered_coefficient, ordered_power(cfg, cfg.rmax))


class OddDimensionError(ValueError):
    """Full mode is exact only for even l (or l = 1, where both collapsed
    sequences are square-supported)."""


class FullSideResult(NamedTuple):
    series: QSeries
    tail_delta: dict  # r -> CyclotomicNumber, change from B/2 to B
    B: int = 0


def _tree_sum(ratios: list) -> tuple:
    """Sum of (numerator, denominator) int pairs, added in pairs level by
    level up a balanced tree (binary splitting), so the big operands meet
    only near the root.  A node keeps the lcm of its children's denominators
    and reduces nothing further; the caller reduces the root once."""
    while len(ratios) > 1:
        pairs, level = iter(ratios), []
        for (na, da), (nb, db) in zip(pairs, pairs):
            g = gcd(da, db)
            level.append((na * (db // g) + nb * (da // g), da // g * db))
        ratios = level + ratios[2 * len(level):]
    return ratios[0] if ratios else (0, 1)


def _kernel_sum(kernel: ProjectionKernel, r: int, terms: list, half: int = 0, floor: int = 1):
    """The kernel pairing of every side: over the terms (M, a, b),
    CyclotomicNumbers in ascending M, the sum of K(M + r, M) a b and the
    same sum over M > half (the tail).

    Both are taken at e, the lcm of floor and every term's order tags (the
    tag of adding the terms one at a time to a zero at tag floor, also where
    they cancel).  With K(M + r, M) = c n/d (``ProjectionKernel.along_gap``),
    each nonzero n a_i b_j / d is a leaf at raw position i e/ord(a) + j e/ord(b),
    so at e = 1 each term is at most one leaf, at 0.  Per position, one bisect
    over its leaves' M cuts the head (M <= half) from the tail, one tree sums
    each and c multiplies the roots; each sum is reduced mod Phi_e once."""
    e = lcm(floor, *{a.order for _, a, _ in terms}, *{b.order for _, _, b in terms})
    c, ratios = kernel.along_gap(r, [M for M, _, _ in terms])
    raw = {}  # position: (norms, leaves), ascending in M
    if e == 1:
        norms, leaves = raw[0] = [], []
        for (M, a, b), (num, den) in zip(terms, ratios):
            k = num * a.coords[0] * b.coords[0]
            if k:
                norms.append(M)
                leaves.append((k, den) if type(k) is int else (k.numerator, den * k.denominator))
    else:
        for (M, a, b), (num, den) in zip(terms, ratios):
            sa, sb = e // a.order, e // b.order
            for i, x in enumerate(a.coords):
                if x:
                    for j, y in enumerate(b.coords):
                        k = num * x * y
                        if k:
                            at = i * sa + j * sb
                            kept = raw.get(at)
                            if kept is None:
                                kept = raw[at] = ([], [])
                            kept[0].append(M)
                            kept[1].append((k, den) if type(k) is int
                                           else (k.numerator, den * k.denominator))
    whole, tail = [0] * (2 * e), [0] * (2 * e)
    for at, (norms, leaves) in raw.items():
        cut = bisect_right(norms, half)
        root = _tree_sum(leaves[cut:])
        tail[at] = c * Fraction(*root)
        whole[at] = c * Fraction(*_tree_sum([_tree_sum(leaves[:cut]), root])) if cut else tail[at]

    def read(sums):  # at e = 1 as it is: Phi_1 = x - 1 leaves nothing to reduce
        return _trusted(e, (_rational(sums[0]),) if e == 1 else _reduce_mod_cyclotomic(sums, e))

    rest = read(tail)  # with no head leaves (every half = 0 pairing) also the whole sum
    return (rest if whole == tail else read(whole)), rest


def full_pairs_side(cfg: ProjectionConfig, below: FullSideResult | None = None) -> FullSideResult:
    """Collapsed unrestricted-pair sum: coefficient of q^r is

        sum over M <= B = cfg.B of alpha(M) beta(M + r) K(M + r, M)

    with alpha, beta the theta-power coefficients of the chi and psi sides.
    tail_delta records, per r, the change between bounds B/2 and B.

    below, the result at a bound B' < B of the same config (none: B' = 0 and
    order-1 zeros), chains the bounds.  One pass over alpha from M > min(B',
    B/2) collects every gap's terms, each M against the beta exponents in
    (M, M + rmax]; per r, _kernel_sum cuts them at max(B', B/2), at the tag of
    the sum below, into the segment over (B', B] and the tail over M > B/2
    (tail_delta), and the sum to B is the sum below plus the segment.  A gap
    that holds no terms (for kronecker -4, every r not divisible by 8) is not
    paired: both are zeros at the tag below.  At l = 4, R = 40, B = 65536
    (kronecker -4 and 8) this takes 0.9-1.0 s on a 2-vCPU host, 0.24-0.26 s
    of it building the theta powers.
    """
    if cfg.l != 1 and cfg.l % 2 != 0:
        raise OddDimensionError(
            f"l = {cfg.l}: collapsed norms are not perfect squares, no exact evaluation"
        )
    if cfg.B is None:  # the config checked B >= rmax
        raise ValueError("full mode needs a norm bound B")
    kernel, half = cfg.kernel(), cfg.B // 2
    start, wholes = (below.B, below.series) if below else (0, QSeries(1, cfg.rmax))
    alpha = list(theta_power_direct(cfg.chi, cfg.l, cfg.B).nonzero_items())
    beta = list(theta_power_direct(cfg.psi, cfg.l, cfg.B + cfg.rmax).nonzero_items())
    norms = [N for N, _ in beta]
    gaps = {r: [] for r in range(1, cfg.rmax + 1)}
    for M, a in alpha[bisect_right(alpha, min(start, half), key=lambda item: item[0]):]:
        for N, b in beta[bisect_right(norms, M):bisect_right(norms, M + cfg.rmax)]:
            gaps[N - M].append((M, a, b))
    series, tail_delta = {}, {}
    for r, terms in gaps.items():
        prior = wholes.coeff(r)
        wide, narrow = (_kernel_sum(kernel, r, terms, max(start, half), prior.order)
                        if terms else (prior - prior,) * 2)
        segment, tail_delta[r] = (wide, narrow) if half >= start else (narrow, wide)
        series[r] = prior + segment
    return FullSideResult(QSeries(1, cfg.rmax, series), tail_delta, cfg.B)


def _full_chain(per_bound: list) -> list:
    """full_pairs_side at each bound, ascending, each passed the result below it."""
    return [*accumulate([None, *per_bound], lambda below, bound: full_pairs_side(bound, below))][1:]


def lemma_gap_witnesses(cfg: ProjectionConfig, r: int, cap: int = 3):
    """Pairs (m, n) with |n|^2 - |m|^2 = r that are NOT componentwise
    dominated: lattice points the unrestricted (full) summation range covers
    but the substitution's ordered range does not.  Each witness carries its
    character weights; a pair may sit in the gap with weight zero.  Returns
    up to `cap` examples, smallest entry sum of m first; the scan is bounded
    so reports stay cheap."""
    l, max_entry_sum = cfg.l, 16
    out = []
    for msum in range(l, max_entry_sum + 1):
        for m in compositions(msum, l):
            N = sum(x * x for x in m) + r
            for squares in compositions(N, l, [v * v for v in range(1, isqrt(N) + 1)]):
                n = tuple(isqrt(s) for s in squares)
                if all(nj > mj for nj, mj in zip(n, m)):
                    continue
                out.append({
                    "m": list(m),
                    "n": list(n),
                    "chi_weight": value_to_json(cfg.chi(prod(m))),
                    "psi_weight": value_to_json(cfg.psi(prod(n))),
                })
                if len(out) >= cap:
                    return out
    return out


class ResidualRow(NamedTuple):
    r: int
    sigma: CyclotomicNumber
    ordered: CyclotomicNumber | None
    full: CyclotomicNumber | None
    tail_delta: CyclotomicNumber | None
    residual_ordered: CyclotomicNumber | None
    residual_full: CyclotomicNumber | None

    def cells(self, fmt) -> list:
        """(column, value) in field order: r as it is, every other value by fmt."""
        return [(name, value if name == "r" else fmt(value))
                for name, value in zip(self._fields, self)]


def _utc_now() -> str:
    """datetime.now(timezone.utc).isoformat() without importing datetime, whose
    pure-Python classes stay behind as garbage: microseconds only if nonzero."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    fraction = f".{micros:06d}" if micros else ""
    return f"{time.strftime('%Y-%m-%dT%H:%M:%S', time.gmtime(seconds))}{fraction}+00:00"


class ResidualReport(NamedTuple):
    config: dict
    rows: list
    schedule: list      # per B: {"B": int, "rows": [{"r", "full", "tail_delta"}]}
    witnesses: list
    verdicts: dict
    timestamp: str | None

    def to_json_obj(self, include_timestamp: bool = True) -> dict:
        obj = {
            "config": self.config,
            "rows": [dict(row.cells(lambda x: None if x is None else value_to_json(x)))
                     for row in self.rows],
            "schedule": self.schedule,
            "lemma_gap_witnesses": self.witnesses,
            "verdicts": self.verdicts,
        }
        if include_timestamp and self.timestamp is not None:
            obj["timestamp"] = self.timestamp
        return obj

    def csv_rows(self):
        yield ResidualRow._fields
        for row in self.rows:
            yield tuple(value for _, value in row.cells(_csv_value))


def _csv_value(x):
    if x is None:
        return ""
    j = value_to_json(x)
    return j if isinstance(j, str) else repr(j)


def _exceeds(res: CyclotomicNumber, delta: CyclotomicNumber) -> bool:
    """|res| > 4 |delta|, decided without floats; a tie is no excess.

    Rational res and delta are compared by magnitude, with no square formed.
    Otherwise w = res conj(res) - 16 delta conj(delta) is exact and real, and
    the question is whether w > 0.  A rational w, zero included, is compared
    exactly; otherwise w is enclosed under zeta_e -> exp(2 pi i / e) in an
    mpmath interval, at doubling precision until the interval excludes 0 (it
    does at some precision, as w is not 0)."""
    if res.is_rational() and delta.is_rational():
        return abs(res.rational_value()) > 4 * abs(delta.rational_value())
    w = res * res.conjugate() - 16 * (delta * delta.conjugate())
    if w.is_rational():
        return w.rational_value() > 0
    from mpmath import MPIntervalContext  # loaded only for an irrational w
    iv = MPIntervalContext()  # its own precision, not mpmath.iv's
    iv.prec = 64
    while True:
        x = sum(iv.mpf(c.numerator) / c.denominator * iv.cos(2 * k * iv.pi / w.order)
                for k, c in enumerate(w.coords) if c)
        if x.a > 0 or x.b < 0:
            return x.a > 0
        iv.prec *= 2


def bound_configs(cfg: ProjectionConfig, b_schedule=None) -> list:
    """cfg at each bound of b_schedule ([cfg.B] when it is empty or None): the
    rules for bounds, stated once.  The schedule is strictly ascending, each
    entry is a B that ProjectionConfig takes for cfg (so at least rmax), and
    the last is cfg.B; anything else is a ValueError."""
    bounds = list(b_schedule) if b_schedule else [cfg.B]
    if bounds != sorted(set(bounds)):
        raise ValueError(f"b_schedule must be strictly ascending, got {bounds}")
    try:
        per_bound = [cfg._replace(B=B) for B in bounds]
    except ValueError as exc:
        raise ValueError(f"b_schedule holds a bound this config rejects: {exc}") from None
    if bounds[-1] != cfg.B:
        raise ValueError(f"B must equal the last b_schedule entry {bounds[-1]}, got {cfg.B}")
    return per_bound


def residual_report(cfg: ProjectionConfig, b_schedule=None, workers: int = 1) -> ResidualReport:
    """Full ledger: per exponent, sigma side, ordered side, full side with
    tail diagnostics, and the two residuals.  residual_ordered is asserted
    nowhere here (it is data; the CLI's exit code asserts it).  The jobs are
    the sides: sigma_side, ordered_pairs_side in ordered mode, and the chain
    of full_pairs_side over the bounds of b_schedule (see bound_configs).
    They run in order, or in a pool of min(workers, jobs) processes, and the
    report is read from the series they return, so it is the same for any
    worker count.  No module state is held: reports may run concurrently on
    threads of one process.
    """
    want_ordered = "ordered" in cfg.modes
    want_full = "full" in cfg.modes
    per_bound = bound_configs(cfg, b_schedule)

    jobs = [partial(sigma_side, cfg)]
    if want_ordered:
        jobs.append(partial(ordered_pairs_side, cfg))
    if want_full:
        jobs.append(partial(_full_chain, per_bound))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import; only here
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            sides = [future.result() for future in [pool.submit(job) for job in jobs]]
    else:
        sides = [job() for job in jobs]
    sigma, ordered = sides[0], (sides[1] if want_ordered else None)
    fulls = sides[-1] if want_full else []

    rs = range(1, cfg.rmax + 1)
    schedule_out = [{"B": bound.B, "rows": [{"r": r, "full": value_to_json(res.series.coeff(r)),
                                             "tail_delta": value_to_json(res.tail_delta[r])}
                                            for r in rs]}
                    for bound, res in zip(per_bound, fulls)]

    rows = []
    for r in rs:
        sig, o = sigma.coeff(r), None if ordered is None else ordered.coeff(r)
        f, delta = (fulls[-1].series.coeff(r), fulls[-1].tail_delta[r]) if fulls else (None, None)
        rows.append(ResidualRow(r, sig, o, f, delta, None if o is None else sig - o,
                                None if f is None else sig - f))
    full_nonzero = [row for row in rows
                    if row.residual_full is not None and not row.residual_full.is_zero()]

    witnesses = []
    if want_full and cfg.l > 1:
        for row in full_nonzero[:8]:
            w = lemma_gap_witnesses(cfg, row.r)
            if w:
                witnesses.append({"r": row.r, "pairs": w})

    verdicts = {}
    if want_ordered:
        zero = all(row.residual_ordered.is_zero() for row in rows)
        verdicts["ordered_residual"] = "zero" if zero else "NONZERO"
    if want_full:
        within = not any(_exceeds(row.residual_full, row.tail_delta) for row in full_nonzero)
        verdicts["full_residual"] = "confirmed" if within else "discrepancy documented"

    config_obj = {
        "psi": {"modulus": cfg.psi.modulus, "values": [value_to_json(v) for v in cfg.psi.values]},
        "chi": {"modulus": cfg.chi.modulus, "values": [value_to_json(v) for v in cfg.chi.values]},
        "l": cfg.l,
        "rmax": cfg.rmax,
        "modes": list(cfg.modes),
        "B": cfg.B,
        "b_schedule": [e["B"] for e in schedule_out] or None,
        "placement": cfg.placement.value,
        "orientation": cfg.orientation,
    }
    return ResidualReport(
        config=config_obj,
        rows=rows,
        schedule=schedule_out,
        witnesses=witnesses,
        verdicts=verdicts,
        timestamp=_utc_now(),
    )
