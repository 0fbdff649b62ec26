"""Both sides of the cancellation identity, computed independently, and the
residual ledger comparing them.

sigma_side sums the multi-index small divisor function over compositions.
ordered_pairs_side enumerates componentwise-dominated lattice pairs directly
(never via divisors), one coordinate pair per position, on the characters'
support only.  full_pairs_side collapses the unrestricted pair sum
through the theta-power coefficients, truncated at a norm bound B with
doubling-based tail diagnostics, in integers: the kernel's integer ratios
times the coefficients' integer coordinates, added by binary splitting.  The
ordered sum equals the sigma sum by an exact bijection; whether the full sum
does too is precisely the claim under test, so residual_report asserts
nothing about it and just ledgers the numbers.
"""

from __future__ import annotations

import datetime as _dt
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd, isqrt, lcm, prod

from .characters import DirichletCharacter
from .kernel import ProjectionKernel, projection_kernel, weights_for_dim
from .qseries import QSeries, _integer_rows, _order_groups
from .rings import CyclotomicNumber, _reduce_mod_cyclotomic, cyc, value_to_json
from .smalldiv import (
    CharacterPlacement,
    divisor_sum,
    require_twist_pair,
    sigma_entry_table,
)
from .theta import theta_power_direct


@dataclass(frozen=True)
class ProjectionConfig:
    psi: DirichletCharacter
    chi: DirichletCharacter
    l: int
    rmax: int
    modes: tuple = ("ordered", "full")
    B: int | None = None
    placement: CharacterPlacement = CharacterPlacement.PSI_ON_LARGER
    orientation: str = "prefactor_on_larger"

    def __post_init__(self):
        require_twist_pair(self.psi, self.chi)
        weights_for_dim(self.l)  # rejects l = 2
        if self.rmax < 1:
            raise ValueError("rmax must be >= 1")
        unknown = set(self.modes) - {"ordered", "full"}
        if unknown:
            raise ValueError(f"unknown modes {sorted(unknown)}")
        if "full" in self.modes:
            if self.B is None:
                raise ValueError("full mode needs a norm bound B")
            if self.B < self.rmax:
                raise ValueError(f"need B >= rmax, got B={self.B} < {self.rmax}")

    def kernel(self) -> ProjectionKernel:
        return projection_kernel(self.l, self.orientation)


def compositions(total: int, parts: int, keys=None):
    """Every tuple of `parts` members of `keys` (distinct positive integers,
    all of them by default) that sums to `total`, in lexicographic order.  A
    prefix stops as soon as the parts still to come cannot fit at the least
    key.  The one multi-index enumerator: the sigma and ordered sides, the
    sigma table and the lemma-gap witnesses all walk it."""
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

    yield from walk((), total, parts)


def sigma_coefficient(cfg: ProjectionConfig, kernel: ProjectionKernel, r: int,
                      table: dict | None = None) -> CyclotomicNumber:
    """Sum of sigma_sm over the multi-indices with entry sum r.

    Walks the compositions of r into l keys of the per-entry table; each
    contributes every choice of one row (a, b, weight) per entry, weighted by
    the product of the row weights.  A term depends on the entries only as a
    multiset, so each multiset is expanded once and its weights scaled by the
    number of its orderings.  Every row has a^2 - b^2 = n, so |a|^2 = |b|^2 + r
    and the kernel depends on |b|^2 alone: the weights are summed per |b|^2
    and the kernel is evaluated once per group, at (|b|^2 + r, |b|^2).  Equal,
    term for term, to summing sigma_sm over compositions, a consistency the
    tests pin down."""
    if table is None:
        table = sigma_entry_table(cfg, r)
    orderings = Counter(tuple(sorted(parts)) for parts in compositions(r, cfg.l, table))
    groups: dict[int, CyclotomicNumber] = {}
    for parts, count in orderings.items():
        for rows in product(*(table[v] for v in parts)):
            b_sq = sum(b * b for _, b, _ in rows)
            weight = prod((w for _, _, w in rows), start=count)
            groups[b_sq] = groups[b_sq] + weight if b_sq in groups else weight
    total = cyc(0)
    for b_sq, weight in groups.items():
        total = total + weight * cyc(kernel.eval(b_sq + r, b_sq))
    return total


def sigma_side(cfg: ProjectionConfig) -> QSeries:
    """Coefficient of q^r: sum of sigma_sm over multi-indices with entry sum r."""
    kernel = cfg.kernel()
    table = sigma_entry_table(cfg, cfg.rmax)
    return QSeries(
        1, cfg.rmax,
        {r: sigma_coefficient(cfg, kernel, r, table) for r in range(1, cfg.rmax + 1)},
    )


def ordered_coefficient(cfg: ProjectionConfig, kernel: ProjectionKernel, r: int) -> CyclotomicNumber:
    """Sum over pairs (m, n) with n_j > m_j for all j and |n|^2 - |m|^2 = r.

    The coordinate pairs (m_j, n_j) with chi(m_j) and psi(n_j) nonzero are
    keyed by their share n_j^2 - m_j^2 of r; each composition of r into l
    shares contributes every choice of one pair per share.  The characters
    are completely multiplicative, so these are exactly the tuples with
    nonzero character values.  As for sigma, each multiset of shares is
    expanded once and scaled by its number of orderings.  This path never
    looks at divisors.
    """
    l, psi, chi = cfg.l, cfg.psi, cfg.chi
    lam_psi, lam_chi = psi.parity, chi.parity
    cap = r - 3 * (l - 1)  # each other share is at least 2^2 - 1^2 = 3
    pairs: dict[int, list] = {}
    for m in range(1, (cap - 1) // 2 + 1):
        if not chi(m).is_zero():
            for n in range(m + 1, isqrt(cap + m * m) + 1):
                if not psi(n).is_zero():
                    pairs.setdefault(n * n - m * m, []).append((m, n))
    total = cyc(0)
    bases = {}  # (prod m, |m|^2) -> the m side of a term, shared by all n
    orderings = Counter(tuple(sorted(shares)) for shares in compositions(r, l, pairs))
    for shares, count in orderings.items():
        for choice in product(*(pairs[k] for k in shares)):
            pm, pn = prod(m for m, _ in choice), prod(n for _, n in choice)
            M = sum(m * m for m, _ in choice)
            if (pm, M) not in bases:
                bases[pm, M] = chi(pm) * cyc(kernel.eval(M + r, M) * pm ** lam_chi)
            total = total + psi(pn) * bases[pm, M] * (count * pn ** lam_psi)
    return total


def ordered_pairs_side(cfg: ProjectionConfig) -> QSeries:
    kernel = cfg.kernel()
    return QSeries(
        1, cfg.rmax,
        {r: ordered_coefficient(cfg, kernel, r) for r in range(1, cfg.rmax + 1)},
    )


class OddDimensionError(ValueError):
    """Full mode is exact only for even l (or l = 1, where both collapsed
    sequences are square-supported)."""


@dataclass(frozen=True)
class FullSideResult:
    series: QSeries
    tail_delta: dict  # r -> CyclotomicNumber, change from B/2 to B


def _add_ratios(x: tuple, y: tuple) -> tuple:
    """x + y for (numerator, denominator) int pairs in lowest terms, in lowest
    terms: the gcd rule of ``Fraction.__add__`` (Knuth, TAOCP 4.5.1), which
    divides out only what the two denominators share."""
    (na, da), (nb, db) = x, y
    g = gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _tree_sum(ratios: list, lo: int, hi: int) -> tuple:
    """Sum of ratios[lo:hi] added in pairs up a balanced tree (binary
    splitting), so the big operands meet only near the root."""
    if hi - lo <= 1:
        return ratios[lo] if hi > lo else (0, 1)
    mid = (lo + hi) // 2
    return _add_ratios(_tree_sum(ratios, lo, mid), _tree_sum(ratios, mid, hi))


def _integer_coords(series: QSeries):
    """exponent -> (order tag, integer coordinates) for the nonzero terms, and
    order tag -> the denominator the coordinates were scaled by."""
    rows, scales = {}, {}
    for order, terms in _order_groups(series).items():
        ints, scales[order] = _integer_rows(terms, order)
        for (e, _), row in zip(terms, ints):
            rows[e] = (order, row)
    return rows, scales


def _group_sums(terms: list, cut: int, oa: int, ob: int, scale: int):
    """The sum of one (alpha order, beta order) group's terms
    (M, K numerator, K denominator, alpha row, beta row), and of its first
    `cut` terms: per coordinate pair (i, j), the integer ratios
    K a_i b_j summed by _tree_sum, the prefix as its own subtree, then
    zeta_oa^i zeta_ob^j placed at the lcm order and reduced once."""
    order = lcm(oa, ob)
    raw = [0] * (2 * order)
    raw_head = list(raw)
    for i in range(len(terms[0][3])):
        for j in range(len(terms[0][4])):
            ratios, k = [], 0
            for t, (_, num, den, row_a, row_b) in enumerate(terms):
                c = num * row_a[i] * row_b[j]
                if c:
                    g = gcd(c, den)
                    ratios.append((c // g, den // g))
                    k += t < cut
            head = _tree_sum(ratios, 0, k)
            whole = _add_ratios(head, _tree_sum(ratios, k, len(ratios)))
            at = i * (order // oa) + j * (order // ob)
            raw[at] += Fraction(whole[0], whole[1] * scale)
            raw_head[at] += Fraction(head[0], head[1] * scale)
    return (CyclotomicNumber(order, _reduce_mod_cyclotomic(raw, order)),
            CyclotomicNumber(order, _reduce_mod_cyclotomic(raw_head, order)))


def full_pairs_side(cfg: ProjectionConfig, B: int | None = None) -> FullSideResult:
    """Collapsed unrestricted-pair sum: coefficient of q^r is

        sum over M <= B of alpha(M) beta(M + r) K(M + r, M)

    with alpha, beta the theta-power coefficients of the chi and psi sides.
    tail_delta records, per r, the change between bounds B/2 and B.

    No term is a Fraction or a CyclotomicNumber.  The coefficients are read
    as integer coordinates over one denominator per order tag, as the series
    product reads them, and K as the kernel's integer ratio.  Per r, the
    terms are grouped by (alpha order, beta order) and summed per coordinate
    pair by binary splitting; the terms with M <= B/2 are a prefix of the
    ascending support, so the B/2 sum is the prefix's subtree.  Each group
    becomes one CyclotomicNumber at the lcm of its two orders, kept even
    when its terms cancel, so the order tag of a coefficient is that of
    adding the terms one at a time to an order-1 zero.  At l = 4, R = 40,
    B = 65536 (kronecker -4 and 8) this takes 2.3-2.9 s on a 2-vCPU host,
    1.2-1.7 s of it building the theta powers.
    """
    if cfg.l != 1 and cfg.l % 2 != 0:
        raise OddDimensionError(
            f"l = {cfg.l}: collapsed norms are not perfect squares, no exact evaluation"
        )
    B = cfg.B if B is None else B
    if B is None:
        raise ValueError("full mode needs a norm bound B")
    if B < cfg.rmax:
        raise ValueError(f"need B >= rmax, got B={B} < {cfg.rmax}")
    kernel = cfg.kernel()
    alpha, scales_a = _integer_coords(theta_power_direct(cfg.chi, cfg.l, B))
    beta, scales_b = _integer_coords(theta_power_direct(cfg.psi, cfg.l, B + cfg.rmax))
    support = sorted(alpha.items())
    half = B // 2

    full_at_b: dict[int, CyclotomicNumber] = {}
    deltas: dict[int, CyclotomicNumber] = {}
    for r in range(1, cfg.rmax + 1):
        groups: dict[tuple, list] = {}
        for M, (oa, row_a) in support:
            hit = beta.get(M + r)
            if hit is not None:
                ob, row_b = hit
                num, den = kernel.ratio(M + r, M)
                groups.setdefault((oa, ob), []).append((M, num, den, row_a, row_b))
        acc = acc_half = cyc(0)
        for (oa, ob), terms in groups.items():
            cut = bisect_right(terms, half, key=lambda t: t[0])
            whole, head = _group_sums(terms, cut, oa, ob, scales_a[oa] * scales_b[ob])
            acc, acc_half = acc + whole, acc_half + head
        full_at_b[r] = acc
        deltas[r] = acc - acc_half

    return FullSideResult(series=QSeries(1, cfg.rmax, full_at_b), tail_delta=deltas)


def lemma_gap_witnesses(cfg: ProjectionConfig, r: int, cap: int = 3, max_entry_sum: int = 16):
    """Pairs (m, n) with |n|^2 - |m|^2 = r that are NOT componentwise
    dominated: lattice points the unrestricted (full) summation range covers
    but the substitution's ordered range does not.  Each witness carries its
    character weights; a pair may sit in the gap with weight zero.  Returns
    up to `cap` examples, smallest entry sum of m first; the scan is bounded
    so reports stay cheap."""
    l = cfg.l
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


@dataclass
class ResidualRow:
    r: int
    sigma: CyclotomicNumber
    ordered: CyclotomicNumber | None
    full: CyclotomicNumber | None
    tail_delta: CyclotomicNumber | None
    residual_ordered: CyclotomicNumber | None
    residual_full: CyclotomicNumber | None

    def cells(self, fmt) -> list:
        """(column, value) in field order: r as it is, every other value by fmt."""
        return [(f.name, self.r if f.name == "r" else fmt(getattr(self, f.name)))
                for f in fields(self)]


@dataclass
class ResidualReport:
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
        yield tuple(f.name for f in fields(ResidualRow))
        for row in self.rows:
            yield tuple(value for _, value in row.cells(_csv_value))


def _csv_value(x):
    if x is None:
        return ""
    j = value_to_json(x)
    return j if isinstance(j, str) else repr(j)


def _exceeds(res: CyclotomicNumber, delta: CyclotomicNumber) -> bool:
    """|res| > 4 |delta|, decided without floats.

    w = res conj(res) - 16 delta conj(delta) is exact and real, and the
    question is whether w > 0.  A zero or rational w is compared exactly;
    otherwise w is enclosed under zeta_e -> exp(2 pi i / e) in an mpmath
    interval, at doubling precision until the interval excludes 0 (it does
    at some precision, as w is not 0)."""
    w = res * res.conjugate() - 16 * (delta * delta.conjugate())
    if w.is_zero():
        return False
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


def _row_task(ctx, r: int):
    cfg, kernel, want_ordered, table = ctx
    sig = sigma_coefficient(cfg, kernel, r, table)
    orde = ordered_coefficient(cfg, kernel, r) if want_ordered else None
    return r, sig, orde


def residual_report(cfg: ProjectionConfig, b_schedule=None, workers: int = 1) -> ResidualReport:
    """Full ledger: per exponent, sigma side, ordered side, full side with
    tail diagnostics, and the two residuals.  residual_ordered is asserted
    nowhere here (it is data; the CLI's exit code asserts it).  Identical
    configs produce identical reports for any worker count.  No module state
    is held: the row context reaches every row as an argument, so reports
    may run concurrently on threads of one process.
    """
    want_ordered = "ordered" in cfg.modes
    want_full = "full" in cfg.modes

    rs = list(range(1, cfg.rmax + 1))
    ctx = (cfg, cfg.kernel(), want_ordered, sigma_entry_table(cfg, cfg.rmax))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import; only here
        with ProcessPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(partial(_row_task, ctx), rs,
                                     chunksize=max(1, len(rs) // (4 * workers))))
    else:
        computed = [_row_task(ctx, r) for r in rs]

    schedule_out = []
    full_final = None
    if want_full:
        bounds = list(b_schedule) if b_schedule else [cfg.B]
        for B in bounds:
            res = full_pairs_side(cfg, B=B)
            schedule_out.append({
                "B": B,
                "rows": [
                    {
                        "r": r,
                        "full": value_to_json(res.series.coeff(r)),
                        "tail_delta": value_to_json(res.tail_delta[r]),
                    }
                    for r in rs
                ],
            })
            full_final = res

    rows = []
    for r, sig, o in computed:
        f = full_final.series.coeff(r) if full_final else None
        delta = full_final.tail_delta[r] if full_final else None
        rows.append(ResidualRow(r, sig, o, f, delta, None if o is None else sig - o,
                                None if f is None else sig - f))
    full_nonzero = [row for row in rows
                    if row.residual_full is not None and not row.residual_full.is_zero()]

    witnesses = []
    if want_full and cfg.l > 1:
        for row in full_nonzero[:8]:
            w = lemma_gap_witnesses(cfg, row.r, cap=3)
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
        timestamp=_dt.datetime.now(_dt.timezone.utc).isoformat(),
    )


def eisenstein_e2(N: int) -> QSeries:
    """1 - 24 sum_{n>=1} sigma_1(n) q^n, exact to exponent N."""
    if N < 0:
        raise ValueError("need N >= 0")
    coeffs = {0: cyc(1)}
    for n in range(1, N + 1):
        coeffs[n] = cyc(-24 * divisor_sum(n, 1))
    return QSeries(0, N, coeffs)
