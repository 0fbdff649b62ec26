"""Both sides of the cancellation identity, computed independently, and the
residual ledger comparing them.

sigma_side sums the multi-index small divisor function over compositions.
ordered_pairs_side enumerates componentwise-dominated lattice pairs directly
(never via divisors), one coordinate pair per position, on the characters'
support only.  full_pairs_side collapses the unrestricted pair sum
through the theta-power coefficients, truncated at a norm bound B with
doubling-based tail diagnostics.  The ordered sum equals the sigma sum by an
exact bijection; whether the full sum does too is precisely the claim under
test, so residual_report asserts nothing about it and just ledgers the
numbers.
"""

from __future__ import annotations

import datetime as _dt
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from math import isqrt, prod

from .characters import DirichletCharacter
from .kernel import ProjectionKernel, projection_kernel, weights_for_dim
from .qseries import QSeries
from .rings import CyclotomicNumber, cyc, value_to_json
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
    b_used: int
    tail_delta: dict  # r -> CyclotomicNumber, change from B/2 to B


def full_pairs_side(cfg: ProjectionConfig, B: int | None = None) -> FullSideResult:
    """Collapsed unrestricted-pair sum: coefficient of q^r is

        sum over M <= B of alpha(M) beta(M + r) K(M + r, M)

    with alpha, beta the theta-power coefficients of the chi and psi sides.
    tail_delta records, per r, the change between bounds B/2 and B.
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
    alpha = theta_power_direct(cfg.chi, cfg.l, B)
    beta = theta_power_direct(cfg.psi, cfg.l, B + cfg.rmax)
    half = B // 2

    full_at_b: dict[int, CyclotomicNumber] = {}
    full_at_half: dict[int, CyclotomicNumber] = {}
    support = [(M, aM) for M, aM in alpha.nonzero_items() if M <= B]
    for r in range(1, cfg.rmax + 1):
        acc = cyc(0)
        acc_half = cyc(0)
        for M, aM in support:
            bN = beta.coeff(M + r)
            if bN.is_zero():
                continue
            # aM times the rational kernel first: one mixed-order product
            term = aM * cyc(kernel.eval(M + r, M)) * bN
            acc = acc + term
            if M <= half:
                acc_half = acc_half + term
        full_at_b[r] = acc
        full_at_half[r] = acc_half

    series = QSeries(1, cfg.rmax, full_at_b)
    deltas = {r: full_at_b[r] - full_at_half[r] for r in range(1, cfg.rmax + 1)}
    return FullSideResult(series=series, b_used=B, tail_delta=deltas)


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


@dataclass
class ResidualReport:
    config: dict
    rows: list
    schedule: list      # per B: {"B": int, "rows": [{"r", "full", "tail_delta"}]}
    witnesses: list
    verdicts: dict
    timestamp: str | None

    def to_json_obj(self, include_timestamp: bool = True) -> dict:
        def v(x):
            return None if x is None else value_to_json(x)

        obj = {
            "config": self.config,
            "rows": [
                {
                    "r": row.r,
                    "sigma": v(row.sigma),
                    "ordered": v(row.ordered),
                    "full": v(row.full),
                    "tail_delta": v(row.tail_delta),
                    "residual_ordered": v(row.residual_ordered),
                    "residual_full": v(row.residual_full),
                }
                for row in self.rows
            ],
            "schedule": self.schedule,
            "lemma_gap_witnesses": self.witnesses,
            "verdicts": self.verdicts,
        }
        if include_timestamp and self.timestamp is not None:
            obj["timestamp"] = self.timestamp
        return obj

    def csv_rows(self):
        yield ("r", "sigma", "ordered", "full", "tail_delta",
               "residual_ordered", "residual_full")
        for row in self.rows:
            yield (
                row.r,
                _csv_value(row.sigma),
                _csv_value(row.ordered),
                _csv_value(row.full),
                _csv_value(row.tail_delta),
                _csv_value(row.residual_ordered),
                _csv_value(row.residual_full),
            )


def _csv_value(x):
    if x is None:
        return ""
    j = value_to_json(x)
    return j if isinstance(j, str) else repr(j)


def _embed_magnitude(z: CyclotomicNumber) -> float:
    """|z| as a float via the embedding zeta_e -> exp(2 pi i / e); used only
    for verdict wording, never for the exact ledger values."""
    import cmath
    acc = 0j
    for k, c in enumerate(z.coords):
        acc += float(c) * cmath.exp(2j * cmath.pi * k / z.order)
    return abs(acc)


_ROW_CTX = None


def _set_row_ctx(ctx):
    """Publish the row context; as the pool initializer, in every worker too."""
    global _ROW_CTX
    _ROW_CTX = ctx


def _row_task(r: int):
    cfg, kernel, want_ordered, table = _ROW_CTX
    sig = sigma_coefficient(cfg, kernel, r, table)
    orde = ordered_coefficient(cfg, kernel, r) if want_ordered else None
    return r, sig, orde


def residual_report(cfg: ProjectionConfig, b_schedule=None, workers: int = 1) -> ResidualReport:
    """Full ledger: per exponent, sigma side, ordered side, full side with
    tail diagnostics, and the two residuals.  residual_ordered is asserted
    nowhere here (it is data; the CLI's exit code asserts it).  Identical
    configs produce identical reports for any worker count.
    """
    kernel = cfg.kernel()
    want_ordered = "ordered" in cfg.modes
    want_full = "full" in cfg.modes

    rs = list(range(1, cfg.rmax + 1))
    ctx = (cfg, kernel, want_ordered, sigma_entry_table(cfg, cfg.rmax))
    _set_row_ctx(ctx)
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers, initializer=_set_row_ctx,
                                     initargs=(ctx,)) as pool:
                computed = list(pool.map(_row_task, rs, chunksize=max(1, len(rs) // (4 * workers))))
        else:
            computed = [_row_task(r) for r in rs]
    finally:
        _set_row_ctx(None)
    sigma = {r: s for r, s, _ in computed}
    ordered = {r: o for r, _, o in computed} if want_ordered else {}

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
    ordered_all_zero = True
    full_all_within = True
    any_full_residual = False
    for r in rs:
        o = ordered.get(r)
        f = full_final.series.coeff(r) if full_final else None
        delta = full_final.tail_delta[r] if full_final else None
        res_o = sigma[r] - o if o is not None else None
        res_f = sigma[r] - f if f is not None else None
        if res_o is not None and not res_o.is_zero():
            ordered_all_zero = False
        if res_f is not None and not res_f.is_zero():
            any_full_residual = True
            if _embed_magnitude(res_f) > 4.0 * _embed_magnitude(delta):
                full_all_within = False
        rows.append(ResidualRow(r, sigma[r], o, f, delta, res_o, res_f))

    witnesses = []
    if want_full and cfg.l > 1:
        interesting = [row.r for row in rows if row.residual_full is not None
                       and not row.residual_full.is_zero()]
        for r in interesting[:8]:
            w = lemma_gap_witnesses(cfg, r, cap=3)
            if w:
                witnesses.append({"r": r, "pairs": w})

    verdicts = {}
    if want_ordered:
        verdicts["ordered_residual"] = "zero" if ordered_all_zero else "NONZERO"
    if want_full:
        if not any_full_residual or full_all_within:
            verdicts["full_residual"] = "confirmed"
        else:
            verdicts["full_residual"] = "discrepancy documented"

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
