import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import holoproj

from holoproj import projection
from holoproj.characters import char_conjugate, char_from_spec, char_from_table, char_kronecker
from holoproj.kernel import WeightError
from holoproj.calibrate import CalibrationInstance, _calibration_equation, calibrate_constants
from holoproj.projection import (
    OddDimensionError,
    ProjectionConfig,
    compositions,
    eisenstein_e2,
    full_pairs_side,
    lemma_gap_witnesses,
    ordered_coefficient,
    ordered_pairs_side,
    residual_report,
    sigma_coefficient,
    sigma_side,
)
from holoproj.qseries import QSeries
from holoproj.rings import (_ONE, CyclotomicNumber, cyc, euler_phi, graded_readout,
                             rational_to_str, value_to_json)
from holoproj.smalldiv import (
    CharacterParityError,
    MultiIndex,
    sigma_entry_table,
    sigma_sm,
    sigma_sm_classical,
)

F = Fraction
CHI_M4 = char_kronecker(-4)
CHI_8 = char_kronecker(8)
CHI_5 = char_kronecker(5)
# the order-4 character mod 5, its value at 1 spelled as an int and at order 4
PSI5_ONE_INT = {"modulus": 5, "values": [
    "0", "1", {"order": 4, "coords": ["0", "1"]}, {"order": 4, "coords": ["0", "-1"]}, "-1"]}
PSI5_ONE_ORDER4 = {**PSI5_ONE_INT, "values": [
    "0", {"order": 4, "coords": ["1", "0"]}, *PSI5_ONE_INT["values"][2:]]}


def cfg_for(l, rmax, modes=("ordered",), B=None, chi=CHI_8, **kw):
    return ProjectionConfig(CHI_M4, chi, l, rmax, modes=modes, B=B, **kw)


def test_config_validation():
    with pytest.raises(WeightError):
        cfg_for(2, 10)
    with pytest.raises(CharacterParityError):
        ProjectionConfig(CHI_8, CHI_8, 4, 10)
    with pytest.raises(CharacterParityError):
        ProjectionConfig(CHI_M4, CHI_M4, 4, 10)
    with pytest.raises(ValueError):
        cfg_for(4, 10, modes=("full",), B=5)  # B < rmax
    with pytest.raises(ValueError):
        cfg_for(4, 10, modes=("sideways",))


def test_compositions():
    assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 3)) == [(1, 1, 1)]
    assert list(compositions(2, 3)) == []


@settings(max_examples=300, deadline=None)
@given(keys=st.sets(st.integers(1, 40), max_size=8), parts=st.integers(1, 5),
       total=st.integers(0, 30))
def test_compositions_match_the_filtered_product(keys, parts, total):
    """Against an oracle that prunes nothing: the tuples of keys that sum to
    total, in lexicographic order."""
    want = [t for t in itertools.product(sorted(keys), repeat=parts) if sum(t) == total]
    assert list(compositions(total, parts, keys)) == want


@given(parts=st.integers(1, 3), total=st.integers(0, 30))
def test_compositions_default_to_every_positive_integer(parts, total):
    want = [t for t in itertools.product(range(1, total + 1), repeat=parts) if sum(t) == total]
    assert list(compositions(total, parts)) == want


def test_sigma_side_structural_vanishing_l4():
    s = sigma_side(cfg_for(4, 13))
    for r in range(1, 12):
        assert s.coeff(r).is_zero()
    # r = 12 is (3,3,3,3) only, killed by psi(2^4) = 0 mod 4
    assert s.coeff(12).is_zero()


def test_sigma_side_first_nonzero_rows_l4():
    s = sigma_side(cfg_for(4, 40))
    nonzero = {e: c for e, c in s.nonzero_items()}
    assert set(nonzero) == {32, 40}
    assert nonzero[32] == cyc(F(-8192, 729))
    assert nonzero[40] == cyc(F(-4500000, 371293))


def test_sigma_coefficient_matches_composition_sum():
    # the table-walking fast path must equal, exactly, the straightforward
    # sum of sigma_sm over compositions
    for chi in (CHI_8, CHI_5):
        cfg = cfg_for(4, 24, chi=chi)
        kernel = cfg.kernel()
        for r in range(1, 25):
            direct = cyc(0)
            for parts in compositions(r, 4):
                direct = direct + sigma_sm(MultiIndex(parts), CHI_M4, chi, kernel)
            assert sigma_coefficient(kernel, r, projection.sigma_power(cfg, r)) == direct, (
                chi.modulus, r)


def test_sigma_side_l1_matches_pointwise_sigma_sm():
    cfg = cfg_for(1, 60)
    kernel = cfg.kernel()
    s = sigma_side(cfg)
    for r in range(1, 61):
        assert s.coeff(r) == sigma_sm(MultiIndex((r,)), CHI_M4, CHI_8, kernel)


def test_ordered_side_l1_row8():
    # pairs (mu, nu) with nu^2 - mu^2 = 8: only (1, 3);
    # term psi(3) * 3 * chi(1) * K(9, 1) = (-3) * (2/3) = -2
    cfg = cfg_for(1, 8)
    o = ordered_pairs_side(cfg)
    assert o.coeff(8) == cyc(-2)


def test_ordered_side_l4_minimum_exponent():
    cfg = cfg_for(4, 12)
    o = ordered_pairs_side(cfg)
    for r in range(1, 12):
        assert o.coeff(r).is_zero()
    # r = 12: single pair ((1,1,1,1), (2,2,2,2)), killed by psi(16) = 0
    assert o.coeff(12).is_zero()


def _unit_table(modulus, generator, value_of_power):
    """Character table: the generator's k-th power maps to value_of_power(k)."""
    table, g = [cyc(0)] * modulus, 1
    for k in range(modulus - 1):
        table[g] = value_of_power(k)
        g = g * generator % modulus
    return char_from_table(modulus, table)


# values tagged at orders 1, 3 and 6, so that sums mix order tags
SEXTIC_MOD7 = _unit_table(7, 3, lambda k: CyclotomicNumber.zeta(3, k // 2) if k in (2, 4)
                          else CyclotomicNumber.zeta(6) ** k)
CUBIC_MOD7 = _unit_table(7, 3, lambda k: CyclotomicNumber.zeta(3, k) if k % 3 else cyc(1))
QUARTIC_MOD5 = char_from_table(5, [cyc(0), cyc(1), CyclotomicNumber.zeta(4),
                                   -CyclotomicNumber.zeta(4), cyc(-1)])
ORACLE_PAIRS = {
    "m4-8": (CHI_M4, CHI_8),
    "m3-5": (char_kronecker(-3), CHI_5),
    "quartic5-8": (QUARTIC_MOD5, CHI_8),
    "quartic5-5": (QUARTIC_MOD5, CHI_5),
    "sextic7-cubic7": (SEXTIC_MOD7, CUBIC_MOD7),
    "m4-cubic7": (CHI_M4, CUBIC_MOD7),
}


def _ordered_oracle(cfg, kernel, rmax):
    """r -> the ordered sum by brute force, or the exception it raises: every
    tuple of coordinate pairs 1 <= m < n with share n^2 - m^2 <= r - 3(l - 1),
    no character pruning, and a term skipped only when chi(prod m) or
    psi(prod n) is 0."""
    l = cfg.l
    cap = rmax - 3 * (l - 1)
    steps = [(m, n) for n in range(2, cap) for m in range(1, n) if n * n - m * m <= cap]
    picks = {r: [] for r in range(1, rmax + 1)}
    for pick in itertools.product(steps, repeat=l):
        r = sum(n * n - m * m for m, n in pick)
        if r <= rmax:
            picks[r].append(pick)
    out = {}
    for r, at_r in picks.items():
        total = cyc(0)
        try:
            for pick in at_r:
                pm, pn = math.prod(m for m, _ in pick), math.prod(n for _, n in pick)
                cm, cn = cfg.chi(pm), cfg.psi(pn)
                if cm.is_zero() or cn.is_zero():
                    continue
                M = sum(m * m for m, _ in pick)
                total = total + cn * (cm * cyc(kernel.eval(M + r, M) * pm ** cfg.chi.parity)) \
                    * pn ** cfg.psi.parity
            out[r] = value_to_json(total)
        except ValueError as exc:
            out[r] = type(exc)
    return out


@pytest.mark.parametrize("pair", list(ORACLE_PAIRS))
@pytest.mark.parametrize("l,rmax", [(1, 40), (3, 20), (4, 20), (5, 20), (6, 24)])
def test_ordered_coefficient_matches_brute_force(l, rmax, pair):
    """Values and order tags, or for odd l the exception type."""
    psi, chi = ORACLE_PAIRS[pair]
    cfg = ProjectionConfig(psi, chi, l, rmax, modes=("ordered",))
    kernel = cfg.kernel()
    expected = _ordered_oracle(cfg, kernel, rmax)
    for r in range(1, rmax + 1):
        try:
            got = value_to_json(ordered_coefficient(kernel, r, projection.ordered_power(cfg, r)))
        except ValueError as exc:
            got = type(exc)
        assert got == expected[r], (r, got, expected[r])


def _sigma_oracle(cfg, kernel, r, table):
    """The sigma sum at r one term at a time, as JSON: for every composition
    of r into l table entries (orderings not merged) and every choice of one
    row per entry, the row weights' product times K(M + r, M), M = |b|^2,
    added to an order-1 zero, which fixes both the value and the order tag."""
    total = cyc(0)
    for parts in compositions(r, cfg.l, table):
        for rows in itertools.product(*(table[v] for v in parts)):
            M = sum(b * b for _, b, _ in rows)
            weight = math.prod((w for _, _, w in rows), start=cyc(1))
            total = total + weight * cyc(kernel.eval(M + r, M))
    return value_to_json(total)


@pytest.mark.parametrize("pair", list(ORACLE_PAIRS))
@pytest.mark.parametrize("l,rmax", [(1, 40), (4, 24), (6, 30)])
def test_sigma_coefficient_matches_the_term_by_term_sum(l, rmax, pair):
    """Values and order tags."""
    psi, chi = ORACLE_PAIRS[pair]
    cfg = ProjectionConfig(psi, chi, l, rmax, modes=("ordered",))
    kernel, table = cfg.kernel(), sigma_entry_table(cfg, rmax)
    for r in range(1, rmax + 1):
        got = value_to_json(sigma_coefficient(kernel, r, projection.sigma_power(cfg, r, table)))
        assert got == _sigma_oracle(cfg, kernel, r, table), r


# The composition walks that the graded powers replaced, kept verbatim as
# oracles.  Each multiset of parts is expanded once and scaled by its number
# of orderings; the weights are summed per M and paired by _kernel_sum.
def _sigma_walk(cfg, kernel, r, table=None):
    if table is None:
        table = sigma_entry_table(cfg, r)
    orderings = Counter(tuple(sorted(parts)) for parts in compositions(r, cfg.l, table))
    weights = {}
    for parts, count in orderings.items():
        for rows in itertools.product(*(table[v] for v in parts)):
            M = sum(b * b for _, b, _ in rows)
            weight = math.prod((w for _, _, w in rows), start=count)
            weights[M] = weights[M] + weight if M in weights else weight
    return projection._kernel_sum(kernel, r, [(M, w, _ONE) for M, w in sorted(weights.items())])[0]


def _ordered_walk(cfg, kernel, r):
    l, psi, chi = cfg.l, cfg.psi, cfg.chi
    lam_psi, lam_chi = psi.parity, chi.parity
    cap = r - 3 * (l - 1)  # each other share is at least 2^2 - 1^2 = 3
    pairs = {}
    for m in range(1, (cap - 1) // 2 + 1):
        if not chi(m).is_zero():
            for n in range(m + 1, math.isqrt(cap + m * m) + 1):
                if not psi(n).is_zero():
                    pairs.setdefault(n * n - m * m, []).append((m, n))
    weights = {}
    orderings = Counter(tuple(sorted(shares)) for shares in compositions(r, l, pairs))
    for shares, count in orderings.items():
        for choice in itertools.product(*(pairs[k] for k in shares)):
            pm, pn = math.prod(m for m, _ in choice), math.prod(n for _, n in choice)
            M = sum(m * m for m, _ in choice)
            weight = chi(pm) * psi(pn) * (count * pm ** lam_chi * pn ** lam_psi)
            weights[M] = weights[M] + weight if M in weights else weight
    return projection._kernel_sum(kernel, r, [(M, w, _ONE) for M, w in sorted(weights.items())])[0]


def _json_or_error(fn):
    try:
        return value_to_json(fn())
    except ValueError as exc:
        return type(exc)


def _powers_match_the_walks(cfg, table=None):
    """Asserts that every coefficient r <= rmax of both graded powers equals
    its walk's, value and order tag, or raises the same exception type.
    Returns the sigma coefficients as JSON."""
    kernel = cfg.kernel()
    if table is None:
        table = sigma_entry_table(cfg, cfg.rmax)
    sigma = projection.sigma_power(cfg, cfg.rmax, table)
    ordered = projection.ordered_power(cfg, cfg.rmax)
    out = []
    for r in range(1, cfg.rmax + 1):
        got = _json_or_error(lambda: sigma_coefficient(kernel, r, sigma))
        assert got == _json_or_error(lambda: _sigma_walk(cfg, kernel, r, table)), ("sigma", r)
        assert (_json_or_error(lambda: ordered_coefficient(kernel, r, ordered))
                == _json_or_error(lambda: _ordered_walk(cfg, kernel, r))), ("ordered", r)
        out.append(got)
    return out


@pytest.mark.parametrize("pair", list(ORACLE_PAIRS))
@pytest.mark.parametrize("l,rmax", [(1, 40), (3, 20), (4, 20), (4, 24), (5, 20), (6, 24), (6, 30)])
def test_graded_powers_match_the_composition_walks(l, rmax, pair):
    """Odd l >= 3 raises the kernel's NonSquareArgumentError on both paths."""
    psi, chi = ORACLE_PAIRS[pair]
    _powers_match_the_walks(ProjectionConfig(psi, chi, l, rmax, modes=("ordered",)))


@pytest.mark.parametrize("l", [6, 8, 10])
def test_graded_powers_match_the_walks_past_the_first_nonzero_row(l):
    """kronecker -4 and 8 at rmax = 8l + 40: r = 8l is the first nonzero row."""
    sigma = _powers_match_the_walks(cfg_for(l, 8 * l + 40))
    assert next(r for r, value in enumerate(sigma, 1) if value != "0") == 8 * l


# psi(2^k) = zeta_order^k mod 13, every value spelled at tag 12
MOD13_TAG12 = {order: _unit_table(13, 2, lambda k, o=order: CyclotomicNumber.zeta(12, k * 12 // o))
               for order in (4, 6)}
# kronecker -7 with psi(4) = 1 at tag 2 but psi(1) = psi(2) = 1 at tag 1
M7_ONE_AT_TWO_TAGS = char_from_table(7, [cyc(0), cyc(1), cyc(1), cyc(-1),
                                         CyclotomicNumber(2, [1]), cyc(-1), cyc(-1)])
SPELLED_PAIRS = {  # (psi, chi, the highest tag spelled)
    "psi5-one-at-tag4-8": (char_from_spec(PSI5_ONE_ORDER4), CHI_8, 4),
    "psi5-one-at-tag4-5": (char_from_spec(PSI5_ONE_ORDER4), CHI_5, 4),
    "mod13-tag12": (MOD13_TAG12[4], MOD13_TAG12[6], 12),
    "m7-one-at-two-tags-8": (M7_ONE_AT_TWO_TAGS, CHI_8, 2),
}


@pytest.mark.parametrize("pair", list(SPELLED_PAIRS))
@pytest.mark.parametrize("l,rmax", [(1, 60), (4, 32), (6, 30)])
def test_graded_powers_keep_the_spelled_tags(l, rmax, pair):
    """A value spelled above its least tag (psi(1) = 1 at tag 4; every value
    mod 13 at tag 12; 1 at tags 1 and 2 on two residues mod 7) keeps that
    tag on both sides."""
    psi, chi, tag = SPELLED_PAIRS[pair]
    sigma = _powers_match_the_walks(ProjectionConfig(psi, chi, l, rmax, modes=("ordered",)))
    assert max(value["order"] for value in sigma if isinstance(value, dict)) == tag


@settings(max_examples=30, deadline=None)
@given(pair=st.sampled_from(sorted(ORACLE_PAIRS)), l=st.sampled_from([1, 3, 4, 5, 6]),
       rmax=st.integers(1, 40))
def test_graded_powers_match_the_walks_property(pair, l, rmax):
    psi, chi = ORACLE_PAIRS[pair]
    _powers_match_the_walks(ProjectionConfig(psi, chi, l, rmax, modes=("ordered",)))


@pytest.mark.parametrize("pair,count", [("m4-8", 2), ("quartic5-8", 4), ("sextic7-cubic7", 18)])
def test_ordered_grades_are_the_classes_of_spelled_products(pair, count):
    """Unit residue pairs share a grade when every multiple of them spells
    chi psi alike, so there are no more grades than that needs."""
    psi, chi = ORACLE_PAIRS[pair]
    cfg = ProjectionConfig(psi, chi, 4, 24, modes=("ordered",))
    assert len(projection.ordered_power(cfg, 24).values) == count


def test_residual_report_builds_each_power_once(monkeypatch):
    calls = Counter()
    for name in ("sigma_power", "ordered_power"):
        build = getattr(projection, name)
        monkeypatch.setattr(projection, name,
                            lambda *a, name=name, build=build: (calls.update([name]), build(*a))[1])
    residual_report(cfg_for(4, 40))
    assert calls == {"sigma_power": 1, "ordered_power": 1}


def test_residual_report_runs_the_sides(monkeypatch):
    calls = Counter()
    for name in ("sigma_side", "ordered_pairs_side", "full_pairs_side"):
        side = getattr(projection, name)
        monkeypatch.setattr(projection, name, lambda *a, name=name, side=side, **kw: (
            calls.update([name]), side(*a, **kw))[1])
    residual_report(cfg_for(4, 12, modes=("ordered", "full"), B=64), b_schedule=[16, 32, 64])
    assert calls == {"sigma_side": 1, "ordered_pairs_side": 1, "full_pairs_side": 3}


@pytest.mark.parametrize("schedule,message", [
    ([64, 32], "b_schedule must be strictly ascending, got [64, 32]"),
    ([16, 32], "B must equal the last b_schedule entry 32, got 64"),
    ([4, 64], "b_schedule holds a bound this config rejects: need B >= rmax, got B=4 < 8"),
])
def test_residual_report_rejects_an_inconsistent_b_schedule(schedule, message):
    cfg = cfg_for(4, 8, modes=("ordered", "full"), B=64)
    with pytest.raises(ValueError) as err:
        residual_report(cfg, b_schedule=schedule)
    assert str(err.value) == message


def _cancelling_sigma_table():
    """An l = 1 table with which, at r = 15, the terms of the group M = 1
    cancel at tag 4 (rows (4, 1, i) and (4, 1, -i)) beside a rational term
    at M = 49.  Returns (config, table)."""
    i = CyclotomicNumber.zeta(4)
    cfg = ProjectionConfig(QUARTIC_MOD5, CHI_8, 1, 15, modes=("ordered",))
    return cfg, {15: [(8, 7, cyc(1)), (4, 1, i), (4, 1, -i)]}


def test_a_cancelled_sigma_group_keeps_its_order_tag():
    cfg, table = _cancelling_sigma_table()
    kernel = cfg.kernel()
    got = value_to_json(sigma_coefficient(kernel, 15, projection.sigma_power(cfg, 15, table)))
    assert got == _sigma_oracle(cfg, kernel, 15, table)
    assert got == value_to_json(_sigma_walk(cfg, kernel, 15, table))
    assert got == {"order": 4, "coords": [rational_to_str(kernel.eval(64, 49)), "0"]}


def test_dropping_a_cancelled_sigma_groups_tag_is_caught(monkeypatch):
    """Mutant: a per-M group whose weights cancel reaches the kernel pairing
    as an order-1 zero."""
    cfg, table = _cancelling_sigma_table()
    kernel_sum = projection._kernel_sum

    def untagged(kernel, r, terms, half=0):
        return kernel_sum(kernel, r, [(M, cyc(0) if a.is_zero() else a, b)
                                      for M, a, b in terms], half)

    monkeypatch.setattr(projection, "_kernel_sum", untagged)
    kernel = cfg.kernel()
    got = value_to_json(sigma_coefficient(kernel, 15, projection.sigma_power(cfg, 15, table)))
    assert got != _sigma_oracle(cfg, kernel, 15, table)


@pytest.mark.parametrize("l,rmax,chi", [
    (4, 30, CHI_8), (4, 24, CHI_5), (6, 20, CHI_5), (8, 40, CHI_8), (8, 40, CHI_5),
    (6, 56, CHI_8), (8, 72, CHI_8), (10, 88, CHI_8),
])
def test_bijection_sigma_equals_ordered(l, rmax, chi):
    cfg = cfg_for(l, rmax, chi=chi)
    sigma = sigma_side(cfg)
    assert sigma.agrees_with(ordered_pairs_side(cfg), 1, rmax)
    if chi is CHI_8 and rmax >= 8 * l:
        # n > m >= 1 both odd, so every share n^2 - m^2 is at least 3^2 - 1^2:
        # sigma is zero below 8l and the comparison above covers a nonzero row
        assert sigma.min_nonzero_exponent() == 8 * l


@pytest.mark.parametrize("psi,chi,l,rmax", [
    (CHI_M4, CHI_8, 4, 72), (CHI_M4, CHI_8, 6, 88), (CHI_M4, CHI_8, 10, 120),
    (QUARTIC_MOD5, CHI_8, 4, 32), (QUARTIC_MOD5, CHI_8, 6, 60), (QUARTIC_MOD5, CHI_5, 4, 32),
])
def test_bijection_holds_per_norm(psi, chi, l, rmax):
    """Per Y-degree r, the sigma and ordered readouts hold the same norms M
    with equal values: finer than comparing the paired sums, which weight
    moved between two M can leave unchanged.  Values, not spellings: for the
    quartic psi many weights carry different order tags on the two sides."""
    cfg = ProjectionConfig(psi, chi, l, rmax, modes=("ordered",))
    sigma, ordered = projection.sigma_power(cfg, rmax), projection.ordered_power(cfg, rmax)
    nonzero = 0
    for r in range(1, rmax + 1):
        s = graded_readout(sigma.rows.get(r, {}), sigma.values)
        o = graded_readout(ordered.rows.get(r, {}), ordered.values)
        assert s.keys() == o.keys() and all(s[M] == o[M] for M in s), r
        nonzero += sum(not w.is_zero() for w in s.values())
    assert nonzero


def test_per_norm_weights_of_the_quartic_psi_differ_in_tag():
    """Equal per norm is not equal as spelled: at r = 12, M = 4 sigma reads 16
    at tag 4 and ordered reads 16 at tag 1, so the two columns of the report
    print row 12 at different tags."""
    cfg = ProjectionConfig(QUARTIC_MOD5, CHI_8, 4, 32, modes=("ordered",))
    sigma, ordered = projection.sigma_power(cfg, 12), projection.ordered_power(cfg, 12)
    s = graded_readout(sigma.rows[12], sigma.values)[4]
    o = graded_readout(ordered.rows[12], ordered.values)[4]
    assert s == o == cyc(16)
    assert (value_to_json(s), value_to_json(o)) == ({"order": 4, "coords": ["16", "0"]}, "16")


def test_bijection_over_complex_character_values():
    # an order-4 odd character drives the whole pipeline through genuinely
    # cyclotomic (non-rational) coefficients; the bijection must still be an
    # exact identity in Q(i)
    from holoproj.characters import char_from_table
    from holoproj.rings import CyclotomicNumber

    i = CyclotomicNumber.zeta(4)
    quartic = char_from_table(5, [cyc(0), cyc(1), i, -i, cyc(-1)])
    assert quartic.parity == 1 and quartic.order == 4
    cfg = ProjectionConfig(quartic, CHI_8, 4, 16, modes=("ordered",))
    s = sigma_side(cfg)
    o = ordered_pairs_side(cfg)
    assert s.agrees_with(o, 1, 16)
    assert s.coeff(12) == cyc(F(-243, 256))
    assert s.coeff(16) == F(32768, 50421) * i  # purely imaginary row


def test_bijection_has_nonzero_rows_for_chi5():
    cfg = cfg_for(4, 24, chi=CHI_5)
    s = sigma_side(cfg)
    assert not s.is_zero_on_window()
    assert not s.coeff(20).is_zero()


def test_wrong_placement_breaks_the_bijection():
    from holoproj.smalldiv import CharacterPlacement

    cfg = cfg_for(4, 32, placement=CharacterPlacement.CHI_ON_LARGER)
    s = sigma_side(cfg)
    o = ordered_pairs_side(cfg)
    assert s.coeff(32) != o.coeff(32)


def test_one_dim_closure_exact():
    cfg = cfg_for(1, 100, modes=("ordered", "full"), B=100 * 100)
    s = sigma_side(cfg)
    f = full_pairs_side(cfg)
    assert s.agrees_with(f.series, 1, 100)


def test_full_side_l4_row5_is_zero():
    # alpha(7) = 0 for chi_8 (the only type (2,1,1,1) has chi_8(2) = 0)
    cfg = cfg_for(4, 5, modes=("full",), B=64)
    f = full_pairs_side(cfg)
    assert f.series.coeff(5).is_zero()


def test_full_side_rejects_odd_dimensions_above_one():
    cfg = ProjectionConfig(CHI_M4, CHI_8, 3, 8, modes=("full",), B=64)
    with pytest.raises(OddDimensionError):
        full_pairs_side(cfg)


def test_full_side_tail_delta_definition():
    cfg = cfg_for(4, 16, modes=("full",), B=512)
    res = full_pairs_side(cfg)
    res_half = full_pairs_side(cfg._replace(B=256))
    for r in range(1, 17):
        assert res.tail_delta[r] == res.series.coeff(r) - res_half.series.coeff(r)


# -- full_pairs_side against the term-by-term loop ------------------------------

def full_pairs_oracle(cfg, B):
    """The full side one term at a time: every term alpha(M) K(M + r, M)
    beta(M + r) is added to an order-1 zero, which fixes both the values and
    the order tags; (series, tail_delta) as JSON."""
    kernel = cfg.kernel()
    alpha = projection.theta_power_direct(cfg.chi, cfg.l, B)
    beta = projection.theta_power_direct(cfg.psi, cfg.l, B + cfg.rmax)
    series, deltas = [], []
    for r in range(1, cfg.rmax + 1):
        acc = acc_half = cyc(0)
        for M, aM in alpha.nonzero_items():
            bN = beta.coeff(M + r)
            if M > B or bN.is_zero():
                continue
            term = aM * cyc(kernel.eval(M + r, M)) * bN
            acc = acc + term
            if M <= B // 2:
                acc_half = acc_half + term
        series.append(value_to_json(acc))
        deltas.append(value_to_json(acc - acc_half))
    return series, deltas


def full_pairs_json(cfg, B):
    res = full_pairs_side(cfg._replace(B=B))
    rs = range(1, cfg.rmax + 1)
    return ([value_to_json(res.series.coeff(r)) for r in rs],
            [value_to_json(res.tail_delta[r]) for r in rs])


@pytest.mark.parametrize("pair", ["m4-8", "m3-5", "quartic5-8", "quartic5-5", "sextic7-cubic7"])
@pytest.mark.parametrize("orientation", ["prefactor_on_larger", "prefactor_on_smaller"])
@pytest.mark.parametrize("l,rmax,bounds", [(1, 20, (400, 401)), (4, 12, (160, 161)),
                                           (6, 10, (100, 101))])
def test_full_side_matches_the_term_by_term_loop(l, rmax, bounds, orientation, pair):
    """Values and order tags of every coefficient and tail delta, at an even
    and an odd bound."""
    psi, chi = ORACLE_PAIRS[pair]
    cfg = ProjectionConfig(psi, chi, l, rmax, modes=("full",), B=bounds[0],
                           orientation=orientation)
    for B in bounds:
        assert full_pairs_json(cfg, B) == full_pairs_oracle(cfg, B), B


def _cancelling_thetas(monkeypatch):
    """Theta powers with which, at r = 1, the two terms of the (4, 1) order
    group cancel: alpha(1) = i K(3, 2), alpha(2) = -i K(2, 1) and
    beta(2) = beta(3) = 1.  Returns a config that reads them."""
    cfg = ProjectionConfig(QUARTIC_MOD5, CHI_8, 4, 3, modes=("full",), B=4)
    K, i = cfg.kernel(), CyclotomicNumber.zeta(4)
    fake = {
        "chi": {1: i * K.eval(3, 2), 2: -i * K.eval(2, 1)},
        "psi": {2: cyc(1), 3: cyc(1)},
    }
    monkeypatch.setattr(projection, "theta_power_direct", lambda char, l, N: QSeries(
        1, N, fake["chi" if char is cfg.chi else "psi"]))
    return cfg


def test_a_cancelled_group_keeps_its_order_tag(monkeypatch):
    cfg = _cancelling_thetas(monkeypatch)
    got = full_pairs_json(cfg, 4)
    assert got == full_pairs_oracle(cfg, 4)
    assert got[0][0] == {"order": 4, "coords": ["0", "0"]}


def test_dropping_a_cancelled_groups_tag_is_caught(monkeypatch):
    """Mutant: a group whose terms cancel contributes an order-1 zero."""
    cfg = _cancelling_thetas(monkeypatch)
    kernel_sum = projection._kernel_sum

    def untagged(*args):
        return tuple(cyc(0) if v.is_zero() else v for v in kernel_sum(*args))

    monkeypatch.setattr(projection, "_kernel_sum", untagged)
    assert full_pairs_json(cfg, 4) != full_pairs_oracle(cfg, 4)


def _every_gap_paired(cfg):
    """The full side with _kernel_sum called for every gap, one with no
    terms included: {r: (sum to B, tail over M > B/2)}."""
    kernel = cfg.kernel()
    alpha = projection.theta_power_direct(cfg.chi, cfg.l, cfg.B).nonzero_items()
    beta = list(projection.theta_power_direct(cfg.psi, cfg.l, cfg.B + cfg.rmax).nonzero_items())
    gaps = {r: [] for r in range(1, cfg.rmax + 1)}
    for M, a in alpha:
        for N, b in beta:
            if 0 < N - M <= cfg.rmax:
                gaps[N - M].append((M, a, b))
    return {r: projection._kernel_sum(kernel, r, terms, cfg.B // 2) for r, terms in gaps.items()}


@pytest.mark.parametrize("psi,l,rmax,bounds,paired", [
    (CHI_M4, 4, 40, (256, 1024, 4096), 5),  # the README config: r = 8, 16, ..., 40
    (CHI_M4, 6, 88, (512,), 11),
    (QUARTIC_MOD5, 4, 32, (256,), 32),
], ids=["readme", "l6-rmax88", "quartic5"])
def test_the_full_side_pairs_only_the_gaps_that_hold_terms(psi, l, rmax, bounds, paired,
                                                           monkeypatch):
    """Kronecker -4 puts every term of a full side at r = 0 mod 8, so only
    those gaps are paired; psi5 fills every gap.  Each value and tail delta,
    order tag included, is the one that pairing every gap gives."""
    calls, kernel_sum = [], projection._kernel_sum

    def counted(kernel, r, terms, half=0, floor=1):
        calls.append(r)
        return kernel_sum(kernel, r, terms, half, floor)

    for B in bounds:
        cfg = ProjectionConfig(psi, CHI_8, l, rmax, modes=("full",), B=B)
        want = _every_gap_paired(cfg)
        calls.clear()
        monkeypatch.setattr(projection, "_kernel_sum", counted)
        res = full_pairs_side(cfg)
        monkeypatch.setattr(projection, "_kernel_sum", kernel_sum)
        assert len(calls) == paired, (B, calls)
        spelled = lambda z: (z.order, z.coords)  # noqa: E731
        for r, (whole, tail) in want.items():
            assert spelled(res.series.coeff(r)) == spelled(whole), (B, r)
            assert spelled(res.tail_delta[r]) == spelled(tail), (B, r)


# -- a schedule's bounds as one chain -----------------------------------------

CHAIN_CONFIGS = {
    "m4-8-l4": (CHI_M4, CHI_8, 4, 40),
    "m4-8-l6": (CHI_M4, CHI_8, 6, 56),
    "quartic5-8-l4": (QUARTIC_MOD5, CHI_8, 4, 32),  # tags above 1
    "m4-8-l1": (CHI_M4, CHI_8, 1, 40),  # the square-root kernel
}


def _spelled_side(res):
    return [((res.series.coeff(r).order, res.series.coeff(r).coords),
             (res.tail_delta[r].order, res.tail_delta[r].coords)) for r in res.tail_delta]


@pytest.mark.parametrize("schedule", [(256, 1024, 4096), (64, 128, 256), (3000, 4096)],
                         ids=["quadrupling", "doubling", "half-below-previous"])
@pytest.mark.parametrize("config", list(CHAIN_CONFIGS))
def test_the_chained_schedule_equals_independent_bounds(config, schedule):
    """Each bound of a schedule is passed the result of the bound below it and
    pairs only the norms above min(B', B/2); every full value and tail delta,
    order tag included, is the one full_pairs_side gives at that bound alone,
    in the report and in the chain itself.  The doubling schedule leaves
    (B', B/2] empty, and [3000, 4096] has B/2 < B'."""
    psi, chi, l, rmax = CHAIN_CONFIGS[config]
    cfg = ProjectionConfig(psi, chi, l, rmax, modes=("full",), B=schedule[-1])
    per_bound = projection.bound_configs(cfg, schedule)
    alone = [full_pairs_side(bound) for bound in per_bound]
    assert list(map(_spelled_side, projection._full_chain(per_bound))) == list(
        map(_spelled_side, alone))
    report = residual_report(cfg, b_schedule=list(schedule))
    assert report.schedule == [
        {"B": res.B, "rows": [{"r": r, "full": value_to_json(res.series.coeff(r)),
                               "tail_delta": value_to_json(res.tail_delta[r])}
                              for r in range(1, rmax + 1)]} for res in alone]


def test_a_chained_bound_reads_its_sums_at_the_tag_below(monkeypatch):
    """Fake theta powers put a tag-4 term at M = 1 <= B' = 4 in gaps 1 and 2,
    and a tag-1 term at M = 10 > B/2 = 8 in gap 1 only.  Chained, the bound
    B = 16 reads both tails at tag 4, as one pass over every M <= 16 does:
    gap 1's nonzero tail, and gap 2's zero tail, where no term lies past B'."""
    cfg = ProjectionConfig(QUARTIC_MOD5, CHI_8, 4, 2, modes=("full",), B=16)
    fake = {"chi": {1: CyclotomicNumber.zeta(4), 10: cyc(1)},
            "psi": {2: cyc(1), 3: cyc(1), 11: cyc(1)}}
    monkeypatch.setattr(projection, "theta_power_direct", lambda char, l, N: QSeries(
        1, N, {e: v for e, v in fake["chi" if char is cfg.chi else "psi"].items() if e <= N}))
    chained = full_pairs_side(cfg, full_pairs_side(cfg._replace(B=4)))
    assert _spelled_side(chained) == _spelled_side(full_pairs_side(cfg))
    assert {r: (d.order, d.is_zero()) for r, d in chained.tail_delta.items()} == {
        1: (4, False), 2: (4, True)}


def test_a_gap_below_the_previous_bound_is_not_paired_again(monkeypatch):
    """At l = 1 a gap r holds the terms m^2 < (r/2)^2 only, so at B = 4096
    above B' = 1024 no gap holds a term past B': none is paired, and each
    keeps the sum below, with a zero tail at its tag."""
    cfg = ProjectionConfig(CHI_M4, CHI_8, 1, 40, modes=("full",), B=4096)
    below = full_pairs_side(cfg._replace(B=1024))
    calls, kernel_sum = [], projection._kernel_sum
    monkeypatch.setattr(projection, "_kernel_sum", lambda *args: (calls.append(args[1]),
                                                                  kernel_sum(*args))[1])
    chained = full_pairs_side(cfg, below)
    assert calls == []
    assert not below.series.is_zero_on_window()
    assert _spelled_side(chained) == _spelled_side(full_pairs_side(cfg))
    assert all(delta.is_zero() for delta in chained.tail_delta.values())


# -- the kernel pairing against one term at a time ---------------------------

ZETA3, ZETA4 = CyclotomicNumber.zeta(3), CyclotomicNumber.zeta(4)


def _pairing_oracle(kernel, r, terms, half):
    """(whole, head) of the terms (M, a, b) added one at a time to an order-1
    zero, K as a Fraction: the values and order tags of the pairing."""
    whole = head = cyc(0)
    for M, a, b in terms:
        term = a * b * cyc(kernel.eval(M + r, M))
        whole = whole + term
        if M <= half:
            head = head + term
    return whole, head


def _pairing_matches_the_oracle(kernel, r, terms, half):
    whole, tail = projection._kernel_sum(kernel, r, terms, half)
    want_whole, want_head = _pairing_oracle(kernel, r, terms, half)
    assert value_to_json(whole) == value_to_json(want_whole)
    assert value_to_json(tail) == value_to_json(want_whole - want_head)
    return whole, tail


def _cancelling_terms(kernel, r, M1, M2, tag_unit):
    """Two terms whose products cancel at the unit's tag."""
    return [(M1, tag_unit * cyc(kernel.eval(M2 + r, M2)), cyc(1)),
            (M2, -tag_unit * cyc(kernel.eval(M1 + r, M1)), cyc(1))]


PAIRING_CASES = {
    "tag 1": [(1, cyc(3), cyc(-2)), (2, cyc(F(1, 3)), cyc(5)), (5, cyc(7), cyc(1))],
    "tag 1, a zero weight between head and tail": [
        (1, cyc(3), cyc(-2)), (2, cyc(0), cyc(5)), (3, cyc(F(2, 5)), cyc(4)), (6, cyc(7), cyc(-1))],
    "tag 1, all ints": [(1, cyc(3), cyc(-2)), (3, cyc(4), cyc(5)), (4, cyc(-1), cyc(7))],
    "tag 4": [(1, ZETA4, cyc(2)), (3, cyc(1), ZETA4 + 1), (4, -ZETA4, ZETA4), (7, cyc(2), cyc(-1))],
    "tags 3 and 4": [(2, ZETA3, cyc(1)), (3, cyc(5), ZETA4), (5, ZETA3 + 2, 1 - ZETA4)],
    # at half 2 and 3, raw position 0 has head leaves only and position 1 tail leaves only
    "tag 4, a head-only and a tail-only position": [
        (1, cyc(3), cyc(-2)), (2, cyc(F(1, 2)), cyc(5)), (4, ZETA4, cyc(3)), (6, 2 * ZETA4, cyc(-1))],
    "a Fraction coordinate": [(1, CyclotomicNumber(4, (F(1, 2), F(-3, 7))), cyc(3)),
                              (6, cyc(F(5, 9)), ZETA3)],
    "empty": [],
}


@pytest.mark.parametrize("half", [0, 1, 2, 3, 4, 6, 100])
@pytest.mark.parametrize("case", list(PAIRING_CASES))
@pytest.mark.parametrize("l", [4, 6, 10])
def test_kernel_sum_matches_one_term_at_a_time(l, case, half):
    """Values and order tags of the sum and of its tail over M > half, for
    half below, at and between the M values and past them all."""
    kernel = projection.projection_kernel(l)
    whole, tail = _pairing_matches_the_oracle(kernel, 3, PAIRING_CASES[case], half)
    if case == "empty":
        assert value_to_json(whole) == value_to_json(tail) == "0"


@pytest.mark.parametrize("half", [0, 1, 49, 60])
@pytest.mark.parametrize("l", [1, 3])
def test_kernel_sum_matches_one_term_at_a_time_in_square_roots(l, half):
    """A kernel in the norms' square roots: (1, 16) and (49, 64) at r = 15."""
    kernel = projection.projection_kernel(l)
    terms = [(1, ZETA4, cyc(2)), (49, cyc(F(3, 5)), ZETA3)]
    _pairing_matches_the_oracle(kernel, 15, terms, half)


@pytest.mark.parametrize("half", [0, 2, 3, 9])
def test_kernel_sum_keeps_the_tag_of_a_cancelled_sum(half):
    kernel = projection.projection_kernel(4)
    terms = _cancelling_terms(kernel, 5, 2, 3, ZETA4) + [(9, cyc(0), ZETA3)]
    whole, tail = _pairing_matches_the_oracle(kernel, 5, terms[:2], half)
    assert value_to_json(whole) == {"order": 4, "coords": ["0", "0"]}
    whole, tail = _pairing_matches_the_oracle(kernel, 5, terms, half)
    assert whole.is_zero() and whole.order == tail.order == 12


_RATIONALS = st.one_of(st.integers(-20, 20),
                       st.fractions(min_value=-5, max_value=5, max_denominator=12))
_CYCLOTOMICS = st.sampled_from([1, 3, 4, 12]).flatmap(
    lambda e: st.lists(_RATIONALS, min_size=euler_phi(e), max_size=euler_phi(e)).map(
        lambda coords: CyclotomicNumber(e, coords)))


@settings(max_examples=150, deadline=None)
@given(l=st.sampled_from([4, 6, 8]), r=st.integers(1, 12),
       norms=st.sets(st.integers(1, 60), max_size=8), data=st.data(),
       half=st.integers(0, 64), cancel=st.booleans())
def test_kernel_sum_property(l, r, norms, data, half, cancel):
    kernel = projection.projection_kernel(l)
    terms = [(M, data.draw(_CYCLOTOMICS), data.draw(_CYCLOTOMICS)) for M in sorted(norms)]
    if cancel and len(terms) >= 2:
        (M1, *_), (M2, *_) = terms[:2]
        terms[:2] = _cancelling_terms(kernel, r, M1, M2, data.draw(st.sampled_from([ZETA3, ZETA4])))
    _pairing_matches_the_oracle(kernel, r, terms, half)


def test_lemma_gap_witness_row5():
    # the known witness shape: m a permutation of (1,2,1,1), n of (3,1,1,1),
    # norm difference 5 but no componentwise domination
    cfg = cfg_for(4, 5, modes=("full",), B=64)
    pairs = lemma_gap_witnesses(cfg, 5, cap=10)
    assert any(
        sorted(p["m"]) == [1, 1, 1, 2] and sorted(p["n"]) == [1, 1, 1, 3]
        for p in pairs
    )
    for p in pairs:
        n_sq = sum(x * x for x in p["n"])
        m_sq = sum(x * x for x in p["m"])
        assert n_sq - m_sq == 5
        assert not all(nj > mj for nj, mj in zip(p["n"], p["m"]))


def _gap_oracle(cfg, r, max_entry_sum=16):
    """Every pair the witness scan covers, by itertools.product: m with entry
    sum at most max_entry_sum, n with |n|^2 = |m|^2 + r not dominating m, in
    the scan's order (entry sum of m, then m, then n)."""
    l = cfg.l
    ms = sorted((m for m in itertools.product(range(1, max_entry_sum + 1), repeat=l)
                 if sum(m) <= max_entry_sum), key=lambda m: (sum(m), m))
    top = math.isqrt((max_entry_sum - l + 1) ** 2 + l - 1 + r)
    by_norm = {}
    for n in itertools.product(range(1, top + 1), repeat=l):
        by_norm.setdefault(sum(x * x for x in n), []).append(n)
    return [{"m": list(m), "n": list(n), "chi_weight": value_to_json(cfg.chi(math.prod(m))),
             "psi_weight": value_to_json(cfg.psi(math.prod(n)))}
            for m in ms for n in by_norm.get(sum(x * x for x in m) + r, [])
            if not all(nj > mj for nj, mj in zip(n, m))]


@pytest.mark.parametrize("l, r, count", [(1, 7, 0), (4, 3, 65936)])
def test_lemma_gap_witnesses_are_the_brute_force_pairs(l, r, count):
    """At l = 1 every pair is dominated, so the scan returns []; at l = 4,
    r = 3 the uncapped scan lists all of them."""
    cfg = cfg_for(l, 8)
    witnesses = lemma_gap_witnesses(cfg, r, cap=10 ** 6)
    assert len(witnesses) == count
    assert witnesses == _gap_oracle(cfg, r)


def test_residual_report_l1_confirmed():
    cfg = cfg_for(1, 40, modes=("ordered", "full"), B=1600)
    rep = residual_report(cfg)
    assert rep.verdicts["ordered_residual"] == "zero"
    assert rep.verdicts["full_residual"] == "confirmed"
    for row in rep.rows:
        assert row.residual_ordered.is_zero()
        assert row.residual_full.is_zero()


def test_residual_report_l4_discrepancy_documented():
    cfg = cfg_for(4, 16, modes=("ordered", "full"), B=512)
    rep = residual_report(cfg, b_schedule=[128, 512])
    assert rep.verdicts["ordered_residual"] == "zero"
    assert rep.verdicts["full_residual"] == "discrepancy documented"
    row8 = rep.rows[7]
    assert not row8.residual_full.is_zero()
    assert rep.witnesses, "nonzero residual rows must come with witness pairs"
    assert len(rep.schedule) == 2


def test_full_residual_verdict_is_decided_exactly():
    """|res| > 4 |delta|: a rational pair by its magnitudes, otherwise through
    w = |res|^2 - 16 |delta|^2, zero and rational w exactly, irrational w by an
    interval that must separate values closer than a double can."""
    exceeds = projection._exceeds
    golden = cyc(1) + CyclotomicNumber.zeta(5)             # |.| = 2 cos(pi/5)
    assert not exceeds(cyc(4), cyc(1))                     # w = 0
    assert not exceeds(golden * 4, golden)                 # w = 0 at order 5
    assert exceeds(cyc(F(4 * 10 ** 30 + 1, 10 ** 30)), cyc(1))
    assert not exceeds(CyclotomicNumber.zeta(4) * 3, cyc(F(3, 4)))
    cos_pi_5 = F(8090169943749474241022934171828190588601545899, 10 ** 46)  # to 46 digits
    eps = F(1, 10 ** 40)
    assert exceeds(golden, cyc((cos_pi_5 - eps) / 2))
    assert not exceeds(golden, cyc((cos_pi_5 + eps) / 2))


_WIDE = 3 ** 9100  # 4,342 digits, past CPython's default int->str limit
# scales by name, so that hypothesis never prints a wide value
_SCALES = {"1": 1, "-1": -1, "W": _WIDE, "-W": -_WIDE, "1/W": Fraction(1, _WIDE),
           "W/7": Fraction(_WIDE, 7)}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(res=st.fractions(), delta=st.fractions(), res_scale=st.sampled_from(sorted(_SCALES)),
       delta_scale=st.sampled_from(sorted(_SCALES)))
@example(res=Fraction(4), delta=Fraction(1), res_scale="1", delta_scale="-1")  # a tie
@example(res=Fraction(-12, 7), delta=Fraction(3, 7), res_scale="W", delta_scale="-W")  # a tie
@example(res=Fraction(-1, 3), delta=Fraction(0), res_scale="1/W", delta_scale="1")
@example(res=Fraction(0), delta=Fraction(0), res_scale="1", delta_scale="1")
@example(res=Fraction(4), delta=Fraction(-1), res_scale="W", delta_scale="W/7")
def test_rational_verdict_is_the_sign_of_the_squared_difference(
        res, delta, res_scale, delta_scale, default_int_str_limit):
    """For rational res and delta, at order 1 or as a rational value of Q(i),
    |res| > 4 |delta| exactly when res^2 - 16 delta^2 > 0: a tie is no excess
    and a zero delta is exceeded by any nonzero res, at any sign and at widths
    no int->str conversion could print."""
    res, delta = res * _SCALES[res_scale], delta * _SCALES[delta_scale]
    expected = res * res - 16 * delta * delta > 0
    assert projection._exceeds(cyc(res), cyc(delta)) == expected
    assert projection._exceeds(CyclotomicNumber(4, (res, 0)), cyc(delta)) == expected


def test_residual_report_worker_independence():
    cfg = cfg_for(4, 12, modes=("ordered", "full"), B=128)
    rep1 = residual_report(cfg, workers=1)
    rep2 = residual_report(cfg, workers=2)
    assert rep1.to_json_obj(include_timestamp=False) == rep2.to_json_obj(include_timestamp=False)


def test_reports_on_two_threads_do_not_share_state():
    """Two reports running at once on threads of one process, switching as
    often as the interpreter allows, each give their serial bytes."""
    psi5 = char_from_spec(PSI5_ONE_INT)
    cfgs = [ProjectionConfig(CHI_M4, CHI_8, 4, 40, modes=("ordered",)),
            ProjectionConfig(psi5, CHI_8, 6, 30, modes=("ordered",))]
    serial = [json.dumps(residual_report(cfg).to_json_obj(False)) for cfg in cfgs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = [None, None]

            def run(i):
                got[i] = json.dumps(residual_report(cfgs[i]).to_json_obj(False))

            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads) and got == serial
    finally:
        sys.setswitchinterval(interval)


def test_eisenstein_expansion():
    e2 = eisenstein_e2(10)
    assert e2.coeff(0) == cyc(1)
    assert e2.coeff(1) == cyc(-24)
    assert e2.coeff(4) == cyc(-168)
    assert e2.coeff(6) == cyc(-288)
    assert e2.min_nonzero_exponent() == 0


def test_calibrate_classical_d_both_characters():
    res = calibrate_constants(CalibrationInstance("classical-d", CHI_M4, CHI_M4),
                              probe_count=12, verify_rows=120)
    assert res.consistent and not res.failures
    assert res.scalars["alpha"] == cyc(0)
    assert res.scalars["C"] == cyc(-1)
    res8 = calibrate_constants(CalibrationInstance("classical-d", CHI_8, CHI_8),
                               probe_count=12, verify_rows=120)
    assert res8.consistent
    assert res8.scalars["alpha"] == cyc(0)
    assert res8.scalars["C"] == cyc(1)


def _classical_d_equation(psi, r):
    """The weight-d equation by a direct walk over the (mu, nu) with
    nu^2 - mu^2 = r: conj(psi)(mu) mu^lam psi(nu) nu^lam times the power
    difference nu^(1 - 2 lam) - mu^(1 - 2 lam), summed."""
    lam, shadow = psi.parity, char_conjugate(psi)
    proj = cyc(0)
    for mu in range(1, (r - 1) // 2 + 1):
        nu = math.isqrt(mu * mu + r)
        am, bn = shadow(mu), psi(nu)
        if nu * nu != mu * mu + r or am.is_zero() or bn.is_zero():
            continue
        kern = F(nu) ** (1 - 2 * lam) - F(mu) ** (1 - 2 * lam)
        proj = proj + am * (mu ** lam) * bn * (nu ** lam) * cyc(kern)
    e2 = cyc(-24 * sum(d for d in range(1, r + 1) if r % d == 0))
    return [e2, -proj], -sigma_sm_classical(r, psi, psi, power=1)


@pytest.mark.parametrize("psi", [char_kronecker(d) for d in (-4, 8, 5, -3, -7, 12)]
                         + [char_from_spec(PSI5_ONE_INT), char_from_spec(PSI5_ONE_ORDER4)],
                         ids=["-4", "8", "5", "-3", "-7", "12", "psi5-int", "psi5-order4"])
def test_classical_d_reads_the_ordered_side_as_the_direct_walk(psi):
    inst = CalibrationInstance("classical-d", psi, psi)
    for r in range(1, 151):
        basis, rhs = _calibration_equation(inst, r)
        want_basis, want_rhs = _classical_d_equation(psi, r)
        assert ([value_to_json(b) for b in basis], value_to_json(rhs)) == (
            [value_to_json(b) for b in want_basis], value_to_json(want_rhs)), r


def test_calibrate_classical_d2():
    res = calibrate_constants(CalibrationInstance("classical-d2", CHI_M4, CHI_8),
                              probe_count=10, verify_rows=100)
    assert res.consistent
    assert res.scalars["C"] == cyc(2)


def test_calibrate_kernel_1dim_returns_unit_scalar():
    res = calibrate_constants(CalibrationInstance("kernel-1dim", CHI_M4, CHI_8),
                              probe_count=10, verify_rows=60)
    assert res.consistent
    assert res.scalars["C"] == cyc(1)


def test_calibrate_validates_instances():
    with pytest.raises(ValueError):
        CalibrationInstance("classical-d", CHI_M4, CHI_8)  # needs psi = chi
    with pytest.raises(ValueError):
        CalibrationInstance("unknown", CHI_M4, CHI_8)
    with pytest.raises(ValueError):
        calibrate_constants(CalibrationInstance("classical-d", CHI_M4, CHI_M4),
                            probe_count=2)  # needs >= unknowns + 1


def test_calibrate_underdetermined_probes_flagged():
    # kernel-1dim rows vanish for r < 8 with these characters, so a probe
    # window that ends before the first nonzero row cannot pin the scalar
    res = calibrate_constants(CalibrationInstance("kernel-1dim", CHI_M4, CHI_8),
                              probe_count=5, verify_rows=0)
    assert res.underdetermined
    assert not res.consistent
    assert res.scalars == {}


def test_readme_full_residuals_come_from_the_report():
    """The README's documented full-range residuals, sigma - full at B = 4096
    on criterion 6's config (l = 4, rmax = 20)."""
    rep = residual_report(cfg_for(4, 20, modes=("ordered", "full"), B=4096))
    residual = {row.r: float(row.residual_full.rational_value()) for row in rep.rows}
    assert round(residual[8], 4) == -0.5819
    assert round(residual[16], 4) == 4.6109


_WORKERS_SCRIPT = """
import json, multiprocessing, sys
from holoproj import ProjectionConfig, char_kronecker, residual_report
from holoproj.characters import char_from_spec
multiprocessing.set_start_method(sys.argv[1])
psi, rmax, schedule = json.loads(sys.argv[2])
cfg = ProjectionConfig(char_from_spec(psi), char_kronecker(8), 4, rmax,
                       modes=("ordered", "full"), B=schedule[-1])
print(json.dumps(residual_report(cfg, schedule, workers=2).to_json_obj(False)))
"""


def _same_report_under(method, psi, rmax, schedule):
    """The report of psi/8 at l = 4 with two workers under the start method
    equals the one-process report; the full chain runs as one pool job."""
    cfg = ProjectionConfig(char_from_spec(psi), CHI_8, 4, rmax, modes=("ordered", "full"),
                           B=schedule[-1])
    expected = json.loads(json.dumps(residual_report(cfg, schedule).to_json_obj(False)))
    src = os.path.dirname(os.path.dirname(holoproj.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _WORKERS_SCRIPT, method,
                           json.dumps([psi, rmax, schedule])], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_workers_give_the_same_report_under_every_start_method(method):
    _same_report_under(method, {"kronecker": -4}, 12, [128])


@pytest.mark.parametrize("psi,rmax,schedule", [
    ({"kronecker": -4}, 16, [64, 256, 1024]),
    (PSI5_ONE_INT, 12, [64, 256]),
], ids=["three-bounds", "psi5-two-bounds"])
@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_workers_give_the_same_chained_report_under_every_start_method(method, psi, rmax,
                                                                        schedule):
    _same_report_under(method, psi, rmax, schedule)
