"""Command-line entry point: reproducible runs, JSON reports (authoritative)
with CSV mirrors, deterministic across worker counts.

Exit codes: 0 all asserted checks pass, 1 an asserted check failed,
2 usage/config error.  Exploratory full-mode residuals are report content and
never drive the exit code: "the claim did not verify" is a verdict, not a
crash.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from itertools import chain

from .characters import char_from_spec, char_kronecker
from .kernel import ORIENTATIONS, verify_closed_forms
from .calibrate import CAL_FAMILIES, CAL_UNKNOWNS, CalibrationInstance, calibrate_constants
from .projection import ProjectionConfig, compositions, residual_report
from .rings import value_to_json
from .smalldiv import CharacterPlacement, MultiIndex, sigma_entry_table, sigma_sm
from .theta import theta_power_direct, theta_series

from fractions import Fraction


class ConfigError(Exception):
    pass


@contextmanager
def _inputs(where: str = ""):
    """Turn a bad input rejected inside the block into a ConfigError, which
    main() reports on one line with exit code 2."""
    try:
        yield
    except (ValueError, TypeError, OSError) as exc:  # includes CharacterTableError, WeightError, JSONDecodeError
        raise ConfigError(f"{where}{exc}") from None


def _c_str(z):
    import mpmath as mp
    return {"re": mp.nstr(mp.re(z), 20), "im": mp.nstr(mp.im(z), 20)}


def _parse_char(text: str):
    if text.startswith("kronecker:"):
        return char_kronecker(int(text.split(":", 1)[1]))
    if text.startswith("{"):
        return char_from_spec(json.loads(text))
    raise ConfigError(f"character spec {text!r}: use kronecker:D or inline JSON")


def _write_outputs(out, obj, csv_path=None, csv_rows=()):
    """The JSON report to out ("-": stdout) and, given csv_path, the CSV rows.
    Every path is opened for appending, which truncates nothing, before any is
    written: a path that cannot be opened is a usage error that leaves every
    output as it was (a file created here is removed again)."""
    data = json.dumps(obj, indent=2) + "\n"
    targets = [("--csv", csv_path)] if csv_path else []
    if out != "-":
        targets.append(("--out", out))
    created = []
    for flag, path in targets:
        fresh = not os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            for made in created:
                os.remove(made)
            raise ConfigError(f"{flag}: {exc}") from None
        if fresh:
            created.append(path)
    with nullcontext(sys.stdout) if out == "-" else open(out, "w") as fh:
        fh.write(data)
    if csv_path:
        with open(csv_path, "w", newline="") as table:
            csv.writer(table).writerows(csv_rows)


def _check_dimension(l: int) -> None:
    """Odd l >= 3 gives the kernel non-square norms, which it cannot evaluate."""
    if l != 1 and l % 2:
        raise ConfigError(f"l must be 1 or even, got {l}")


def _cmd_theta(args) -> int:
    if args.terms < 1 or args.pow < 1:
        raise ConfigError(f"--terms and --pow must be >= 1, got {args.terms} and {args.pow}")
    with _inputs("--char: "):  # the mod-1 character is rejected before any summation
        psi = _parse_char(args.char)
        if args.pow == 1:
            series = theta_series(psi, args.terms)
        else:
            series = theta_power_direct(psi, args.pow, args.terms)
    obj = {
        "character": {"modulus": psi.modulus, "parity": psi.parity, "order": psi.order},
        "power": args.pow,
        "series": series.to_json_obj(),
    }
    _write_outputs(args.out, obj, args.csv, chain([("exponent", "value")], series.to_csv_rows()))
    return 0


def _cmd_sigma_table(args) -> int:
    _check_dimension(args.l)
    with _inputs():
        cfg = ProjectionConfig(
            _parse_char(args.psi), _parse_char(args.chi), args.l, args.rmax,
            modes=("ordered",),
            placement=CharacterPlacement(args.placement),
            orientation=args.orientation,
        )
    kernel = cfg.kernel()
    table = sigma_entry_table(cfg, cfg.rmax)
    rows, by_multiset = [], {}
    for r in range(1, cfg.rmax + 1):
        # sigma_sm vanishes unless every entry has a surviving substitution;
        # it depends on the entries only as a multiset, so each is summed once
        for parts in compositions(r, cfg.l, table):
            key = tuple(sorted(parts))
            if key not in by_multiset:
                by_multiset[key] = sigma_sm(MultiIndex(key), cfg.psi, cfg.chi, kernel,
                                            cfg.placement)
            val = by_multiset[key]
            if not val.is_zero():
                rows.append({"n": list(parts), "sigma_sm": value_to_json(val)})
    obj = {
        "l": cfg.l,
        "rmax": cfg.rmax,
        "placement": cfg.placement.value,
        "orientation": cfg.orientation,
        "rows": rows,
        "note": "multi-indices with zero value are suppressed",
    }
    _write_outputs(args.out, obj)
    return 0


def _field(raw: dict, name: str, ok, what: str, *default):
    """raw[name] once ok(value) holds, or the default when the field is absent."""
    if name not in raw:
        if not default:
            raise ConfigError(f"missing config field {name!r}")
        return default[0]
    if not ok(raw[name]):
        raise ConfigError(f"{name} must be {what}, got {json.dumps(raw[name])}")
    return raw[name]


def _is_int(value) -> bool:  # a JSON integer: not a bool, float or string
    return type(value) is int


def _load_verify_config(path):
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"the config must be a JSON object, got {type(raw).__name__}")
    psi = char_from_spec(_field(raw, "psi", lambda v: isinstance(v, dict), "an object"))
    chi = char_from_spec(_field(raw, "chi", lambda v: isinstance(v, dict), "an object"))
    l = _field(raw, "l", _is_int, "an integer")
    _check_dimension(l)
    rmax = _field(raw, "rmax", _is_int, "an integer")
    modes = _field(raw, "modes", lambda v: isinstance(v, list) and all(type(m) is str for m in v),
                   "a list of strings", ["ordered", "full"])
    schedule = _field(raw, "b_schedule", lambda v: v is None or isinstance(v, list) and all(
        _is_int(b) and b >= rmax for b in v), f"a list of integers >= rmax = {rmax}", None)
    B = _field(raw, "B", lambda v: v is None or _is_int(v), "an integer",
               schedule[-1] if schedule else None)
    placements = [p.value for p in CharacterPlacement]
    placement = _field(raw, "placement", lambda v: v in placements, f"one of {placements}",
                       "psi_on_larger")
    orientation = _field(raw, "orientation", lambda v: v in ORIENTATIONS,
                         f"one of {list(ORIENTATIONS)}", "prefactor_on_larger")
    cfg = ProjectionConfig(psi, chi, l, rmax, modes=tuple(modes), B=B,
                           placement=CharacterPlacement(placement), orientation=orientation)
    want_closed = _field(raw, "closed_forms", lambda v: type(v) is bool, "true or false", True)
    return cfg, schedule, want_closed


def _cmd_verify(args) -> int:
    with _inputs():
        cfg, schedule, want_closed = _load_verify_config(args.config)

    report = residual_report(cfg, b_schedule=schedule, workers=args.workers)
    obj = report.to_json_obj(include_timestamp=not args.no_timestamp)

    failures = []
    if "ordered" in cfg.modes and report.verdicts.get("ordered_residual") != "zero":
        failures.append("ordered residual nonzero")
    if cfg.l == 1 and "full" in cfg.modes:
        if report.verdicts.get("full_residual") != "confirmed":
            failures.append("one-dimensional closure failed")

    if want_closed:
        closed = verify_closed_forms(cfg.orientation)
        obj["closed_forms"] = closed
        bad = [i["name"] for i in closed["identities"] if not i["match"]]
        if bad:
            failures.append(f"closed forms without a matching reading: {bad}")

    obj["asserted_failures"] = failures
    _write_outputs(args.out, obj, args.csv, report.csv_rows())
    return 1 if failures else 0


def _cmd_closed_forms(args) -> int:
    obj = verify_closed_forms(args.orientation)
    _write_outputs(args.out, obj)
    return 0


def _cmd_calibrate(args) -> int:
    with _inputs():
        inst = CalibrationInstance(args.family, _parse_char(args.psi), _parse_char(args.chi))
    need = len(CAL_UNKNOWNS[args.family]) + 1
    if args.probes < need or args.verify_rows < 0:
        raise ConfigError(f"--probes must be >= {need} for {args.family} and --verify-rows >= 0, "
                          f"got {args.probes} and {args.verify_rows}")
    result = calibrate_constants(inst, probe_count=args.probes, verify_rows=args.verify_rows)
    _write_outputs(args.out, result.to_json_obj())
    return 0


_GAMMA_GRID_S = (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-1, 2),
                 Fraction(-1), Fraction(-2))
_GAMMA_GRID_X = ("0.1", "1", "5", "20")


def _cmd_numeric(args) -> int:
    import mpmath as mp  # mpmath and numeric load here: no other command uses them
    from .numeric import UpperHalfPoint, calibrate_eichler, eval_f_minus, inc_gamma, xi_check
    if args.check == "gamma-grid":
        with mp.workdps(40):
            rows = []
            worst = mp.mpf(0)
            for s in _GAMMA_GRID_S:
                for x in _GAMMA_GRID_X:
                    xm = mp.mpf(x)
                    lhs = inc_gamma(s + 1, xm)
                    rhs = mp.mpf(s.numerator) / s.denominator * inc_gamma(s, xm) \
                        + xm ** (mp.mpf(s.numerator) / s.denominator) * mp.e ** (-xm)
                    rel = abs(lhs - rhs) / abs(lhs)
                    worst = max(worst, rel)
                    rows.append({"s": str(s), "x": x, "rel_error": mp.nstr(rel, 5),
                                 "pass": rel <= mp.mpf("1e-12")})
            asym = []
            for vv, tol in ((50, "0.10"), (100, "0.05"), (200, "0.025")):
                for s in _GAMMA_GRID_S:
                    ratio = inc_gamma(s, vv) / (mp.mpf(vv) ** (mp.mpf(s.numerator) / s.denominator - 1) * mp.e ** (-vv))
                    err = abs(ratio - 1)
                    asym.append({"s": str(s), "v": vv, "ratio_minus_1": mp.nstr(err, 5),
                                 "pass": err <= mp.mpf(tol)})
            ok = all(r["pass"] for r in rows) and all(r["pass"] for r in asym)
            _write_outputs(args.out, {"check": "gamma-grid",
                                      "functional_equation": rows,
                                      "asymptotic": asym, "pass": ok})
            return 0 if ok else 1

    if args.check in ("xi", "f-minus"):
        with _inputs():
            psi = _parse_char(args.psi) if args.psi else char_kronecker(-4)
            chi = _parse_char(args.chi) if args.chi else char_kronecker(8)
            cfg = ProjectionConfig(psi, chi, args.l, 1, modes=())
            point = UpperHalfPoint(args.tau_u, args.tau_v)
            if args.check == "xi":
                h, tolerance = mp.mpf(args.h), mp.mpf(args.tolerance)
                if not (mp.isfinite(h) and h > 0 and mp.isfinite(tolerance) and tolerance >= 0):
                    raise ValueError(f"need finite --h > 0 and --tolerance >= 0, got {args.h}, {args.tolerance}")

    if args.check == "xi":
        with _inputs():  # the point or cutoff is rejected before any computation
            res = xi_check(cfg, point, args.h, cutoff=args.cutoff)
        ok = res.rel_error <= tolerance
        _write_outputs(args.out, {
            "check": "xi", "l": args.l,
            "point": {"u": args.tau_u, "v": args.tau_v},
            "h": args.h,
            "comparison": {
                "finite_difference": _c_str(res.fd_value),
                "closed_formula": _c_str(res.closed_value),
            },
            "rel_error": mp.nstr(res.rel_error, 8),
            "tolerance": args.tolerance,
            "pass": bool(ok),
        })
        return 0 if ok else 1

    if args.check == "f-minus":
        with _inputs():  # the tail bound is checked before any computation
            res = eval_f_minus(cfg, point, args.cutoff)
        _write_outputs(args.out, {
            "check": "f-minus", "l": args.l,
            "point": {"u": args.tau_u, "v": args.tau_v},
            "value": _c_str(res.value),
            "tail_estimate": mp.nstr(res.tail_estimate, 5),
            "cutoff": res.cutoff,
            "terms_used": res.terms_used,
        })
        return 0

    if args.check == "eichler":
        with _inputs("--char: "):
            char = _parse_char(args.char) if args.char else char_kronecker(8)
        fit = UpperHalfPoint("0.1", "1.0")
        verify = [UpperHalfPoint("0.3", "0.9"), UpperHalfPoint("-0.2", "1.3"),
                  UpperHalfPoint("0.05", "0.7"), UpperHalfPoint("0", "2.0"),
                  UpperHalfPoint("0.4", "1.1")]
        with _inputs():  # the shift and the character are rejected before any quadrature
            cal = calibrate_eichler(char, args.lam_shift, fit, verify)
        tol = mp.mpf("1e-8")
        ok = all(e <= tol for e in cal.rel_errors)
        _write_outputs(args.out, {
            "check": "eichler",
            "constant": _c_str(cal.constant),
            "verification_rel_errors": [mp.nstr(e, 5) for e in cal.rel_errors],
            "tolerance": "1e-8",
            "pass": bool(ok),
        })
        return 0 if ok else 1

    print(f"unknown numeric check {args.check!r}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="holoproj")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("theta", help="theta series / power expansion")
    t.add_argument("--char", required=True, help="kronecker:D or inline JSON spec")
    t.add_argument("--pow", type=int, default=1)
    t.add_argument("--terms", type=int, required=True)
    t.add_argument("--out", default="-")
    t.add_argument("--csv", default=None, help="also write the coefficient table as CSV")
    t.set_defaults(func=_cmd_theta)

    st = sub.add_parser("sigma-table", help="small divisor function table")
    st.add_argument("--psi", required=True)
    st.add_argument("--chi", required=True)
    st.add_argument("--l", type=int, required=True)
    st.add_argument("--rmax", type=int, required=True)
    st.add_argument("--placement", default="psi_on_larger",
                    choices=[p.value for p in CharacterPlacement])
    st.add_argument("--orientation", default="prefactor_on_larger", choices=ORIENTATIONS)
    st.add_argument("--out", default="-")
    st.set_defaults(func=_cmd_sigma_table)

    v = sub.add_parser("verify", help="run the residual ledger from a JSON config")
    v.add_argument("--config", required=True)
    v.add_argument("--out", default="-")
    v.add_argument("--csv", default=None)
    v.add_argument("--workers", type=int, default=1)
    v.add_argument("--no-timestamp", action="store_true")
    v.set_defaults(func=_cmd_verify)

    cf = sub.add_parser("closed-forms", help="kernel closed-form cross-check")
    cf.add_argument("--orientation", default="prefactor_on_larger", choices=ORIENTATIONS)
    cf.add_argument("--out", default="-")
    cf.set_defaults(func=_cmd_closed_forms)

    c = sub.add_parser("calibrate", help="calibrate-then-verify a 1-dim instance")
    c.add_argument("--family", required=True, choices=CAL_FAMILIES)
    c.add_argument("--psi", required=True)
    c.add_argument("--chi", required=True)
    c.add_argument("--probes", type=int, default=12)
    c.add_argument("--verify-rows", type=int, default=120)
    c.add_argument("--out", default="-")
    c.set_defaults(func=_cmd_calibrate)

    n = sub.add_parser("numeric", help="floating-point companion checks")
    n.add_argument("check", choices=["gamma-grid", "xi", "f-minus", "eichler"])
    n.add_argument("--l", type=int, default=4)
    n.add_argument("--psi", default=None)
    n.add_argument("--chi", default=None)
    n.add_argument("--char", default=None, help="character for the eichler check")
    n.add_argument("--tau-u", default="0.1")
    n.add_argument("--tau-v", default="0.8")
    n.add_argument("--h", default="1e-5")
    n.add_argument("--cutoff", type=int, default=400)
    n.add_argument("--lam-shift", type=int, default=0)
    n.add_argument("--tolerance", default="1e-5")
    n.add_argument("--out", default="-")
    n.set_defaults(func=_cmd_numeric)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
