"""Command-line entry point: reproducible runs, JSON reports (authoritative)
with CSV mirrors, deterministic across worker counts.

Exit codes: 0 all asserted checks pass, 1 an asserted check failed,
2 usage/config error.  Exploratory full-mode residuals are report content and
never drive the exit code: "the claim did not verify" is a verdict, not a
crash.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from itertools import chain

from .characters import char_from_spec, char_kronecker
from .kernel import ORIENTATIONS, verify_closed_forms
from .projection import ProjectionConfig, bound_configs, compositions, residual_report
from .rings import value_to_json
from .smalldiv import CharacterPlacement, MultiIndex, sigma_entry_table, sigma_sm
from .theta import theta_power_direct


class ConfigError(Exception):
    pass


@contextmanager
def _inputs(where: str = ""):
    """Turn a bad input rejected inside the block into a ConfigError, which
    main() reports on one line with exit code 2."""
    try:
        yield
    # ValueError includes CharacterTableError, WeightError, JSONDecodeError and
    # UnicodeDecodeError; RecursionError is JSON nested past the recursion limit
    except (ValueError, TypeError, OSError, RecursionError) as exc:
        raise ConfigError(f"{where}{exc}") from None


def _c_str(z):
    import mpmath as mp
    return {"re": mp.nstr(mp.re(z), 20), "im": mp.nstr(mp.im(z), 20)}


def _parse_char(text: str, flag: str):
    """The character that option `flag` spells as kronecker:D or inline JSON;
    a bad spec is a ConfigError that names the flag."""
    with _inputs(f"{flag}: "):
        if text.startswith("kronecker:"):
            return char_kronecker(int(text.split(":", 1)[1]))
        if text.startswith("{"):
            return char_from_spec(json.loads(text))
        raise ValueError(f"character spec {text!r}: use kronecker:D or inline JSON")


_ESCAPE = json.encoder.encode_basestring_ascii  # C, as json.dumps uses it
_FLUSH = 64  # pieces _dump gathers before it writes them


def _dump(obj, fh) -> None:
    """Write json.dumps(obj, indent=2) + "\n" to fh, byte for byte, without
    CPython's pure-Python indent encoder and without ever holding the whole
    text: the pieces are joined and written whenever more than _FLUSH have
    gathered.  obj is a tree of str, int, bool, None, lists, tuples and dicts
    with str keys; anything else (a float among them) is a TypeError."""
    parts = []
    append = parts.append

    def flush():
        fh.write("".join(parts))
        parts.clear()

    def value(o, nl):  # nl: a newline and the indent of o's own line
        if isinstance(o, str):
            append(_ESCAPE(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif not isinstance(o, (list, tuple, dict)):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        elif not o:
            append("{}" if isinstance(o, dict) else "[]")
        else:
            is_dict = isinstance(o, dict)
            inner = nl + "  "
            sep = ("{" if is_dict else "[") + inner
            for item in o.items() if is_dict else o:
                if is_dict:
                    key, item = item
                    if not isinstance(key, str):
                        raise TypeError(f"keys must be str, not {type(key).__name__}")
                    sep += _ESCAPE(key) + ": "
                if type(item) is str:
                    append(sep + _ESCAPE(item))
                elif type(item) is int:
                    append(sep + int.__repr__(item))
                else:
                    append(sep)
                    value(item, inner)
                sep = "," + inner
                if len(parts) > _FLUSH:
                    flush()
            append(nl + ("}" if is_dict else "]"))

    try:
        value(obj, "\n")
    finally:
        del value  # it holds itself in its cell: a cycle, kept until a collection
    append("\n")
    flush()


def _write_outputs(out, obj, csv_path, csv_rows):
    """The JSON report to out ("-": stdout) and, given csv_path, the CSV rows.
    Every path is opened for appending, which truncates nothing, before any is
    written: a path that cannot be opened, or a --csv that is the --out file,
    is a usage error that leaves every output as it was (a file created here
    is removed again: for a dangling symlink, the file made at its target).
    The report is streamed by _dump: the bytes of json.dumps(obj, indent=2)
    and a newline, a few dozen pieces per write, never one whole string."""
    targets = [("--csv", csv_path)] if csv_path else []
    if out != "-":
        targets.append(("--out", out))
    created = []
    try:
        for flag, path in targets:
            fresh = not os.path.exists(path)  # a dangling symlink's target is made here
            try:
                open(path, "a").close()
            except OSError as exc:
                raise ConfigError(f"{flag}: {exc}") from None
            if fresh:
                created.append(os.path.realpath(path))
        if csv_path and out != "-" and os.path.samefile(csv_path, out):
            raise ConfigError(f"--csv: {csv_path} is the --out file, which holds the JSON report")
    except ConfigError:
        for made in created:
            os.remove(made)
        raise
    with nullcontext(sys.stdout) if out == "-" else open(out, "w") as fh:
        _dump(obj, fh)
    if csv_path:
        import csv  # only --csv writes one
        with open(csv_path, "w", newline="") as table:
            csv.writer(table).writerows(csv_rows)


def _check_dimension(l: int) -> None:
    """Odd l >= 3 gives the kernel non-square norms, which it cannot evaluate."""
    if l != 1 and l % 2:
        raise ConfigError(f"l must be 1 or even, got {l}")


def _cmd_theta(args):
    if args.terms < 1 or args.pow < 1:
        raise ConfigError(f"--terms and --pow must be >= 1, got {args.terms} and {args.pow}")
    with _inputs("--char: "):  # the mod-1 character is rejected before any summation
        psi = _parse_char(args.char, "--char")
        series = theta_power_direct(psi, args.pow, args.terms)
    return {
        "character": {"modulus": psi.modulus, "parity": psi.parity, "order": psi.order},
        "power": args.pow,
        "series": series.to_json_obj(),
    }, [], chain([("exponent", "value")], series.to_csv_rows())


def _cmd_sigma_table(args):
    _check_dimension(args.l)
    with _inputs():
        cfg = ProjectionConfig(
            _parse_char(args.psi, "--psi"), _parse_char(args.chi, "--chi"), args.l, args.rmax,
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
    return {
        "l": cfg.l,
        "rmax": cfg.rmax,
        "placement": cfg.placement.value,
        "orientation": cfg.orientation,
        "rows": rows,
        "note": "multi-indices with zero value are suppressed",
    }, [], ()


def _field(raw: dict, name: str, ok, what: str, *default):
    """raw[name] once ok(value) holds, or the default when the field is absent."""
    if name not in raw:
        if not default:
            raise ConfigError(f"missing config field {name!r}")
        return default[0]
    if not ok(raw[name]):
        raise ConfigError(f"{name} must be {what}, got {json.dumps(raw[name])}")
    return raw[name]


def _char_field(raw: dict, name: str):
    spec = _field(raw, name, lambda v: isinstance(v, dict), "an object")
    with _inputs(f"{name} is not a valid character: "):
        return char_from_spec(spec)


def _is_int(value) -> bool:  # a JSON integer: not a bool, float or string
    return type(value) is int


_CONFIG_FIELDS = ("psi", "chi", "l", "rmax", "modes", "b_schedule", "B", "placement",
                  "orientation", "closed_forms")


def _load_verify_config(path):
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"the config must be a JSON object, got {type(raw).__name__}")
    unknown = [name for name in raw if name not in _CONFIG_FIELDS]
    if unknown:
        raise ConfigError(f"unknown config field {', '.join(map(repr, unknown))}")
    psi, chi = _char_field(raw, "psi"), _char_field(raw, "chi")
    l = _field(raw, "l", _is_int, "an integer")
    _check_dimension(l)
    rmax = _field(raw, "rmax", _is_int, "an integer")
    modes = _field(raw, "modes", lambda v: isinstance(v, list) and all(type(m) is str for m in v)
                   and len(set(v)) == len(v), "a list of distinct strings", ["ordered", "full"])
    schedule = _field(raw, "b_schedule", lambda v: v is None or isinstance(v, list) and all(
        map(_is_int, v)), "a list of integers", None)
    B = _field(raw, "B", lambda v: v is None or _is_int(v), "an integer",
               schedule[-1] if schedule else None)
    placements = [p.value for p in CharacterPlacement]
    placement = _field(raw, "placement", lambda v: v in placements, f"one of {placements}",
                       "psi_on_larger")
    orientation = _field(raw, "orientation", lambda v: v in ORIENTATIONS,
                         f"one of {list(ORIENTATIONS)}", "prefactor_on_larger")
    cfg = ProjectionConfig(psi, chi, l, rmax, modes=tuple(modes), B=B,
                           placement=CharacterPlacement(placement), orientation=orientation)
    bound_configs(cfg, schedule)
    want_closed = _field(raw, "closed_forms", lambda v: type(v) is bool, "true or false", True)
    return cfg, schedule, want_closed


def _cmd_verify(args):
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
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
    return obj, failures, report.csv_rows()


def _cmd_closed_forms(args):
    return verify_closed_forms(args.orientation), [], ()


def _cmd_calibrate(args):
    from .calibrate import CAL_UNKNOWNS, CalibrationInstance, calibrate_constants
    with _inputs():
        inst = CalibrationInstance(args.family, _parse_char(args.psi, "--psi"),
                                   _parse_char(args.chi, "--chi"))
    need = len(CAL_UNKNOWNS[args.family]) + 1
    if args.probes < need or args.verify_rows < 0:
        raise ConfigError(f"--probes must be >= {need} for {args.family} and --verify-rows >= 0, "
                          f"got {args.probes} and {args.verify_rows}")
    result = calibrate_constants(inst, probe_count=args.probes, verify_rows=args.verify_rows)
    return result.to_json_obj(), [], ()


_GAMMA_GRID_S = (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-1, 2),
                 Fraction(-1), Fraction(-2))
_GAMMA_GRID_X = ("0.1", "1", "5", "20")


def _gamma_grid(args):
    import mpmath as mp
    from .numeric import inc_gamma
    with mp.workdps(40):
        rows = []
        for s in _GAMMA_GRID_S:
            for x in _GAMMA_GRID_X:
                xm = mp.mpf(x)
                lhs = inc_gamma(s + 1, xm)
                rhs = mp.mpf(s.numerator) / s.denominator * inc_gamma(s, xm) \
                    + xm ** (mp.mpf(s.numerator) / s.denominator) * mp.e ** (-xm)
                rel = abs(lhs - rhs) / abs(lhs)
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
    return {"check": "gamma-grid", "functional_equation": rows, "asymptotic": asym,
            "pass": ok}, [] if ok else ["gamma-grid"], ()


def _config_and_point(args):
    """The --psi/--chi pair (kronecker -4 and 8 by default) at --l, and tau."""
    from .numeric import UpperHalfPoint
    psi = _parse_char(args.psi, "--psi") if args.psi else char_kronecker(-4)
    chi = _parse_char(args.chi, "--chi") if args.chi else char_kronecker(8)
    return ProjectionConfig(psi, chi, args.l, 1, modes=()), UpperHalfPoint(args.tau_u, args.tau_v)


def _xi(args):
    import mpmath as mp
    from .numeric import xi_check
    with _inputs():  # every input is rejected before any computation
        cfg, point = _config_and_point(args)
        h, tolerance = mp.mpf(args.h), mp.mpf(args.tolerance)
        if not (mp.isfinite(h) and h > 0 and mp.isfinite(tolerance) and tolerance >= 0):
            raise ValueError(f"need finite --h > 0 and --tolerance >= 0, got {args.h}, {args.tolerance}")
        res = xi_check(cfg, point, args.h, cutoff=args.cutoff)
    ok = bool(res.rel_error <= tolerance)
    return {
        "check": "xi", "l": args.l,
        "point": {"u": args.tau_u, "v": args.tau_v},
        "h": args.h,
        "comparison": {
            "finite_difference": _c_str(res.fd_value),
            "closed_formula": _c_str(res.closed_value),
        },
        "rel_error": mp.nstr(res.rel_error, 8),
        "tolerance": args.tolerance,
        "pass": ok,
    }, [] if ok else ["xi"], ()


def _f_minus(args):
    import mpmath as mp
    from .numeric import eval_f_minus
    with _inputs():  # the tail bound is checked before any computation
        res = eval_f_minus(*_config_and_point(args), args.cutoff)
    return {
        "check": "f-minus", "l": args.l,
        "point": {"u": args.tau_u, "v": args.tau_v},
        "value": _c_str(res.value),
        "tail_estimate": mp.nstr(res.tail_estimate, 5),
        "cutoff": res.cutoff,
        "terms_used": res.terms_used,
    }, [], ()


def _eichler(args):
    import mpmath as mp
    from .numeric import UpperHalfPoint, calibrate_eichler
    char = _parse_char(args.char, "--char") if args.char else char_kronecker(8)
    fit = UpperHalfPoint("0.1", "1.0")
    verify = [UpperHalfPoint("0.3", "0.9"), UpperHalfPoint("-0.2", "1.3"),
              UpperHalfPoint("0.05", "0.7"), UpperHalfPoint("0", "2.0"),
              UpperHalfPoint("0.4", "1.1")]
    with _inputs():  # the shift and the character are rejected before any quadrature
        cal = calibrate_eichler(char, args.lam_shift, fit, verify)
    ok = all(e <= mp.mpf("1e-8") for e in cal.rel_errors)
    return {
        "check": "eichler",
        "constant": _c_str(cal.constant),
        "verification_rel_errors": [mp.nstr(e, 5) for e in cal.rel_errors],
        "tolerance": "1e-8",
        "pass": ok,
    }, [] if ok else ["eichler"], ()


# each numeric check loads mpmath and numeric itself: no other command uses them
_NUMERIC_CHECKS = {"gamma-grid": _gamma_grid, "xi": _xi, "f-minus": _f_minus, "eichler": _eichler}


def _theta_options(p) -> None:
    p.add_argument("--char", required=True, help="kronecker:D or inline JSON spec")
    p.add_argument("--pow", type=int, default=1)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--csv", default=None, help="also write the coefficient table as CSV")


def _sigma_table_options(p) -> None:
    p.add_argument("--psi", required=True)
    p.add_argument("--chi", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--placement", default="psi_on_larger",
                   choices=[c.value for c in CharacterPlacement])
    p.add_argument("--orientation", default="prefactor_on_larger", choices=ORIENTATIONS)


def _verify_options(p) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--workers", type=int, default=1, help="processes that run the report's "
                   "sides (sigma, ordered, full per bound) in parallel; 1 runs them in order")
    p.add_argument("--no-timestamp", action="store_true")


def _closed_forms_options(p) -> None:
    p.add_argument("--orientation", default="prefactor_on_larger", choices=ORIENTATIONS)


def _calibrate_options(p) -> None:
    from .calibrate import CAL_FAMILIES  # the calibrations load only for this command
    p.add_argument("--family", required=True, choices=CAL_FAMILIES)
    p.add_argument("--psi", required=True)
    p.add_argument("--chi", required=True)
    p.add_argument("--probes", type=int, default=12)
    p.add_argument("--verify-rows", type=int, default=120)


def _numeric_options(p) -> None:
    p.add_argument("check", choices=list(_NUMERIC_CHECKS))
    p.add_argument("--l", type=int, default=4)
    p.add_argument("--psi", default=None)
    p.add_argument("--chi", default=None)
    p.add_argument("--char", default=None, help="character for the eichler check")
    p.add_argument("--tau-u", default="0.1")
    p.add_argument("--tau-v", default="0.8")
    p.add_argument("--h", default="1e-5")
    p.add_argument("--cutoff", type=int, default=400)
    p.add_argument("--lam-shift", type=int, default=0)
    p.add_argument("--tolerance", default="1e-5")


# name: (help, the adder of its own options, the function that runs it), in --help's order
_COMMANDS = {
    "theta": ("theta series / power expansion", _theta_options, _cmd_theta),
    "sigma-table": ("small divisor function table", _sigma_table_options, _cmd_sigma_table),
    "verify": ("run the residual ledger from a JSON config", _verify_options, _cmd_verify),
    "closed-forms": ("kernel closed-form cross-check", _closed_forms_options, _cmd_closed_forms),
    "calibrate": ("calibrate-then-verify a 1-dim instance", _calibrate_options, _cmd_calibrate),
    "numeric": ("floating-point companion checks", _numeric_options,
                lambda args: _NUMERIC_CHECKS[args.check](args)),
}


def build_parser(commands=_COMMANDS) -> argparse.ArgumentParser:
    """The parser with the subparsers of `commands` (all by default), each
    with its own options and --out, the report's path ("-", the default: stdout)."""
    p = argparse.ArgumentParser(prog="holoproj")
    sub = p.add_subparsers(dest="command", required=True)
    for name in commands:
        help_text, options, run = _COMMANDS[name]
        command = sub.add_parser(name, help=help_text)
        options(command)
        command.add_argument("--out", default="-")
        command.set_defaults(func=run)
    return p


def main(argv=None) -> int:
    """Run one command on argv (default sys.argv[1:]) and write its outputs;
    the exit code (module docstring).  The cyclic collector is paused for the
    run (gc.disable, enabled again on the way out however the run ends, if it
    was on): the engine makes no reference cycles, so a collection during it
    would only walk the heap and find nothing.  A caller that froze objects
    or disabled the collector keeps that as is."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    finally:
        if was_on:
            gc.enable()


def _run(argv: list) -> int:
    # a run builds only its own command's subparser; --help, a missing or an
    # unknown command needs them all, to list them
    parser = build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    args = parser.parse_args(argv)
    try:
        # a command returns its report, its asserted failures and its CSV rows
        obj, failures, csv_rows = args.func(args)
        _write_outputs(args.out, obj, getattr(args, "csv", None), csv_rows)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
