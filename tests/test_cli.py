import csv
import gc
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from datetime import datetime, timedelta, timezone
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from holoproj import cli, rings
from holoproj.calibrate import CAL_FAMILIES
from holoproj.cli import main
from holoproj.smalldiv import CharacterPlacement


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "psi": {"kronecker": -4},
        "chi": {"kronecker": 8},
        "l": 1,
        "rmax": 40,
        "modes": ["ordered", "full"],
        "B": 1600,
        "closed_forms": True,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_theta_command_fourth_power(tmp_path):
    out = tmp_path / "theta.json"
    assert run_cli("theta", "--char", "kronecker:-4", "--pow", "4",
                   "--terms", "100", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    rows = {r["exponent"]: r["value"] for r in data["series"]["rows"]}
    assert rows[4] == "1"
    assert rows[12] == "-12"
    assert data["series"]["truncation"] == 100


def test_theta_command_chi8(tmp_path):
    out = tmp_path / "theta8.json"
    csv_out = tmp_path / "theta8.csv"
    assert run_cli("theta", "--char", "kronecker:8", "--pow", "1",
                   "--terms", "50", "--out", str(out), "--csv", str(csv_out)) == 0
    rows = {r["exponent"]: r["value"]
            for r in json.loads(out.read_text())["series"]["rows"]}
    assert rows == {1: "1", 9: "-1", 25: "-1", 49: "1"}
    assert csv_out.read_text().splitlines() == [
        "exponent,value", "1,1", "9,-1", "25,-1", "49,1"]


def test_theta_and_verify_run_past_the_recursion_limit(tmp_path):
    """A power above the interpreter's recursion limit: the lattice walk
    keeps its prefixes on a stack, so both commands exit 0."""
    assert 1200 > sys.getrecursionlimit()
    out = tmp_path / "theta.json"
    assert run_cli("theta", "--char", "kronecker:-4", "--pow", "1200",
                   "--terms", "1300", "--out", str(out)) == 0
    rows = {r["exponent"]: r["value"] for r in json.loads(out.read_text())["series"]["rows"]}
    assert (rows[1200], rows[1208]) == ("1", "-3600")
    config, report = tmp_path / "cfg.json", tmp_path / "report.json"
    config.write_text(json.dumps({"psi": {"kronecker": -4}, "chi": {"kronecker": 8}, "l": 1200,
                                  "rmax": 40, "modes": ["full"], "B": 1300}))
    assert run_cli("verify", "--config", str(config), "--out", str(report)) == 0
    assert len(json.loads(report.read_text())["rows"]) == 40


def test_theta_missing_char_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli("theta", "--pow", "1", "--terms", "10")
    assert err.value.code == 2


def test_theta_invalid_char_config_error(tmp_path, capsys):
    rc = run_cli("theta", "--char", "kronecker:9", "--terms", "10",
                 "--out", str(tmp_path / "x.json"))
    assert rc == 2
    assert "char" in capsys.readouterr().err


def test_theta_char_with_a_string_discriminant_exits_2(tmp_path, capsys):
    assert run_cli("theta", "--char", '{"kronecker": "-4"}', "--terms", "10",
                   "--out", str(tmp_path / "x.json")) == 2
    assert capsys.readouterr().err.startswith("config error: --char: ")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv,code", [(["--help"], 0), (["verify", "--help"], 0),
                                       (["nosuch"], 2), (["verify"], 2)])
def test_main_prints_what_the_whole_parser_tree_prints(argv, code, capsys, monkeypatch):
    """main builds only the named command's subparser, and every command's
    for --help or an unknown command; what it prints and its exit code are
    those of the tree with every subparser."""
    from holoproj import cli

    def exit_and_output(parse):
        with pytest.raises(SystemExit) as stop:
            parse(list(argv))
        return (stop.value.code, *capsys.readouterr())

    whole = exit_and_output(lambda a: cli.build_parser().parse_args(a))
    built = []
    for name, (help_text, options, run) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, (
            help_text, lambda p, name=name, add=options: (built.append(name), add(p)), run))
    assert exit_and_output(main) == whole
    assert whole[0] == code
    assert built == (["verify"] if argv[0] == "verify" else list(cli._COMMANDS))


# a small run of each command that exits 0; {config} is an ordered-only verify config
SMALL_RUNS = {
    "theta": ("--char", "kronecker:-4", "--terms", "10"),
    "sigma-table": ("--psi", "kronecker:-4", "--chi", "kronecker:8", "--l", "4", "--rmax", "12"),
    "verify": ("--config", "{config}"),
    "closed-forms": (),
    "calibrate": ("--family", "classical-d", "--psi", "kronecker:-4", "--chi", "kronecker:-4",
                  "--verify-rows", "12"),
    "numeric": ("gamma-grid",),
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_command_takes_out_dash_for_stdout(command, tmp_path, capsys):
    config = write_config(tmp_path, l=4, rmax=12, modes=["ordered"], B=None, closed_forms=False)
    argv = [str(config) if a == "{config}" else a for a in SMALL_RUNS[command]]
    assert run_cli(command, *argv, "--out", "-") == 0
    assert json.loads(capsys.readouterr().out)
    assert list(tmp_path.iterdir()) == [config]


def test_help_lists_the_commands_in_order_and_out_after_their_options(capsys):
    with pytest.raises(SystemExit) as stop:
        run_cli("--help")
    assert stop.value.code == 0
    assert re.search(r"\{(.*?)\}", capsys.readouterr().out).group(1).split(",") == [
        "theta", "sigma-table", "verify", "closed-forms", "calibrate", "numeric"]
    for command in cli._COMMANDS:
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
        options = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("  -")]
        assert options[-1] == "--out", (command, options)


def test_an_ordered_config_with_b_below_rmax_exits_2(tmp_path, capsys):
    """B >= rmax is checked whenever B is given, not only in full mode."""
    path = write_config(tmp_path, l=4, rmax=12, modes=["ordered"], B=-3, closed_forms=False)
    out = tmp_path / "out.json"
    assert run_cli("verify", "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: need B >= rmax, got B=-3 < 12"]
    assert not out.exists()


BAD_SPEC = '{"kronecker": "-4"}'


@pytest.mark.parametrize("argv,flag", [
    (("sigma-table", "--psi", BAD_SPEC, "--chi", "kronecker:8", "--l", "4", "--rmax", "8"),
     "--psi"),
    (("sigma-table", "--psi", "kronecker:-4", "--chi", "kronecker:x", "--l", "4", "--rmax", "8"),
     "--chi"),
    (("calibrate", "--family", "classical-d", "--psi", BAD_SPEC, "--chi", "kronecker:-4"),
     "--psi"),
    (("numeric", "xi", "--chi", "{not json"), "--chi"),
    (("numeric", "f-minus", "--psi", "kronecker:-4x"), "--psi"),
    (("theta", "--char", "nonsense", "--terms", "10"), "--char"),
], ids=["sigma-table-psi", "sigma-table-chi", "calibrate", "xi", "f-minus", "theta-prefix"])
def test_a_bad_character_spec_names_its_flag(argv, flag, tmp_path, capsys):
    assert run_cli(*argv, "--out", str(tmp_path / "x.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "x.json").exists()


def test_verify_one_dimensional_closure(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "report.json"
    rc = run_cli("verify", "--config", str(cfg), "--out", str(out), "--no-timestamp")
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["verdicts"]["full_residual"] == "confirmed"
    assert all(row["residual_full"] == "0" for row in data["rows"])
    assert "timestamp" not in data


def test_verify_l4_ordered_exit_zero(tmp_path):
    cfg = write_config(tmp_path, l=4, rmax=30, modes=["ordered"], B=None,
                       closed_forms=False)
    out = tmp_path / "r4.json"
    rc = run_cli("verify", "--config", str(cfg), "--out", str(out), "--no-timestamp")
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["verdicts"]["ordered_residual"] == "zero"
    assert data["asserted_failures"] == []


def test_verify_l2_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, l=2)
    rc = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "x.json"))
    assert rc == 2
    assert "excluded" in capsys.readouterr().err


def test_verify_full_discrepancy_does_not_fail_exit(tmp_path):
    cfg = write_config(tmp_path, l=4, rmax=16, modes=["ordered", "full"],
                       B=256, b_schedule=[128, 256], closed_forms=False)
    out = tmp_path / "r4full.json"
    rc = run_cli("verify", "--config", str(cfg), "--out", str(out), "--no-timestamp")
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["verdicts"]["full_residual"] == "discrepancy documented"
    assert data["lemma_gap_witnesses"]


def test_verify_swapped_placement_fails_asserted_check(tmp_path):
    # the swapped character printing breaks the divisor/pair bijection, which
    # is an asserted check: exit code 1, failure named in the report
    cfg = write_config(tmp_path, l=4, rmax=32, modes=["ordered"], B=None,
                       placement="chi_on_larger", closed_forms=False)
    out = tmp_path / "swapped.json"
    rc = run_cli("verify", "--config", str(cfg), "--out", str(out), "--no-timestamp")
    assert rc == 1
    data = json.loads(out.read_text())
    assert data["verdicts"]["ordered_residual"] == "NONZERO"
    assert data["asserted_failures"]


def _with_verdict(real, verdict):
    def run(*args, **kwargs):
        report = real(*args, **kwargs)
        report.verdicts["full_residual"] = verdict
        return report
    return run


def test_verify_one_dimensional_closure_failure_exits_1(tmp_path, monkeypatch):
    import holoproj.cli
    monkeypatch.setattr("holoproj.cli.residual_report",
                        _with_verdict(holoproj.cli.residual_report, "discrepancy documented"))
    cfg = write_config(tmp_path, rmax=8, B=64, closed_forms=False)
    out = tmp_path / "r.json"
    assert run_cli("verify", "--config", str(cfg), "--out", str(out), "--no-timestamp") == 1
    assert json.loads(out.read_text())["asserted_failures"] == ["one-dimensional closure failed"]


def test_verify_closed_form_without_a_reading_exits_1(tmp_path, monkeypatch):
    import holoproj.cli
    real = holoproj.cli.verify_closed_forms

    def one_unmatched(orientation):
        closed = real(orientation)
        closed["identities"][0]["match"] = False
        return closed

    monkeypatch.setattr("holoproj.cli.verify_closed_forms", one_unmatched)
    cfg = write_config(tmp_path, l=4, rmax=8, modes=["ordered"], B=None)
    out = tmp_path / "r.json"
    assert run_cli("verify", "--config", str(cfg), "--out", str(out), "--no-timestamp") == 1
    assert json.loads(out.read_text())["asserted_failures"] == [
        "closed forms without a matching reading: ['kappa=6 (l=4)']"]


class _Boom(Exception):
    pass


def _outcome_argv(outcome, tmp_path, monkeypatch):
    """argv for a verify run that ends as outcome says: an exit code, an
    argparse usage error (SystemExit 2) or an exception from the run."""
    if outcome == "usage":
        return ["verify", "--no-such-option"]
    if outcome == "raises":
        def report(*args, **kwargs):
            raise _Boom
        monkeypatch.setattr("holoproj.cli.residual_report", report)
    fields = {"exit 1": dict(l=4, rmax=32, modes=["ordered"], B=None,
                             placement="chi_on_larger", closed_forms=False),
              "exit 2": dict(l=2)}.get(outcome, dict(rmax=8, B=64, closed_forms=False))
    cfg = write_config(tmp_path, **fields)
    return ["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json"), "--no-timestamp"]


@pytest.mark.parametrize("caller", ["collector on", "collector off", "froze objects"])
@pytest.mark.parametrize("outcome", ["exit 0", "exit 1", "exit 2", "usage", "raises"])
def test_main_leaves_the_collector_as_it_found_it(outcome, caller, tmp_path, monkeypatch):
    """The command runs with the collector paused; after it, however it
    ended, gc.isenabled() and the freeze count are what they were (less any
    frozen object the run freed), and objects a caller froze before the call
    are still frozen (tracked, in no generation)."""
    enabled_during, run = [], cli._run

    def watched(argv):
        enabled_during.append(gc.isenabled())
        return run(argv)
    monkeypatch.setattr(cli, "_run", watched)
    argv = _outcome_argv(outcome, tmp_path, monkeypatch)
    marker, was_on = [object()], gc.isenabled()
    if caller == "collector off":
        gc.disable()
    elif caller == "froze objects":
        gc.freeze()
    try:
        before = gc.get_freeze_count(), gc.isenabled()
        if outcome in ("usage", "raises"):
            with pytest.raises(SystemExit if outcome == "usage" else _Boom) as info:
                main(argv)
            assert outcome == "raises" or info.value.code == 2
        else:
            assert main(argv) == int(outcome[-1])
        after = gc.get_freeze_count(), gc.isenabled()
        if caller == "froze objects":
            # a frozen object the run frees leaves the permanent generation
            assert 0 < after[0] <= before[0] and after[1] == before[1]
            assert gc.is_tracked(marker) and not any(o is marker for o in gc.get_objects())
        else:
            assert after == before
    finally:
        if caller == "froze objects":
            gc.unfreeze()
        if was_on:
            gc.enable()
    assert enabled_during == [False]


def test_verify_csv_mirror(tmp_path):
    cfg = write_config(tmp_path, rmax=10, B=100)
    out = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    rc = run_cli("verify", "--config", str(cfg), "--out", str(out),
                 "--csv", str(csv_path), "--no-timestamp")
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("r,sigma,ordered,full")
    assert len(lines) == 11


def test_verify_csv_of_an_ordered_only_run_leaves_the_full_cells_empty(tmp_path):
    cfg = write_config(tmp_path, rmax=6, modes=["ordered"], B=None, closed_forms=False)
    csv_path = tmp_path / "r.csv"
    assert run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "r.json"),
                   "--csv", str(csv_path), "--no-timestamp") == 0
    with csv_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["r"] for row in rows] == [str(r) for r in range(1, 7)]
    for row in rows:
        assert row["full"] == row["tail_delta"] == row["residual_full"] == ""
        assert row["ordered"] and row["residual_ordered"] == "0"


@pytest.mark.parametrize("fields,workers", [
    ({"rmax": 12, "modes": ["ordered", "full"], "B": 128}, "2"),
    ({"rmax": 40, "modes": ["ordered"], "B": None}, "8"),  # two sides, fewer than the workers
])
def test_verify_reports_are_deterministic(fields, workers, tmp_path):
    cfg = write_config(tmp_path, l=4, closed_forms=True, **fields)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("verify", "--config", str(cfg), "--out", str(out1),
                   "--no-timestamp", "--workers", "1") == 0
    assert run_cli("verify", "--config", str(cfg), "--out", str(out2),
                   "--no-timestamp", "--workers", workers) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sigma_table(tmp_path):
    out = tmp_path / "table.json"
    rc = run_cli("sigma-table", "--psi", "kronecker:-4", "--chi", "kronecker:8",
                 "--l", "4", "--rmax", "32", "--out", str(out))
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["rows"] == [{"n": [8, 8, 8, 8], "sigma_sm": "-8192/729"}]


QUARTIC_MOD5 = json.dumps({"modulus": 5, "values": [
    "0", "1", {"order": 4, "coords": ["0", "1"]}, {"order": 4, "coords": ["0", "-1"]}, "-1"]})


def test_verify_writes_values_past_the_int_str_limit(tmp_path, default_int_str_limit):
    """Full mode at B = 8192 gives coefficients of more than 4300 digits,
    CPython's default int->str limit."""
    cfg = write_config(tmp_path, l=4, rmax=40, modes=["full"], b_schedule=[8192], B=8192)
    out = tmp_path / "report.json"
    assert run_cli("verify", "--config", str(cfg), "--out", str(out), "--no-timestamp") == 0
    assert sys.get_int_max_str_digits() == default_int_str_limit
    text = out.read_text()
    json.loads(text)
    assert max(len(word) for word in text.split('"')) > default_int_str_limit


def test_ordered_verify_at_l10_rmax300(tmp_path):
    """The frontier of the ordered side: kronecker -4 and 8 at l = 10 and
    rmax = 300, where sigma is first nonzero at r = 8l = 80.  No time is
    asserted; the composition walks the graded powers replaced did not finish
    this run in 600 s, so the CI job's timeout catches a return to them."""
    cfg = write_config(tmp_path, l=10, rmax=300, modes=["ordered"], B=None, closed_forms=False)
    out = tmp_path / "report.json"
    assert run_cli("verify", "--config", str(cfg), "--out", str(out), "--no-timestamp") == 0
    report = json.loads(out.read_text())
    assert report["verdicts"] == {"ordered_residual": "zero"}
    assert next(row["r"] for row in report["rows"] if row["sigma"] != "0") == 80


def _rows_or_error(fn):
    try:
        return fn()
    except ValueError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("psi", ["kronecker:-4", QUARTIC_MOD5], ids=["kron_m4", "quartic_mod5"])
@pytest.mark.parametrize("placement", ["psi_on_larger", "chi_on_larger"])
@pytest.mark.parametrize("l, rmax", [(1, 40), (3, 26), (4, 32), (6, 18)])
def test_sigma_table_matches_every_composition(tmp_path, psi, placement, l, rmax):
    """Rows and their order equal those of sigma_sm on every composition.  At
    odd l the kernel needs square norms that sigma_sm does not meet, and the
    CLI rejects the dimension up front."""
    from holoproj.cli import _parse_char
    from holoproj.projection import CharacterPlacement, ProjectionConfig, compositions
    from holoproj.rings import value_to_json
    from holoproj.smalldiv import MultiIndex, sigma_sm

    out = tmp_path / "table.json"
    argv = ("sigma-table", "--psi", psi, "--chi", "kronecker:8", "--l", str(l),
            "--rmax", str(rmax), "--placement", placement, "--out", str(out))

    def brute_force():
        cfg = ProjectionConfig(_parse_char(psi, "--psi"), _parse_char("kronecker:8", "--chi"),
                               l, rmax, modes=("ordered",),
                               placement=CharacterPlacement(placement))
        kernel, rows = cfg.kernel(), []
        for r in range(1, rmax + 1):
            for parts in compositions(r, l):
                val = sigma_sm(MultiIndex(parts), cfg.psi, cfg.chi, kernel, cfg.placement)
                if not val.is_zero():
                    rows.append({"n": list(parts), "sigma_sm": value_to_json(val)})
        return rows

    want = _rows_or_error(brute_force)
    if l == 3:
        assert want == "NonSquareArgumentError"
        assert run_cli(*argv) == 2 and not out.exists()
        return
    assert run_cli(*argv) == 0
    assert json.loads(out.read_text())["rows"] == want


def test_closed_forms_command(tmp_path):
    out = tmp_path / "forms.json"
    assert run_cli("closed-forms", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert all(i["match"] for i in data["identities"])
    k10 = next(i for i in data["identities"] if i["name"] == "kappa=10 (l=8)")
    assert not k10["candidates"]["trailing=x^4 (as printed)"]["match"]


def test_calibrate_command(tmp_path):
    out = tmp_path / "cal.json"
    rc = run_cli("calibrate", "--family", "classical-d", "--psi", "kronecker:-4",
                 "--chi", "kronecker:-4", "--probes", "12", "--verify-rows", "60",
                 "--out", str(out))
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["consistent"] is True
    assert data["scalars"] == {"alpha": "0", "C": "-1"}


def test_numeric_gamma_grid(tmp_path):
    out = tmp_path / "gamma.json"
    assert run_cli("numeric", "gamma-grid", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert all(row["pass"] for row in data["functional_equation"])


def test_numeric_xi(tmp_path):
    out = tmp_path / "xi.json"
    rc = run_cli("numeric", "xi", "--l", "4", "--tau-u", "0.1", "--tau-v", "0.8",
                 "--h", "1e-5", "--cutoff", "300", "--out", str(out))
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True


def test_numeric_f_minus(tmp_path):
    out = tmp_path / "f.json"
    assert run_cli("numeric", "f-minus", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert (data["check"], data["l"], data["point"]) == ("f-minus", 4, {"u": "0.1", "v": "0.8"})
    assert (data["cutoff"], data["terms_used"]) == (400, 50)
    assert set(data["value"]) == {"re", "im"}
    assert float(data["tail_estimate"]) < 1e-100


NUMERIC_KEYS = {
    "gamma-grid": ["check", "functional_equation", "asymptotic", "pass"],
    "xi": ["check", "l", "point", "h", "comparison", "rel_error", "tolerance", "pass"],
    "f-minus": ["check", "l", "point", "value", "tail_estimate", "cutoff", "terms_used"],
    "eichler": ["check", "constant", "verification_rel_errors", "tolerance", "pass"],
}


@pytest.mark.parametrize("argv, code", [
    (("gamma-grid",), 0),
    (("xi", "--tolerance", "0"), 1),
    (("f-minus",), 0),
    (("eichler", "--char", "kronecker:8"), 0),
])
def test_numeric_reports_are_written_whatever_the_exit_code(argv, code, tmp_path):
    """A failed check still writes its report, with "pass": false, and exits
    1; each report keeps its key order."""
    out = tmp_path / "report.json"
    assert run_cli("numeric", *argv, "--out", str(out)) == code
    data = json.loads(out.read_text())
    assert list(data) == NUMERIC_KEYS[argv[0]]
    assert data.get("pass", True) is (code == 0)


def test_verify_rejects_a_huge_order_before_building_its_polynomial(
        tmp_path, capsys, no_large_cyclotomic_polynomial):
    """A value at order 10^9 with one coordinate is a config error, found by
    counting phi(10^9) coordinates, not by building Phi_(10^9)."""
    psi = json.loads(QUARTIC_MOD5)
    psi["values"][2] = {"order": 10 ** 9, "coords": ["1"]}
    path = write_config(tmp_path, psi=psi, l=4, rmax=8, B=32)
    out = tmp_path / "out.json"
    assert run_cli("verify", "--config", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert "phi(1000000000)" in err[0]
    assert not out.exists()


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "holoproj.cli", "closed-forms", "--out", "-"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["identities"]


SIGMA_TABLE = ("sigma-table", "--psi", "kronecker:-4", "--chi", "kronecker:8")


@pytest.mark.parametrize("argv", [
    ("theta", "--char", "kronecker:-4", "--terms", "0"),
    ("theta", "--char", "kronecker:-4", "--terms", "10", "--pow", "0"),
    ("numeric", "xi", "--h", "abc"),
    ("numeric", "xi", "--l", "2"),
    ("calibrate", "--family", "classical-d", "--psi", "kronecker:-4",
     "--chi", "kronecker:-4", "--probes", "1"),
    ("verify", "--config", "{list_config}"),
    ("numeric", "xi", "--tolerance", "abc"),
    ("numeric", "xi", "--tau-v", "0.01"),
    ("numeric", "xi", "--tau-v", "3"),
    ("numeric", "f-minus", "--cutoff", "1"),
    SIGMA_TABLE + ("--l", "3", "--rmax", "26"),
    SIGMA_TABLE + ("--l", "5", "--rmax", "40"),
    ("verify", "--config", "{odd_ordered_config}"),
    ("theta", "--char", "kronecker:-4", "--terms", "10", "--out", "{missing}/x.json"),
    ("theta", "--char", "kronecker:-4", "--terms", "10", "--out", "-", "--csv", "{missing}/x.csv"),
    SIGMA_TABLE + ("--l", "4", "--rmax", "12", "--out", "{missing}/x.json"),
    ("closed-forms", "--out", "{missing}/x.json"),
    ("verify", "--config", "{small_config}", "--out", "{missing}/x.json"),
    ("verify", "--config", "{small_config}", "--out", "-", "--csv", "{missing}/x.csv"),
    ("theta", "--char", "kronecker:-4", "--terms", "10", "--csv", "{missing}/x.csv"),
    ("verify", "--config", "{small_config}", "--csv", "{missing}/x.csv"),
    ("theta", "--char", "kronecker:1", "--terms", "10"),
    ("calibrate", "--family", "classical-d", "--psi", "kronecker:-4",
     "--chi", "kronecker:-4", "--verify-rows", "-3"),
    ("theta", "--char", "kronecker:-4", "--terms", "10", "--out", "{missing}/x.json",
     "--csv", "{kept_csv}"),
    ("theta", "--char", "kronecker:-4", "--terms", "10", "--out", "{missing}/x.json",
     "--csv", "{fresh_csv}"),
    ("theta", "--char", "kronecker:-4", "--terms", "10", "--out", "{kept_json}",
     "--csv", "{missing}/x.csv"),
    ("verify", "--config", "{small_config}", "--out", "{missing}/x.json", "--csv", "{kept_csv}"),
    ("verify", "--config", "{small_config}", "--out", "{missing}/x.json", "--csv", "{fresh_csv}"),
    ("numeric", "eichler", "--lam-shift", "2"),
    ("numeric", "eichler", "--char", "kronecker:1"),
    ("numeric", "xi", "--tau-v", "nan"),
    ("numeric", "f-minus", "--tau-u", "inf"),
    ("numeric", "xi", "--h", "nan"),
    ("numeric", "xi", "--tolerance=-1"),
    ("numeric", "f-minus", "--cutoff=-1"),
    ("numeric", "xi", "--tau-v", "1e-12"),
    ("numeric", "f-minus", "--tau-v", "1e400"),
    ("theta", "--char", "kronecker:-4", "--terms", "10", "--out", "{kept_json}",
     "--csv", "{kept_json}"),
    ("theta", "--char", "kronecker:-4", "--terms", "10", "--out", "{fresh_csv}",
     "--csv", "{fresh_csv}"),
    ("verify", "--config", "{small_config}", "--out", "{kept_json}", "--csv", "{kept_json}"),
    ("verify", "--config", "{small_config}", "--out", "{fresh_csv}", "--csv", "{fresh_csv}"),
])
def test_usage_errors_exit_2_with_one_line(argv, tmp_path, capsys):
    """A case that names its own --out (an unwritable path, a kept file, the
    --csv file, or - with an unwritable --csv) keeps it; every other case
    writes to x.json.
    No output is left behind, and a file that was there keeps its bytes."""
    list_config = tmp_path / "list.json"
    list_config.write_text("[1, 2]")
    kept = {tmp_path / "kept.csv": b"exponent,value\r\n1,1\r\n", tmp_path / "kept.json": b"{}\n"}
    for path, data in kept.items():
        path.write_bytes(data)
    paths = {
        "kept_csv": tmp_path / "kept.csv",
        "kept_json": tmp_path / "kept.json",
        "fresh_csv": tmp_path / "fresh.csv",
        "list_config": list_config,
        "odd_ordered_config": write_config(tmp_path, "odd.json", l=3, rmax=12, modes=["ordered"]),
        "small_config": write_config(tmp_path, "small.json", rmax=4, modes=["ordered"],
                                     closed_forms=False),
        "missing": tmp_path / "missing",
    }
    argv = [a.format(**paths) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "x.json")]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    assert not (tmp_path / "x.json").exists()
    assert not (tmp_path / "fresh.csv").exists()
    assert {path: path.read_bytes() for path in kept} == kept


@pytest.mark.parametrize("csv_name, link, kept", [
    ("./x.json", None, False), ("./x.json", None, True), ("y.csv", os.symlink, True),
    ("y.csv", os.link, True)])
def test_csv_naming_the_out_file_another_way_is_refused(csv_name, link, kept, tmp_path,
                                                        monkeypatch, capsys):
    """--csv spelled ./x.json, or a symlink or a hard link y.csv to --out
    x.json, is the same file: exit 2 on one `config error: --csv:` line, and
    x.json keeps its bytes, or is gone again when this run created it."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "x.json"
    if kept:
        out.write_bytes(b"{}\n")
    if link:
        link(out, tmp_path / "y.csv")
    assert run_cli("theta", "--char", "kronecker:-4", "--terms", "10", "--out", "x.json",
                   "--csv", csv_name) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --csv: "), err
    assert (out.read_bytes() == b"{}\n") if kept else not out.exists()


def test_a_dangling_csv_link_keeps_no_file_after_a_usage_error(tmp_path, monkeypatch, capsys):
    """--csv link.csv -> target.csv, missing at the start: opening the link
    makes target.csv, and when --out then cannot be opened the run exits 2
    with target.csv gone again and the link left as it was."""
    monkeypatch.chdir(tmp_path)
    os.symlink("target.csv", "link.csv")
    assert run_cli("theta", "--char", "kronecker:-4", "--terms", "10", "--csv", "link.csv",
                   "--out", "missing/x.json") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --out: "), err
    assert sorted(os.listdir(tmp_path)) == ["link.csv"]
    assert os.readlink("link.csv") == "target.csv"


# text with what JSON must escape: quotes, backslashes, control characters,
# non-ASCII, astral and lone surrogates
_JSON_TEXT = st.lists(st.sampled_from(['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "\u00e9",
                                       "\u2028", "\U0001f600", "\ud800", "\udfff"])
                      | st.characters(exclude_categories=())).map("".join)
_JSON_INTS = st.integers() | st.integers(0, 1200).map(lambda k: (-7) ** k)
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | _JSON_INTS | _JSON_TEXT,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(_JSON_TEXT, kids),
    max_leaves=40)


def _nested(depth):
    """Lists and dicts alternating `depth` deep, each with an empty neighbour."""
    tree = "leaf"
    for level in range(depth):
        tree = [tree, []] if level % 2 else {"k": tree, "": {}, "t": (True, 0, False, None)}
    return tree


@settings(max_examples=300, deadline=None)
@given(obj=_JSON_TREES)
@example(obj=_nested(80))
@example(obj=[True, 1, False, 0, 10 ** 4000, -1, (), {}, [], ("",)])
def test_dump_writes_the_bytes_of_json_dumps_indent_2(obj):
    buf = StringIO()
    cli._dump(obj, buf)
    assert buf.getvalue() == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [1.5, {1, 2}, [0, {"a": 0.25}], {"a": [frozenset()]}],
                         ids=["float", "set", "nested float", "nested set"])
def test_dump_refuses_what_no_report_holds(obj):
    with pytest.raises(TypeError, match="float|set"):
        cli._dump(obj, StringIO())


def _wide_report():
    """A verify-shaped report of about 2.5 MB: rows of wide rationals."""
    def wide(k):
        return f"{(-7) ** (400 + k % 97)}/{3 ** (k % 211)}"
    return {"config": {"l": 4, "b_schedule": [4096, 16384]},
            "rows": [{"r": r, "full": {"order": 4, "coords": [wide(r), wide(r + 1)]},
                      "tail_delta": wide(3 * r), "excess": r % 3 == 0} for r in range(1, 1700)],
            "verdicts": {"full_residual": "discrepancy documented"}}


class _Writes(list):
    """A text stream that keeps each write."""
    def write(self, text):
        self.append(text)
        return len(text)


def test_a_report_is_streamed_in_writes_far_smaller_than_itself(tmp_path, monkeypatch):
    """To stdout and to a file, the report has the bytes of json.dumps, and
    neither the writes nor the memory the writer allocates come near its
    size: it never exists as one string."""
    obj = _wide_report()
    text = json.dumps(obj, indent=2) + "\n"
    assert len(text) >= 2_000_000
    writes = _Writes()
    monkeypatch.setattr(sys, "stdout", writes)
    cli._write_outputs("-", obj, None, ())
    assert "".join(writes) == text
    assert max(map(len, writes)) < len(text) // 10
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        cli._write_outputs(str(out), obj, None, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text)
    assert out.read_text() == text


@pytest.mark.parametrize("now_ns, stamp", [
    (None, None), (1_700_000_000 * 10 ** 9, "2023-11-14T22:13:20+00:00"),
    (1_700_000_000 * 10 ** 9 + 7_999, "2023-11-14T22:13:20.000007+00:00")],
    ids=["now", "whole second", "7 us"])
def test_the_report_timestamp_is_isoformat_in_utc(now_ns, stamp, tmp_path, monkeypatch):
    """The timestamp spells the time as datetime.isoformat() does in UTC: the
    microseconds only when nonzero."""
    if now_ns is not None:
        monkeypatch.setattr(time, "time_ns", lambda: now_ns)
    cfg = write_config(tmp_path, rmax=8, B=64, closed_forms=False)
    out = tmp_path / "r.json"
    assert run_cli("verify", "--config", str(cfg), "--out", str(out)) == 0
    written = json.loads(out.read_text())["timestamp"]
    when = datetime.fromisoformat(written)
    assert when.utcoffset() == timedelta(0) and written.endswith("+00:00")
    if now_ns is None:
        assert abs(when - datetime.now(timezone.utc)) < timedelta(minutes=5)
    else:
        assert written == stamp == datetime.fromtimestamp(now_ns // 10 ** 9, timezone.utc).replace(
            microsecond=now_ns // 1000 % 10 ** 6).isoformat()


def _readme_verify_config(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"A verify config is .*?```json\n(.*?)```", readme, re.S)
    cfg = tmp_path / "verify.json"
    cfg.write_text(block)
    return cfg


def test_readme_verify_example_runs(tmp_path):
    """The verify config the README shows, run as its command line runs it."""
    cfg, out = _readme_verify_config(tmp_path), tmp_path / "report.json"
    assert run_cli("verify", "--config", str(cfg), "--out", str(out), "--no-timestamp") == 0
    assert json.loads(out.read_text())["verdicts"] == {
        "ordered_residual": "zero", "full_residual": "discrepancy documented"}


def test_readme_verify_report_converts_each_wide_integer_once(tmp_path, monkeypatch):
    """The README report prints its last bound's values in its rows and again
    in the schedule, and -full where sigma is 0: every integer wider than a
    machine word goes to Decimal once, its repeats read from the cache."""
    conversions = Counter()
    convert = rings._to_decimal

    def counted(n):
        conversions[n] += 1
        return convert(n)

    monkeypatch.setattr(rings, "_to_decimal", counted)
    rings._wide_to_str.cache_clear()
    cfg, out = _readme_verify_config(tmp_path), tmp_path / "report.json"
    assert run_cli("verify", "--config", str(cfg), "--out", str(out), "--no-timestamp") == 0
    assert conversions and max(conversions.values()) == 1, conversions.most_common(1)
    assert max(n.bit_length() for n in conversions) > 4096


BAD_FIELDS = {
    "psi-int": {"psi": 5},
    "psi-kronecker-float": {"psi": {"kronecker": -4.9}},
    "psi-kronecker-str": {"psi": {"kronecker": "-4"}},
    "chi-kronecker-float": {"chi": {"kronecker": 8.0}},
    "chi-kronecker-and-values": {"chi": {"kronecker": 8, "values": []}},
    "psi-unknown-key": {"psi": {"kronecker": -4, "modulus": 5}},
    "chi-modulus-str": {"chi": {"modulus": "8",
                                "values": ["0", "1", "0", "-1", "0", "-1", "0", "1"]}},
    "psi-coords-str": {"psi": {"modulus": 5, "values": [
        "0", "1", {"order": 4, "coords": "01"}, {"order": 4, "coords": ["0", "-1"]}, "-1"]}},
    "psi-value-unknown-key": {"psi": {"modulus": 5, "values": [
        "0", "1", {"order": 4, "coords": ["0", "1"], "name": "i"},
        {"order": 4, "coords": ["0", "-1"]}, "-1"]}},
    "psi-value-bool": {"psi": {"modulus": 4, "values": [0, True, 0, -1]}},
    "chi-value-float": {"chi": {"modulus": 8, "values": [0, 1, 0, -1.0, 0, -1, 0, 1]}},
    "psi-coords-bool": {"psi": {"modulus": 5, "values": [
        "0", "1", {"order": 4, "coords": [False, True]}, {"order": 4, "coords": ["0", "-1"]},
        "-1"]}},
    "schedule-int": {"b_schedule": 5},
    "schedule-str": {"b_schedule": ["256"]},
    "schedule-below-rmax": {"b_schedule": [8, 4096]},
    "schedule-descending": {"b_schedule": [4096, 1600]},
    "schedule-repeated": {"b_schedule": [1600, 1600]},
    "modes-repeated": {"modes": ["full", "full"]},
    "modes-int": {"modes": 5},
    "modes-int-list": {"modes": [5]},
    "l-list": {"l": [4]},
    "l-bool": {"l": True},
    "l-float": {"l": 4.7},
    "l-odd": {"l": 3},
    "l-odd-negative": {"l": -1},
    "rmax-float": {"rmax": 12.9},
    "rmax-str": {"rmax": "40"},
    "B-str": {"B": "4096"},
    "closed-forms-str": {"closed_forms": "no"},
    "placement-int": {"placement": 5},
    "orientation-unknown": {"orientation": "sideways"},
}


def _rejected_before_any_run(monkeypatch, tmp_path, capsys, cfg, *options):
    """The config error line verify prints, asserting exit 2, no run and no
    output."""
    def no_run(*args, **kwargs):
        raise AssertionError("the config should be rejected before the run")

    monkeypatch.setattr("holoproj.cli.residual_report", no_run)
    out = tmp_path / "x.json"
    assert run_cli("verify", "--config", str(cfg), "--out", str(out), *options) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and not out.exists(), err
    return err[0]


@pytest.mark.parametrize("field", list(BAD_FIELDS.values()), ids=list(BAD_FIELDS))
def test_bad_verify_config_fields_exit_2_before_any_run(field, tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, **{"l": 4, **field})
    err = _rejected_before_any_run(monkeypatch, tmp_path, capsys, cfg)
    (name,) = field
    assert err.startswith(f"config error: {name} "), err


def test_verify_missing_config_field_exits_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"psi": {"kronecker": -4}, "chi": {"kronecker": 8}, "l": 4}))
    assert _rejected_before_any_run(monkeypatch, tmp_path, capsys, cfg) == (
        "config error: missing config field 'rmax'")


def test_verify_unknown_config_field_exits_2(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, l=4, orientaton="prefactor_on_smaller")
    assert _rejected_before_any_run(monkeypatch, tmp_path, capsys, cfg) == (
        "config error: unknown config field 'orientaton'")


def test_verify_B_other_than_the_last_bound_exits_2(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, l=4, B=5000, b_schedule=[64, 128])
    assert _rejected_before_any_run(monkeypatch, tmp_path, capsys, cfg) == (
        "config error: B must equal the last b_schedule entry 128, got 5000")


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_verify_workers_below_one_exit_2(workers, tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, l=4)
    assert _rejected_before_any_run(monkeypatch, tmp_path, capsys, cfg, "--workers", workers) == (
        f"config error: --workers must be >= 1, got {workers}")


@pytest.mark.parametrize("argv", [
    ("xi", "--tolerance", "abc"),
    ("xi", "--tau-v", "0.01"),
    ("f-minus", "--cutoff", "1"),
])
def test_numeric_rejects_bad_input_before_computing(argv, tmp_path, monkeypatch):
    def no_sum(*args, **kwargs):
        raise AssertionError("the input should be rejected before any summation")

    monkeypatch.setattr("holoproj.numeric.xi_finite_difference", no_sum)
    monkeypatch.setattr("holoproj.numeric.theta_power_direct", no_sum)
    assert run_cli("numeric", *argv, "--out", str(tmp_path / "x.json")) == 2


GOOD_PSI = [{"kronecker": -4}, {"kronecker": -3}, json.loads(QUARTIC_MOD5)]
GOOD_CHI = [{"kronecker": 8}, {"kronecker": 5}, {"kronecker": 12}]
BAD_SPECS = [
    {"kronecker": 8}, {"kronecker": -4}, {"kronecker": 1}, {"kronecker": 9}, {"kronecker": 0},
    {"kronecker": "x"}, {"kronecker": None}, {"modulus": 4}, {"modulus": 0, "values": []},
    {"modulus": "x", "values": []}, {"modulus": 4, "values": 5},
    {"modulus": 4, "values": ["0", "1", "0", "1/0"]},
    {"modulus": 4, "values": ["0", "1", "0", {"coords": ["-1"]}]},
    {"modulus": 4, "values": ["0", "1", "0", {"order": 0, "coords": []}]},
    {"modulus": 4, "values": ["0", "1", "0", {"order": "2", "coords": ["-1"]}]},
    5, [], "kronecker:-4",
]
FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
FUZZ_L = st.sampled_from([1, 4, 6, 8]) | st.integers(-1, 9)


def _specs(good):
    """Two draws in three from the well-formed specs in good (psi odd, chi
    even), else one of the wrong or malformed BAD_SPECS."""
    return st.sampled_from(good) | st.sampled_from(good) | st.sampled_from(BAD_SPECS)


def _exits_0_1_or_2(capsys, tmp_path, argv, csv=False):
    """Run argv with --out (and, with csv, --csv) fresh paths in tmp_path: no
    traceback, exit 2 prints exactly one config error line and leaves
    neither output file behind."""
    outputs = [tmp_path / "out.json"] + ([tmp_path / "out.csv"] if csv else [])
    for path in outputs:
        path.unlink(missing_ok=True)  # tmp_path is shared by every example
    argv = [*argv, "--out", str(outputs[0])] + (["--csv", str(outputs[1])] if csv else [])
    capsys.readouterr()
    rc = run_cli(*argv)
    err = capsys.readouterr().err.splitlines()
    event(f"exit {rc}")
    assert rc in (0, 1, 2)
    if rc == 2:
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert not any(path.exists() for path in outputs)
    return rc


def _char_text(spec):
    """The sigma-table argument for spec: kronecker:D where it reads as one."""
    if isinstance(spec, dict) and list(spec) == ["kronecker"]:
        return f"kronecker:{spec['kronecker']}"
    return json.dumps(spec)


# a character spec nested past the interpreter's recursion limit
DEEP_SPEC = '{"modulus": 4, "values": ' + "[" * 100_000


@FUZZ
@given(
    psi=(_specs(GOOD_PSI).map(_char_text)
         | st.sampled_from(["kronecker:", "{", "8", "", DEEP_SPEC])),
    chi=_specs(GOOD_CHI).map(_char_text),
    l=FUZZ_L,
    rmax=st.integers(-2, 24),
    placement=st.sampled_from([p.value for p in CharacterPlacement]),
)
@example(psi=DEEP_SPEC, chi="kronecker:8", l=4, rmax=8, placement="psi_on_larger")
def test_sigma_table_arguments_exit_0_1_or_2(tmp_path, capsys, psi, chi, l, rmax, placement):
    _exits_0_1_or_2(capsys, tmp_path, ("sigma-table", "--psi", psi, "--chi", chi, "--l", str(l),
                                       "--rmax", str(rmax), "--placement", placement))


# one value of every JSON type, for a field that expects another
WRONG_TYPES = [None, True, 2.5, "4", [], [4], {}, {"kronecker": -4}, 7]
UNKNOWN_FIELDS = ["orientaton", "Psi", "", "b-schedule"]
# a config file that holds no JSON document, or that cannot be read
NOT_JSON = [b"", b"{", b"{'l': 4}", b'{"l": 4,}', b"[1, 2", b"\xff\xfe{}", b"\x00",
            b"[" * 100_000, b'{"psi": ' * 50_000]
UNREADABLE = ["a directory", "no such file"]


def _rarely(change, unchanged):
    """One draw in four from change, else unchanged."""
    return st.just(unchanged) | st.just(unchanged) | st.just(unchanged) | change


@FUZZ
@given(
    psi=_specs(GOOD_PSI),
    chi=_specs(GOOD_CHI),
    l=FUZZ_L,
    rmax=st.integers(-2, 24),
    modes=st.sampled_from([["ordered"], ["full"], ["ordered", "full"], [], ["sideways"]]),
    schedule=st.none() | st.lists(st.integers(-4, 64), max_size=2),
    B=st.none() | st.integers(-4, 64),
    retyped=_rarely(st.dictionaries(st.sampled_from(cli._CONFIG_FIELDS),
                                    st.sampled_from(WRONG_TYPES), min_size=1, max_size=2), {}),
    dropped=_rarely(st.sets(st.sampled_from(cli._CONFIG_FIELDS), min_size=1, max_size=2), set()),
    unknown=_rarely(st.sets(st.sampled_from(UNKNOWN_FIELDS), min_size=1, max_size=1), set()),
    document=_rarely(st.sampled_from(NOT_JSON + UNREADABLE), None),
)
@example(psi={"kronecker": -4}, chi={"kronecker": 8}, l=4, rmax=8, modes=["ordered"],
         schedule=None, B=None, retyped={}, dropped=set(), unknown=set(),
         document=b"[" * 100_000)
def test_verify_configs_exit_0_1_or_2(tmp_path, capsys, psi, chi, l, rmax, modes, schedule, B,
                                      retyped, dropped, unknown, document):
    """A config drawn from typed fields, some of them then given a value of
    another JSON type, dropped, or joined by an unknown field; or a file
    that holds no JSON, or a path that cannot be read."""
    raw = {"psi": psi, "chi": chi, "l": l, "rmax": rmax, "modes": modes,
           "b_schedule": schedule, "closed_forms": False}
    if B is not None:
        raw["B"] = B
    raw.update(retyped)
    raw.update(dict.fromkeys(unknown, 1))
    for name in dropped:
        raw.pop(name, None)
    path = tmp_path / "fuzz.json"
    if document == "a directory":
        path = tmp_path
    elif document == "no such file":
        path = tmp_path / "no-such-config.json"
    else:
        path.write_bytes(json.dumps(raw).encode() if document is None else document)
    _exits_0_1_or_2(capsys, tmp_path, ("verify", "--config", str(path)), csv=True)


@FUZZ
@given(
    char=(_specs(GOOD_PSI + GOOD_CHI).map(_char_text)
          | st.sampled_from(["kronecker:1", "kronecker:", "{", DEEP_SPEC])),
    power=st.integers(-1, 6),
    terms=st.integers(-2, 60),
)
def test_theta_arguments_exit_0_1_or_2(tmp_path, capsys, char, power, terms):
    _exits_0_1_or_2(capsys, tmp_path, ("theta", "--char", char, "--pow", str(power),
                                       "--terms", str(terms)), csv=True)


@FUZZ
@given(
    family=st.sampled_from(CAL_FAMILIES),
    psi=_specs(GOOD_PSI).map(_char_text),
    chi=st.none() | _specs(GOOD_CHI).map(_char_text),
    probes=st.integers(-1, 14),
    verify_rows=st.integers(-3, 12),
)
def test_calibrate_arguments_exit_0_1_or_2(tmp_path, capsys, family, psi, chi, probes, verify_rows):
    """chi None reuses psi, the pair classical-d asks for.  A negative row
    count is a usage error, never a report."""
    rc = _exits_0_1_or_2(capsys, tmp_path, ("calibrate", "--family", family, "--psi", psi,
                                            "--chi", chi or psi, "--probes", str(probes),
                                            "--verify-rows", str(verify_rows)))
    assert rc == 2 or verify_rows >= 0


@settings(FUZZ, max_examples=40)
@given(
    check=st.sampled_from(["gamma-grid", "xi", "f-minus", "eichler"]),
    l=FUZZ_L,
    psi=st.none() | _specs(GOOD_PSI).map(_char_text),
    chi=st.none() | _specs(GOOD_CHI).map(_char_text),
    char=st.none() | _specs(GOOD_PSI + GOOD_CHI).map(_char_text) | st.just("kronecker:1"),
    tau_u=st.sampled_from(["0.1", "-0.3", "0", "1e400", "abc", "nan", "inf"]),
    tau_v=st.sampled_from(["0.8", "1.5", "0.3", "0", "-1", "1e-12", "1e400", "abc", "nan", "inf"]),
    h=st.sampled_from(["1e-5", "1e-3", "0.8", "0", "-1e-5", "abc", "nan"]),
    cutoff=st.integers(-2, 400),
    lam_shift=st.integers(-1, 3),
    tolerance=st.sampled_from(["1e-5", "0", "-1", "abc", "nan"]),
)
def test_numeric_arguments_exit_0_1_or_2(tmp_path, capsys, check, l, psi, chi, char, tau_u,
                                         tau_v, h, cutoff, lam_shift, tolerance):
    """Absent characters take the command's defaults; --flag=value keeps a
    negative value from reading as a flag."""
    options = {"l": l, "tau-u": tau_u, "tau-v": tau_v, "h": h, "cutoff": cutoff,
               "lam-shift": lam_shift, "tolerance": tolerance, "psi": psi, "chi": chi,
               "char": char}
    _exits_0_1_or_2(capsys, tmp_path, ["numeric", check] + [
        f"--{name}={value}" for name, value in options.items() if value is not None])
