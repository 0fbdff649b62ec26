"""mpmath, concurrent.futures, dataclasses, inspect, csv, datetime and the
calibrations load only where they are used: importing the package and the
CLI, and an exact verify with or without its timestamp, load none of them;
the numeric names and the irrational full-residual verdict load mpmath on
first use, and the calibration names holoproj.calibrate.  No command loads
dataclasses: the numeric checks, which load mpmath, do not either."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import holoproj
from holoproj import projection
from holoproj.rings import CyclotomicNumber, cyc

SRC = os.path.dirname(os.path.dirname(holoproj.__file__))


def run_fresh(script: str, *args):
    """Run `script` in a fresh isolated interpreter (`python -I`, the package
    on its path, args in sys.argv[2:]) and return what it prints, read as JSON."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", "import sys\nsys.path.insert(0, sys.argv[1])\n" + script, SRC,
         *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_IMPORTS = """
import json
import holoproj, holoproj.cli
from holoproj import ProjectionConfig, char_from_spec, char_kronecker, residual_report

def loaded():
    return [m for m in ("mpmath", "concurrent.futures", "dataclasses", "inspect", "csv",
                        "datetime", "holoproj.calibrate") if m in sys.modules]

out = {"import": loaded()}
out["verify_exit"] = holoproj.cli.main(["verify", "--config", sys.argv[2], "--out", sys.argv[3],
                                        "--no-timestamp"])
out["timestamped_exit"] = holoproj.cli.main(["verify", "--config", sys.argv[2],
                                             "--out", sys.argv[3]])
out["verify"] = loaded()
psi = char_from_spec({"modulus": 5, "values": [  # the order-4 psi mod 5 of cyclo-l4
    "0", "1", {"order": 4, "coords": ["0", "1"]}, {"order": 4, "coords": ["0", "-1"]}, "-1"]})
report = residual_report(ProjectionConfig(psi, char_kronecker(8), 4, 8, B=64), b_schedule=[32, 64])
out["verdict"] = report.verdicts["full_residual"]
out["report"] = loaded()
out["inc_gamma"] = holoproj.inc_gamma.__module__
from holoproj import xi_check
out["xi_check"] = xi_check.__module__
out["calibrate_constants"] = holoproj.calibrate_constants.__module__
print(json.dumps(out))
"""


def test_import_and_exact_verify_load_neither_mpmath_nor_futures(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"psi": {"kronecker": -4}, "chi": {"kronecker": 8}, "l": 4,
                                  "rmax": 8, "b_schedule": [32, 64]}))
    out = run_fresh(_IMPORTS, str(config), str(tmp_path / "report.json"))
    assert out["import"] == []
    assert out["verify_exit"] == out["timestamped_exit"] == 0
    assert out["verify"] == []
    # the residuals over Q(i) have rational squared moduli: decided exactly
    assert out["verdict"] == "discrepancy documented"
    assert out["report"] == []
    assert out["inc_gamma"] == out["xi_check"] == "holoproj.numeric"
    assert out["calibrate_constants"] == "holoproj.calibrate"


_EXCEEDS = """
import json
from fractions import Fraction
from holoproj import projection
from holoproj.rings import CyclotomicNumber, cyc

before = "mpmath" in sys.modules
wide = 3 ** 9100  # past the int->str limit
rational = [projection._exceeds(cyc(Fraction(-9, 2) * wide), cyc(Fraction(9, 8) * wide)),
            projection._exceeds(cyc(wide), cyc(0))]
after_rational = "mpmath" in sys.modules
answer = projection._exceeds(cyc(1) + CyclotomicNumber.zeta(5), cyc(Fraction(4, 5)))
print(json.dumps([before, rational, after_rational, "mpmath" in sys.modules, answer]))
"""


def test_irrational_verdict_imports_mpmath_on_demand():
    """A rational pair (a tie, and a zero delta) is decided with no mpmath;
    the first irrational w loads it."""
    golden = cyc(1) + CyclotomicNumber.zeta(5)  # |.| = 2 cos(pi/5), irrational w
    expected = projection._exceeds(golden, cyc(Fraction(4, 5)))
    assert run_fresh(_EXCEEDS) == [False, [False, True], False, True, expected]


_GAMMA_GRID = """
import json
from holoproj.cli import main

code = main(["numeric", "gamma-grid", "--out", sys.argv[2]])
print(json.dumps([code, [m for m in ("mpmath", "dataclasses", "inspect", "holoproj.numeric")
                         if m in sys.modules]]))
"""


def test_numeric_gamma_grid_loads_no_dataclasses(tmp_path):
    out = tmp_path / "gamma.json"
    assert run_fresh(_GAMMA_GRID, str(out)) == [0, ["mpmath", "holoproj.numeric"]]
    assert json.loads(out.read_text())["pass"] is True
