"""mpmath and concurrent.futures load only where they are used: importing the
package and the CLI, and an exact verify, load neither; the numeric names
and the irrational full-residual verdict load mpmath on first use."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import holoproj
from holoproj import projection
from holoproj.rings import CyclotomicNumber, cyc

SRC = os.path.dirname(os.path.dirname(holoproj.__file__))


def run_fresh(script: str):
    """Run `script` in a fresh isolated interpreter (`python -I`, the package
    on its path) and return what it prints, read as JSON."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", "import sys\nsys.path.insert(0, sys.argv[1])\n" + script, SRC],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_IMPORTS = """
import json
import holoproj, holoproj.cli
from holoproj import ProjectionConfig, char_from_spec, char_kronecker, residual_report

def loaded():
    return [m for m in ("mpmath", "concurrent.futures") if m in sys.modules]

out = {"import": loaded()}
psi = char_from_spec({"modulus": 5, "values": [  # the order-4 psi mod 5 of cyclo-l4
    "0", "1", {"order": 4, "coords": ["0", "1"]}, {"order": 4, "coords": ["0", "-1"]}, "-1"]})
report = residual_report(ProjectionConfig(psi, char_kronecker(8), 4, 8, B=64), b_schedule=[32, 64])
out["verdict"] = report.verdicts["full_residual"]
out["report"] = loaded()
out["inc_gamma"] = holoproj.inc_gamma.__module__
from holoproj import xi_check
out["xi_check"] = xi_check.__module__
print(json.dumps(out))
"""


def test_import_and_exact_verify_load_neither_mpmath_nor_futures():
    out = run_fresh(_IMPORTS)
    assert out["import"] == []
    # the residuals over Q(i) have rational squared moduli: decided exactly
    assert out["verdict"] == "discrepancy documented"
    assert out["report"] == []
    assert out["inc_gamma"] == out["xi_check"] == "holoproj.numeric"


_EXCEEDS = """
import json
from fractions import Fraction
from holoproj import projection
from holoproj.rings import CyclotomicNumber, cyc

before = "mpmath" in sys.modules
answer = projection._exceeds(cyc(1) + CyclotomicNumber.zeta(5), cyc(Fraction(4, 5)))
print(json.dumps([before, "mpmath" in sys.modules, answer]))
"""


def test_irrational_verdict_imports_mpmath_on_demand():
    golden = cyc(1) + CyclotomicNumber.zeta(5)  # |.| = 2 cos(pi/5), irrational w
    expected = projection._exceeds(golden, cyc(Fraction(4, 5)))
    assert run_fresh(_EXCEEDS) == [False, True, expected]
