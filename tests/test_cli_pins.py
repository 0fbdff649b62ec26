"""sha256 of the exact bytes that the calibrate, closed-forms, sigma-table
and theta commands write, pinned from the package before calibration moved
out of projection.py.  The benchmark pins only verify reports and the theta
powers it computes in-process, so these outputs are held byte-identical here.
The theta powers at 4096 terms and the l = 6 report (pinned before the lattice
walk summed its last coordinate per prefix norm) are sizes where many prefixes
of a lattice point share a norm."""

import hashlib
import json

import pytest

from holoproj.cli import main

QUARTIC_MOD5 = ('{"modulus": 5, "values": ["0", "1", {"order": 4, "coords": ["0", "1"]}, '
                '{"order": 4, "coords": ["0", "-1"]}, "-1"]}')
SIGMA = ("sigma-table", "--l", "4", "--rmax", "40")
PINNED = {
    "calibrate-d": (("calibrate", "--family", "classical-d", "--psi", "kronecker:-4",
                     "--chi", "kronecker:-4"),
                    "12caa5a67931ddab0453e4db78bdb2dfbaadc7bc38d76d384b455f5bfe531934"),
    "calibrate-d2": (("calibrate", "--family", "classical-d2", "--psi", "kronecker:-4",
                      "--chi", "kronecker:8"),
                     "d03bf0a941b78e35f7c76a7074f04637b3ba37ceec99e1ca6401552d8274b8a2"),
    # C prints as {"order": 4, "coords": ["2", "0"]}
    "calibrate-d2-quartic": (("calibrate", "--family", "classical-d2", "--psi", QUARTIC_MOD5,
                              "--chi", "kronecker:5"),
                             "634c0c098d79d6fd2b4bdf905d06a0ed6e7e511645bc630e99e9731801ee9631"),
    "calibrate-kernel-1dim": (("calibrate", "--family", "kernel-1dim", "--psi", "kronecker:-4",
                               "--chi", "kronecker:8"),
                              "a5d7651300554f2c000ac67fb12492fbff61ac80bac6853b9d997c659b23d216"),
    "closed-forms": (("closed-forms",),
                     "126bc990901c17fe310cddcbdc91d2fbc0fa50540cdb2733c298047919229297"),
    "closed-forms-smaller": (("closed-forms", "--orientation", "prefactor_on_smaller"),
                             "49d7319b7f1aec7d91df205570ca3f0dcbedff44fe5c46e4fc4d99c9d964e465"),
    "sigma-table": (SIGMA + ("--psi", "kronecker:-4", "--chi", "kronecker:8"),
                    "cf787281f86f0942b28e263f1b69bd6dcc6792934d265f83cf79bd6e23b67585"),
    "sigma-table-quartic": (SIGMA + ("--psi", QUARTIC_MOD5, "--chi", "kronecker:5"),
                            "eb54965dfc9787c6e4200641db08fb47796a464911fc4d2a024a4488eb691bdf"),
    "theta": (("theta", "--char", "kronecker:-4", "--pow", "1", "--terms", "200"),
              "e8d94b8285e5ebc54ab5385c7c7ef94851773207a6c328d0fd40d1ab487d4de9"),
    "theta-pow4": (("theta", "--char", "kronecker:-4", "--pow", "4", "--terms", "200"),
                   "e91ec400e76873ed8d9e3492465f44043750ec9abbf7f44f692e704ccb591b94"),
    "theta-pow6-4096": (("theta", "--char", "kronecker:-4", "--pow", "6", "--terms", "4096"),
                        "ce6db7ced3223c08aed7d1cd35ee8d7c75e361cf36ec361999e06e9f8c032464"),
    # kronecker 5 is nonzero at every n prime to 5: a dense support
    "theta-kron5-pow4-4096": (("theta", "--char", "kronecker:5", "--pow", "4", "--terms", "4096"),
                              "661695134bb94c7ee1c36398521a8166ad3076dfe7a8cf18c76fe092c9d37d9f"),
    "theta-quartic": (("theta", "--char", QUARTIC_MOD5, "--pow", "1", "--terms", "200"),
                      "33d20e222d427441b0956e08b02800549dfea12d2aa27f20704bdc51e489de4e"),
    "theta-quartic-pow4": (("theta", "--char", QUARTIC_MOD5, "--pow", "4", "--terms", "200"),
                           "9f48dd0a85ac81fd5d0b390625f5288196445a1653dbbaa3f292f4050bdcc744"),
}
THETA_QUARTIC_POW4_CSV = "4cc5bc2a2c5973b58b1ae182204ec66a505e76a194b3720453daf23ed0b137a3"
VERIFY_L6 = ({"psi": {"kronecker": -4}, "chi": {"kronecker": 8}, "l": 6, "rmax": 88,
              "b_schedule": [4096, 16384]},
             "5ed83dd907fd20816376077c768f65f48ff2316b068d3a3e76d247abd59ead30")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(PINNED))
def test_cli_output_matches_its_pinned_digest(name, tmp_path):
    argv, digest = PINNED[name]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert _sha256(out) == digest


def test_theta_csv_matches_its_pinned_digest(tmp_path):
    argv, digest = PINNED["theta-quartic-pow4"]
    out, table = tmp_path / "out.json", tmp_path / "out.csv"
    assert main([*argv, "--out", str(out), "--csv", str(table)]) == 0
    assert (_sha256(out), _sha256(table)) == (digest, THETA_QUARTIC_POW4_CSV)


def test_verify_l6_report_matches_its_pinned_digest(tmp_path):
    cfg, digest = VERIFY_L6
    config, out = tmp_path / "cfg.json", tmp_path / "out.json"
    config.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(config), "--no-timestamp", "--out", str(out)]) == 0
    assert _sha256(out) == digest
