"""The package's records are named tuples (MultiIndex a tuple of its
entries): immutable, equal by value, picklable for the process pool, printed
as Name(field=value, ...) (a character keeps its short form), and the
validated ones reject what they always rejected."""

import pickle

import mpmath as mp
import pytest

from holoproj import (
    MultiIndex,
    ProjectionConfig,
    ProjectionKernel,
    char_kronecker,
    full_pairs_side,
    residual_report,
    weights_for_dim,
)
from holoproj.calibrate import CalibrationInstance, calibrate_constants
from holoproj.numeric import (
    EichlerCalibration,
    FMinusValue,
    UpperHalfPoint,
    XiCheckResult,
    eval_f_minus,
)

PSI, CHI = char_kronecker(-4), char_kronecker(8)


def _config():
    return ProjectionConfig(PSI, CHI, 4, 8, B=32)


def _report():
    return residual_report(_config(), b_schedule=[16, 32])._replace(timestamp=None)


# (record built afresh on each call, whether its fields are all hashable)
RECORDS = {
    "WeightData": (lambda: weights_for_dim(4), True),
    "ProjectionKernel": (lambda: ProjectionKernel.from_weights(weights_for_dim(6)), True),
    "ProjectionConfig": (_config, True),
    "FullSideResult": (lambda: full_pairs_side(_config()), False),  # tail_delta is a dict
    "ResidualRow": (lambda: _report().rows[4], True),
    "ResidualReport": (_report, False),
    "CalibrationInstance": (lambda: CalibrationInstance("kernel-1dim", PSI, CHI), True),
    "CalibrationResult": (lambda: calibrate_constants(
        CalibrationInstance("classical-d2", PSI, CHI), probe_count=3, verify_rows=4), False),
    "MultiIndex": (lambda: MultiIndex((3, 1, 4)), True),
    "DirichletCharacter": (lambda: char_kronecker(-4), True),
    "UpperHalfPoint": (lambda: UpperHalfPoint("0.1", "0.8"), True),
    "FMinusValue": (lambda: eval_f_minus(ProjectionConfig(PSI, CHI, 4, 1, modes=()),
                                         UpperHalfPoint("0.1", "0.8"), 40), True),
    "XiCheckResult": (lambda: XiCheckResult(mp.mpc(1, 2), mp.mpc(1, 2), mp.mpf(0)), True),
    "EichlerCalibration": (lambda: EichlerCalibration(mp.mpc(0, 1), [mp.mpf("1e-12")]), False),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_behaviour(name):
    make, hashable = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == b and a is not b
    first = "entries" if name == "MultiIndex" else a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, first, getattr(b, first))
    with pytest.raises(AttributeError):
        a.extra = 1
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert pickle.loads(pickle.dumps(a)) == a
    if name == "DirichletCharacter":  # the short form it always printed
        assert repr(a) == "DirichletCharacter(mod 4, order 2, parity 1)"
    else:
        assert repr(a).startswith(f"{name}({first}=")


@pytest.mark.parametrize("make, message", [
    (lambda: ProjectionConfig(PSI, CHI, 2, 10), "l = 2"),
    (lambda: ProjectionConfig(psi=PSI, chi=CHI, l=2, rmax=10), "l = 2"),
    (lambda: ProjectionConfig(PSI, CHI, 4, 0, modes=("ordered",)), "rmax must be >= 1"),
    (lambda: ProjectionConfig(PSI, CHI, 4, 8, modes=("ordered", "half")), "unknown modes"),
    (lambda: ProjectionConfig(PSI, CHI, 4, 40, B=32), "need B >= rmax"),
    (lambda: ProjectionConfig(PSI, CHI, 4, 8), "needs a norm bound B"),
    (lambda: _config()._replace(l=2), "l = 2"),
    (lambda: ProjectionConfig(PSI, CHI, 4, 8, B=32, orientation="bogus"), "unknown orientation"),
    (lambda: _config()._replace(orientation="bogus"), "unknown orientation"),
    (lambda: ProjectionConfig(PSI, CHI, 4, 8, B=32, placement="psi_on_larger"),
     "placement must be a CharacterPlacement"),
    (lambda: MultiIndex((2, 0)), "entries must all be >= 1"),
    (lambda: MultiIndex(()), "entries must all be >= 1"),
    (lambda: CalibrationInstance("classical-d3", PSI, CHI), "unknown family"),
    (lambda: CalibrationInstance("classical-d", PSI, CHI), "needs psi = chi"),
    (lambda: CalibrationInstance("kernel-1dim", PSI, CHI)._replace(family="x"), "unknown family"),
    (lambda: UpperHalfPoint("0", "-1"), "v > 0"),
    (lambda: UpperHalfPoint("0.1", "0.8")._replace(v="-1"), "v > 0"),
    (lambda: UpperHalfPoint("0.1", "0.8")._replace(u="inf"), "finite doubles"),
    (lambda: UpperHalfPoint("0.1", "0.8")._replace(dps=10), ">= 30 digits"),
])
def test_validated_records_still_reject(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_numeric_records_print_as_before():
    """The reprs the frozen dataclasses printed, for the fields kept."""
    assert repr(UpperHalfPoint("0.1", "0.8")) == "UpperHalfPoint(u='0.1', v='0.8', dps=40)"
    assert repr(FMinusValue(1, 2, 40, 5)) == (
        "FMinusValue(value=1, tail_estimate=2, cutoff=40, terms_used=5)")
    assert repr(XiCheckResult(1, 2, 3)) == "XiCheckResult(fd_value=1, closed_value=2, rel_error=3)"
    assert repr(EichlerCalibration(1, [2])) == "EichlerCalibration(constant=1, rel_errors=[2])"
