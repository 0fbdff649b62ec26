"""The package's records are named tuples (MultiIndex a tuple of its
entries): immutable, equal by value, picklable for the process pool, printed
as Name(field=value, ...), and the validated ones reject what they always
rejected."""

import pickle

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
    assert repr(a).startswith(f"{name}({first}=")


@pytest.mark.parametrize("make, message", [
    (lambda: ProjectionConfig(PSI, CHI, 2, 10), "l = 2"),
    (lambda: ProjectionConfig(psi=PSI, chi=CHI, l=2, rmax=10), "l = 2"),
    (lambda: ProjectionConfig(PSI, CHI, 4, 0, modes=("ordered",)), "rmax must be >= 1"),
    (lambda: ProjectionConfig(PSI, CHI, 4, 8, modes=("ordered", "half")), "unknown modes"),
    (lambda: ProjectionConfig(PSI, CHI, 4, 40, B=32), "need B >= rmax"),
    (lambda: ProjectionConfig(PSI, CHI, 4, 8), "needs a norm bound B"),
    (lambda: _config()._replace(l=2), "l = 2"),
    (lambda: MultiIndex((2, 0)), "entries must all be >= 1"),
    (lambda: MultiIndex(()), "entries must all be >= 1"),
    (lambda: CalibrationInstance("classical-d3", PSI, CHI), "unknown family"),
    (lambda: CalibrationInstance("classical-d", PSI, CHI), "needs psi = chi"),
    (lambda: CalibrationInstance("kernel-1dim", PSI, CHI)._replace(family="x"), "unknown family"),
])
def test_validated_records_still_reject(make, message):
    with pytest.raises(ValueError, match=message):
        make()

