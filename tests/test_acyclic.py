"""The engine makes no reference cycles.

cli.main pauses the cyclic collector for a command; that costs no memory only
because nothing the engine builds waits for a collection to be freed.  Each
call below runs with the collector off and gc.DEBUG_SAVEALL set, and must
leave gc.garbage empty.  A call is made once before it is watched, so that
one-time imports and caches are not counted.
"""

import gc
from collections import Counter
from io import StringIO

import pytest

from holoproj import cli
from holoproj.characters import char_from_spec, char_kronecker
from holoproj.projection import ProjectionConfig, compositions, residual_report
from holoproj.smalldiv import sigma_entry_table
from holoproj.theta import theta_power_direct

PSI5 = char_from_spec({"modulus": 5, "values": [
    "0", "1", {"order": 4, "coords": ["0", "1"]}, {"order": 4, "coords": ["0", "-1"]}, "-1"]})
KRON_M4, KRON_8 = char_kronecker(-4), char_kronecker(8)
# the README verify config, and the characters of the cyclo-l4 benchmark
README = ProjectionConfig(KRON_M4, KRON_8, 4, 40, modes=("ordered", "full"), B=4096)
CYCLO = ProjectionConfig(PSI5, KRON_8, 4, 32, modes=("ordered", "full"), B=1024)


def _cyclic_garbage(call) -> list:
    """What call() leaves for the cyclic collector, call made twice."""
    call()
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_on:
            gc.enable()


def _sigma_table_rows(cfg):
    """The enumeration of the sigma-table command: every composition of
    every r into l table entries."""
    table = sigma_entry_table(cfg, cfg.rmax)
    return [parts for r in range(1, cfg.rmax + 1) for parts in compositions(r, cfg.l, table)]


def _stopped_early():
    """A composition walk left after its first tuple: closed, and dropped."""
    walk = compositions(24, 4)
    next(walk)
    walk.close()
    next(compositions(24, 4))


def _dump_refusing_a_float():
    with pytest.raises(TypeError):
        cli._dump({"rows": [[1, "2"], {"x": 0.5}]}, StringIO())


CALLS = {
    "report README": lambda: residual_report(README, b_schedule=[256, 1024, 4096]),
    "report psi5/8": lambda: residual_report(CYCLO, b_schedule=[256, 1024]),
    "theta kronecker -4": lambda: theta_power_direct(KRON_M4, 4, 600),
    "theta psi5": lambda: theta_power_direct(PSI5, 4, 600),
    "theta l = 1": lambda: theta_power_direct(KRON_8, 1, 600),
    "sigma-table rows": lambda: _sigma_table_rows(README._replace(rmax=24)),
    "compositions stopped early": _stopped_early,
    "_dump": lambda: cli._dump({"a": [1, {"b": ["c", None, True]}, []], "d": {}}, StringIO()),
    "_dump raising": _dump_refusing_a_float,
}


@pytest.mark.parametrize("name", list(CALLS))
def test_the_engine_leaves_no_cyclic_garbage(name):
    garbage = _cyclic_garbage(CALLS[name])
    assert not garbage, Counter(type(o).__name__ for o in garbage).most_common(5)
