"""Workloads, pinned outputs and the closed sampling loop of the holoproj
benchmark.

One client runs one fresh child process at a time (closed loop, the
package's default ``--workers 1``).  Each child imports ``holoproj`` from
``<root>/src``, builds the workload's inputs (set-up), runs the timed call and
reports its own timings, peak RSS and the sha256 of what it produced.  The
parent checks every child's output against the digest pinned below and
reports one statistic per metric over the children of one run.

Why these workloads: each one loads a different layer, so a gain in one
layer shows on one workload and predicts no change on another.

* ``full-l4``: the README config; theta lattice + full collapse.
* ``ordered-l6``: sigma/ordered enumeration and the character layer only.
* ``cyclo-l4``: ``full-l4`` over Q(i) (order-4 psi mod 5): mixed-order rings.
* ``theta-dual``: both theta paths; the only caller of ``QSeries.__mul__``.

Each workload is sized so that a child's timed call takes about a second on
a 2-vCPU Xeon VM (hence rmax 50 for ``ordered-l6``, rmax 32 with B up to 1024
for ``cyclo-l4``, N = 3072 for ``theta-dual``): a run then holds a score of
children, and its fastest one is likely to fall in a quiet stretch of a
shared host.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# Character value tables, keyed by the Kronecker discriminant.
KRONECKER_TABLES = {
    -4: [0, 1, 0, -1],
    8: [0, 1, 0, -1, 0, -1, 0, 1],
}
# Odd order-4 character mod 5: psi(2) = i, psi(3) = -i, psi(4) = -1.
QUARTIC_MOD5 = [0, 1, ("i", 1), ("i", -1), -1]

FULL_L4 = {"psi": ("kronecker", -4), "chi": ("kronecker", 8), "l": 4, "rmax": 40,
           "modes": ["ordered", "full"], "b_schedule": [256, 1024, 4096]}

WORKLOADS = {
    "full-l4": {"kind": "verify", "config": FULL_L4},
    "ordered-l6": {"kind": "verify", "config": {
        "psi": ("kronecker", -4), "chi": ("kronecker", 8), "l": 6, "rmax": 50,
        "modes": ["ordered"]}},
    "cyclo-l4": {"kind": "verify", "config": dict(
        FULL_L4, psi=("table", 5, QUARTIC_MOD5), rmax=32, b_schedule=[256, 1024])},
    "theta-dual": {"kind": "theta-dual", "chars": [("kronecker", -4), ("kronecker", 8)],
                   "power": 4, "terms": 3072},
}

# sha256 of the `verify --no-timestamp` report bytes, and for theta-dual of
# the compact JSON of each direct theta power; taken from the package as it
# was when the benchmark was defined.  Any change is a failed run.
PINNED = {
    "full-l4": "a6c2392b530598c701d465ba42cb079511b849107ed121744c3001c86703e98f",
    "ordered-l6": "780e9e8fccc0ce1ee5f86e4e36d2d2afe45002f4f48f28d951164a332d5caf91",
    "cyclo-l4": "161350d50bdb35f55cd202c999209729588c6b55f33b6d501a98488c4d1156fb",
    "theta-dual": "49faed2f7711b55dc46de0498fa9749d0b6a3eb57f11e8b75d52646d86b871f1",
}

# Expected to fail today: the coefficients at B=8192 exceed CPython's
# 4300-digit int->str limit when the report is serialised.
PROBES = {
    "frontier-b8192": {"kind": "verify", "config": {
        "psi": ("kronecker", -4), "chi": ("kronecker", 8), "l": 4, "rmax": 40,
        "modes": ["full"], "b_schedule": [8192]}},
}

# End-to-end metric -> unit.  Times report the fastest child of a run scaled
# by the host's speed (see calibrate); peak RSS the median child.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# On a shared host the same child runs up to twice as slow in stretches that
# last from seconds to minutes.  Contention only ever slows a child down, so
# the fastest child of a run is steadier than its median; to cancel the
# stretches longer than a run as well, the parent times a fixed loop before
# every child, and times are reported as
#     fastest child * CALIB_REF_S / fastest loop of the run,
# that is, in seconds of a host that runs the loop in CALIB_REF_S, about a
# quiet stretch of the 2-vCPU Xeon VM the benchmark was defined on.
CALIB_REF_S = 0.07
CALIB_RADIUS = 36
CALIB_TERMS = 5000

MIN_SAMPLES = 3          # timed children per untraced run, even past --seconds
SETUP_PROBES = 9         # extra set-up-only children per run
CHILD_TIMEOUT_S = 150


# -- inputs -------------------------------------------------------------------

def _spell_value(v, rng):
    """One JSON spelling of a character value; every spelling parses to the
    same exact value."""
    if isinstance(v, tuple):  # ("i", sign): sign * zeta_4
        coords = [0, v[1]]
        return {"order": 4, "coords": [str(c) if rng.random() < 0.5 else c for c in coords]}
    return rng.choice([v, str(v), f"{2 * v}/2"])


def _spell_char(spec, rng):
    if spec[0] == "kronecker":
        D = spec[1]
        if rng.random() < 0.5:
            return {"kronecker": D}
        table = KRONECKER_TABLES[D]
    else:
        table = spec[2]
    return {"modulus": len(table), "values": [_spell_value(v, rng) for v in table]}


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's input document for one seed.  Seeds change only the
    spelling (key order, character spelling, defaults given or omitted), so
    every seed must produce the pinned output."""
    spec = {**WORKLOADS, **PROBES}[workload]
    rng = random.Random(f"{workload}:{seed}")
    if spec["kind"] == "theta-dual":
        return {"kind": "theta-dual", "power": spec["power"], "terms": spec["terms"],
                "chars": [_spell_char(c, rng) for c in spec["chars"]]}
    base = spec["config"]
    doc = {k: v for k, v in base.items() if k not in ("psi", "chi")}
    doc["psi"] = _spell_char(base["psi"], rng)
    doc["chi"] = _spell_char(base["chi"], rng)
    defaults = {"placement": "psi_on_larger", "orientation": "prefactor_on_larger",
                "closed_forms": True}
    if "b_schedule" in base:
        defaults["B"] = base["b_schedule"][-1]
    for key, value in defaults.items():
        if rng.random() < 0.5:
            doc[key] = value
    keys = list(doc)
    rng.shuffle(keys)
    return {"kind": "verify", "config": {k: doc[k] for k in keys}}


# -- one child ------------------------------------------------------------------

def run_child(inputs: dict, workdir: Path, *, trace=False, setup_only=False,
              timeout=CHILD_TIMEOUT_S) -> dict:
    """Run one child process; return its report plus exit code and stderr tail.
    The interpreter runs isolated (-I), so no PYTHON* variable such as
    PYTHONINTMAXSTRDIGITS or PYTHONPATH reaches it."""
    job = {"root": str(ROOT), "inputs": inputs, "workdir": str(workdir),
           "trace": trace, "setup_only": setup_only}
    cmd = [sys.executable, "-I", str(CHILD)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + [json.dumps(job), repr(spawned)], capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"returncode": None, "stderr_tail": f"timed out after {timeout} s",
                "elapsed_s": time.monotonic() - spawned}
    out = {"returncode": proc.returncode, "elapsed_s": time.monotonic() - spawned,
           "stderr_tail": (proc.stderr.strip().splitlines() or [""])[-1]}
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            out.update(json.loads(lines[-1]))
        except json.JSONDecodeError:
            pass
    return out


def sample_failure(sample: dict, expected: str) -> str | None:
    """Why one timed child counts as failed, or None when it passed."""
    if sample.get("returncode") != 0:
        return f"exit {sample.get('returncode')}: {sample.get('stderr_tail')}"
    if "digest" not in sample:
        return "no result from child"
    if sample.get("problems"):
        return "; ".join(sample["problems"])
    if sample["digest"] != expected:
        return f"digest {sample['digest'][:12]} != pinned {expected[:12]}"
    return None


# -- statistics -------------------------------------------------------------------

def calibrate() -> float:
    """Seconds the parent takes for a fixed loop shaped like holoproj's hot
    paths: counting lattice points into a dict, as the theta lattice does,
    and summing fractions with growing denominators, as the kernel does.  The
    loop never changes, so it measures only the host's speed at the time."""
    t0 = time.perf_counter()
    squares = [i * i for i in range(-CALIB_RADIUS, CALIB_RADIUS + 1)]
    limit, counts = CALIB_RADIUS ** 2, {}
    for a in squares:
        for b in squares:
            for c in squares:
                n = a + b + c
                if n <= limit:
                    counts[n] = counts.get(n, 0) + 1
    acc = Fraction(0)
    for k in range(1, CALIB_TERMS):
        acc += Fraction(k * k + 1, 2 * k + 3)
    return time.perf_counter() - t0


def summarize(values: list, value: float) -> dict:
    """The reported value, with minimum, quartiles, median and count of the
    sample it came from."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": value, "min": min(values), "q1": q1, "median": statistics.median(values),
            "q3": q3, "n": len(values)}


# -- environment --------------------------------------------------------------------

def environment(child_env: dict | None = None) -> dict:
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "platform": platform.platform(), "git_commit": git_commit()}
    env.update(child_env or {})
    return env


def git_commit() -> str:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# -- one benchmark run -----------------------------------------------------------

def check_root() -> None:
    if not (ROOT / "src" / "holoproj" / "__init__.py").is_file():
        raise SystemExit(f"holobench: no holoproj sources under {ROOT / 'src'}")


@contextlib.contextmanager
def _workdir(name: str, inputs: dict):
    """A scratch directory inside the checkout holding the workload's config;
    removed afterwards."""
    parent = ROOT / ".holobench_work"
    parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=parent))
    try:
        if inputs["kind"] == "verify":
            (workdir / "config.json").write_text(json.dumps(inputs["config"]))
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def run_workload(workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """One benchmark run: children in a closed loop for about `seconds`.

    Untraced, the result holds the end-to-end metrics.  Traced, untraced and
    traced children alternate; the result holds the per-layer metrics of the
    traced children and the tracing overhead.
    """
    check_root()
    inputs = make_inputs(workload, seed)
    with _workdir(workload, inputs) as workdir:
        return _sample(workload, inputs, workdir, seconds, trace, PINNED[workload])


def run_probe(name: str) -> dict:
    """One child on a frontier config; report how it ended, not whether it
    matched a pin."""
    check_root()
    inputs = make_inputs(name, 0)
    with _workdir(name, inputs) as workdir:
        sample = run_child(inputs, workdir)
        return {"probe": name, "returncode": sample["returncode"],
                "stderr_tail": sample["stderr_tail"], "elapsed_s": sample["elapsed_s"],
                "report_written": (workdir / "report.json").exists()}


def _sample(workload, inputs, workdir, seconds, trace, expected):
    start = time.monotonic()
    run_child(inputs, workdir, setup_only=True)  # warm bytecode caches
    setups, loops = [], []
    for _ in range(SETUP_PROBES):
        loops.append(calibrate())
        probe = run_child(inputs, workdir, setup_only=True)
        if probe.get("returncode") == 0 and "setup_s" in probe:
            setups.append(probe["setup_s"])

    timed, traced, failures = [], [], []
    # Traced runs alternate untraced/traced children; one pair is the minimum.
    plan = [False, True] if trace else [False]
    minimum = len(plan) if trace else MIN_SAMPLES
    child_s = []
    while True:
        for traced_child in plan:
            begun = time.monotonic()
            loops.append(calibrate())
            sample = run_child(inputs, workdir, trace=traced_child,
                               timeout=max(5.0, CHILD_TIMEOUT_S - (begun - start)))
            child_s.append(time.monotonic() - begun)
            why = sample_failure(sample, expected)
            if why is not None:
                failures.append(why)
            elif traced_child:
                traced.append(sample)
            else:
                timed.append(sample)
                setups.append(sample["setup_s"])
        attempted = len(timed) + len(traced) + len(failures)
        elapsed = time.monotonic() - start
        remaining = seconds - elapsed
        # Start another round only if it is expected to end within half a
        # child of the deadline.
        if attempted >= minimum and remaining < statistics.median(child_s) * (len(plan) - 0.5):
            break
        if elapsed > CHILD_TIMEOUT_S:
            break

    speed = CALIB_REF_S / min(loops)
    stats = {}
    if timed:
        walls = [s["wall_s"] for s in timed]
        stats["wall_s"] = summarize(walls, min(walls) * speed)
        rss = [s["peak_rss_kb"] / 1024 for s in timed]
        stats["peak_rss_mb"] = summarize(rss, statistics.median(rss))
    if setups:
        stats["setup_s"] = summarize(setups, min(setups) * speed)
    layers = _layer_metrics(timed, traced, failures) if trace else None
    result = {
        "workload": workload,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "stats": stats,
        "calibration_s": summarize(loops, min(loops)),
        "env": environment((timed or traced or [{}])[0].get("env")),
    }
    if trace:
        result["layers"] = layers
    return result


def _layer_metrics(timed, traced, failures):
    """Per-layer metrics: median of each traced child's values.  Counts must
    repeat exactly across children, or the run counts as failed."""
    if not traced or not timed:
        return {}
    from spans import LAYER_METRICS  # only traced runs load the tracing code

    out, unsteady = {}, []
    for name, unit in LAYER_METRICS.items():
        values = [s["layers"][name] for s in traced]
        if unit in ("count", "digits"):
            if len(set(values)) > 1:
                unsteady.append(f"{name} {values}")
            out[name] = {"value": values[0], "unit": unit}
        else:
            out[name] = {"value": statistics.median(values), "unit": unit}
    if unsteady:
        failures.append("counts differ between traced children: " + "; ".join(unsteady))
    overhead = min(s["wall_s"] for s in traced) / min(s["wall_s"] for s in timed)
    out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return out


def contract_line(result: dict, trace: bool) -> dict:
    """The last stdout line of `run.py`."""
    if trace:
        metrics = result["layers"]
    else:
        metrics = {name: {"value": result["stats"][name]["value"], "unit": unit}
                   for name, unit in END_TO_END.items() if name in result["stats"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
