"""One benchmark sample, run in a fresh interpreter by harness.run_child.

Usage: python3 -I child.py JOB_JSON SPAWN_TIME

JOB_JSON holds the checkout root, the workload inputs, a work directory and
the trace/setup-only flags; SPAWN_TIME is the parent's time.monotonic() just
before the spawn (the clock is system-wide).  The child prints one JSON line:
set-up and wall time, peak RSS, the sha256 of its output, the environment,
and, when traced, the per-layer metrics.
"""

import hashlib
import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path


def _max_value_digits(obj) -> int:
    """Largest decimal digit count of any numerator or denominator among the
    "p/q" strings of a report."""
    if isinstance(obj, dict):
        return max((_max_value_digits(v) for v in obj.values()), default=0)
    if isinstance(obj, list):
        return max((_max_value_digits(v) for v in obj), default=0)
    if isinstance(obj, str) and obj and obj.lstrip("-").replace("/", "").isdigit():
        return max(len(part.lstrip("-")) for part in obj.split("/"))
    return 0


def _setup(holoproj, inputs, workdir):
    """Parse the characters, build the config and the projection kernel (the
    kernel is cached, so the timed verify call reuses it)."""
    if inputs["kind"] == "theta-dual":
        return [holoproj.char_from_spec(spec) for spec in inputs["chars"]]
    config_path = workdir / "config.json"
    cfg, _, _ = holoproj.cli._load_verify_config(config_path)
    cfg.kernel()
    return config_path


def _run_verify(cli, config_path, workdir):
    """The timed call: `holoproj verify --no-timestamp` through the CLI entry."""
    report_path = workdir / "report.json"
    t0 = time.perf_counter()
    code = cli.main(["verify", "--config", str(config_path), "--out", str(report_path),
                     "--no-timestamp"])
    wall = time.perf_counter() - t0
    return code, wall, report_path


def _run_theta_dual(holoproj, chars, inputs):
    """The timed call: theta^power by lattice and by series for each character,
    with exact agreement asserted."""
    power, terms = inputs["power"], inputs["terms"]
    t0 = time.perf_counter()
    pairs = []
    for psi in chars:
        direct = holoproj.theta_power_direct(psi, power, terms)
        series = holoproj.theta_power_series(psi, power, terms)
        pairs.append((direct, series, direct.agrees_with(series)))
    wall = time.perf_counter() - t0
    return pairs, wall


def main(argv) -> int:
    job = json.loads(argv[1])
    spawned = float(argv[2])
    root = Path(job["root"])
    workdir = Path(job["workdir"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import holoproj
    import holoproj.cli

    if Path(holoproj.__file__).resolve().parent != (src / "holoproj").resolve():
        raise SystemExit(f"holoproj imported from {holoproj.__file__}, not {src}")
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    inputs = job["inputs"]
    prepared = _setup(holoproj, inputs, workdir)
    setup_s = time.monotonic() - spawned
    if job["setup_only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems = []
    if inputs["kind"] == "theta-dual":
        pairs, wall = _run_theta_dual(holoproj, prepared, inputs)
        for psi, (_, _, agree) in zip(prepared, pairs):
            if not agree:
                problems.append(f"theta paths disagree for {psi!r}")
        payload = json.dumps([direct.to_json_obj() for direct, _, _ in pairs],
                             separators=(",", ":"))
        digest = hashlib.sha256(payload.encode()).hexdigest()
        digits = _max_value_digits(json.loads(payload)) if tracer else None
    else:
        code, wall, report_path = _run_verify(holoproj.cli, prepared, workdir)
        if code != 0:
            problems.append(f"verify exited {code}")
        data = report_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        digits = _max_value_digits(json.loads(data)) if tracer else None
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is not None and limit() != 4300:
        problems.append(f"int->str digit limit changed to {limit()}")

    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digest": digest,
        "problems": problems,
        "env": {"holoproj": holoproj.__version__,
                "start_method": multiprocessing.get_start_method()},
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["layers"]["cli.max_value_digits"] = digits
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
