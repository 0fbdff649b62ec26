"""Print every metric of the holoproj benchmark in one go.

    python3 holobench/report.py [--out results.json]

Every run lasts BENCHMARK.json's run_seconds and uses seed 1.  For each
workload: an untraced run (wall_s, setup_s, peak_rss_mb as the
reported value, then median [q1, q3] and the sample count; fail_frac =
failed / attempted over both runs) and a traced run (per-layer metrics; tracing overhead =
traced wall_s / untraced wall_s).  Traced children are held to the same
pinned digests as untraced ones, so a passing traced run shows that tracing
changed no output.  Then the frontier probe, with its exit code and last
stderr line.  --out writes everything, with the environment, for compare.py.
"""

import argparse
import json
import sys

import harness
from spans import LAYER_METRICS

SEED = 1


def _fmt(stat: dict) -> str:
    return (f"{stat['value']:.4g}  {stat['median']:.4g} [{stat['q1']:.4g}, {stat['q3']:.4g}]"
            f" n={stat['n']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    seconds = json.loads((harness.ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    results = {}
    for name in harness.WORKLOADS:
        plain = harness.run_workload(name, SEED, seconds)
        traced = harness.run_workload(name, SEED, seconds, trace=True)
        plain["layers"] = traced["layers"]
        for key in ("attempted", "failed", "failures"):
            plain[key] += traced[key]
        results[name] = plain
        print(f"done {name}", file=sys.stderr, flush=True)
    probes = {name: harness.run_probe(name) for name in harness.PROBES}

    units = dict(harness.END_TO_END)
    units["fail_frac"] = "ratio"
    print(f"{'workload':<12} " + " ".join(f"{m + ' (' + u + ')':<42}" for m, u in units.items())
          + " trace.overhead")
    for name, r in results.items():
        cells = [_fmt(r["stats"][m]) if m in r["stats"] else "-" for m in harness.END_TO_END]
        cells.append(f"{r['failed'] / r['attempted']:.3g} ({r['failed']}/{r['attempted']})")
        overhead = r["layers"].get("trace.overhead", {}).get("value")
        print(f"{name:<12} " + " ".join(f"{c:<42}" for c in cells)
              + (f" {overhead:.3f}" if overhead else " -"))
    for name, r in probes.items():
        print(f"{name:<12} exit {r['returncode']} after {r['elapsed_s']:.1f} s, "
              f"report written: {r['report_written']}; {r['stderr_tail']}")

    print()
    names = list(results)
    print(f"{'per-layer metric':<26} {'unit':<7} " + " ".join(f"{n:>12}" for n in names))
    for metric, unit in dict(LAYER_METRICS, **{"trace.overhead": "ratio"}).items():
        row = [results[n]["layers"].get(metric, {}).get("value") for n in names]
        print(f"{metric:<26} {unit:<7} "
              + " ".join(f"{v:>12.5g}" if v is not None else f"{'-':>12}" for v in row))
    for name, r in results.items():
        for why in r["failures"]:
            print(f"FAILED {name}: {why}")

    if args.out:
        env = next(iter(results.values()))["env"]
        with open(args.out, "w") as fh:
            json.dump({"env": env, "workloads": results, "probes": probes}, fh, indent=2)
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
