"""Run one holoproj benchmark measurement.

    python3 holobench/run.py --workload full-l4 --seed 1 --seconds 27 --trace 0

Prints a summary line (per metric the reported value, then minimum,
quartiles, median and sample count of the raw child times; the same for the
host-speed calibration loop; failures; the environment) and, as the last
line, the result object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones (wall_s, setup_s, peak_rss_mb); with --trace 1 they
are the per-layer metrics of traced children plus the tracing overhead.
"""

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = harness.contract_line(result, bool(args.trace))
    if args.trace:
        from spans import LAYER_METRICS
        expected = [*LAYER_METRICS, "trace.overhead"]
    else:
        expected = list(harness.END_TO_END)
    if sorted(line["metrics"]) != sorted(expected):
        print(f"holobench: no successful sample: {result['failures'][:3]}", file=sys.stderr)
        return 1
    print(json.dumps({k: result[k] for k in ("workload", "stats", "calibration_s", "failures",
                                             "env")}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
