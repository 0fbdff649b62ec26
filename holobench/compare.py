"""Flag end-to-end metrics that got worse between two benchmark result files.

    python3 holobench/compare.py OLD.json NEW.json

Result files come from `report.py --out`.  For every workload in both files,
each end-to-end metric of BENCHMARK.json is compared by its reported value
(the statistic run.py reports); it is flagged when NEW is worse than OLD by
more than the metric's bound, a share of OLD's value.  A higher failure fraction is
flagged too.  Exit status 1 when anything is flagged.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def compare(old: dict, new: dict, spec: dict) -> list:
    """Rows (workload, metric, old, new, change, bound, flagged)."""
    rows = []
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        a, b = old["workloads"][workload], new["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a["stats"] or name not in b["stats"]:
                continue
            before, after = a["stats"][name]["value"], b["stats"][name]["value"]
            change = (after - before) / before
            worse = change if metric["better"] == "lower" else -change
            rows.append((workload, name, before, after, change, metric["bound"],
                         worse > metric["bound"]))
        frac_a = a["failed"] / a["attempted"]
        frac_b = b["failed"] / b["attempted"]
        rows.append((workload, "fail_frac", frac_a, frac_b, frac_b - frac_a, 0.0, frac_b > frac_a))
    return rows


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv[1:])
    spec = json.loads(BENCHMARK.read_text())
    for key in ("nproc", "python", "platform"):
        if old["env"].get(key) != new["env"].get(key):
            print(f"warning: {key} differs: {old['env'].get(key)} vs {new['env'].get(key)}")
    rows = compare(old, new, spec)
    print(f"{'workload':<12} {'metric':<12} {'old':>10} {'new':>10} {'change':>8} {'bound':>6}")
    for workload, name, before, after, change, bound, flagged in rows:
        print(f"{workload:<12} {name:<12} {before:>10.4g} {after:>10.4g} {change:>+8.1%} "
              f"{bound:>6.0%}" + ("  WORSE" if flagged else ""))
    return 1 if any(row[-1] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
