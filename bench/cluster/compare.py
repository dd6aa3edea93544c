#!/usr/bin/env python3
"""Compare two sets of cluster_bench runs against the BENCHMARK.json bounds.

    python3 bench/cluster/compare.py BASE.json CHANGE.json

Both files are written by run_all.sh. For every (workload, end-to-end
metric) it prints each side's median and quartiles and a verdict:

  better / worse  the change's median moved past the metric's bound
  unchanged       it stayed within the bound
  unresolved      either side's quartile spread exceeds the bound, so the
                  runs cannot tell (unless every change run beats every
                  base run, which reads as better)

Exits 1 when any pairing is worse.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def runs_by_workload(path):
    rows = json.loads(Path(path).read_text())["runs"]
    out = {}
    for row in rows:
        if not row.get("correct", False):
            print(f"warning: {path}: a {row['workload']} run failed its correctness checks")
        out.setdefault(row["workload"], []).append(row)
    return out


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return statistics.median(values), q1, q3


def verdict(base, change, better, bound):
    b_med, b_q1, b_q3 = summary(base)
    c_med, c_q1, c_q3 = summary(change)
    sign = -1 if better == "lower" else 1
    # Positive = the change is better.
    gain = sign * (c_med - b_med) / b_med if b_med else 0.0
    spread = max((b_q3 - b_q1) / b_med if b_med else 0.0, (c_q3 - c_q1) / c_med if c_med else 0.0)
    if spread > bound:
        all_better = (min(change) > max(base)) if better == "higher" else (max(change) < min(base))
        return "better" if all_better else "unresolved"
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = runs_by_workload(sys.argv[1]), runs_by_workload(sys.argv[2])
    worse = 0
    print(f"{'workload':14} {'metric':18} {'base median [q1, q3]':>36} {'change median [q1, q3]':>36}"
          f" {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["end_to_end"][name]["value"] for r in base[workload]]
            b = [r["end_to_end"][name]["value"] for r in change[workload]]
            v = verdict(a, b, metric["better"], metric["bound"])
            worse += v == "worse"
            fmt = lambda s: f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]"
            print(f"{workload:14} {name:18} {fmt(summary(a)):>36} {fmt(summary(b)):>36}"
                  f" {metric['bound']:6.2f}  {v}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
