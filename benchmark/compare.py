#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

usage: compare.py A1.jsonl [A2.jsonl ...] -- B1.jsonl [B2.jsonl ...]

Each file holds the JSON records one pass of benchmark/run.sh appends
(--out); side A is the parent, side B the change. Every untraced record
of a workload is one sample of each end-to-end metric, paired with B's
sample of the same index. One row per workload and metric gives each
side's median and quartiles and a verdict under BENCHMARK.json's bounds:

  better      at least 10 pairs, B wins at least 9 of every 10 (ties
              count for neither), and the medians differ by more than
              A's interquartile distance;
  worse       B's median is worse than A's by more than the bound;
  unresolved  either side's interquartile distance exceeds the bound,
              unless every B sample is better than every A sample;
  unchanged   otherwise.

Records from different hosts (cores, ISA, compiler, build type) or run
lengths are refused. Exit status: 0 if no row is worse, 1 if one is,
2 on a usage error or refused mix.
"""

import json
import os
import statistics
import sys

HOST_KEYS = ("cores", "isa", "compiler", "build_type")
MIN_PAIRS = 10  # fewer pairs cannot support a claimed gain


def load(paths):
    """{(workload, metric): [values in file order]} plus the run settings."""
    samples, settings = {}, set()
    for path in paths:
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                settings.add(tuple(rec["host"][k] for k in HOST_KEYS) +
                             (rec["seconds"], rec["quick"]))
                if rec["trace"] != 0:
                    continue
                for name, metric in rec["metrics"].items():
                    samples.setdefault((rec["workload"], name), []).append(
                        metric["value"])
    return samples, settings


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, better, bound):
    sign = 1.0 if better == "higher" else -1.0  # so larger sign*x is better
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, q3a = quartiles(a)
    q1b, q3b = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * y > sign * x)
    gain = sign * (med_b - med_a)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and
            gain > q3a - q1a):
        return "better"
    if -gain > bound * abs(med_a):
        return "worse"
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    scale = abs(med_a) or 1.0
    if not all_better and max(q3a - q1a, q3b - q1b) > bound * scale:
        return "unresolved"
    return "unchanged"


def main(argv):
    if "--" not in argv or argv.index("--") == 0 or argv[-1] == "--":
        print(__doc__.strip(), file=sys.stderr)
        return 2
    split = argv.index("--")
    a_samples, a_settings = load(argv[:split])
    b_samples, b_settings = load(argv[split + 1:])
    settings = a_settings | b_settings
    if len(settings) > 1:
        print("compare.py: refusing to mix hosts or run lengths: " +
              "; ".join(map(str, sorted(settings, key=str))), file=sys.stderr)
        return 2

    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    fmt = "{:<11} {:<15} {:>34} {:>34} {:>8}  {}"
    print(fmt.format("workload", "metric", "A median [q1, q3]",
                     "B median [q1, q3]", "change", "verdict"))
    worse = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            a, b = a_samples.get(key), b_samples.get(key)
            if not a or not b:
                continue
            v = verdict(a, b, metric["better"], metric["bound"])
            worse += v == "worse"
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / med_a * 100 if med_a else 0.0
            cells = []
            for values, med in ((a, med_a), (b, med_b)):
                q1, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            print(fmt.format(workload, metric["name"], cells[0], cells[1],
                             f"{change:+.1f}%", v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
