#!/usr/bin/env python3
"""Compare two sets of perfbench records.

    python3 perfbench/compare.py A.jsonl B.jsonl

Each file holds the record lines of one or more runs: perfbench's
standard output, appended run after run (`... >> A.jsonl`); the result
objects between the records are skipped. Records are grouped by
workload and mode (traced or not). For each metric x workload the
script prints the median of A, the median of B, B's change against A,
and each side's spread as a share of its own median.

A change is flagged only when it is wider than the recorded spread:
with two or more runs on a side, that side's spread is the distance
between the first and third quartile of its run values; with one run,
it is the quartile distance the run recorded across its own samples
(passes, set-ups), or the max-min range where a record gives no
quartiles (per-cell times). The wider of the two sides' spreads, as a
share of A's median, is the bar.
Per-cell solver times (`pta.solve_s.<program>.<cell>`) are compared
the same way.
"""

import json
import statistics
import sys


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "perfbench_record" not in rec:
                continue
            stamp = rec["stamp"]
            key = (stamp["workload"], "traced" if stamp["trace"] else "untraced")
            groups.setdefault(key, []).append(rec)
    return groups


def series(records, section, name):
    """Per-run values of one metric, plus the spread of a single run."""
    entries = [r[section][name] for r in records if name in r[section]]
    values = [e["value"] if "value" in e else e["median"] for e in entries]
    if len(entries) == 1:
        e = entries[0]
        spread = e["q3"] - e["q1"] if "q3" in e else e["max"] - e["min"]
    elif len(entries) >= 2:
        q = statistics.quantiles(values, n=4)
        spread = q[2] - q[0]
    else:
        spread = None
    return values, spread


def better_directions():
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"] for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def compare(a_groups, b_groups):
    better = better_directions()
    flagged = 0
    print(f"{'workload':<18} {'metric':<34} {'A':>14} {'B':>14} {'A sprd':>7} {'B sprd':>7} "
          f"{'delta':>9} {'bar':>8}  verdict")
    for key in sorted(set(a_groups) & set(b_groups)):
        a_recs, b_recs = a_groups[key], b_groups[key]
        label = f"{key[0]}/{key[1]}"
        for section in ("metrics", "cells"):
            names = sorted(set(a_recs[-1][section]) & set(b_recs[-1][section]))
            for name in names:
                a_vals, a_spread = series(a_recs, section, name)
                b_vals, b_spread = series(b_recs, section, name)
                a_med, b_med = statistics.median(a_vals), statistics.median(b_vals)
                if a_med == 0:
                    continue
                delta = (b_med - a_med) / abs(a_med)
                bar = max(a_spread, b_spread) / abs(a_med)
                verdict = ""
                if abs(delta) > bar:
                    flagged += 1
                    direction = better.get(name, "lower" if section == "cells" else None)
                    if direction is None:
                        verdict = "CHANGED"
                    elif (delta < 0) == (direction == "lower"):
                        verdict = "BETTER"
                    else:
                        verdict = "WORSE"
                b_share = b_spread / abs(b_med) if b_med else float("nan")
                print(f"{label:<18} {name:<34} {a_med:>14.6g} {b_med:>14.6g} "
                      f"{a_spread / abs(a_med):>7.1%} {b_share:>7.1%} "
                      f"{delta:>+8.1%} {bar:>8.1%}  {verdict}")
    for key in sorted(set(a_groups) ^ set(b_groups)):
        print(f"only in {'A' if key in a_groups else 'B'}: {key[0]}/{key[1]}")
    print(f"{flagged} change(s) wider than the recorded spread")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = load(argv[1]), load(argv[2])
    for path, groups in ((argv[1], a), (argv[2], b)):
        if not groups:
            print(f"compare.py: no perfbench records in {path}", file=sys.stderr)
            return 2
    compare(a, b)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
