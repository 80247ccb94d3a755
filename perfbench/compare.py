"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE
    python3 perfbench/compare.py RUNS

Each argument is a directory of run records (run.py writes them to
.perfbench/runs/) or a JSON file holding a list of records, such as
perfbench/baseline.json.  Make both sides with the same benchmark code,
seconds and seeds, alternating which commit runs first.

With one argument it prints, per workload and end-to-end metric, the
median, the quartiles and the spread (interquartile range over median)
against the metric's bound in BENCHMARK.json.

With two it prints both sides and a verdict per workload and metric:

* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unresolved``: a side's spread is wider than the bound, and not every
  change run beats every parent run;
* ``gain``: the change wins at least 9 of 10 same-seed pairs and the
  medians differ by more than the parent's interquartile range;
* ``same``: none of these.

A ``*`` marks pairings that perfbench/design.json predicts no change for.
Per-layer counts from traced runs must repeat exactly for the same seed,
and each seed's result digest must match; self times are shown as median
deltas so that a gain can be located in a layer.  Runs with different
arithmetic backends are not compared.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_SUFFIXES = (".calls", "rows_in", "max_bits", "branches", "trace_entries", "distinct_ratio")


def load(path: str) -> list:
    if os.path.isdir(path):
        records = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".json"):
                with open(os.path.join(path, name), encoding="utf-8") as fh:
                    records.append(json.load(fh))
        return records
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    no_change = {
        (metric, workload)
        for row in design["interactions"]
        for metric, workload in row["predicted_no_change"]
    }
    return bench, no_change


def values(records, workload, metric):
    """(seed, value) pairs of the untraced runs of one workload."""
    return [
        (r["seed"], r["metrics"][metric]["value"])
        for r in records
        if r["workload"] == workload and not r["trace"]
    ]


def summary(vals):
    """(median, q1, q3, spread) of a list of numbers."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(parent, change, bound, higher_better):
    sign = 1 if higher_better else -1
    p_med, p_q1, p_q3, p_spread = summary([v for _, v in parent])
    c_med, _, _, c_spread = summary([v for _, v in change])
    if sign * (c_med - p_med) < -bound * p_med:
        return "worse"
    all_better = min(sign * v for _, v in change) > max(sign * v for _, v in parent)
    if max(p_spread, c_spread) > bound and not all_better:
        return "unresolved"
    by_seed = dict(parent)
    pairs = [(by_seed[s], v) for s, v in change if s in by_seed]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain"
    return "same"


def one_side(records, bench):
    print(f"{'workload':15s} {'metric':16s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>7s} {'bound':>6s}")
    for workload in sorted({r["workload"] for r in records}):
        for m in bench["end_to_end"]:
            vals = [v for _, v in values(records, workload, m["name"])]
            if not vals:
                continue
            med, q1, q3, spread = summary(vals)
            flag = "" if spread <= m["bound"] / 3 else (" noisy" if spread <= m["bound"] else " TOO NOISY")
            print(f"{workload:15s} {m['name']:16s} {len(vals):3d} {med:12.4f} {q1:12.4f} {q3:12.4f}"
                  f" {spread:7.3f} {m['bound']:6.2f}{flag}")
    digests(records, records)


def digests(parent, change):
    by_key = {}
    for side, records in (("parent", parent), ("change", change)):
        for r in records:
            by_key.setdefault((r["workload"], r["seed"]), {}).setdefault(side, set()).add(
                r["result_digest"]
            )
    for (workload, seed), sides in sorted(by_key.items()):
        found = set().union(*sides.values())
        if len(found) > 1:
            print(f"ANSWERS CHANGED: {workload} seed {seed}: result digests differ {sorted(found)}")


def layers(parent, change):
    def traced(records):
        out = {}
        for r in records:
            if r["trace"]:
                out.setdefault(r["workload"], []).append(r)
        return out

    p_by, c_by = traced(parent), traced(change)
    for workload in sorted(set(p_by) & set(c_by)):
        print(f"\nper-layer, {workload}: parent {len(p_by[workload])} traced runs,"
              f" change {len(c_by[workload])}")
        p_seeds = {r["seed"]: r["per_layer"] for r in p_by[workload]}
        c_seeds = {r["seed"]: r["per_layer"] for r in c_by[workload]}
        names = list(next(iter(p_seeds.values())))
        for name in names:
            if name.endswith(EXACT_SUFFIXES):
                diffs = [
                    (s, p_seeds[s][name], c_seeds[s][name])
                    for s in sorted(set(p_seeds) & set(c_seeds))
                    if p_seeds[s][name] != c_seeds[s][name]
                ]
                if diffs:
                    shown = "; ".join(f"seed {s}: {p} -> {c}" for s, p, c in diffs[:3])
                    print(f"  {name:34s} count differs: {shown}")
            else:
                p_med = statistics.median(x[name] for x in p_seeds.values())
                c_med = statistics.median(x[name] for x in c_seeds.values())
                if p_med or c_med:
                    delta = f"{(c_med - p_med) / p_med:+.1%}" if p_med else "new"
                    print(f"  {name:34s} {p_med:12.6g} -> {c_med:12.6g}  {delta}")


def two_sides(parent, change, bench, no_change):
    backends = {r["env"]["backend"] for r in parent + change}
    if len(backends) > 1:
        print(f"refusing to compare runs with different arithmetic backends: {sorted(backends)}")
        return 2
    print(f"{'workload':15s} {'metric':16s} {'parent median [q1, q3]':>36s}"
          f" {'change median [q1, q3]':>36s} {'delta':>8s}  verdict")
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        for m in bench["end_to_end"]:
            p = values(parent, workload, m["name"])
            c = values(change, workload, m["name"])
            if not p or not c:
                continue
            pm, pq1, pq3, _ = summary([v for _, v in p])
            cm, cq1, cq3, _ = summary([v for _, v in c])
            v = verdict(p, c, m["bound"], m["better"] == "higher")
            star = "*" if (m["name"], workload) in no_change else " "
            print(f"{workload:15s} {m['name']:16s} {pm:12.4f} [{pq1:10.4f}, {pq3:10.4f}]"
                  f" {cm:12.4f} [{cq1:10.4f}, {cq3:10.4f}] {(cm - pm) / pm:+8.1%} {star}{v}")
    digests(parent, change)
    layers(parent, change)
    return 0


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench, no_change = spec()
    if len(argv) == 1:
        one_side(load(argv[0]), bench)
        return 0
    return two_sides(load(argv[0]), load(argv[1]), bench, no_change)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
