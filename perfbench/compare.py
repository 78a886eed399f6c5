#!/usr/bin/env python3
"""Compare two sets of saved perfbench results.

Usage:

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result-*.json files as run.py saves them under
perfbench/out/ (copy that directory aside between the two commits). For
every workload, the medians of each metric are compared. An end-to-end
metric whose new median is worse than the base median by more than its
bound in BENCHMARK.json is a regression. Per-layer metrics are shown
without a verdict.

Exit codes: 0 no regression, 1 at least one regression, 2 the two sets
were measured on different machines (fingerprint: nproc, CPU model,
rustc -V) or are unusable. Results from different fingerprints are never
compared.
"""

import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def fingerprints(runs):
    return {json.dumps(r["fingerprint"], sort_keys=True) for r in runs}


def medians(runs):
    """(workload, trace) -> metric -> (median, unit, samples)."""
    values = {}
    for r in runs:
        key = (r["workload"], r["trace"])
        for name, m in r["result"]["metrics"].items():
            values.setdefault(key, {}).setdefault(name, ([], m["unit"]))[0].append(m["value"])
    return {
        key: {name: (statistics.median(v), unit, len(v)) for name, (v, unit) in metrics.items()}
        for key, metrics in values.items()
    }


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("compare: no result-*.json files in one of the directories", file=sys.stderr)
        return 2
    prints = fingerprints(base) | fingerprints(new)
    if len(prints) != 1:
        print("compare: refusing to compare results from different machines:", file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}

    b, n = medians(base), medians(new)
    regressions = 0
    for key in sorted(set(b) & set(n)):
        workload, trace = key
        print(f"{workload} ({'traced' if trace else 'untraced'})")
        for name in sorted(set(b[key]) & set(n[key])):
            bv, unit, bn = b[key][name]
            nv, _, nn = n[key][name]
            meta = e2e.get(name) or layer.get(name) or {"better": "lower"}
            change = (nv - bv) / bv if bv else 0.0
            worse = change if meta["better"] == "lower" else -change
            verdict = ""
            if name in e2e:
                if worse > e2e[name]["bound"]:
                    verdict = f"REGRESSION (bound {e2e[name]['bound']:.0%})"
                    regressions += 1
                else:
                    verdict = "ok"
            print(f"  {name:40s} {bv:14.6g} -> {nv:14.6g} {unit:10s} "
                  f"{change:+8.2%}  n={bn}/{nn}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
