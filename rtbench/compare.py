#!/usr/bin/env python3
"""Compare two sets of result records, refusing mismatched environments.

    python3 rtbench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by ``run.py --out DIR``.  For every
workload and end-to-end metric present in both, prints the median over
each side's records, the change relative to the base, and whether it
worsened by more than the metric's bound in ``BENCHMARK.json``.  A
workload whose records carry different environment fingerprints is not
compared: the command exits 3 naming the fingerprints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def _load(directory: Path):
    groups = defaultdict(list)
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        groups[record["workload"]].append(record)
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base, new = _load(args.base), _load(args.new)

    workloads = sorted(set(base) & set(new))
    prints = {w: {r["fingerprint_id"] for r in base[w] + new[w]} for w in workloads}
    mismatched = [w for w in workloads if len(prints[w]) > 1]
    if mismatched:
        for w in mismatched:
            print(f"refusing to compare {w}: environment fingerprints differ ({', '.join(sorted(prints[w]))})", file=sys.stderr)
        return 3
    for workload in workloads:
        print(f"{workload}: {len(base[workload])} base vs {len(new[workload])} new records")
        for name, spec in metrics.items():
            b = statistics.median(r["metrics"][name]["value"] for r in base[workload])
            n = statistics.median(r["metrics"][name]["value"] for r in new[workload])
            change = (n - b) / b
            worse = change > spec["bound"] if spec["better"] == "lower" else -change > spec["bound"]
            verdict = "WORSE beyond bound" if worse else "within bound"
            print(f"  {name:12s} {b:10.4g} -> {n:10.4g} {spec['unit']:5s} {change:+7.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
