#!/usr/bin/env python3
"""Compares two sets of benchmark results written by `run.py --out`.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one tagged result per line. Results compare only when their
provenance tags agree on machine and protocol (nproc, CPU model, rustc,
protocol, threads); otherwise the comparison is refused with exit code 2.
The git sha and source hash may differ: they name the two sides.

For every workload, mode and metric it prints each side's median over its
runs and the change, and exits 1 if an end-to-end metric worsened by more
than its bound in BENCHMARK.json or a result failed its correctness check.
"""

import json
import statistics
import sys
from pathlib import Path

MACHINE = ("nproc", "cpu_model", "rustc", "protocol", "threads")
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    tags = {tuple(r["provenance"][k] for k in MACHINE) for r in base + new}
    if len(tags) != 1:
        print("refusing to compare results with different provenance tags:", file=sys.stderr)
        for tag in sorted(tags, key=str):
            print("  " + json.dumps(dict(zip(MACHINE, tag))), file=sys.stderr)
        sys.exit(2)

    bounds = {m["name"]: m for m in json.loads(SPEC.read_text())["end_to_end"]}
    bad = [r for r in base + new if not r["result"]["correct"]]
    for r in bad:
        print(f"incorrect result: {json.dumps(r['provenance'])}")
    keys = sorted({(r["provenance"]["workload"], r["provenance"]["trace"]) for r in base + new})
    for workload, trace in keys:
        side = [[r["result"]["metrics"] for r in rs
                 if (r["provenance"]["workload"], r["provenance"]["trace"]) == (workload, trace)]
                for rs in (base, new)]
        if not all(side):
            continue
        print(f"{workload} (trace {trace}): {len(side[0])} vs {len(side[1])} run(s)")
        for name in side[0][0]:
            b, n = (statistics.median(m[name]["value"] for m in ms) for ms in side)
            change = n / b - 1 if b else float("nan")
            verdict = ""
            if name in bounds:
                worse = change if bounds[name]["better"] == "lower" else -change
                verdict = "REGRESSION" if worse > bounds[name]["bound"] else "ok"
                bad += [name] if verdict == "REGRESSION" else []
            unit = side[0][0][name]["unit"]
            print(f"  {name:36s} {b:12.5g} -> {n:12.5g} {unit:6s} {change:+8.2%} {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
