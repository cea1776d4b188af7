"""Repeat the benchmark over several seeds and report how steady its figures are.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 [--trace 0|1] [--first-seed 1]

Seed ``s`` runs every workload once, in an order shuffled by ``s``, so that
drift of the machine spreads over the workloads.  For each end-to-end metric
of BENCHMARK.json it prints the median and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  Deterministic figures --
``checks_failed``, ``checks_total``, ``headroom_dec.*`` and, with
``--trace 1``, every call count and computed count -- must repeat
exactly.  The summary goes to ``perfbench/out/steadiness-trace<t>.json``.
Exits 1 if a spread (other than ``setup_s``'s) exceeds its bound, a
deterministic figure changes, or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXACT_UNITS = ("count", "dec", "B")  # counts, check headroom and computed bytes


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to take quartiles")
    workloads = [w["name"] for w in spec["workloads"]]

    records: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        order = list(workloads)
        random.Random(seed).shuffle(order)
        for workload in order:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            records[workload].append(record)
            print(f"seed {seed} {workload}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    ok = True
    summary = {}
    for workload, runs in records.items():
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": metric["bound"], "values": values}
            if spread > metric["bound"] and metric["name"] != "setup_s":
                ok = False
        exact = sorted(n for n, e in runs[0]["metrics"].items() if e["unit"] in EXACT_UNITS)
        changed = [n for n in exact if any(r["metrics"].get(n) != runs[0]["metrics"][n] for r in runs[1:])]
        incorrect = sum(not r["correct"] for r in runs)
        ok = ok and not changed and not incorrect
        summary[workload] = {"runs": len(runs), "incorrect": incorrect, "metrics": rows,
                             "exact_figures": exact, "changed_exact_figures": changed}
        print(f"\n{workload}: {len(runs)} runs, {incorrect} not correct, "
              f"{len(exact)} exact figures, changed: {changed or 'none'}")
        for name, row in rows.items():
            print(f"  {name:12s} median {row['median']:10.4f}  spread {row['spread']:6.3f}  "
                  f"bound {row['bound']:.2f}  (bound/3 {row['bound'] / 3:.3f})")

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"steadiness-trace{args.trace}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
