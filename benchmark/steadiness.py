#!/usr/bin/env python3
"""Steadiness of the benchmark: repeated sets of runs of the same code.

    python3 benchmark/steadiness.py [--sets 2] [--runs 10]

Runs benchmark/run.py --trace 0 `runs` times per workload and set, each run
with its own seed, and reads BENCHMARK.json for the run length and bounds.
For every end-to-end metric it reports, per set, the median and the spread
(distance between the first and third quartile as a share of the median),
and across sets the shift of the median: the largest relative difference
of a later set's median from the first set's, printed with its sign
(positive = worse).  A workload passes when every spread is within its
bound, no later median differs from the first by more than the bound in
either direction, and the share of failed operations is the same in every
set.  One row per workload; the raw results go to
.bench_out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT = 900


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results: dict[str, list[list[dict]]] = {w: [] for w in names}
    seed = args.first_seed
    for _ in range(args.sets):
        for w in names:
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(bench, w, seed))
                seed += 1
            results[w].append(runs)

    all_ok = True
    for w in names:
        cells, ok = [], True
        shares = {r["failed"] / r["attempted"]
                  for runs in results[w] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in results[w]
                                       for r in runs):
            ok = False
        for name, m in metrics.items():
            sets = [[r["metrics"][name]["value"] for r in runs]
                    for runs in results[w]]
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets] if args.runs >= 2 else [0.0]
            sign = 1.0 if m["better"] == "lower" else -1.0
            shift = max((sign * (b - meds[0]) / meds[0] for b in meds[1:]),
                        key=abs, default=0.0)
            good = abs(shift) <= m["bound"] and max(spreads) <= m["bound"]
            ok &= good
            cells.append(f"{name} med {'/'.join('%.4g' % x for x in meds)} "
                         f"spread {'/'.join('%.3f' % x for x in spreads)} "
                         f"shift {shift:+.3f} bound {m['bound']}"
                         + ("" if good else " FAIL"))
        share = ",".join("%.4f" % s for s in sorted(shares))
        print(f"{w:14s} {'ok  ' if ok else 'FAIL'} failed-share {share} | "
              + " | ".join(cells))
        all_ok &= ok

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.json"), "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
