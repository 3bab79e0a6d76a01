#!/usr/bin/env python3
"""Cylinder entropy of a long orbit over the Adler-Weiss partition.

Prints the H(depth)/depth scan with adequacy marks, the exact admissible
word-count rates, and the counting-bound margin.  Works for the linear cat
map or a small perturbation of it (pass --amplitude; the partition is then
reused across the conjugacy and results carry the non-exact-partition flag).
"""

import argparse

from toruslab.cli import _int_at_least
from toruslab.config import parse_config
from toruslab.runner import run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=_int_at_least(1), default=10_000_000)
    ap.add_argument("--depth", type=_int_at_least(1), default=12)
    ap.add_argument("--amplitude", type=float, default=0.0)
    ap.add_argument("--seed-point", type=float, nargs=2,
                    default=[0.2137214321, 0.5721347123])
    ap.add_argument("--out", default="records")
    args = ap.parse_args()

    map_spec = {"matrix": [[2, 1], [1, 1]], "amplitude": args.amplitude}
    if args.amplitude > 0:
        map_spec["perturbation"] = [{"coeff": [1.0, 0.0], "freq": [0, 1]}]
    cfg = parse_config({
        "label": f"entropy-n{args.depth}-L{args.length}",
        "map": map_spec,
        "target": {"kind": "lebesgue"},
        "entropy": {
            "source": {"kind": "orbit", "point": list(args.seed_point),
                       "length": args.length},
            "depths": list(range(1, args.depth + 1)),
            "count_depths": list(range(1, 15)),
            "bound_check": {"epsilon": 0.1, "depth": 10, "tolerance": 0.05},
        },
        "output_dir": args.out,
    })
    record = run(cfg)
    ent = record["stages"]["entropy"]
    if "error" in ent:
        raise SystemExit(f"entropy stage failed: {ent['error']}")
    for row in ent["sequence"]:
        mark = "" if row["adequate"] else "  (inadequate)"
        print(f"depth {row['depth']:2d}: H/n = {row['h_over_n']:.5f} "
              f"observed {row['observed']}{mark}")
    print(f"h_est = {ent['h_est']:.5f} at depth {ent['depth_used']}")
    print(f"K0 estimate: {ent['k0_est']:.5f}")
    r14 = [r for r in ent["count_rates"] if r["depth"] == 14]
    if r14:
        print(f"count rate at depth 14: {r14[0]['rate']:.5f}")
    bc = ent.get("bound_check")
    if bc:
        print(f"counting-bound margin (eps={bc['epsilon']}, "
              f"depth={bc['depth']}): {bc['margin']:+.4f}")
    if ent["non_exact_partition"]:
        print("note: partition reused across the perturbation "
              "(non-exact-partition flag set)")
    print(f"record: {record['record_path']}")


if __name__ == "__main__":
    main()
