#!/usr/bin/env python3
"""Lebesgue is rate-zero: basin fractions of the Leb target stay flat.

Runs the config of acceptance criterion 4 (lebesgue-rate-zero) at a
configurable grid resolution and prints the per-epsilon slopes and the
verdict.  With the defaults this is that criterion's run.
"""

import argparse

from toruslab.cli import _int_at_least
from toruslab.config import parse_config
from toruslab.experiments import LEB_RATE_CONFIG
from toruslab.runner import run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=_int_at_least(1), default=512)
    ap.add_argument("--threads", type=_int_at_least(1), default=None,
                    help="worker processes for the basin sweep, at least 1 "
                         "(default: the CPUs this process may run on)")
    ap.add_argument("--out", default="records")
    args = ap.parse_args()

    cfg = parse_config({**LEB_RATE_CONFIG, "label": f"leb-rate-G{args.grid}",
                        "grid": {"resolution": args.grid},
                        "output_dir": args.out})
    record = run(cfg, threads=args.threads)
    st = record["stages"]["basin"]
    for r in st["rates"]:
        print(f"eps={r['epsilon']}: slope {r['slope']:+.6f} "
              f"(stderr {r['stderr']:.6f}, {r['rows_used']} rows)")
    print(f"verdict: {st['verdict']}")
    print(f"record: {record['record_path']}")


if __name__ == "__main__":
    main()
