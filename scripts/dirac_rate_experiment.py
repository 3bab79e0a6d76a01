#!/usr/bin/env python3
"""Decay rate of the fixed-point Dirac basin vs the rate identity.

The limit rate for the delta measure at the origin is
-log((3+sqrt(5))/2) = -0.9624 (entropy 0 minus the unstable log-Jacobian),
but only as eps -> 0.  At finite eps the weak* ball also holds the mixture
(1-t) delta + t Leb for t < eps/d, where d = dist*(Leb, delta) = 1/3, whose
h - integral of psi is rho(eps) = -(1 - eps/d) log(lambda); by the level-2
large-deviation lower bound the eps-rate is at least rho(eps) (-0.3850 at
eps = 0.2, -0.6737 at eps = 0.1).  For each eps the script prints the slope
with its gap to rho(eps), the reference acceptance criterion 5 gates at
eps = 0.1, and its gap to the limit; as eps decreases, rho(eps) tends to
-0.9624 and so should the slope.  The run is the config of criterion 5
(dirac-rate) with the grid resolution and the eps list as given.
"""

import argparse

from toruslab.cli import _int_at_least
from toruslab.config import parse_config
from toruslab.experiments import (DIRAC_RATE_CONFIG, LOG_LAMBDA,
                                  dirac_rate_bound)
from toruslab.runner import run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=_int_at_least(1), default=2048)
    ap.add_argument("--epsilons", type=float, nargs="+",
                    default=[0.2, 0.1, 0.05, 0.025])
    ap.add_argument("--threads", type=_int_at_least(1), default=None,
                    help="worker processes for the basin sweep, at least 1 "
                         "(default: the CPUs this process may run on)")
    ap.add_argument("--out", default="records")
    args = ap.parse_args()

    cfg = parse_config({
        **DIRAC_RATE_CONFIG, "label": f"dirac-rate-G{args.grid}",
        "grid": {"resolution": args.grid},
        "basin": {**DIRAC_RATE_CONFIG["basin"], "epsilons": args.epsilons},
        "output_dir": args.out})
    record = run(cfg, threads=args.threads)
    st = record["stages"]["basin"]
    print(f"limit rate: {-LOG_LAMBDA:+.4f}")
    for r in st["rates"]:
        h, integral = dirac_rate_bound(r["epsilon"], cfg.family)
        rho = h - integral
        print(f"eps={r['epsilon']}: slope {r['slope']:+.4f} "
              f"(stderr {r['stderr']:.4f}, censored {r['censored']}) "
              f"rho(eps) {rho:+.4f}, gap to rho {abs(r['slope'] - rho):.4f}, "
              f"gap to limit {abs(r['slope'] + LOG_LAMBDA):.4f}")
    for eps, msg in st["rate_errors"].items():
        print(f"eps={eps}: {msg}")
    print(f"verdict: {st['verdict']}")
    res = record["stages"].get("residuals", {})
    if "rate_residual" in res:
        print(f"rate residual against the eps -> 0 identity (smallest eps): "
              f"{res['rate_residual']:+.4f}")
    print(f"record: {record['record_path']}")


if __name__ == "__main__":
    main()
