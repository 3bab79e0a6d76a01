"""Command line interface.

Subcommands:
  run <config.json>          execute the configured pipelines, write a record
  report <records...>        merge records into csv / json / plotdata files
  verify-map <config.json>   certified cone verification only
  acceptance                 run the registered acceptance suite

Exit codes: 0 success, 2 verdict/tolerance failure, 1 error.  The number of
worker processes a basin sweep may use comes from --threads, else the CPUs
the process may run on (its affinity mask, as `taskset` sets it).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from toruslab.config import ConfigInvalid, load_config
from toruslab.dynamics import NotHyperbolic, verify_hyperbolicity


def _int_at_least(minimum: int):
    """argparse type: an integer >= minimum, else a usage error."""
    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be an integer, got {value!r}") from None
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {n}")
        return n
    return parse


def _add_threads_flag(p: argparse.ArgumentParser):
    p.add_argument("--threads", type=_int_at_least(1), default=None,
                   help="worker processes for the basin sweep, at least 1 "
                        "(default: the CPUs this process may run on)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's usage error with exit code 1, as 2 is a failed check."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="toruslab", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    _add_threads_flag(p_run)

    p_rep = sub.add_parser("report", help="merge records into report files")
    p_rep.add_argument("records", nargs="+")
    p_rep.add_argument("--format", choices=["csv", "json", "plotdata"],
                       default="csv")
    p_rep.add_argument("--out", default="reports")

    p_ver = sub.add_parser("verify-map",
                           help="certified cone verification only")
    p_ver.add_argument("config")
    p_ver.add_argument("--grid", type=_int_at_least(16), default=None,
                       help="override verification grid resolution, at "
                            "least 16")

    p_acc = sub.add_parser("acceptance",
                           help="run the registered acceptance suite")
    _add_threads_flag(p_acc)
    return ap


def cmd_run(args) -> int:
    from toruslab.runner import check_expectations, run, stage_errors
    cfg = load_config(args.config)
    record = run(cfg, threads=args.threads)
    print(f"record written to {record['record_path']}")
    errors = stage_errors(record)
    for w in record["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    for e in errors:
        print(f"stage error: {e}", file=sys.stderr)
    failures = check_expectations(record, cfg.expect)
    for f in failures:
        print(f"expectation failed: {f}", file=sys.stderr)
    if errors:
        return 1
    return 2 if failures else 0


def cmd_report(args) -> int:
    from toruslab.runner import MissingRecord, report
    try:
        written = report(args.records, args.format, args.out)
    except MissingRecord as exc:
        print(f"missing record: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


def cmd_verify_map(args) -> int:
    cfg = load_config(args.config)
    grid = args.grid if args.grid is not None else cfg.verify_grid
    try:
        rep = verify_hyperbolicity(cfg.map, grid)
    except NotHyperbolic as exc:
        print(f"NOT HYPERBOLIC: {exc}")
        return 2
    print(json.dumps(asdict(rep), indent=2))
    return 0 if rep.passed else 2


def cmd_acceptance(args) -> int:
    from toruslab.experiments import AcceptanceSuite
    suite = AcceptanceSuite(threads=args.threads)
    results = suite.run_all()
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 2 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "verify-map":
            return cmd_verify_map(args)
        if args.command == "acceptance":
            return cmd_acceptance(args)
    except ConfigInvalid as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
