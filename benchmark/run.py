#!/usr/bin/env python3
"""Benchmark for toruslab: one workload per invocation.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src` directory, nothing needs installing.  Workloads are listed in
workloads.py and README.md.

--trace 0 reports the end-to-end metrics:
  setup_s      median over 3 to 9 fresh processes (as many as fit in
               SETUP_SECONDS) of the time from process start to ready:
               import toruslab, parse the config, and build the Markov
               partition when the workload uses it;
  run_s        median over the rounds that fit in --seconds of the wall time
               of one warm runner.run(cfg) (no round starts when less than
               half a round is left);
  peak_rss_mb  peak resident set of this process after those rounds.
Both times are rescaled to a reference machine speed by calibrate.py; the
raw wall times are printed on the '#' lines.

--trace 1 alternates untraced and traced rounds for --seconds and reports
the per-layer metrics of tracing.py (medians over traced rounds), the tracing
overhead (median over pairs of traced minus untraced rescaled run time) and
the 1-thread over N-thread basin sweep speedup.

One operation is one runner stage or one output check.  The last line of
standard output is a JSON object with the keys correct, attempted, failed
and metrics; the lines before it name every metric with its unit.
"""

import os

# Fixed BLAS thread count; must be set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKERS = min(2, len(os.sched_getaffinity(0)))
SETUP_SAMPLES = (3, 9)      # fewest and most set-up probes per run
SETUP_SECONDS = 3.0         # probe until this much time is spent
PROBE_TIMEOUT = 60

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
sys.path.insert(0, HERE)


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("speedup"):
        return "ratio"
    return "count"


def load_package() -> None:
    """Import toruslab from this checkout's src, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "toruslab", "__init__.py")):
        sys.exit(f"no toruslab sources under {SRC}")
    sys.path.insert(0, SRC)
    import toruslab
    if not os.path.abspath(toruslab.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported toruslab from {toruslab.__file__}, not {SRC}")


def setup(workload):
    """What every `toruslab run` pays before its first stage."""
    from toruslab import config, markov, runner  # noqa: F401
    cfg = config.parse_config(workload.raw_config())
    if workload.uses_partition:
        markov.cat_map_partition()
    return cfg


def probe_setup(name: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to its ready line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


class Operations:
    """Counts operations (runner stages and checks) across rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_stages = None

    def add_checks(self, checks) -> None:
        for name, ok, detail in checks.items:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(f"{name}: {detail}")

    def add_round(self, workload, record) -> None:
        from workloads import Checks
        checks = Checks()
        workload.check_record(record, checks)
        stages = json.dumps(record["stages"], sort_keys=True, default=str)
        if self.first_stages is None:
            self.first_stages = stages
        checks.add("stages identical to the first round",
                   stages == self.first_stages)
        self.add_checks(checks)


def _fmt(values) -> str:
    return " ".join("%.4f" % v for v in values)


def measure_setup(workload) -> float:
    """Median rescaled set-up time over fresh processes."""
    from calibrate import Speed
    walls, scaled = [], []
    t0 = time.perf_counter()
    with Speed(1) as speed:
        while len(scaled) < SETUP_SAMPLES[0] or (
                len(scaled) < SETUP_SAMPLES[1]
                and time.perf_counter() - t0 < SETUP_SECONDS):
            before = speed.sample()
            wall = probe_setup(workload.name, workload.seed)
            walls.append(wall)
            scaled.append(speed.rescale(wall, before, speed.sample()))
    print(f"# setup wall {_fmt(walls)}")
    print(f"# setup scaled {_fmt(scaled)}")
    return statistics.median(scaled)


def end_to_end(workload, cfg, seconds: float, ops: Operations):
    from calibrate import Speed
    from toruslab import runner
    setup_s = measure_setup(workload)
    record = runner.run(cfg, threads=WORKERS)          # warm-up round
    ops.add_round(workload, record)
    walls, scaled = [], []
    with Speed(min(workload.busy_threads, WORKERS)) as speed:
        deadline = time.perf_counter() + seconds
        while not walls or (time.perf_counter()
                            + 0.5 * statistics.median(walls) < deadline):
            record, wall, s = speed.timed(runner.run, cfg, threads=WORKERS)
            walls.append(wall)
            scaled.append(s)
            ops.add_round(workload, record)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# rounds {len(walls)} run wall {_fmt(walls)}")
    print(f"# run scaled {_fmt(scaled)}")
    print(f"# run wall median {statistics.median(walls):.4f}")
    return record, {"setup_s": setup_s,
                    "run_s": statistics.median(scaled),
                    "peak_rss_mb": peak}


def traced(workload, seconds: float, ops: Operations, trace_path: str):
    import tracing as tr
    from calibrate import Speed
    from toruslab import (basin, config, dynamics, lyapunov, markov, runner,
                          weakstar)
    tracer = tr.Tracer([dynamics, weakstar, basin, lyapunov, markov, config,
                        runner],
                       hooks=[(basin, "_accumulate_hits", "basin.chunk")])
    tracer.install()
    try:
        cfg = setup(workload)
    finally:
        tracer.uninstall()
    setup_spans = tracer.take()

    def traced_run():
        tracer.install()
        try:
            return runner.run(cfg, threads=WORKERS)
        finally:
            tracer.uninstall()

    record = runner.run(cfg, threads=WORKERS)          # warm-up round
    ops.add_round(workload, record)
    plain, timed, rows = [], [], []
    with Speed(min(workload.busy_threads, WORKERS)) as speed:
        deadline = time.perf_counter() + seconds
        while not rows or time.perf_counter() < deadline:
            record, _, s = speed.timed(runner.run, cfg, threads=WORKERS)
            plain.append(s)
            ops.add_round(workload, record)
            record, _, s = speed.timed(traced_run)
            timed.append(s)
            ops.add_round(workload, record)
            spans = tracer.take()
            rows.append(tr.run_metrics(spans))
        speedup = thread_speedup(cfg, speed)

    metrics = tr.medians(rows)
    metrics.update(tr.setup_metrics(setup_spans))
    metrics["basin.thread_speedup"] = speedup
    metrics["trace.run_s"] = statistics.median(timed)
    metrics["trace.overhead_s"] = statistics.median(
        t - p for t, p in zip(timed, plain))
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"setup": tr.export(setup_spans), "run": tr.export(spans)},
                  fh)
    return record, cfg, metrics


def thread_speedup(cfg, speed) -> float:
    """1-thread over WORKERS-thread time of the workload's basin sweep
    (rescaled, two alternations, medians), or 0 when the workload has no
    basin stage."""
    if cfg.basin is None:
        return 0.0
    from toruslab import basin
    from toruslab.config import moment_vector_for_target
    target = moment_vector_for_target(cfg.target, cfg.map, cfg.family)
    times = {WORKERS: [], 1: []}
    for _ in range(2):
        for threads in times:
            _, _, s = speed.timed(
                basin.curve_sweep, cfg.map, target, cfg.basin["epsilons"],
                cfg.basin["n_values"], cfg.grid, cfg.family, threads=threads)
            times[threads].append(s)
    return statistics.median(times[1]) / statistics.median(times[WORKERS])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    load_package()
    from workloads import WORKLOADS, Checks
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(WORKLOADS)}")
    records = os.path.join(OUT, "records")
    workload = WORKLOADS[args.workload](args.seed, records)

    if args.probe_setup:
        setup(workload)
        print("ready", flush=True)
        return 0

    print(f"# workload {workload.name} seed {args.seed} workers {WORKERS} "
          f"blas_threads {BLAS_THREADS} trace {args.trace}")
    ops = Operations()
    if args.trace:
        trace_path = os.path.join(OUT, "traces", f"{workload.name}.json")
        record, cfg, metrics = traced(workload, args.seconds, ops,
                                      trace_path)
        units = {k: layer_unit(k) for k in metrics}
    else:
        cfg = setup(workload)
        record, metrics = end_to_end(workload, cfg, args.seconds, ops)
        units = E2E_UNITS
    checks = Checks()
    workload.check_reference(cfg, record, checks)
    ops.add_checks(checks)
    for name, ok, detail in checks.items:
        print(f"# reference {'ok' if ok else 'FAILED'}: {name}"
              + (f" ({detail})" if detail else ""))

    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    for failure in ops.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
