"""Experiment runner: executes the configured pipelines and persists records.

A run produces one JSON record plus CSV sidecars (curves and rates).  Stages
are isolated: a failure inside one stage is recorded under its name and the
remaining stages still run.  Identical configs reproduce identical integer
counts for any worker count; `env.threads` is the worker count asked for,
and `env.workers`, stamped when a basin sweep ran, the worker processes the
sweep used (at most one per chunk).
"""

from __future__ import annotations

import csv
import datetime
import itertools
import json
import math
import os
import platform
import sys
from dataclasses import asdict

import numpy as np

from toruslab import basin as basin_mod
from toruslab import lyapunov as lyap_mod
from toruslab import markov as markov_mod
from toruslab.config import (ExperimentConfig, TargetSpec, mixture_moments,
                             target_components, target_measure)
from toruslab.dynamics import NotHyperbolic, verify_hyperbolicity

CURVE_COLUMNS = ["epsilon", "n", "hits", "samples", "log_fraction"]
RATE_COLUMNS = ["epsilon", "slope", "stderr", "n_min", "n_max", "rows_used",
                "min_hits"]


class MissingRecord(FileNotFoundError):
    pass


def run(cfg: ExperimentConfig, threads: int | None = None) -> dict:
    """Execute all configured stages; returns the record (also written to
    disk under cfg.output_dir)."""
    basin_mod.check_threads(threads)
    nthreads = threads if threads is not None else basin_mod.default_threads()
    record: dict = {
        "schema": "toruslab-record-v1",
        "label": cfg.label,
        "config": cfg.raw,
        "config_hash": cfg.hash,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).replace(
            microsecond=0).isoformat(),
        "family": {"truncation": cfg.family.truncation,
                   "version": cfg.family.version},
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "platform": platform.platform(),
                "machine": platform.machine(), "threads": nthreads},
        "stages": {},
        "warnings": [],
    }
    stages = record["stages"]

    # map verification gates everything else
    try:
        rep = verify_hyperbolicity(cfg.map, cfg.verify_grid)
        stages["verify_map"] = asdict(rep)
        if not rep.passed:
            record["warnings"].append(
                "cone report did not pass" if rep.certified else
                "cone report did not pass: cone field not certified "
                "between grid points")
    except NotHyperbolic as exc:
        stages["verify_map"] = {"error": str(exc)}
        record["warnings"].append("map failed hyperbolicity verification; "
                                  "dependent stages skipped")
        _persist(record, cfg)
        return record

    # every stage reads these measures; an empirical orbit is generated once
    components = target_components(cfg.target, cfg.map)
    target_mv = mixture_moments(components, cfg.family)
    h_exact = cfg.target.h_exact()

    if cfg.basin is not None:
        period = _grid_period(cfg)
        if period is not None:
            record["warnings"].append(
                f"grid: every start orbit of the un-jittered "
                f"{cfg.grid.resolution}x{cfg.grid.resolution} grid is exactly "
                f"periodic with period {period}, and n reaches "
                f"{cfg.basin['n_values'][-1]}")
        _run_stage(stages, "basin", _run_basin, cfg, target_mv, nthreads,
                   record["env"])
    if cfg.entropy is not None:
        _run_stage(stages, "entropy", _run_entropy, cfg, components)
    if cfg.lyapunov.get("enabled"):
        _run_stage(stages, "lyapunov", _run_lyapunov, cfg, components)
    # rate identity residuals when the pieces are available
    _run_stage(stages, "residuals", _run_residuals, cfg, stages, h_exact)

    _persist(record, cfg)
    return record


def _run_stage(stages: dict, name: str, stage, *args) -> None:
    """stages[name] = stage(*args); an exception is recorded under the
    name instead, and the remaining stages still run."""
    try:
        stages[name] = stage(*args)
    except Exception as exc:
        stages[name] = {"error": f"{type(exc).__name__}: {exc}"}


def stage_errors(record: dict) -> list[str]:
    """'stage: error' for every stage of a record that recorded an error."""
    return [f"{name}: {st['error']}" for name, st in record["stages"].items()
            if "error" in st]


def _grid_period(cfg: ExperimentConfig) -> int | None:
    """Common period of the basin grid's orbits, if the sweep reaches it.

    Cell centers of an un-jittered G-grid lie on (1/2G)Z^2.  For G a power
    of two their uint64 phases are multiples of 2^64/(2G), and a linear
    map's true orbits from them all return after the order of A mod 2G.
    """
    g = cfg.grid.resolution
    if cfg.grid.jitter or not cfg.map.is_linear or g & (g - 1):
        return None
    a = cfg.map.matrix % (2 * g)
    power = a
    for k in range(1, cfg.basin["n_values"][-1] + 1):
        if np.array_equal(power, np.eye(2, dtype=np.int64)):
            return k
        power = power @ a % (2 * g)
    return None


def _run_basin(cfg: ExperimentConfig, target_mv, nthreads: int,
               env: dict) -> dict:
    b = cfg.basin
    sweep = basin_mod.epsilon_sweep(
        cfg.map, target_mv, b["epsilons"], b["n_values"], cfg.grid,
        cfg.family, b["window"], b["min_hits"], threads=nthreads)
    env["workers"] = sweep.workers
    out = {
        "samples": cfg.grid.size,
        "point_steps": sweep.point_steps,
        "distance_points": sweep.distance_points,
        "curves": [
            {
                "epsilon": c.epsilon,
                "rows": [
                    [int(n), int(h), int(c.samples), _logf(h, c.samples)]
                    for n, h in zip(c.ns, c.hits)
                ],
            }
            for c in sweep.curves
        ],
        "rates": [
            {
                "epsilon": e.epsilon, "slope": e.slope, "stderr": e.stderr,
                "window": list(e.window), "rows_used": e.rows_used,
                "censored": e.censored, "min_hits": e.min_hits,
            }
            for e in sweep.estimates
        ],
        "rate_errors": {str(k): v for k, v in sweep.errors.items()},
    }
    if sweep.estimates:
        verdict = basin_mod.weak_pseudo_physical_verdict(
            sweep.estimates, b["verdict_tol"])
        out["verdict"] = verdict.value
        out["verdict_tol"] = b["verdict_tol"]
        out["final_slope"] = sweep.estimates[-1].slope
        trend = [e.slope for e in sweep.estimates]
        out["slope_trend"] = trend
    else:
        out["verdict"] = None
    return out


def _run_entropy(cfg: ExperimentConfig, components: list) -> dict:
    if not np.array_equal(cfg.map.matrix, np.array(markov_mod.CAT_MATRIX)):
        raise ValueError("the Markov partition is built for the cat matrix "
                         "[[2,1],[1,1]]")
    part = markov_mod.cat_map_partition()
    depths = cfg.entropy["depths"]
    bc = cfg.entropy.get("bound_check")
    # one walk and one sort serve the entropy tables and the bound table,
    # so every table of the stage counts one start set
    tables = markov_mod.entropy_tables(
        cfg.map, part, _entropy_source(cfg, components),
        depths + ([bc["depth"]] if bc else []))
    est = markov_mod.entropy_rate_estimate({d: tables[d] for d in depths})
    rates = markov_mod.cylinder_count_rate(part, cfg.entropy["count_depths"])
    out = {
        "h_est": est.h_est,
        "depth_used": est.depth_used,
        "sequence": [
            {"depth": d, "h_over_n": h, "observed": obs, "adequate": ok}
            for d, h, obs, ok in est.sequence
        ],
        "count_rates": [{"depth": n, "rate": r} for n, r in rates.rates],
        "k0_est": rates.k0_est,
        "word_counts": rates.counts,
        "partition": {"k": part.k, "max_diameter": part.max_diameter,
                      "expansion": part.expansion},
        "non_exact_partition": not cfg.map.is_linear,
    }
    if bc:
        margin = markov_mod.entropy_count_bound_check(tables[bc["depth"]],
                                                      bc["epsilon"])
        out["bound_check"] = {**bc, "margin": margin,
                              "ok": margin >= -bc["tolerance"]}
    return out


def _entropy_source(cfg: ExperimentConfig, components: list):
    """The cylinder source of the entropy stage.  An orbit source is built
    here, so its orbit is freed once `entropy_tables` has located it."""
    source = cfg.entropy["source"]
    if isinstance(source, TargetSpec):
        return target_measure(source, cfg.map)
    if source == "target_atoms":
        # config admits target_atoms only for a single atomic target
        return components[0][1]
    return source


def _run_lyapunov(cfg: ExperimentConfig, components: list) -> dict:
    ly = cfg.lyapunov
    spec = lyap_mod.lyapunov_spectrum_qr(cfg.map, ly["qr_point"],
                                         ly["qr_steps"])
    integral = float(sum(
        w * lyap_mod.unstable_integral(cfg.map, measure,
                                       warmup_n=ly["warmup"],
                                       grid_resolution=ly["quad_grid"])
        for w, measure in components))
    return {
        "chi_plus": spec.chi_plus,
        "chi_minus": spec.chi_minus,
        "qr_steps": spec.n_steps,
        "unstable_integral_target": integral,
        # the unstable integral's warmup; the QR spectrum runs its own
        "warmup": ly["warmup"],
        "qr_warmup": spec.warmup,
        "quad_grid": ly["quad_grid"],
    }


def _run_residuals(cfg: ExperimentConfig, stages: dict,
                   h_exact: float | None) -> dict:
    out: dict = {}
    basin_st = stages.get("basin") or {}
    lyap_st = stages.get("lyapunov") or {}
    entropy_st = stages.get("entropy") or {}
    a_est = basin_st.get("final_slope")
    integral = lyap_st.get("unstable_integral_target")
    if h_exact is not None:
        h_est, h_src = h_exact, "point_mass_exact"
    elif "h_est" in entropy_st:
        h_est, h_src = entropy_st["h_est"], "cylinder_pipeline"
    else:
        h_est, h_src = None, None
    if h_est is not None and integral is not None:
        out["pesin_defect"] = basin_mod.pesin_defect(h_est, integral)
        out["h_est"] = h_est
        out["h_est_source"] = h_src
        out["unstable_integral"] = integral
    if a_est is not None and h_est is not None and integral is not None:
        out["rate_residual"] = basin_mod.rate_residual(a_est, h_est, integral)
        # the eps of final_slope: the smallest eps with a rate estimate
        out["rate_residual_epsilon"] = basin_st["rates"][-1]["epsilon"]
        out["a_est"] = a_est
    return out


def _logf(hits: int, samples: int) -> float:
    if hits == 0:
        return float("-inf")
    return math.log(hits / samples)


# -- persistence and reporting ------------------------------------------------

def _persist(record: dict, cfg: ExperimentConfig) -> None:
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{cfg.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, allow_nan=True)
        fh.write("\n")
    record["record_path"] = path
    basin_st = record["stages"].get("basin")
    if basin_st and "curves" in basin_st:
        _write_csv(os.path.join(outdir, f"{cfg.label}_curves.csv"),
                   CURVE_COLUMNS, _curve_rows(basin_st))
        _write_csv(os.path.join(outdir, f"{cfg.label}_rates.csv"),
                   RATE_COLUMNS, _rate_rows(basin_st))


def _curve_rows(basin_st: dict):
    """Every row of a basin stage's curves, in CURVE_COLUMNS order."""
    for c in basin_st.get("curves", []):
        for n, hits, samples, logf in c["rows"]:
            yield [c["epsilon"], n, hits, samples, repr(logf)]


def _rate_rows(basin_st: dict):
    """Every rate estimate of a basin stage, in RATE_COLUMNS order."""
    for r in basin_st.get("rates", []):
        yield [r["epsilon"], repr(r["slope"]), repr(r["stderr"]),
               r["window"][0], r["window"][1], r["rows_used"], r["min_hits"]]


def _write_csv(path: str, header: list, rows) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def load_record(path: str) -> dict:
    if not os.path.exists(path):
        raise MissingRecord(path)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def report(record_paths: list[str], fmt: str, outdir: str) -> list[str]:
    """Merge records into report files.

    Distance-dependent tables (basin curves and rates) are only merged for
    records sharing the test-function family; mixed families are written
    separately with a warning row in the manifest.
    """
    records = [load_record(p) for p in record_paths]
    os.makedirs(outdir, exist_ok=True)
    written: list[str] = []
    if fmt == "json":
        path = os.path.join(outdir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2, allow_nan=True)
        return [path]

    groups: dict[tuple, list[dict]] = {}
    for rec in records:
        key = (rec["family"]["truncation"], rec["family"]["version"])
        groups.setdefault(key, []).append(rec)
    multiple = len(groups) > 1
    if multiple:
        manifest = os.path.join(outdir, "report_warnings.txt")
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write("records use different test families; distance tables "
                     "were not merged across families\n")
            for key, recs in groups.items():
                fh.write(f"family K={key[0]} {key[1]}: "
                         + ", ".join(r["label"] for r in recs) + "\n")
        written.append(manifest)

    for (k, _version), recs in groups.items():
        suffix = f"_K{k}" if multiple else ""
        stages = [(rec["label"], rec["stages"].get("basin") or {})
                  for rec in recs]
        if fmt == "csv":
            written.append(_write_csv(
                os.path.join(outdir, f"curves{suffix}.csv"),
                ["label"] + CURVE_COLUMNS,
                ([label] + row for label, st in stages
                 for row in _curve_rows(st))))
            # report rates carry no min_hits column
            written.append(_write_csv(
                os.path.join(outdir, f"rates{suffix}.csv"),
                ["label"] + RATE_COLUMNS[:-1],
                ([label] + row[:-1] for label, st in stages
                 for row in _rate_rows(st))))
        elif fmt == "plotdata":
            for label, st in stages:
                # curves have distinct epsilons, so each group is one curve
                for eps, rows in itertools.groupby(_curve_rows(st),
                                                   key=lambda row: row[0]):
                    written.append(_write_csv(
                        os.path.join(outdir,
                                     f"{label}_eps{eps}{suffix}_curve.csv"),
                        ["n", "log_fraction"],
                        ([row[1], row[4]] for row in rows)))
                if st.get("rates"):
                    written.append(_write_csv(
                        os.path.join(outdir, f"{label}{suffix}_sweep.csv"),
                        RATE_COLUMNS[:3],
                        (row[:3] for row in _rate_rows(st))))
        else:
            raise ValueError(f"unknown report format {fmt!r}")
    return written


def check_expectations(record: dict, expect: dict) -> list[str]:
    """Compare a record against declared expectations; returns failures."""
    failures = []
    basin_st = record["stages"].get("basin") or {}
    res = record["stages"].get("residuals") or {}
    if "verdict" in expect:
        got = basin_st.get("verdict")
        if got != expect["verdict"]:
            failures.append(f"verdict {got!r} != expected {expect['verdict']!r}")
    if "max_abs_slope" in expect:
        for r in basin_st.get("rates", []):
            if abs(r["slope"]) > expect["max_abs_slope"]:
                failures.append(
                    f"|slope|={abs(r['slope']):.5f} at eps={r['epsilon']} "
                    f"exceeds {expect['max_abs_slope']}")
    if "max_abs_rate_residual" in expect:
        rr = res.get("rate_residual")
        if rr is None or abs(rr) > expect["max_abs_rate_residual"]:
            failures.append(f"rate residual {rr!r} exceeds "
                            f"{expect['max_abs_rate_residual']}")
    if "bound_margin_min" in expect:
        bc = (record["stages"].get("entropy") or {}).get("bound_check") or {}
        margin = bc.get("margin")
        if margin is None or margin < expect["bound_margin_min"]:
            failures.append(f"bound margin {margin!r} below "
                            f"{expect['bound_margin_min']}")
    return failures
