"""The four benchmark workloads: a config per seed and the checks on its record.

Each workload is one experiment config run through toruslab.runner.run, the
path `toruslab run` takes.  The seed fixes every input that varies between
runs (grid jitter, orbit seed points); everything else is constant, so the
same operations run on every seed.

Checks never compare against a stored copy of earlier output.  They test
properties the paper's definitions imply, or compare against the independent
computations in reference.py.
"""

from __future__ import annotations

import math
import random

import numpy as np

import reference as ref

CAT_MAP = {"matrix": [[2, 1], [1, 1]]}
# psi = (sin 2 pi y, 0): the x coordinate gets amplitude * sin(2 pi (0, 1).x)
PERTURBED_MAP = {"matrix": [[2, 1], [1, 1]], "amplitude": 0.005,
                 "perturbation": [{"coeff": [1.0, 0.0], "freq": [0, 1]}]}

# Tolerances stated with the checks that use them.
EXACT_TOL = 1e-9           # chi_plus and the Lebesgue integral on the cat map
NEAR_THRESHOLD = 1e-9      # membership ties skipped in the point-by-point check
BINOMIAL_SIGMAS = 5.0      # sweep fraction vs the reference subsample
PARRY_TOL = 2e-3           # H(d)/d against the Parry value, beyond plug-in bias
# Unstable integral vs the reference Birkhoff average along the same orbit:
# the two follow bit-identical orbits and differ only in how the unstable
# direction is warmed up; seeds 1-12 gave gaps of at most 7.2e-10, while the
# averages themselves sat 6.9e-7 to 2.8e-5 away from log lambda.
BIRKHOFF_TOL = 1e-8
DIFFERENTIAL_TOL = 1e-12   # Df on the target atoms vs the reference Df
CHI_TOL = 5e-3             # chi_plus vs that average
PESIN_TOL = 0.1            # |h_est - integral| on the perturbed map
SLOPE_SIGMAS = 3.0         # "significantly negative" slope


class Checks:
    """Named pass/fail checks; each one is one benchmark operation."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))


def _point(rng: random.Random) -> list[float]:
    return [rng.random(), rng.random()]


class Workload:
    name = ""
    uses_partition = False
    # Threads the basin sweep keeps busy, which picks the reference kernel
    # that rescales run_s: one per grid chunk, at most two workers.  Fixed
    # per workload, so a change to the package's chunk size cannot change
    # the basis on which its run times are compared.
    busy_threads = 1

    def __init__(self, seed: int, output_dir: str):
        self.seed = seed
        self.output_dir = output_dir

    def raw_config(self) -> dict:
        raise NotImplementedError

    def check_record(self, record: dict, checks: Checks) -> None:
        """Property checks on one round's record (cheap; every round)."""
        raise NotImplementedError

    def check_reference(self, cfg, record: dict, checks: Checks) -> None:
        """Comparisons against reference.py (once per run)."""


# -- basin workloads on the cat map ---------------------------------------------

def _hits(record: dict) -> dict[float, list[int]]:
    return {c["epsilon"]: [row[1] for row in c["rows"]]
            for c in record["stages"]["basin"]["curves"]}


def _check_nested(record: dict, checks: Checks) -> None:
    hits = _hits(record)
    eps = sorted(hits, reverse=True)
    nested = all(s <= b for e0, e1 in zip(eps, eps[1:])
                 for b, s in zip(hits[e0], hits[e1]))
    checks.add("hits nested in eps", nested, str(hits))


def _check_stages_ok(record: dict, checks: Checks) -> None:
    for name, st in record["stages"].items():
        checks.add(f"stage {name} ran", "error" not in st, str(st)[:200])


class CatBasin(Workload):
    """Shared reference check for the two cat-map basin workloads."""
    resolution = 0
    busy_threads = 2        # G=512: two chunks of 2^17 points
    subsample = 4096        # reference start points (fixed stride in the grid)
    pointwise = 256         # of those, tested one at a time by the program

    def _target(self, family: ref.Family) -> np.ndarray:
        raise NotImplementedError

    def check_reference(self, cfg, record, checks):
        from toruslab.basin import basin_membership
        from toruslab.config import moment_vector_for_target

        g = self.resolution
        size = g * g
        index = np.arange(0, size, size // self.subsample)
        offsets = cfg.grid._offsets()
        pts = np.concatenate([cfg.grid.chunk(int(i), int(i) + 1, offsets)
                              for i in index])
        cells = np.column_stack([index // g, index % g])
        checks.add("start points are jittered inside their grid cells",
                   np.array_equal(np.floor(pts * g), cells)
                   and not np.allclose(pts * g - cells, 0.5))

        family = ref.Family(cfg.family.truncation)
        target = self._target(family)
        target_mv = moment_vector_for_target(cfg.target, cfg.map, cfg.family)
        checks.add("target moments match the reference",
                   np.max(np.abs(target_mv.values - target)) < 1e-12)

        b = cfg.basin
        ns = b["n_values"]
        dist = ref.basin_distances(pts, target, ns, family)
        hits = _hits(record)
        m = len(index)
        worst = 0.0
        disagree = []
        compared = 0
        for eps in b["epsilons"]:
            for ri, n in enumerate(ns):
                member = dist[ri] < eps
                # sweep fraction vs subsample fraction, binomial bound
                p = hits[eps][ri] / size
                bound = BINOMIAL_SIGMAS * math.sqrt(p * (1 - p) / m) + 1.0 / m
                worst = max(worst, abs(p - member.mean()) / bound)
                # point by point, skipping ties with eps
                for j in range(self.pointwise):
                    if abs(dist[ri, j] - eps) < NEAR_THRESHOLD:
                        continue
                    compared += 1
                    got = basin_membership(cfg.map, pts[j], target_mv, eps, n,
                                           cfg.family)
                    if got != bool(member[j]):
                        disagree.append((eps, n, int(index[j])))
        checks.add("sweep fractions within the binomial bound of the "
                   "reference subsample", worst <= 1.0,
                   f"worst gap {worst:.3f} of the {BINOMIAL_SIGMAS}-sigma "
                   "bound")
        checks.add("basin_membership agrees with the reference",
                   compared > 0 and not disagree,
                   f"{len(disagree)} of {compared}: {disagree[:5]}")


class LebBasin(CatBasin):
    """Long orbits, few distance rows, two chunks on two workers."""
    name = "leb-basin"
    resolution = 512

    def raw_config(self):
        ns = [6, 12, 18, 24]
        return {
            "label": self.name, "map": CAT_MAP,
            "family": {"truncation": ref.TRUNCATION},
            "grid": {"resolution": self.resolution, "jitter": True,
                     "seed": self.seed},
            "target": {"kind": "lebesgue"},
            "basin": {"epsilons": [0.05, 0.03, 0.02], "n_values": ns,
                      "window": [ns[0], ns[-1]], "min_hits": 30,
                      "verdict_tol": 0.01},
            "lyapunov": {"quad_grid": 256},
            "output_dir": self.output_dir,
        }

    def _target(self, family):
        return family.lebesgue()

    def check_record(self, record, checks):
        _check_stages_ok(record, checks)
        _check_nested(record, checks)
        st = record["stages"]
        checks.add("verdict is not negative_rate",
                   st["basin"].get("verdict") not in (None, "negative_rate"),
                   str(st["basin"].get("verdict")))
        ly = st["lyapunov"]
        checks.add("chi_plus = log lambda",
                   abs(ly["chi_plus"] - ref.LOG_LAMBDA) <= EXACT_TOL,
                   repr(ly["chi_plus"]))
        checks.add("Lebesgue unstable integral = log lambda",
                   abs(ly["unstable_integral_target"] - ref.LOG_LAMBDA)
                   <= EXACT_TOL, repr(ly["unstable_integral_target"]))


class DiracBasin(CatBasin):
    """Short orbits with a distance row at every step."""
    name = "dirac-basin"
    resolution = 512

    def raw_config(self):
        return {
            "label": self.name, "map": CAT_MAP,
            "family": {"truncation": ref.TRUNCATION},
            "grid": {"resolution": self.resolution, "jitter": True,
                     "seed": self.seed},
            "target": {"kind": "dirac", "point": [0.0, 0.0]},
            "basin": {"epsilons": [0.2, 0.1], "n_values": list(range(4, 13)),
                      "window": [4, 12], "min_hits": 30},
            "output_dir": self.output_dir,
        }

    def _target(self, family):
        return family.dirac((0.0, 0.0))

    def check_record(self, record, checks):
        # The rate-residual gate of acceptance criterion 5 is red on purpose
        # and is deliberately not checked here.
        _check_stages_ok(record, checks)
        _check_nested(record, checks)
        b = record["stages"]["basin"]
        slopes = [r["slope"] for r in b["rates"]]
        checks.add("every epsilon estimated", len(slopes) == 2,
                   str(b["rate_errors"]))
        checks.add("slopes negative and steeper at smaller eps",
                   len(slopes) == 2 and slopes[0] < 0
                   and slopes[1] < slopes[0], str(slopes))
        checks.add("verdict is negative_rate",
                   b.get("verdict") == "negative_rate", str(b.get("verdict")))


# -- entropy on a long cat-map orbit ---------------------------------------------

class EntropyOrbit(Workload):
    name = "entropy-orbit"
    uses_partition = True
    length = 1_000_000

    def raw_config(self):
        rng = random.Random(self.seed)
        return {
            "label": self.name, "map": CAT_MAP,
            "target": {"kind": "lebesgue"},
            "entropy": {
                "source": {"kind": "orbit", "point": _point(rng),
                           "length": self.length},
                "depths": list(range(1, 14)),
                "count_depths": list(range(1, 15)),
                "bound_check": {"epsilon": 0.1, "depth": 10,
                                "tolerance": 0.05},
            },
            "output_dir": self.output_dir,
        }

    def check_record(self, record, checks):
        _check_stages_ok(record, checks)
        ent = record["stages"]["entropy"]
        counts = dict((int(n), int(c)) for n, c in ent["word_counts"])
        checks.add("exact word counts are F(2n+3)",
                   all(c == ref.fibonacci(2 * n + 3)
                       for n, c in counts.items()), str(counts))
        checks.add("observed cylinders at most the admissible words",
                   all(s["observed"] <= ref.fibonacci(2 * s["depth"] + 3)
                       for s in ent["sequence"]))
        starts = self.length - max(s["depth"] for s in ent["sequence"]) + 1
        bad = []
        for s in ent["sequence"]:
            if not s["adequate"]:
                continue
            d = s["depth"]
            gap = ref.parry_block_entropy(d) / d - s["h_over_n"]
            bias = s["observed"] / (2.0 * starts * d)
            if not -PARRY_TOL <= gap <= bias + PARRY_TOL:
                bad.append((d, gap, bias))
        checks.add("H(d)/d matches the Parry value within plug-in bias",
                   not bad, str(bad))
        bc = ent["bound_check"]
        checks.add("bound margin >= -tolerance",
                   bc["margin"] >= -bc["tolerance"], repr(bc["margin"]))


# -- every stage on the C1-perturbed map -----------------------------------------

class PerturbedRun(Workload):
    name = "perturbed-run"
    uses_partition = True
    atoms = 50_000

    def raw_config(self):
        rng = random.Random(self.seed)
        return {
            "label": self.name, "map": PERTURBED_MAP,
            "family": {"truncation": ref.TRUNCATION},
            "grid": {"resolution": 64, "jitter": True, "seed": self.seed},
            "target": {"kind": "empirical_orbit", "point": _point(rng),
                       "length": self.atoms},
            "basin": {"epsilons": [0.05, 0.03], "n_values": [30, 60, 90, 120],
                      "window": [30, 120], "min_hits": 30,
                      "verdict_tol": 0.02},
            "entropy": {"source": {"kind": "target_atoms"},
                        "depths": list(range(1, 13))},
            "lyapunov": {"qr_steps": 10000, "qr_point": _point(rng)},
            "output_dir": self.output_dir,
        }

    def check_record(self, record, checks):
        _check_stages_ok(record, checks)
        st = record["stages"]
        checks.add("cone verification passes", st["verify_map"].get("passed"))
        rates = st["basin"]["rates"]
        checks.add("every epsilon estimated", len(rates) == 2,
                   str(st["basin"]["rate_errors"]))
        checks.add("no slope significantly negative",
                   all(r["slope"] >= -SLOPE_SIGMAS * r["stderr"]
                       for r in rates),
                   str([(r["slope"], r["stderr"]) for r in rates]))
        res = st["residuals"]
        checks.add("|h_est - integral| <= 0.1",
                   abs(res["h_est"] - res["unstable_integral"]) <= PESIN_TOL,
                   f"{res['h_est']} vs {res['unstable_integral']}")

    def check_reference(self, cfg, record, checks):
        from toruslab.config import target_measure
        amp = PERTURBED_MAP["amplitude"]
        atoms = target_measure(cfg.target, cfg.map).atoms
        got = cfg.map.differential(atoms).reshape(-1, 4)
        want = np.array([ref.differential_sin_y(x, y, amp)
                         for x, y in atoms])
        gap = float(np.max(np.abs(got - want)))
        checks.add("Df on the target atoms = reference Df",
                   gap <= DIFFERENTIAL_TOL, f"max gap {gap:.3g}")

        xs, ys = ref.orbit_xy(cfg.target.point, cfg.target.length, amp)
        birkhoff = ref.birkhoff_log_unstable(xs, ys, amp)
        ly = record["stages"]["lyapunov"]
        integral = ly["unstable_integral_target"]
        checks.add("unstable integral over the atoms = reference Birkhoff "
                   "average", abs(integral - birkhoff) <= BIRKHOFF_TOL,
                   f"gap {integral - birkhoff:.3g}; Birkhoff average - "
                   f"log lambda {birkhoff - ref.LOG_LAMBDA:.3g}")
        checks.add("chi_plus agrees with the Birkhoff average",
                   abs(ly["chi_plus"] - birkhoff) <= CHI_TOL,
                   f"gap {ly['chi_plus'] - birkhoff:.3g}")


WORKLOADS = {w.name: w for w in (LebBasin, DiracBasin, EntropyOrbit,
                                 PerturbedRun)}
