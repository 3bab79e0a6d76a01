"""Registered acceptance experiments.

Each criterion is a method on AcceptanceSuite returning a CriterionResult;
heavy artifacts (the 1e7 reference orbit and its cylinder tables) are built
once and shared.  The suite is what `toruslab acceptance` runs and what
tests/test_acceptance.py asserts, so the tolerances here are the authoritative
gate for the whole package.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from toruslab import basin as basin_mod
from toruslab import lyapunov as lyap_mod
from toruslab import markov as markov_mod
from toruslab.basin import SampleGrid, Verdict
from toruslab.dynamics import HyperbolicToralMap, verify_hyperbolicity
from toruslab.markov import cat_map_partition
from toruslab.weakstar import (LEBESGUE, DiscreteMeasure, OrbitMeasure,
                               TestFunctionFamily, invariance_defect, moments,
                               weak_star_distance)

CAT = ((2, 1), (1, 1))
LOG_LAMBDA = math.log((3.0 + math.sqrt(5.0)) / 2.0)  # 0.9624236501192069
ORBIT_SEED_POINT = (0.2137214321, 0.5721347123)
REFERENCE_ORBIT_LENGTH = 10_000_000
PERIOD2_POINT = (0.4, 0.8)
PERIOD3_POINT = (0.75, 0.5)


def dirac_rate_bound(epsilon: float, family: TestFunctionFamily
                     ) -> tuple[float, float]:
    """(h, integral of psi) of the mixture (1-t) delta_0 + t Leb at the edge
    of the weak* eps-ball around the Dirac at the cat map's fixed point.

    t = min(eps/d, 1) with d = dist*(Leb, delta_0) = (1/3)(1 - 4^-16) at
    K=33; h = t log(lambda) and integral of psi = log(lambda).  Their
    difference rho(eps) bounds the eps-rate from below (see criterion_5).
    """
    d = weak_star_distance(DiscreteMeasure.dirac((0.0, 0.0)), LEBESGUE,
                           family)
    t = min(epsilon / d, 1.0)
    return t * LOG_LAMBDA, LOG_LAMBDA


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.index:2d} {self.name}: "
                f"{self.details} ({self.seconds:.1f}s)")


@dataclass
class _Checks:
    items: list = field(default_factory=list)

    def add(self, label: str, ok: bool, detail: str):
        self.items.append((label, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.items)

    def summary(self) -> str:
        parts = []
        for label, ok, detail in self.items:
            mark = "ok" if ok else "FAILED"
            parts.append(f"{label} {mark} ({detail})")
        return "; ".join(parts)


class AcceptanceSuite:
    """All registered acceptance experiments with shared heavy artifacts."""

    def __init__(self, threads: int | None = None):
        self.threads = threads
        self.cat = HyperbolicToralMap(CAT)
        self.family = TestFunctionFamily(33)
        self._leb_tables = None
        self._dirac_sweep = None

    # -- shared artifacts ---------------------------------------------------

    def leb_tables(self):
        """Cylinder tables of the 1e7 reference orbit at depths 1..13."""
        if self._leb_tables is None:
            stream = markov_mod.itineraries(
                self.cat, cat_map_partition(),
                OrbitMeasure(self.cat, ORBIT_SEED_POINT,
                             REFERENCE_ORBIT_LENGTH), 13)
            self._leb_tables = markov_mod.entropy_tables(stream,
                                                         list(range(1, 14)))
        return self._leb_tables

    def leb_entropy_estimate(self):
        """(depth, H/depth) at the largest adequate depth among 1..13 for the
        reference orbit."""
        est = markov_mod.entropy_rate_estimate(self.leb_tables())
        return est.depth_used, est.h_est

    def cylinder_table(self, source, n: int):
        """Depth-n cylinder table of a source under the cat map."""
        stream = markov_mod.itineraries(self.cat, cat_map_partition(),
                                        source, n)
        return markov_mod.entropy_tables(stream, [n])[n]

    def dirac_sweep(self):
        if self._dirac_sweep is None:
            target = moments(DiscreteMeasure.dirac((0.0, 0.0)), self.family)
            self._dirac_sweep = basin_mod.epsilon_sweep(
                self.cat, target, [0.2, 0.1], list(range(4, 13)),
                SampleGrid(resolution=2048), self.family, window=(4, 12),
                min_hits=30, threads=self.threads)
        return self._dirac_sweep

    # -- criteria -------------------------------------------------------------

    def criterion_1(self) -> CriterionResult:
        """QR exponents on the linear cat map match the eigenvalue values."""
        t0 = time.time()
        spec = lyap_mod.lyapunov_spectrum_qr(self.cat, (0.2, 0.7), 10_000)
        dt = time.time() - t0
        c = _Checks()
        c.add("chi+ error", abs(spec.chi_plus - LOG_LAMBDA) < 1e-9,
              f"{abs(spec.chi_plus - LOG_LAMBDA):.2e} < 1e-9")
        c.add("chi sum", abs(spec.chi_plus + spec.chi_minus) < 1e-9,
              f"{abs(spec.chi_plus + spec.chi_minus):.2e} < 1e-9")
        c.add("runtime", dt < 1.0, f"{dt:.2f}s < 1s")
        return CriterionResult(1, "lyapunov-exactness", c.passed, c.summary(),
                               dt)

    def criterion_2(self) -> CriterionResult:
        """Metric axioms and ball convexity for the weak* distance."""
        t0 = time.time()
        rng = np.random.default_rng(20260809)
        fam = self.family
        c = _Checks()
        worst_sym = 0.0
        worst_tri = 0.0
        min_ident = math.inf
        for _ in range(200):
            ms = [DiscreteMeasure(rng.random((int(rng.integers(1, 12)), 2)))
                  for _ in range(3)]
            mv = [moments(m, fam) for m in ms]
            d01 = mv[0].distance(mv[1])
            d10 = mv[1].distance(mv[0])
            d02 = mv[0].distance(mv[2])
            d12 = mv[1].distance(mv[2])
            worst_sym = max(worst_sym, abs(d01 - d10))
            worst_tri = max(worst_tri, d02 - (d01 + d12))
            a, b = rng.random((2, 2))
            if not np.allclose(a, b):
                min_ident = min(min_ident, weak_star_distance(
                    DiscreteMeasure.dirac(a), DiscreteMeasure.dirac(b), fam))
        c.add("symmetry", worst_sym == 0.0, f"max asymmetry {worst_sym:.1e}")
        c.add("identity", min_ident > 0.0,
              f"min distinct-atom distance {min_ident:.2e} > 0")
        c.add("triangle", worst_tri <= 1e-12,
              f"max slack {worst_tri:.2e} <= 1e-12")
        worst_conv = -math.inf
        for _ in range(100):
            rho = moments(DiscreteMeasure(rng.random((4, 2))), fam)
            m1 = DiscreteMeasure(rng.random((3, 2)))
            m2 = DiscreteMeasure(rng.random((5, 2)))
            d1 = moments(m1, fam).distance(rho)
            d2 = moments(m2, fam).distance(rho)
            eps = max(d1, d2) + 1e-9
            t = float(rng.random())
            n1, n2 = len(m1.atoms), len(m2.atoms)
            mix = DiscreteMeasure(
                np.vstack([m1.atoms, m2.atoms]),
                np.concatenate([t * m1.weights, (1 - t) * m2.weights]))
            dmix = moments(mix, fam).distance(rho)
            worst_conv = max(worst_conv, dmix - eps)
        c.add("ball convexity", worst_conv < 0,
              f"max excess {worst_conv:.2e} < 0")
        dt = time.time() - t0
        c.add("runtime", dt < 5.0, f"{dt:.2f}s < 5s")
        return CriterionResult(2, "metric-axioms", c.passed, c.summary(), dt)

    def criterion_3(self) -> CriterionResult:
        """Pushforward defect of empirical measures obeys the 2/n bound."""
        t0 = time.time()
        rng = np.random.default_rng(3)
        worst = {10: 0.0, 100: 0.0, 1000: 0.0}
        for _ in range(100):
            p = rng.random(2)
            for n in worst:
                d = invariance_defect(self.cat, p, n, self.family)
                worst[n] = max(worst[n], d - 2.0 / n)
        c = _Checks()
        for n, excess in worst.items():
            c.add(f"n={n}", excess <= 0.0, f"excess {excess:.2e} <= 0")
        dt = time.time() - t0
        c.add("runtime", dt < 5.0, f"{dt:.2f}s < 5s")
        return CriterionResult(3, "invariance-defect", c.passed, c.summary(),
                               dt)

    def criterion_4(self) -> CriterionResult:
        """Lebesgue target: basin fractions stay flat (rate zero)."""
        t0 = time.time()
        target = moments(LEBESGUE, self.family)
        sweep = basin_mod.epsilon_sweep(
            self.cat, target, [0.2, 0.1], list(range(100, 501, 50)),
            SampleGrid(resolution=512), self.family, window=(100, 500),
            min_hits=30, threads=self.threads)
        c = _Checks()
        for est in sweep.estimates:
            c.add(f"slope eps={est.epsilon}", abs(est.slope) <= 0.005,
                  f"{est.slope:+.6f} within +-0.005")
        c.add("all epsilons estimated", len(sweep.estimates) == 2,
              f"{len(sweep.estimates)}/2")
        verdict = basin_mod.weak_pseudo_physical_verdict(sweep.estimates, 0.01)
        c.add("verdict", verdict is Verdict.CONSISTENT_WITH_ZERO,
              verdict.value)
        dt = time.time() - t0
        return CriterionResult(4, "lebesgue-rate-zero", c.passed, c.summary(),
                               dt)

    def criterion_5(self) -> CriterionResult:
        """Dirac target at the fixed point: negative rate matching the rate
        identity at the smallest measured eps within 25%.

        The reference is rho(eps) = h - integral of psi of the mixture
        nu_t = (1-t) delta_0 + t Leb, from `dirac_rate_bound`.  nu_t lies at
        dist* t*d from delta_0 (moments are affine in the measure), has
        entropy t log(lambda) and integral of psi log(lambda), so for
        t < eps/d it is in the open eps-ball and the level-2 large-deviation
        lower bound (Orey & Pelikan, Trans. AMS 1989; L.-S. Young, Trans.
        AMS 1990) gives rate(eps) >= rho(eps) = -(1 - eps/d) log(lambda):
        rho(0.2) = -0.3850, rho(0.1) = -0.6737.  The eps -> 0 limit
        -log(lambda) = -0.9624 lies below rho(0.1) by more than the band, so
        it is printed as a gap but not gated.  How far above rho the true
        rate may sit is not settled by the theory: the band's upper side is
        the declared 25% tolerance, not a theorem.
        """
        t0 = time.time()
        sweep = self.dirac_sweep()
        c = _Checks()
        c.add("all epsilons estimated", len(sweep.estimates) == 2,
              f"{len(sweep.estimates)}/2")
        slopes = {e.epsilon: e.slope for e in sweep.estimates}
        final = sweep.estimates[-1]
        h, integral = dirac_rate_bound(final.epsilon, self.family)
        rho = h - integral
        band = 0.25 * abs(rho)
        c.add("slope band", abs(final.slope - rho) <= band,
              f"slope(eps={final.epsilon}) {final.slope:+.4f} vs "
              f"rho {rho:+.4f} +- {band:.4f}, gap to rho "
              f"{abs(final.slope - rho):.4f}, gap to -log lambda "
              f"{abs(final.slope + LOG_LAMBDA):.4f}")
        c.add("trend toward limit",
              slopes.get(0.1, 0.0) <= slopes.get(0.2, 0.0),
              " -> ".join(f"{slopes[e]:+.4f}" if e in slopes else "missing"
                          for e in (0.2, 0.1)))
        verdict = basin_mod.weak_pseudo_physical_verdict(sweep.estimates, 0.01)
        c.add("verdict", verdict is Verdict.NEGATIVE_RATE, verdict.value)
        residual = basin_mod.rate_residual(final.slope, h, integral)
        c.add("rate residual", abs(residual) <= 0.25,
              f"{residual:+.4f} within +-0.25")
        dt = time.time() - t0
        return CriterionResult(5, "dirac-rate", c.passed, c.summary(), dt)

    def criterion_6(self) -> CriterionResult:
        """Cylinder entropy of the reference orbit and exact word-count rate."""
        t0 = time.time()
        tables = self.leb_tables()
        h12 = markov_mod.partition_entropy(tables[12]) / 12
        c = _Checks()
        c.add("H(12)/12", abs(h12 - LOG_LAMBDA) <= 0.1,
              f"{h12:.4f} vs {LOG_LAMBDA:.4f} +- 0.1")
        rates = markov_mod.cylinder_count_rate(cat_map_partition(),
                                               range(1, 15))
        r14 = dict(rates.rates)[14]
        c.add("count rate n=14", abs(r14 - LOG_LAMBDA) <= 0.1 * LOG_LAMBDA,
              f"{r14:.4f} within 10% of {LOG_LAMBDA:.4f}")
        dt = time.time() - t0
        return CriterionResult(6, "entropy-pipeline", c.passed, c.summary(),
                               dt)

    def criterion_7(self) -> CriterionResult:
        """Counting bound margin: statistical for Lebesgue, exact for the
        trivial sources."""
        t0 = time.time()
        part = cat_map_partition()
        c = _Checks()
        margin = markov_mod.entropy_count_bound_check(
            part, self.cylinder_table(
                OrbitMeasure(self.cat, ORBIT_SEED_POINT, 2_000_000), 10),
            0.1)
        c.add("lebesgue margin", margin >= -0.05,
              f"{margin:+.4f} >= -0.05 (declared statistical tolerance)")
        fixed = markov_mod.entropy_count_bound_check(
            part, self.cylinder_table(DiscreteMeasure.dirac((0.0, 0.0)), 10),
            0.1)
        c.add("fixed-point margin", fixed >= 0.0, f"{fixed:+.4f} >= 0")
        per2 = markov_mod.entropy_count_bound_check(
            part, self.cylinder_table(
                DiscreteMeasure(self.cat.orbit(PERIOD2_POINT, 2)), 8), 0.2)
        c.add("period-2 margin", per2 >= 0.0, f"{per2:+.4f} >= 0")
        dt = time.time() - t0
        return CriterionResult(7, "cylinder-count-bound", c.passed,
                               c.summary(), dt)

    def criterion_8(self) -> CriterionResult:
        """Entropy estimates never exceed the unstable integral by more
        than 0.05."""
        t0 = time.time()
        c = _Checks()
        depth, h_leb = self.leb_entropy_estimate()
        i_leb = lyap_mod.unstable_integral(self.cat, LEBESGUE,
                                           grid_resolution=256)
        c.add("lebesgue", h_leb <= i_leb + 0.05,
              f"h={h_leb:.4f} (depth {depth}) <= {i_leb:.4f}+0.05")
        for name, pt, period in (("fixed-point", (0.0, 0.0), 1),
                                 ("period-2", PERIOD2_POINT, 2),
                                 ("period-3", PERIOD3_POINT, 3)):
            atoms = DiscreteMeasure(self.cat.orbit(pt, period))
            table = self.cylinder_table(atoms, 12)
            h = markov_mod.partition_entropy(table) / 12
            integral = lyap_mod.unstable_integral(self.cat, atoms)
            c.add(name, h <= integral + 0.05,
                  f"h={h:.4f} <= {integral:.4f}+0.05")
        dt = time.time() - t0
        return CriterionResult(8, "entropy-integral-guard", c.passed,
                               c.summary(), dt)

    def criterion_9(self) -> CriterionResult:
        """Mixture entropy is affine: the half-and-half mixture violates the
        entropy formula by half the unstable integral."""
        t0 = time.time()
        tables = self.leb_tables()
        dirac_table = self.cylinder_table(DiscreteMeasure.dirac((0.0, 0.0)),
                                          12)
        merged = markov_mod.weighted_merge([tables[12], dirac_table],
                                           [0.5, 0.5])
        h_mix = markov_mod.partition_entropy(merged) / 12
        i_leb = lyap_mod.unstable_integral(self.cat, LEBESGUE,
                                           grid_resolution=256)
        i_dirac = lyap_mod.unstable_integral(
            self.cat, DiscreteMeasure.dirac((0.0, 0.0)))
        defect_mix = basin_mod.pesin_defect(h_mix,
                                            0.5 * i_leb + 0.5 * i_dirac)
        expected = -0.5 * LOG_LAMBDA
        c = _Checks()
        c.add("mixture defect", abs(defect_mix - expected) <= 0.2 * abs(expected),
              f"{defect_mix:+.4f} within 20% of {expected:+.4f}")
        depth, h_leb = self.leb_entropy_estimate()
        defect_leb = basin_mod.pesin_defect(h_leb, i_leb)
        c.add("lebesgue defect", abs(defect_leb) <= 0.05,
              f"{defect_leb:+.4f} within +-0.05")
        dt = time.time() - t0
        return CriterionResult(9, "mixture-affinity", c.passed, c.summary(),
                               dt)

    def criterion_10(self) -> CriterionResult:
        """C1 perturbation: the empirical proxy of the physical measure is
        rate-zero and satisfies the entropy formula on the reused partition."""
        t0 = time.time()
        pert = HyperbolicToralMap(CAT, 0.005, [((1.0, 0.0), (0, 1))])
        c = _Checks()
        rep = verify_hyperbolicity(pert, 64)
        c.add("cone verification", rep.passed,
              f"expand {rep.lambda_expand:.4f} contract "
              f"{rep.lambda_contract:.4f}")
        # one orbit serves the target moments, the entropy stream and the
        # Birkhoff pass of the unstable integral
        proxy = OrbitMeasure(pert, ORBIT_SEED_POINT, 1_000_000)
        target = moments(proxy, self.family)
        sweep = basin_mod.epsilon_sweep(
            pert, target, [0.2, 0.1], list(range(100, 401, 50)),
            SampleGrid(resolution=256), self.family, window=(100, 400),
            min_hits=30, threads=self.threads)
        verdict = basin_mod.weak_pseudo_physical_verdict(sweep.estimates, 0.02)
        c.add("verdict", verdict is Verdict.CONSISTENT_WITH_ZERO,
              f"{verdict.value}, slopes "
              + ", ".join(f"{e.slope:+.5f}" for e in sweep.estimates))
        stream = markov_mod.itineraries(pert, cat_map_partition(), proxy, 12)
        est = markov_mod.entropy_rate_estimate(
            markov_mod.entropy_tables(stream, range(1, 13)))
        non_exact = not pert.is_linear
        c.add("non-exact-partition flag", non_exact, str(non_exact))
        integral = lyap_mod.unstable_integral(pert, proxy)
        c.add("entropy vs integral",
              abs(est.h_est - integral) <= 0.1,
              f"|{est.h_est:.4f} - {integral:.4f}| <= 0.1 "
              f"(depth {est.depth_used})")
        dt = time.time() - t0
        return CriterionResult(10, "perturbed-robustness", c.passed,
                               c.summary(), dt)

    def run_all(self, echo=print) -> list[CriterionResult]:
        results = []
        for i in range(1, 11):
            method = getattr(self, f"criterion_{i}")
            try:
                res = method()
            except Exception as exc:  # a crashed criterion is a failure
                res = CriterionResult(i, method.__doc__.split("\n")[0][:40],
                                      False, f"raised {type(exc).__name__}: "
                                      f"{exc}", 0.0)
            results.append(res)
            if echo:
                echo(res.line())
        return results
