import math
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab import basin
from toruslab.basin import (CHUNK, InsufficientData,
                            BasinCurve, SampleGrid, Verdict, WorkerDied,
                            _accumulate_hits, basin_membership, curve_sweep,
                            default_threads, epsilon_sweep, pesin_defect,
                            rate_estimate, rate_residual,
                            weak_pseudo_physical_verdict)
from toruslab.dynamics import TWO_PI, HyperbolicToralMap
from toruslab.weakstar import (LEBESGUE, DiscreteMeasure, OrbitMeasure,
                               TestFunctionFamily, _enumerate_frequencies,
                               moments, weak_star_distance)

LOG_CAT = math.log((3.0 + math.sqrt(5.0)) / 2.0)


@pytest.fixture(scope="module")
def leb_target(family):
    return moments(LEBESGUE, family)


@pytest.fixture(scope="module")
def dirac_target(family):
    return moments(DiscreteMeasure.dirac((0.0, 0.0)), family)


class TestMembership:
    def test_huge_epsilon_always_true(self, cat, family, dirac_target, rng):
        for _ in range(10):
            assert basin_membership(cat, rng.random(2), dirac_target, 2.1, 5,
                                    family)

    def test_fixed_point_in_own_basin(self, cat, family, dirac_target):
        assert basin_membership(cat, (0.0, 0.0), dirac_target, 1e-6, 9,
                                family)

    def test_lebesgue_long_orbit(self, cat, family, leb_target):
        assert basin_membership(cat, (0.3, 0.7), leb_target, 0.1, 500, family)

    @pytest.mark.parametrize("n, message", [
        (2.5, "n must be an integer, got 2.5"),
        (2.0, "n must be an integer, got 2.0"),
        (True, "n must be an integer, got True"),
        (0, "n must be >= 1, got 0"),
    ])
    def test_bad_n_named(self, cat, family, leb_target, n, message):
        with pytest.raises(ValueError, match=message):
            basin_membership(cat, (0.3, 0.7), leb_target, 0.1, n, family)

    def test_matches_materialized_route(self, cat, family, leb_target, rng):
        # independent oracle: build sigma_n explicitly and compare distances
        for _ in range(10):
            p = rng.random(2)
            n = int(rng.integers(1, 60))
            eps = float(rng.uniform(0.01, 0.5))
            direct = weak_star_distance(DiscreteMeasure(cat.orbit(p, n)),
                                        LEBESGUE, family) < eps
            assert basin_membership(cat, p, leb_target, eps, n,
                                    family) == direct


class TestVolumeEstimate:
    def test_huge_epsilon_full(self, cat, family, leb_target):
        curve, = curve_sweep(cat, leb_target, [2.1], [3],
                             SampleGrid(resolution=32), family).curves
        assert curve.hits[0] / curve.samples == 1.0
        assert curve.hits[0] == curve.samples == 1024

    def test_dirac_n1_matches_fine_grid(self, cat, family, dirac_target):
        # coarse fraction vs an independent finer brute-force of the same set
        curve, = curve_sweep(cat, dirac_target, [0.1], [1],
                             SampleGrid(resolution=256), family).curves
        coarse = curve.hits[0] / curve.samples
        xs = (np.arange(1024) + 0.5) / 1024
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        # in blocks, to keep the trig temporaries small
        dist = np.concatenate([
            np.abs(_ref_phi_values(family, block) - dirac_target.values)
            @ family.weights for block in np.array_split(pts, 16)])
        fine = float(np.mean(dist < 0.1))
        assert abs(coarse - fine) < 0.002

    def test_lebesgue_high_fraction(self, cat, family, leb_target):
        curve, = curve_sweep(cat, leb_target, [0.1], [300],
                             SampleGrid(resolution=128), family).curves
        assert curve.hits[0] / curve.samples >= 0.99


class TestCurves:
    def test_huge_epsilon_rows_full(self, cat, family, leb_target):
        curve, = curve_sweep(cat, leb_target, [2.1], [1, 3, 5],
                             SampleGrid(resolution=32), family).curves
        assert np.all(curve.hits == curve.samples)

    def test_epsilon_domination(self, cat, family, dirac_target):
        c1, c2 = curve_sweep(cat, dirac_target, [0.2, 0.1],
                             list(range(1, 9)), SampleGrid(resolution=128),
                             family).curves
        assert c1.epsilon == 0.2 and c2.epsilon == 0.1
        assert np.all(c2.hits <= c1.hits)

    def test_dirac_hits_decay(self, cat, family, dirac_target):
        curve, = curve_sweep(cat, dirac_target, [0.1], list(range(4, 11)),
                             SampleGrid(resolution=512), family).curves
        assert np.all(np.diff(curve.hits) < 0)
        # fractions cannot grow exponentially: slope at most noise above 0
        est = rate_estimate(curve, (4, 10))
        assert est.slope <= 3.0 * est.stderr

    def test_oversized_epsilon_slope_exactly_zero(self, cat, family,
                                                  leb_target):
        # the metric is bounded by 2, so eps > 2 fills every row exactly
        res = epsilon_sweep(cat, leb_target, [2.5, 2.1], [2, 4, 6, 8],
                            SampleGrid(resolution=32), family, (2, 8))
        for est in res.estimates:
            assert est.slope == 0.0 and est.stderr == 0.0

    def test_thread_count_determinism(self, cat, family, leb_target):
        # a partial last chunk and more chunks than two workers
        g = math.isqrt(5 * CHUNK // 2) + 1
        grid = SampleGrid(resolution=g)
        assert grid.size % CHUNK and grid.size > 2 * CHUNK
        ns = [5, 10]
        h1, h2, h3 = (curve_sweep(cat, leb_target, [0.2], ns, grid, family,
                                  threads=t).curves[0].hits
                      for t in (1, 2, 3))
        assert np.array_equal(h1, h2) and np.array_equal(h1, h3)
        ref = _ref_accumulate_hits(cat, grid.chunk(0, grid.size),
                                   leb_target.values, [0.2], ns, family)
        assert np.array_equal(h1, ref[0])

    def test_shared_family_across_threads(self, cat, family, dirac_target):
        # one family, more workers than cores, a short switch interval: each
        # call must keep its own workspace, or chunks corrupt each other
        grid = SampleGrid(resolution=48, jitter=True, seed=5)
        pts = grid.chunk(0, grid.size, grid._offsets())
        chunks = np.array_split(pts, 8)
        args = (dirac_target.values, [0.3, 0.1], [1, 4, 9, 16], family)
        serial = [_accumulate_hits(cat, c, *args) for c in chunks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(_accumulate_hits, cat, c, *args)
                           for _ in range(3) for c in chunks]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, (hits, steps, formed) in enumerate(results):
            want_hits, want_steps, want_formed = serial[i % len(chunks)]
            assert np.array_equal(hits, want_hits) and steps == want_steps
            assert formed == want_formed

    def test_jitter_deterministic(self, cat, family, leb_target):
        grid = SampleGrid(resolution=64, jitter=True, seed=99)
        a, b = (curve_sweep(cat, leb_target, [0.3], [5], grid,
                            family).curves[0].hits for _ in range(2))
        assert np.array_equal(a, b)

    def test_bad_n_values(self, cat, family, leb_target):
        with pytest.raises(ValueError):
            curve_sweep(cat, leb_target, [0.2], [5, 5],
                        SampleGrid(resolution=16), family)
        for ns, message in [([2.0, 4.0], "n_values must be an integer, "
                             "got 2.0"),
                            ([2, 4.5], "n_values must be an integer, got 4.5"),
                            ([True, 3], "n_values must be an integer, "
                             "got True"),
                            ([0, 3], "n_values must be >= 1, got 0")]:
            with pytest.raises(ValueError, match=message):
                curve_sweep(cat, leb_target, [0.2], ns,
                            SampleGrid(resolution=16), family)

    @pytest.mark.parametrize("epsilons, message", [
        ([], "non-empty"),
        ([float("nan")], "nan"),
        ([float("inf")], "inf"),
        ([0.2, -0.1], "-0.1"),
        ([0.0], "0.0"),
    ])
    def test_bad_epsilons_named(self, cat, family, leb_target, epsilons,
                                message):
        with pytest.raises(ValueError, match=message):
            curve_sweep(cat, leb_target, epsilons, [5],
                        SampleGrid(resolution=16), family)
        if epsilons:
            with pytest.raises(ValueError, match=message):
                basin_membership(cat, (0.3, 0.7), leb_target, epsilons[-1],
                                 5, family)


class TestRateEstimate:
    def _synthetic(self, slope, samples=10**7, ns=range(1, 15)):
        ns = np.array(list(ns))
        hits = np.round(samples * np.exp(slope * ns)).astype(np.int64)
        return BasinCurve(epsilon=0.1, ns=ns, hits=hits, samples=samples)

    def test_constant_curve_zero_slope(self):
        curve = self._synthetic(0.0)
        est = rate_estimate(curve, (1, 14))
        assert est.slope == 0.0 and est.stderr == 0.0

    def test_synthetic_decay_recovered(self):
        curve = self._synthetic(-0.5)
        est = rate_estimate(curve, (1, 14))
        assert abs(est.slope + 0.5) < 0.01

    def test_censoring(self):
        curve = self._synthetic(-1.0, samples=10**6)
        est = rate_estimate(curve, (1, 14), min_hits=30)
        assert est.censored and max(est.censored) == 14
        assert est.rows_used + len(est.censored) == 14
        assert abs(est.slope + 1.0) < 0.01

    def test_insufficient_data(self):
        curve = self._synthetic(-5.0, samples=10**3)
        with pytest.raises(InsufficientData):
            rate_estimate(curve, (1, 14), min_hits=30)


class TestSweepAndVerdict:
    def test_sweep_requires_decreasing(self, cat, family, leb_target):
        with pytest.raises(ValueError):
            epsilon_sweep(cat, leb_target, [0.1, 0.2], [1, 2, 3, 4],
                          SampleGrid(resolution=16), family, (1, 4))

    def test_insufficient_recorded_not_raised(self, cat, family,
                                              dirac_target):
        res = epsilon_sweep(cat, dirac_target, [0.2, 0.001],
                            [20, 25, 30, 35], SampleGrid(resolution=32),
                            family, (20, 35))
        assert 0.001 in res.errors
        assert all(e.epsilon == 0.2 for e in res.estimates)

    def test_verdict_zero(self):
        est = [self._est(0.0, 0.001), self._est(0.002, 0.001)]
        assert (weak_pseudo_physical_verdict(est, 0.01)
                is Verdict.CONSISTENT_WITH_ZERO)

    def test_verdict_negative(self):
        est = [self._est(-0.5, 0.01)]
        assert (weak_pseudo_physical_verdict(est, 0.01)
                is Verdict.NEGATIVE_RATE)

    def test_verdict_inconclusive_large_stderr(self):
        est = [self._est(-0.5, 10.0)]
        assert (weak_pseudo_physical_verdict(est, 0.01)
                is Verdict.INCONCLUSIVE)

    def test_verdict_needs_estimates(self):
        with pytest.raises(ValueError):
            weak_pseudo_physical_verdict([], 0.01)

    @staticmethod
    def _est(slope, stderr):
        from toruslab.basin import RateEstimate
        return RateEstimate(epsilon=0.1, slope=slope, stderr=stderr,
                            window=(1, 10), censored=[], min_hits=30,
                            rows_used=10)


class TestResiduals:
    def test_zero_case(self):
        assert rate_residual(0.0, LOG_CAT, LOG_CAT) == 0.0

    def test_dirac_case(self):
        assert abs(rate_residual(-0.96, 0.0, 0.9624) - 0.0024) < 1e-12

    def test_flagging_case(self):
        assert abs(rate_residual(0.0, 0.0, 0.9624) - 0.9624) < 1e-15

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            rate_residual(float("nan"), 0.0, 0.0)

    def test_pesin_defect(self):
        assert pesin_defect(0.5, 0.9624) == 0.5 - 0.9624


class TestMonotonicityProperty:
    @settings(max_examples=15, deadline=None)
    @given(e1=st.floats(min_value=0.02, max_value=0.3),
           scale=st.floats(min_value=1.1, max_value=3.0))
    def test_hits_monotone_in_epsilon(self, cat, family, dirac_target, e1,
                                      scale):
        e2 = e1 * scale
        curves = curve_sweep(cat, dirac_target, [e2, e1], [2, 5, 8],
                             SampleGrid(resolution=48), family).curves
        assert np.all(curves[1].hits <= curves[0].hits)


class TestGrid:
    def test_chunk_points_deterministic(self):
        g = SampleGrid(resolution=128, jitter=True, seed=3)
        off = g._offsets()
        a = g.chunk(1000, 2000, off)
        b = g.chunk(1000, 2000, off)
        assert np.array_equal(a, b)
        assert np.all((a >= 0) & (a < 1))

    def test_cell_centers(self):
        g = SampleGrid(resolution=4)
        pts = g.chunk(0, 16)
        assert np.allclose(pts[0], [0.125, 0.125])
        assert np.allclose(pts[-1], [0.875, 0.875])

    @pytest.mark.parametrize("kwargs, message", [
        ({"resolution": 2.5}, "resolution must be an integer, got 2.5"),
        ({"resolution": 64.0}, "resolution must be an integer, got 64.0"),
        ({"resolution": True}, "resolution must be an integer, got True"),
        ({"resolution": 0}, "resolution must be >= 1, got 0"),
        ({"resolution": 8, "seed": False}, "seed must be an integer"),
        ({"resolution": 8, "seed": 1.0}, "seed must be an integer"),
        ({"resolution": 8, "seed": -1}, "seed must be >= 0, got -1"),
    ])
    def test_bad_sizes_named(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SampleGrid(**kwargs)

    def test_numpy_integers_accepted(self):
        g = SampleGrid(resolution=np.int64(4), seed=np.uint8(2))
        assert g.size == 16


class TestDefaultThreads:
    def test_environment_variable_ignored(self, monkeypatch):
        # the affinity mask is the one default; taskset narrows it
        monkeypatch.setenv("TORUSLAB_THREADS", "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5},
                            raising=False)
        assert default_threads() == 2

    def test_affinity_mask_used(self, monkeypatch):
        # a process pinned to fewer CPUs than the machine has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_threads() == 3

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_threads() == 5

    @pytest.mark.parametrize("threads", [0, -2, 1.5, True, False])
    def test_bad_threads_named(self, cat, family, leb_target, threads):
        with pytest.raises(ValueError, match="threads"):
            curve_sweep(cat, leb_target, [0.2], [5],
                        SampleGrid(resolution=16), family, threads=threads)


# -- reference kernel -------------------------------------------------------
# The trig evaluator and chunk kernel the power-table kernel replaced, kept
# as the reference: hit tables must match it exactly, phi values to 1e-14.

def _ref_trig_into(family, p, block, accumulate):
    n_modes = family.truncation - 1
    if n_modes == 0:
        return
    freqs = _enumerate_frequencies((n_modes + 1) // 2)
    is_cos = np.arange(n_modes) % 2 == 0
    phases = TWO_PI * (p @ freqs.T.astype(float))
    if n_modes % 2 == 0:
        c = 0.5 + 0.5 * np.cos(phases)
        s = 0.5 + 0.5 * np.sin(phases)
        if accumulate:
            block[:, 0::2] += c
            block[:, 1::2] += s
        else:
            block[:, 0::2] = c
            block[:, 1::2] = s
    else:
        idx_cos = np.flatnonzero(is_cos)
        idx_sin = np.flatnonzero(~is_cos)
        c = 0.5 + 0.5 * np.cos(phases[:, idx_cos // 2])
        s = 0.5 + 0.5 * np.sin(phases[:, idx_sin // 2])
        if accumulate:
            block[:, idx_cos] += c
            block[:, idx_sin] += s
        else:
            block[:, idx_cos] = c
            block[:, idx_sin] = s


def _ref_phi_values(family, points):
    p = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((p.shape[0], family.truncation))
    out[:, 0] = 1.0
    _ref_trig_into(family, p, out[:, 1:], accumulate=False)
    return out


def _ref_accumulate_hits(map, points, target, epsilons, n_values, family):
    """Hit counts along float `step` orbits for a nonlinear map and along
    the true orbits `orbit` gives for a linear one."""
    hits = np.zeros((len(epsilons), len(n_values)), dtype=np.int64)
    sums = np.zeros((len(points), family.truncation))
    if map.is_linear:
        orbits = np.stack([map.orbit(p, n_values[-1]) for p in points],
                          axis=1)
    x = points
    row = 0
    for n in range(1, n_values[-1] + 1):
        if map.is_linear:
            x = orbits[n - 1]
        sums[:, 0] += 1.0
        _ref_trig_into(family, x, sums[:, 1:], accumulate=True)
        if n == n_values[row]:
            dist = np.abs(sums / n - target) @ family.weights
            for ei, eps in enumerate(epsilons):
                hits[ei, row] = int(np.count_nonzero(dist < eps))
            row += 1
            if row == len(n_values):
                break
        x = map.step(x)
    return hits


TRUNCATIONS = [1, 2, 8, 10, 13, 17, 33, 34, 65]
PERTURBED = HyperbolicToralMap([[2, 1], [1, 1]], 0.005,
                               [((1.0, 0.0), (0, 1))])


class TestKernelReference:
    @pytest.mark.parametrize("truncation", TRUNCATIONS + [200])
    def test_phi_values_match_trig(self, truncation, rng):
        family = TestFunctionFamily(truncation)
        pts = np.concatenate([rng.random((3000, 2)),
                              [[0.0, 0.0], [0.5, 0.25], [1 - 1e-12, 0.75]]])
        new = np.array([family.weighted_sum(p[None], [1.0]) for p in pts])
        ref = _ref_phi_values(family, pts)
        assert new.shape == ref.shape
        assert np.max(np.abs(new - ref)) <= 1e-14

    @pytest.mark.parametrize("truncation", TRUNCATIONS)
    @pytest.mark.parametrize("map_name", ["cat", "perturbed"])
    @pytest.mark.parametrize("target_kind",
                             ["lebesgue", "dirac", "empirical_orbit",
                              "unnormalized"])
    def test_hits_match_trig_kernel(self, cat, truncation, map_name,
                                    target_kind):
        map = cat if map_name == "cat" else PERTURBED
        family = TestFunctionFamily(truncation)
        orbit = DiscreteMeasure(map.orbit((0.1, 0.2), 2000))
        measure = {"lebesgue": LEBESGUE,
                   "dirac": DiscreteMeasure.dirac((0.0, 0.0)),
                   "empirical_orbit": orbit,
                   "unnormalized": orbit}[target_kind]
        target = moments(measure, family).values
        if target_kind == "unnormalized":
            # moment vector off the probability simplex: m_0 = 0.98 != 1
            target = 0.98 * target
        grid = SampleGrid(resolution=24, jitter=True, seed=7)
        pts = grid.chunk(0, grid.size, grid._offsets())
        epsilons = [0.3, 0.1, 0.05, 0.03]
        ns = [1, 3, 8, 20, 40]
        ref = _ref_accumulate_hits(map, pts, target, epsilons, ns, family)
        new, _, _ = _accumulate_hits(map, pts, target, epsilons, ns,
                                     family)
        assert np.array_equal(new, ref)
        if truncation >= 8:
            assert np.any((ref > 0) & (ref < grid.size))


class TestPruning:
    """The kernel drops points that can never again be hits; its tables
    must still equal the reference kernel's, which drops nothing."""

    GRID = SampleGrid(resolution=24, jitter=True, seed=7)
    NS = [1, 2, 4, 8, 16, 24]

    def _target(self, truncation, kind):
        family = TestFunctionFamily(truncation)
        dirac = moments(DiscreteMeasure.dirac((0.0, 0.0)), family).values
        # unnormalized: m_0 = 0.98, so every distance is at least 0.02
        return family, dirac if kind == "dirac" else 0.98 * dirac

    # K = 1 and 2 clip the bound's modes to none and one
    @pytest.mark.parametrize("truncation, kind, epsilons", [
        (1, "unnormalized", [0.01, 0.005]),
        (2, "dirac", [0.05, 0.02]),
        (8, "dirac", [0.05, 0.02]),
        (33, "dirac", [0.05, 0.02]),
        (33, "unnormalized", [0.01, 0.005]),
    ])
    @pytest.mark.parametrize("map_name", ["cat", "perturbed"])
    def test_every_point_dropped_before_last_row(self, cat, truncation, kind,
                                                 epsilons, map_name):
        map = cat if map_name == "cat" else PERTURBED
        family, target = self._target(truncation, kind)
        pts = self.GRID.chunk(0, self.GRID.size, self.GRID._offsets())
        new, steps, formed = _accumulate_hits(map, pts, target, epsilons,
                                              self.NS, family)
        ref = _ref_accumulate_hits(map, pts, target, epsilons, self.NS,
                                   family)
        assert np.array_equal(new, ref)
        # no point was accumulated past the second-to-last row
        assert steps <= len(pts) * self.NS[-2]
        assert not new[:, -1].any()
        if kind == "unnormalized":
            # every bound is at least 0.02, so the first row's bound kills
            # every point before its screen
            assert steps == len(pts) * self.NS[0] and formed == 0

    def test_point_steps_any_thread_count(self, cat, family, dirac_target):
        grid = SampleGrid(resolution=math.isqrt(5 * CHUNK // 2) + 1,
                          jitter=True, seed=3)
        ns = list(range(4, 13))
        a, b, c = (curve_sweep(cat, dirac_target, [0.2, 0.1], ns, grid,
                               family, threads=t) for t in (1, 2, 3))
        assert a.point_steps == b.point_steps == c.point_steps
        assert a.distance_points == b.distance_points == c.distance_points
        # pruned, but never below the first row's work
        assert grid.size * ns[0] < a.point_steps < grid.size * ns[-1]
        # screened: every hit at the largest eps got a full distance, and
        # far fewer points than the live point-rows did
        assert (a.curves[0].hits.sum() <= a.distance_points
                < a.point_steps // 4)

    @pytest.mark.parametrize("map_name", ["cat", "perturbed"])
    def test_row_with_no_candidates(self, cat, family, leb_target,
                                    map_name):
        # no one-point empirical measure is within 0.05 of Lebesgue on the
        # bound's modes, so row n = 1 screens every point out; the bound is
        # skipped there, so all of them stay live for the later rows
        map = cat if map_name == "cat" else PERTURBED
        pts = self.GRID.chunk(0, self.GRID.size, self.GRID._offsets())
        epsilons, ns = [0.05, 0.03], [1, 6, 12, 24]
        new, steps, formed = _accumulate_hits(map, pts, leb_target.values,
                                              epsilons, [1], family)
        assert formed == 0 and not new.any()
        new, steps, formed = _accumulate_hits(map, pts, leb_target.values,
                                              epsilons, ns, family)
        assert np.array_equal(new, _ref_accumulate_hits(
            map, pts, leb_target.values, epsilons, ns, family))
        assert not new[:, 0].any() and new[0, 1:].all()
        assert steps == len(pts) * ns[-1] and 0 < formed


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestWorkerProcesses:
    """Shares of a sweep run in forked children; four chunks on three
    workers give share 0 (this process) chunks 0 and 3, and one child each
    chunks 1 and 2."""

    GRID = SampleGrid(resolution=math.isqrt(3 * CHUNK) + 1, jitter=True,
                      seed=4)

    def _sweep(self, cat, family, target):
        assert -(-self.GRID.size // CHUNK) == 4
        return curve_sweep(cat, target, [0.3, 0.1], [2, 5], self.GRID,
                           family, threads=3)

    @pytest.fixture(autouse=True)
    def _time_bound(self):
        # a hung sweep fails its test instead of hanging the run
        def expire(signum, frame):
            raise TimeoutError("sweep still running after 120 s")
        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def _before_chunks(self, monkeypatch, act):
        """Call act(chunk index) before each chunk; the fork inherits the
        patched module global."""
        real = basin._accumulate_hits
        offsets = self.GRID._offsets()
        firsts = [self.GRID.chunk(i * CHUNK, i * CHUNK + 1, offsets)[0]
                  for i in range(4)]

        def patched(map, points, *args):
            act(next(i for i, f in enumerate(firsts)
                     if np.array_equal(points[0], f)))
            return real(map, points, *args)
        monkeypatch.setattr(basin, "_accumulate_hits", patched)

    @staticmethod
    def _assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_counts_and_no_child_left(self, cat, family, dirac_target):
        res = self._sweep(cat, family, dirac_target)
        assert res.workers == 3
        self._assert_no_child()
        one = curve_sweep(cat, dirac_target, [0.3, 0.1], [2, 5], self.GRID,
                          family, threads=1)
        assert one.workers == 1 and one.point_steps == res.point_steps
        for a, b in zip(one.curves, res.curves):
            assert np.array_equal(a.hits, b.hits)

    def test_workers_capped_by_chunks(self, cat, family, dirac_target):
        res = curve_sweep(cat, dirac_target, [0.3], [2],
                          SampleGrid(resolution=16), family, threads=4)
        assert res.workers == 1

    def test_child_exception_reraised(self, cat, family, dirac_target,
                                      monkeypatch):
        def act(i):
            if i == 1:
                raise LookupError(f"chunk 1 failed in process "
                                  f"{os.getpid()}")
        self._before_chunks(monkeypatch, act)
        with pytest.raises(LookupError, match="chunk 1 failed") as info:
            self._sweep(cat, family, dirac_target)
        assert f"process {os.getpid()}" not in str(info.value)
        self._assert_no_child()

    def test_killed_child_named(self, cat, family, dirac_target,
                                monkeypatch):
        def act(i):
            if i == 1:
                os.kill(os.getpid(), signal.SIGKILL)
        self._before_chunks(monkeypatch, act)
        with pytest.raises(WorkerDied, match=r"process \d+ ended with no "
                           rf"result \(signal {int(signal.SIGKILL)}\)"):
            self._sweep(cat, family, dirac_target)
        self._assert_no_child()

    def test_caller_error_kills_children(self, cat, family, dirac_target,
                                         monkeypatch):
        caller = os.getpid()

        def act(i):
            if os.getpid() != caller:
                time.sleep(60)
            elif i == 0:
                raise KeyError("share 0 failed")
        self._before_chunks(monkeypatch, act)
        t0 = time.perf_counter()
        with pytest.raises(KeyError, match="share 0 failed"):
            self._sweep(cat, family, dirac_target)
        assert time.perf_counter() - t0 < 30
        self._assert_no_child()

    def test_no_duplicated_output(self, cat, family, dirac_target, capfd,
                                  monkeypatch):
        # text left in a buffered stdout at the fork must be written once:
        # a child that exited normally would flush its copy too
        out = os.fdopen(os.dup(1), "w", buffering=1 << 16)
        monkeypatch.setattr(sys, "stdout", out)
        print("before the sweep", end="")
        self._sweep(cat, family, dirac_target)
        out.close()
        assert capfd.readouterr().out.count("before the sweep") == 1


class TestHitCountsPinned:
    """Literal hit tables: any change to the step, the moments or the
    distances that moves a single hit fails here.  Recorded before the
    cone-check and `_dpsi` rewrites, which left them unchanged."""

    GRID = SampleGrid(resolution=64, jitter=True, seed=1)

    def test_cat_dirac(self, cat, family, dirac_target):
        result = curve_sweep(cat, dirac_target, [0.2, 0.1],
                             list(range(4, 13)), self.GRID, family)
        assert [c.hits.tolist() for c in result.curves] == [
            [114, 68, 92, 65, 54, 43, 37, 30, 31],
            [33, 18, 11, 7, 3, 3, 2, 1, 1]]
        # the box bound's pruning, recorded before the screen was added
        assert result.point_steps == 32146

    def test_cat_lebesgue(self, cat, family, leb_target):
        # after n = 18 the box bound prunes 12 of the 64^2 * 24 point-steps
        result = curve_sweep(cat, leb_target, [0.05, 0.03, 0.02],
                             [6, 12, 18, 24], self.GRID, family)
        assert [c.hits.tolist() for c in result.curves] == [
            [185, 809, 1349, 1810],
            [20, 157, 346, 539],
            [1, 23, 101, 151]]
        assert result.point_steps == self.GRID.size * 24 - 12

    def test_perturbed_empirical_orbit(self, family):
        target = moments(OrbitMeasure(PERTURBED, (0.1234, 0.5678), 5000),
                         family)
        curves = curve_sweep(PERTURBED, target, [0.05, 0.03],
                             [30, 60, 90, 120], self.GRID, family).curves
        assert [c.hits.tolist() for c in curves] == [
            [2164, 3295, 3754, 3971],
            [702, 1600, 2286, 2816]]


def _exact_distance(point, n, target, family):
    """dist* from the time-n empirical measure of the true cat-map orbit of
    the phases floor(x 2^64) of point to the target moments, from Python
    ints and math.cos and math.sin."""
    freqs = _enumerate_frequencies((family.truncation - 1) // 2).tolist()
    x, y = (math.floor(v * 2**64) for v in point)
    cos_sums, sin_sums = [0.0] * len(freqs), [0.0] * len(freqs)
    for _ in range(n):
        for j, (k1, k2) in enumerate(freqs):
            angle = 2.0 * math.pi * (((k1 * x + k2 * y) % 2**64) / 2**64)
            cos_sums[j] += math.cos(angle)
            sin_sums[j] += math.sin(angle)
        x, y = (2 * x + y) % 2**64, (x + y) % 2**64
    means = [1.0] + [0.5 + 0.5 * s / n for j in range(len(freqs))
                     for s in (cos_sums[j], sin_sums[j])]
    return sum(w * abs(m - t)
               for w, m, t in zip(family.weights, means, target))


class TestTrueOrbitHits:
    def test_hit_at_100_is_hit_of_exact_orbit(self, cat, family, leb_target):
        # past n ~ 35 a float cat orbit is the orbit of another point: here
        # float steps flip 121 of the 256 memberships; the kernel's uint64
        # phases must give the exact orbit's membership at every point
        grid = SampleGrid(resolution=16, jitter=True, seed=2)
        pts = grid.chunk(0, grid.size, grid._offsets())
        eps, n = 0.025, 100
        exact = np.array([_exact_distance(p, n, leb_target.values, family)
                          for p in pts.tolist()])
        # no exact distance is within reach of the kernel's rounding
        assert np.min(np.abs(exact - eps)) > 1e-6
        members = [basin_membership(cat, p, leb_target, eps, n, family)
                   for p in pts]
        assert members == (exact < eps).tolist()
        hits, _, _ = _accumulate_hits(cat, pts, leb_target.values, [eps],
                                      [n], family)
        assert hits[0, 0] == np.count_nonzero(exact < eps) == 117
