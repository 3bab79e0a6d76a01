import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab.weakstar import (LEBESGUE, DiscreteMeasure, FamilyMismatch,
                               OrbitMeasure, TestFunctionFamily, _characters,
                               _enumerate_frequencies,
                               invariance_defect, moments, weak_star_distance)

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                 allow_nan=False)


def one_point_phis(family, points):
    """phi at each point, one row per point, each a one-point weighted
    sum."""
    return np.array([family.weighted_sum(p[None], [1.0]) for p in points])


def small_measures():
    return st.lists(st.tuples(unit, unit), min_size=1, max_size=8).map(
        lambda pts: DiscreteMeasure(np.array(pts)))


class TestFamilyEnumeration:
    def test_phi0_constant(self, family, rng):
        vals = one_point_phis(family, rng.random((50, 2)))
        assert np.allclose(vals[:, 0], 1.0)

    def test_range_in_unit_interval(self, family, rng):
        vals = one_point_phis(family, rng.random((500, 2)))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_first_modes_explicit(self, family):
        # shell 1 in lexicographic order starts at (-1,-1), cos before sin
        p = np.array([[0.3, 0.8]])
        vals = family.weighted_sum(p, [1.0])
        a = 2 * math.pi * (-0.3 - 0.8)
        assert abs(vals[1] - (1 + math.cos(a)) / 2) < 1e-14
        assert abs(vals[2] - (1 + math.sin(a)) / 2) < 1e-14
        b = 2 * math.pi * (-0.3)          # (-1, 0)
        assert abs(vals[3] - (1 + math.cos(b)) / 2) < 1e-14
        # shell 2 starts at index 17 with (-2,-2)
        c = 2 * math.pi * (-2 * 0.3 - 2 * 0.8)
        assert abs(vals[17] - (1 + math.cos(c)) / 2) < 1e-14

    def test_tail_bound(self):
        # the weights past the first K sum to less than 2^(1-K), the bound
        # on what truncating at K leaves out of a distance
        tail = TestFunctionFamily(60).weights[33:]
        assert tail.sum() < 2.0 ** (1 - 33)

    def test_truncation_consistency(self, rng):
        # distances at K and K' > K differ by at most the K tail
        small = TestFunctionFamily(9)
        big = TestFunctionFamily(21)
        for _ in range(20):
            m1 = DiscreteMeasure(rng.random((3, 2)))
            m2 = DiscreteMeasure(rng.random((4, 2)))
            d_small = weak_star_distance(m1, m2, small)
            d_big = weak_star_distance(m1, m2, big)
            assert abs(d_small - d_big) <= 2.0 ** (1 - 9) + 1e-15


class TestMoments:
    def test_lebesgue_closed_form(self, family):
        mv = moments(LEBESGUE, family)
        assert mv.values[0] == 1.0
        assert np.allclose(mv.values[1:], 0.5)

    def test_dirac_origin(self, family):
        mv = moments(DiscreteMeasure.dirac((0.0, 0.0)), family)
        assert mv.values[0] == 1.0
        assert abs(mv.values[1] - 1.0) < 1e-15   # cos mode at the origin
        assert abs(mv.values[2] - 0.5) < 1e-15   # sin mode at the origin

    def test_two_atom_average(self):
        # phi = (1 + cos(2 pi x1))/2 on {(0,0), (1/2,0)}: values 1 and 0
        fam = TestFunctionFamily(33)
        mu = DiscreteMeasure(np.array([[0.0, 0.0], [0.5, 0.0]]))
        mv = moments(mu, fam)
        # (1,0) is frequency index 6 -> cos mode index 13
        assert abs(mv.values[13] - 0.5) < 1e-15


class TestDistance:
    def test_self_distance_zero(self, family, rng):
        mu = DiscreteMeasure(rng.random((6, 2)))
        assert weak_star_distance(mu, mu, family) == 0.0

    def test_dirac_vs_lebesgue_closed_form(self, family):
        # cos modes contribute 2^-i / 2 at odd i, sin modes nothing:
        # sum = (1/3) (1 - 4^-16) for K = 33
        d = weak_star_distance(DiscreteMeasure.dirac((0.0, 0.0)), LEBESGUE,
                               family)
        exact = (1.0 / 3.0) * (1.0 - 0.25 ** 16)
        assert abs(d - exact) < 1e-15

    def test_bounded_by_two(self, family, rng):
        for _ in range(20):
            d = weak_star_distance(DiscreteMeasure(rng.random((2, 2))),
                                   DiscreteMeasure(rng.random((3, 2))),
                                   family)
            assert 0.0 <= d < 2.0

    def test_family_mismatch(self, rng):
        m1 = moments(DiscreteMeasure(rng.random((2, 2))),
                     TestFunctionFamily(9))
        m2 = moments(DiscreteMeasure(rng.random((2, 2))),
                     TestFunctionFamily(17))
        with pytest.raises(FamilyMismatch):
            m1.distance(m2)

    @settings(max_examples=60, deadline=None)
    @given(a=small_measures(), b=small_measures(), c=small_measures())
    def test_triangle_inequality(self, family, a, b, c):
        dab = weak_star_distance(a, b, family)
        dbc = weak_star_distance(b, c, family)
        dac = weak_star_distance(a, c, family)
        assert dac <= dab + dbc + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(a=small_measures(), b=small_measures())
    def test_symmetry_exact(self, family, a, b):
        assert (weak_star_distance(a, b, family)
                == weak_star_distance(b, a, family))


class TestEmpirical:
    def test_n1_is_dirac(self, cat, family):
        mu = DiscreteMeasure(cat.orbit((0.37, 0.11), 1))
        assert len(mu) == 1
        assert np.allclose(mu.weights, [1.0])

    def test_fixed_point_coalesces(self, cat):
        mu = DiscreteMeasure(cat.orbit((0.0, 0.0), 7))
        assert len(mu) == 1
        assert np.allclose(mu.atoms[0], [0.0, 0.0])
        assert abs(mu.weights[0] - 1.0) < 1e-15

    def test_three_orbit(self, cat):
        mu = DiscreteMeasure(cat.orbit((0.5, 0.5), 3))
        assert len(mu) == 3
        assert np.allclose(sorted(mu.weights), [1 / 3] * 3)


class TestPushforward:
    def test_dirac_moves(self, cat, family):
        mu = DiscreteMeasure.dirac((0.5, 0.5))
        nu = DiscreteMeasure(cat.step(mu.atoms), mu.weights)
        assert np.allclose(nu.atoms[0], [0.5, 0.0])

    def test_fixed_point_invariant(self, cat, family):
        mu = DiscreteMeasure.dirac((0.0, 0.0))
        nu = DiscreteMeasure(cat.step(mu.atoms), mu.weights)
        assert weak_star_distance(mu, nu, family) == 0.0

    def test_empirical_shift_structure(self, cat, family):
        # f* sigma_n(x) = sigma_n(f x): check via materialized measures.
        # f x is the orbit's second point: an orbit restarted from the
        # rounded double of f x would leave the true one by step ~35
        p = (0.123, 0.456)
        n = 37
        orbit = cat.orbit(p, n + 1)
        mu = DiscreteMeasure(orbit[:n])
        lhs = DiscreteMeasure(cat.step(mu.atoms), mu.weights)
        rhs = DiscreteMeasure(orbit[1:])
        assert weak_star_distance(lhs, rhs, family) < 1e-13


class TestInvarianceDefect:
    def test_fixed_point_zero(self, cat, family):
        assert invariance_defect(cat, (0.0, 0.0), 25, family) == 0.0

    @pytest.mark.parametrize("n", [10, 1000])
    def test_two_over_n_bound(self, cat, family, rng, n):
        for _ in range(10):
            d = invariance_defect(cat, rng.random(2), n, family)
            assert d <= 2.0 / n

    def test_matches_pushforward_route(self, cat, family, rng):
        # independent route: materialize sigma_n and its pushforward
        p = rng.random(2)
        n = 50
        mu = DiscreteMeasure(cat.orbit(p, n))
        nu = DiscreteMeasure(cat.step(mu.atoms), mu.weights)
        direct = weak_star_distance(mu, nu, family)
        streamed = invariance_defect(cat, p, n, family)
        assert abs(direct - streamed) < 1e-12


class TestConvexity:
    def test_ball_convexity_random(self, family, rng):
        for _ in range(50):
            rho = moments(DiscreteMeasure(rng.random((4, 2))), family)
            m1 = DiscreteMeasure(rng.random((3, 2)))
            m2 = DiscreteMeasure(rng.random((2, 2)))
            eps = max(moments(m1, family).distance(rho),
                      moments(m2, family).distance(rho)) + 1e-9
            t = float(rng.random())
            mix = DiscreteMeasure(
                np.vstack([m1.atoms, m2.atoms]),
                np.concatenate([t * m1.weights, (1 - t) * m2.weights]))
            assert moments(mix, family).distance(rho) < eps


class TestDiscreteMeasureValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.zeros((0, 2)))

    def test_bad_weights_rejected(self, rng):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMeasure(rng.random((3, 2)), np.array([0.5, 0.5, 0.5]))

    def test_negative_weights_rejected(self, rng):
        with pytest.raises(ValueError, match="nonnegative"):
            DiscreteMeasure(rng.random((2, 2)), np.array([1.5, -0.5]))

    @pytest.mark.parametrize("atom", [(math.nan, 0.2), (0.3, math.inf),
                                      (-math.inf, 0.4)])
    def test_non_finite_atom_rejected(self, atom):
        # a NaN atom would give NaN moments
        with pytest.raises(ValueError, match="atoms must be finite"):
            DiscreteMeasure([atom, (0.3, 0.4)])

    @pytest.mark.parametrize("weights", [(math.nan, 1.0), (math.inf, 0.0),
                                         (0.5, math.nan)])
    def test_non_finite_weight_rejected(self, weights):
        # the sum check alone lets [nan, 1.0] through: abs(nan - 1) > 1e-12
        # is False
        with pytest.raises(ValueError, match="weights must be finite"):
            DiscreteMeasure([(0.1, 0.2), (0.3, 0.4)], weights)

    def test_seam_coalescing(self):
        mu = DiscreteMeasure(np.array([[1.0 - 1e-13, 0.2], [0.0, 0.2]]))
        assert len(mu) == 1


class TestCharacters:
    # the table evaluator's error bound, fixed when it replaced np.exp: it
    # read 1.2e-15 at most over these phases
    TOLERANCE = 4e-15

    def test_agrees_with_cmath_exp(self):
        special = [0, 1, 2**40 - 1, 2**52, 2**63, 2**64 - 1]
        rng = np.random.default_rng(2026)
        phases = np.concatenate([
            np.array(special, dtype=np.uint64),
            rng.integers(0, 2**64, size=10**5, dtype=np.uint64,
                         endpoint=False)])
        out = np.empty(phases.shape, dtype=complex)
        _characters(phases, out, np.empty_like(phases),
                    np.empty_like(out))
        ref = np.array([cmath.exp(2j * math.pi * (x / 2**64))
                        for x in phases.tolist()])
        err = np.abs(out - ref)
        assert float(err.max()) <= self.TOLERANCE, int(phases[err.argmax()])
        assert out[0] == 1.0


class TestModePlan:
    @pytest.mark.parametrize("truncation", [1, 2, 3, 10, 13, 17, 33, 34, 65,
                                            200])
    def test_rows_cover_the_family_once(self, truncation):
        fam = TestFunctionFamily(truncation)
        rows = ([j for j, _ in fam._conj] + [j for j, _ in fam._axis]
                + [j for j, _, _ in fam._products])
        assert sorted(rows) == list(range(fam._nfreq))
        freqs = _enumerate_frequencies(truncation // 2)
        for j, partner in fam._conj:
            assert partner < j
            assert np.array_equal(freqs[partner], -freqs[j])
        for j, _ in fam._axis:
            assert np.count_nonzero(freqs[j]) == 1

    def test_k33_needs_eight_products(self):
        fam = TestFunctionFamily(33)
        assert (len(fam._products), len(fam._axis), len(fam._conj)) == (8, 4, 4)


def _bound_target(truncation, kind, map):
    family = TestFunctionFamily(truncation)
    if kind == "orbit":
        values = moments(OrbitMeasure(map, (0.1, 0.2), 500), family).values
    elif kind == "lebesgue":
        values = moments(LEBESGUE, family).values
    else:
        values = moments(DiscreteMeasure.dirac((0.0, 0.0)), family).values
    # unnormalized: m_0 = 0.98, off the probability simplex
    return family, 0.98 * values if kind == "unnormalized" else values


class TestBoxBound:
    """The basin kernel's pruning bound and compaction."""

    @settings(max_examples=60, deadline=None)
    @given(truncation=st.sampled_from([2, 8, 33]),
           kind=st.sampled_from(["dirac", "orbit", "unnormalized"]),
           seed=st.integers(0, 2 ** 32 - 1),
           ns=st.lists(st.integers(1, 30), min_size=2, max_size=5,
                       unique=True).map(sorted))
    def test_lower_bound_at_every_later_row(self, cat, truncation, kind,
                                            seed, ns):
        family, target = _bound_target(truncation, kind, cat)
        # the fixed point makes every cos exactly 1, a box corner
        x = np.concatenate([[[0.0, 0.0]],
                            np.random.default_rng(seed).random((63, 2))])
        ws = family.zero_sums(len(x))
        bounds = []
        for n in range(1, ns[-1] + 1):
            family.accumulate(x, ws)
            if n in ns:
                dist = family.sum_distances(ws, n, target)
                if n < ns[-1]:
                    bound = family.box_bound(ws, n, ns[-1], target).copy()
                    ceiling = family.box_bound_ceiling(n, ns[-1], target)
                    assert np.all(bound <= ceiling + 1e-12)
                    bounds.append(bound)
                # the row's own distance too: its box holds the mean at n
                for bound in bounds:
                    assert np.all(bound <= dist + 1e-12)
            x = cat.step(x)

    # K = 1 and 2 clip the bound's modes to none and one
    @pytest.mark.parametrize("truncation", [1, 2, 8, 17, 33, 34])
    @pytest.mark.parametrize("kind", ["lebesgue", "dirac", "unnormalized"])
    @pytest.mark.parametrize("live", [1, 7, 300])
    def test_bound_below_screen_below_distance(self, cat, truncation, kind,
                                               live):
        # the basin kernel's row: the prune bound at the last row N, then
        # the screen (the bound at horizon n), then distances of the points
        # the screen passes
        family, target = _bound_target(truncation, kind, cat)
        # the family of the bound's modes alone: its sums rows, weights and
        # order of additions are the screen's
        head = TestFunctionFamily(1 + family._bound_modes)
        rng = np.random.default_rng([truncation, live])
        x = np.concatenate([[[0.0, 0.0]], rng.random((live + 4, 2))])
        ws = family.zero_sums(len(x))
        family.accumulate(x, ws)
        keep = np.zeros(len(x), dtype=bool)
        keep[rng.choice(len(x), live, replace=False)] = True
        x = x[family.compact(ws, keep)]
        hws = head.zero_sums(live)
        head.accumulate(x, hws)
        horizon = 12
        for n in range(1, horizon + 1):
            if n > 1:
                family.accumulate(x, ws)
                head.accumulate(x, hws)
            dist = family.sum_distances(ws, n, target)
            screen = family.box_bound(ws, n, n, target)
            bound = family.box_bound(ws, n, horizon, target)
            assert np.array_equal(
                screen, head.sum_distances(hws, n, target[:head.truncation]))
            # within rounding, far below the kernel's PRUNE_SLACK
            assert np.all(bound <= screen + 1e-12)
            assert np.all(screen <= dist + 1e-12)
            # distances of listed columns are the full row's, bit for bit
            cols = np.flatnonzero(rng.random(live) < 0.5)
            assert np.array_equal(
                family.sum_distances(ws, n, target, cols), dist[cols])
            x = cat.step(x)

    @pytest.mark.parametrize("truncation", [1, 2, 8, 17, 33, 34])
    def test_compacted_distances_bit_identical(self, cat, truncation, rng):
        # each live point keeps its distance to the last bit at any live
        # count, down to a one-point workspace, and in any column
        family, target = _bound_target(truncation, "dirac", cat)
        pts = rng.random((1003, 2))
        full, part = family.zero_sums(len(pts)), family.zero_sums(len(pts))
        alone = [family.zero_sums(1) for _ in pts]
        idx = np.arange(len(pts))
        for n in range(1, 13):
            family.accumulate(pts, full)
            family.accumulate(pts[idx], part)
            want = family.sum_distances(full, n, target)
            assert np.array_equal(family.sum_distances(part, n, target),
                                  want[idx])
            for p, ws in zip(pts, alone):
                family.accumulate(p[None], ws)
            one = [family.sum_distances(ws, n, target)[0] for ws in alone]
            assert np.array_equal(one, want)
            live = rng.random(len(idx)) < 0.8
            idx = idx[family.compact(part, live)]
            assert part.live == len(idx)
            pts = cat.step(pts)
