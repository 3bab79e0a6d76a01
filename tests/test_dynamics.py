import array
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab.dynamics import (CONE_ROUNDING, TWO_PI, ConeReport,
                               HyperbolicToralMap, IterationDivergence,
                               MatrixInvalid, NotHyperbolic, _arc_extreme,
                               _grid_points, from_phases, to_phases,
                               torus_distance, unstable_growth,
                               unstable_warmup, verify_hyperbolicity, wrap)
from toruslab.experiments import ORBIT_SEED_POINT
from toruslab.lyapunov import lyapunov_spectrum_qr, unstable_integral
from toruslab.weakstar import OrbitMeasure

LAMBDA_CAT = (3.0 + math.sqrt(5.0)) / 2.0
LAMBDA_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                 allow_nan=False)
points = st.tuples(unit, unit)


class TestConstruction:
    def test_identity_rejected(self):
        with pytest.raises(ValueError, match="hyperbolic"):
            HyperbolicToralMap([[1, 0], [0, 1]])

    def test_parabolic_rejected(self):
        with pytest.raises(ValueError, match="hyperbolic"):
            HyperbolicToralMap([[1, 1], [0, 1]])

    def test_det_minus_one_trace_zero_rejected(self):
        with pytest.raises(ValueError, match="hyperbolic"):
            HyperbolicToralMap([[0, 1], [1, 0]])

    def test_golden_matrix_admitted(self):
        m = HyperbolicToralMap([[1, 1], [1, 0]])
        assert m.det == -1
        assert abs(m.lam_u - LAMBDA_GOLDEN) < 1e-12

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="unimodular"):
            HyperbolicToralMap([[2, 0], [0, 1]])

    @pytest.mark.parametrize("matrix, message", [
        # det 2^64 + 1 wraps to 1 in int64
        ([[2**32, -1], [1, 2**32]], "unimodular"),
        # unimodular and hyperbolic, but no int64 holds 2^64 + 1
        ([[2**64 + 1, 2**64], [1, 1]], "too large"),
    ])
    def test_huge_entries_rejected(self, matrix, message):
        with pytest.raises(MatrixInvalid, match=message):
            HyperbolicToralMap(matrix)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix, det", [
        # through uint64, 2^63 wrapped in int64 and gave det -2^63 - 1; 2^70
        # raised a NumPy TypeError
        ([[2**63, 1], [1, 1]], 2**63 - 1),
        ([[2**70, 1], [1, 1]], 2**70 - 1),
    ])
    def test_oversized_entries_report_true_det(self, matrix, det):
        with pytest.raises(MatrixInvalid, match=f"unimodular, det = {det}$"):
            HyperbolicToralMap(matrix)

    @pytest.mark.parametrize("entry", [1.5, math.nan, math.inf, "2"])
    def test_non_integer_entry_named(self, entry):
        with pytest.raises(MatrixInvalid,
                           match="matrix entries must be integers"):
            HyperbolicToralMap([[entry, 1], [1, 1]])

    def test_large_unimodular_matrix_admitted(self):
        # no lattice bounds the entries any more: orbits are exact in uint64
        m = HyperbolicToralMap([[2**60 + 1, 2**60], [1, 1]])
        assert m.det == 1
        p = (0.25, 0.5)
        assert np.array_equal(m.orbit(p, 50), reference_orbit(m, p, 50))

    def test_contraction_bound_enforced(self):
        # amp * |A^-1| * 2 pi |c| |k| must stay below 1/2
        with pytest.raises(ValueError, match="contract"):
            HyperbolicToralMap([[2, 1], [1, 1]], 0.4, [((0.5, 0.0), (0, 1))])

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            HyperbolicToralMap([[2, 1], [1, 1]], 0.01, [((1.0, 0.0), (0, 0))])

    @pytest.mark.parametrize("amplitude, coeff, freq, message", [
        (math.nan, (1.0, 0.0), (0, 1), "amplitude must be finite"),
        (math.inf, (1.0, 0.0), (0, 1), "amplitude must be finite"),
        (0.005, (math.nan, 0.0), (0, 1), "coefficient must be finite"),
        (0.005, (0.0, math.inf), (0, 1), "coefficient must be finite"),
        (0.005, (1.0, 0.0), (math.inf, 1), "integer 2-vector"),
    ])
    def test_non_finite_rejected(self, amplitude, coeff, freq, message):
        # NaN fails every comparison, so it passed the contraction bound and
        # every step returned NaN
        with pytest.raises(ValueError, match=message):
            HyperbolicToralMap([[2, 1], [1, 1]], amplitude, [(coeff, freq)])


class TestStep:
    def test_fixed_point(self, cat):
        assert np.allclose(cat.step([0.0, 0.0]), [0.0, 0.0])

    def test_half_half(self, cat):
        # A (1/2, 1/2) = (3/2, 1) = (1/2, 0) mod 1
        assert np.allclose(cat.step([0.5, 0.5]), [0.5, 0.0])

    def test_golden_example(self, golden):
        assert np.allclose(golden.step([0.25, 0.5]), [0.75, 0.25])

    def test_batch_shape(self, cat, rng):
        pts = rng.random((40, 2))
        out = cat.step(pts)
        assert out.shape == (40, 2)
        assert np.all((out >= 0) & (out < 1))


STEP_ORBIT_MAPS = {
    "cat-3211": HyperbolicToralMap([[3, 2], [1, 1]]),
    "cat-5221": HyperbolicToralMap([[5, 2], [2, 1]]),
    "cat-sin-y": HyperbolicToralMap([[2, 1], [1, 1]], 0.005,
                                    [((1.0, 0.0), (0, 1))]),
    "3211-sin-y": HyperbolicToralMap([[3, 2], [1, 1]], 0.005,
                                     [((1.0, 0.0), (0, 1))]),
    "three-terms": HyperbolicToralMap(
        [[2, 1], [1, 1]], 0.004,
        [((1.0, 0.3), (0, 1)), ((0.2, -0.5), (1, 1)),
         ((0.7, 0.1), (2, -1))]),
    "axis-terms": HyperbolicToralMap(
        [[2, 1], [1, 1]], 0.004,
        [((0.0, 1.0), (1, 0)), ((0.5, 1.0), (2, 0)), ((1.0, 1.0), (0, -1))]),
    "1-1-12": HyperbolicToralMap([[1, -1], [-1, 2]]),
    "1-1-12-sin-y": HyperbolicToralMap([[1, -1], [-1, 2]], 0.004,
                                       [((1.0, 0.0), (0, 1))]),
    # amplitude 0 with a sine term is linear: orbit sums an empty series
    "cat-amp-0-sin-y": HyperbolicToralMap([[2, 1], [1, 1]], 0.0,
                                          [((1.0, 0.0), (0, 1))]),
}


def psi_k_terms(k_max):
    """psi_K = sum_{k <= K} (2 pi 2^k k^2)^-1 sin(2 pi 2^k y) e_x, a C^1
    family whose derivative loses its Hoelder exponent as K grows."""
    return [((1.0 / (TWO_PI * 2**k * k * k), 0.0), (0, 2**k))
            for k in range(1, k_max + 1)]


# multi-term maps on which the compiled series leaves many products out:
# coefficients 0 and +-1, frequencies with a zero or -1 component, matrices
# with +-1, 0 and negative entries.  Each has a component made of one term
# with a negative coefficient on a frequency (0, 1) or (1, 0), whose product
# is -0 where that phase is 0: only the series' +0.0 start makes it +0.
COMPILED_MAPS = {
    "1-1-12-mixed": HyperbolicToralMap(
        [[1, -1], [-1, 2]], 0.003,
        [((-1.0, 0.5), (1, 0)), ((0.0, -1.0), (0, 1)),
         ((0.7, 1.0), (3, -1)), ((1.0, 0.0), (-1, -1))]),
    "3211-mixed": HyperbolicToralMap(
        [[3, 2], [1, 1]], 0.003,
        [((0.5, 0.0), (2, 0)), ((-0.3, 0.0), (1, -2)),
         ((1.0, -1.0), (0, 1))]),
    "0111-mixed": HyperbolicToralMap(
        [[0, 1], [1, 1]], 0.005,
        [((1.0, -0.5), (1, 1)), ((0.25, 0.0), (-2, 3))]),
    "cat-psi-4": HyperbolicToralMap([[2, 1], [1, 1]], 0.02, psi_k_terms(4)),
}
STEP_ORBIT_MAPS.update(COMPILED_MAPS)

# starts on the lines where a phase of the maps above is 0 or 1/2
ZERO_PHASE_POINTS = [(0.0, 0.0), (0.0, 0.3), (0.6, 0.0), (0.5, 0.5),
                     (0.25, 0.75), (0.0, 0.5)]

# starts whose orbits under [[1, -1], [-1, 2]], without and with the sine
# term, reach a row sum in (-2^-54, 0), which % 1.0 rounds to 1.0: the loop
# must go on from 0.0, as step does
CARRY_POINTS = [(6.22901694889702e-06, 6.229016948897021e-06),
                (0.001954562132438126, 0.0009772810662190628)]


class TestStepFollowsOrbit:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(STEP_ORBIT_MAPS))
    def test_iterated_step_equals_orbit(self, name):
        # the basin sweep iterates step on arrays, the scalar stages read
        # orbit; both must follow the same orbit bit for bit: the uint64
        # phases of a linear map, the floats of a nonlinear one
        m = STEP_ORBIT_MAPS[name]
        pts = np.concatenate([np.random.default_rng(11).random((5, 2)),
                              CARRY_POINTS])
        orbits = np.stack([m.orbit(p, 300) for p in pts], axis=1)
        if m.is_linear:
            phases = np.stack([m.orbit_phases(p, 300) for p in pts], axis=1)
        x = to_phases(pts) if m.is_linear else pts
        for t in range(300):
            got = from_phases(x) if m.is_linear else x
            assert np.array_equal(bits(got), bits(orbits[t])), t
            if m.is_linear:
                assert np.array_equal(x, phases[t]), t
            x = m.step(x)

    def test_orbit_phases_linear_only(self):
        m = STEP_ORBIT_MAPS["cat-sin-y"]
        with pytest.raises(ValueError, match="linear map only"):
            m.orbit_phases((0.2, 0.3), 5)
        with pytest.raises(ValueError, match="linear map only"):
            m.step(to_phases(np.array([0.2, 0.3])))


def reference_inverse(m, p):
    """`step_inverse` with each series term in its former allocating form,
    sin(2 pi (k0 x + k1 y)) summed into fresh arrays, iterating every point
    and holding each one fixed from its first step below 1e-12 on."""
    (b00, b01), (b10, b11) = m.matrix_inv.astype(float).tolist()

    def lift(v):
        x, y = v[..., 0], v[..., 1]
        return np.stack([b00 * x + b01 * y, b10 * x + b11 * y], axis=-1)

    q = lift(p)
    psi = np.empty(p.shape)
    done = np.zeros(p.shape[:-1], dtype=bool)
    while not done.all():
        px = py = 0.0
        for (c0, c1), (k0, k1) in zip(m._coeffs.tolist(), m._freqs.tolist()):
            s = np.sin(2.0 * math.pi * (k0 * q[..., 0] + k1 * q[..., 1]))
            px = px + c0 * s
            py = py + c1 * s
        psi[..., 0], psi[..., 1] = px, py
        q_next = lift(p - m.amplitude * psi)
        delta = np.max(np.abs(q_next - q), axis=-1)
        q = np.where(done[..., None], q, q_next)
        done = done | (delta < 1e-12)
    return mod_wrap(q)


class TestInverse:
    def test_linear_example(self, cat):
        # A^-1 = [[1,-1],[-1,2]], A^-1 (1/2, 0) = (1/2, -1/2) = (1/2, 1/2)
        assert np.allclose(cat.step_inverse([0.5, 0.0]), [0.5, 0.5])

    def test_fixed_point(self, cat):
        assert np.allclose(cat.step_inverse([0.0, 0.0]), [0.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(p=points)
    def test_roundtrip_linear(self, cat, p):
        q = cat.step_inverse(cat.step(np.array(p)))
        assert torus_distance(q, np.array(p)) <= 1e-10

    @pytest.mark.parametrize("name", ["cat-sin-y", "3211-sin-y",
                                      "three-terms", "axis-terms",
                                      *COMPILED_MAPS])
    def test_matches_allocating_series(self, name):
        m = STEP_ORBIT_MAPS[name]
        pts = np.random.default_rng(5).random((2000, 2))
        for p in (pts, pts[0]):
            got, ref = m.step_inverse(p), reference_inverse(m, p)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("name", ["cat-sin-y", "3211-sin-y",
                                      "three-terms", "axis-terms",
                                      *COMPILED_MAPS])
    def test_batch_equals_point_loop(self, name):
        # each point stops at its own tolerance step, so neither its inverse
        # nor its warmed-up growth depends on the batch it is stepped in
        m = STEP_ORBIT_MAPS[name]
        pts = np.random.default_rng(9).random((40, 2))
        inv = np.array([m.step_inverse(p) for p in pts])
        assert np.array_equal(m.step_inverse(pts).view(np.int64),
                              inv.view(np.int64))
        growth = np.array([unstable_growth(m, p[None], 60)[0] for p in pts])
        assert np.array_equal(unstable_growth(m, pts, 60).view(np.int64),
                              growth.view(np.int64))

    def test_roundtrip_perturbed_bulk(self):
        m = HyperbolicToralMap([[2, 1], [1, 1]], 0.004,
                               [((1.0, 0.5), (1, 2)), ((0.0, 1.0), (2, -1))])
        pts = np.random.default_rng(7).random((10_000, 2))
        back = m.step_inverse(m.step(pts))
        assert float(np.max(torus_distance(back, pts))) <= 1e-10


def plain_series(m, x, y):
    """psi at the points (x, y) with every product and sum written out, each
    component summed from 0.0 in the order of the terms."""
    px = py = 0.0
    for (c0, c1), (k0, k1) in zip(m._coeffs.tolist(), m._freqs.tolist()):
        s = np.sin(TWO_PI * (k0 * x + k1 * y))
        px = px + c0 * s
        py = py + c1 * s
    return px, py


def compiled_starts(seed):
    """300 uniform points after the zero-phase and carry starts."""
    return np.concatenate([ZERO_PHASE_POINTS, CARRY_POINTS,
                           np.random.default_rng(seed).random((300, 2))])


class TestCompiledSeries:
    """The series compiled at construction leaves products by 0 and +-1
    out; every callable compiled from it must give the plain arithmetic's
    bits."""

    @pytest.mark.parametrize("name", sorted(COMPILED_MAPS))
    def test_series_equals_plain_sum(self, name):
        # bits, not values: a sum that did not start at +0.0 would give -0
        # at the zero-phase starts
        m = COMPILED_MAPS[name]
        pts = compiled_starts(1)
        x, y = pts[:, 0], pts[:, 1]
        for got, ref in zip(m._series(x, y), plain_series(m, x, y)):
            got, ref = (np.broadcast_to(v, x.shape) for v in (got, ref))
            assert np.array_equal(bits(got), bits(ref))

    @pytest.mark.parametrize("name", sorted(COMPILED_MAPS))
    def test_orbit_equals_reference_loop(self, name):
        m = COMPILED_MAPS[name]
        for p in compiled_starts(2)[:20]:
            assert np.array_equal(bits(m.orbit(p, 2000)),
                                  bits(reference_orbit(m, p, 2000))), p

    @pytest.mark.parametrize("name", sorted(COMPILED_MAPS))
    def test_scalar_inverse_equals_step_inverse(self, name):
        m = COMPILED_MAPS[name]
        q = compiled_starts(3)
        points = q.tolist()
        for _ in range(3):
            q = m.step_inverse(q)
            points = [m._inverse(x, y) for x, y in points]
            assert np.array_equal(bits(np.array(points)), bits(q))

    @pytest.mark.parametrize("name", sorted(COMPILED_MAPS))
    def test_one_point_warmup_is_its_batch_row(self, name):
        m = COMPILED_MAPS[name]
        pts = compiled_starts(4)
        batch = unstable_warmup(m, pts, 60)
        rows = np.array([unstable_warmup(m, p[None], 60)[0] for p in pts])
        assert np.array_equal(bits(rows), bits(batch))

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_scalar_inverse_raises_as_step_inverse(self):
        m = COMPILED_MAPS["3211-mixed"]
        with pytest.raises(IterationDivergence) as batch:
            m.step_inverse(np.array([[0.2, 0.3], [math.nan, 0.1]]))
        with pytest.raises(IterationDivergence) as scalar:
            m._inverse(math.nan, 0.1)
        assert str(scalar.value) == str(batch.value)
        for bad in (math.nan, math.inf):
            with pytest.raises(IterationDivergence):
                unstable_warmup(m, np.array([[bad, 0.1]]), 5)


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(COMPILED_MAPS))
    def test_differential_rows_batch_independent(self, name):
        # the phases of Dpsi are summed element by element: a matrix
        # product rounded 3 x + y differently for one row and for many
        m = COMPILED_MAPS[name]
        pts = compiled_starts(5)
        rows = np.array([m.differential(p[None])[0] for p in pts])
        assert np.array_equal(bits(m.differential(pts)), bits(rows))

    def test_linear_is_read_only_broadcast(self, cat, rng):
        D = cat.differential(rng.random((7, 3, 2)))
        assert D.shape == (7, 3, 2, 2) and not D.flags.writeable
        assert np.array_equal(D, np.broadcast_to(cat.matrix, D.shape))

    def test_linear_is_matrix(self, cat, rng):
        pts = rng.random((5, 2))
        D = cat.differential(pts)
        assert np.allclose(D, cat.matrix.astype(float))
        assert np.allclose(np.linalg.det(D), 1.0)

    def test_perturbed_entry_formula(self):
        m = HyperbolicToralMap([[2, 1], [1, 1]], 0.005, [((1.0, 0.0), (0, 1))])
        p = np.array([0.3, 0.7])
        D = m.differential(p)
        expected_12 = 1.0 + 0.005 * 2 * math.pi * math.cos(2 * math.pi * 0.7)
        assert abs(D[0, 1] - expected_12) < 1e-14
        assert abs(D[0, 0] - 2.0) < 1e-14
        assert abs(D[1, 0] - 1.0) < 1e-14
        assert abs(D[1, 1] - 1.0) < 1e-14

    def test_matches_finite_differences(self):
        m = HyperbolicToralMap([[2, 1], [1, 1]], 0.008,
                               [((0.8, 0.3), (1, 1)), ((0.2, -0.4), (0, 2))])
        rng = np.random.default_rng(11)
        pts = rng.random((1000, 2))
        D = m.differential(pts)
        h = 1e-6

        def lift(q):  # unwrapped map for differencing
            psi = np.sin(2 * np.pi * (q @ m._freqs.T)) @ m._coeffs
            return q @ m.matrix.T.astype(float) + m.amplitude * psi

        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (lift(pts + e) - lift(pts - e)) / (2 * h)
            assert float(np.max(np.abs(fd - D[:, :, axis]))) < 1e-6

    def test_dpsi_equals_einsum(self):
        # the former three-operand einsum, bit for bit, over seeded random
        # multi-term maps; coefficients are mostly non-unit, with some 0 and
        # +-1 entries, and some frequencies have a zero component.  The
        # phases k0 x + k1 y are summed element by element, as `_dpsi` sums
        # them: a matrix product rounds them differently in different
        # batch shapes (test_differential_rows_batch_independent)
        rng = np.random.default_rng(2026)
        for _ in range(100):
            terms = []
            for _ in range(int(rng.integers(2, 6))):
                c = rng.normal(size=2)
                c[rng.random(2) < 0.2] = rng.choice([0.0, 1.0, -1.0])
                k = rng.integers(-3, 4, size=2)
                if not k.any():
                    k[int(rng.integers(2))] = 1
                terms.append((c, k))
            m = HyperbolicToralMap([[2, 1], [1, 1]], 1e-4, terms)
            pts = rng.random((3, 70, 2))
            k0, k1 = m._freqs.T.astype(float)
            phases = TWO_PI * (pts[..., :1] * k0 + pts[..., 1:] * k1)
            ref = np.einsum("...m,mi,mj->...ij", TWO_PI * np.cos(phases),
                            m._coeffs, m._freqs.astype(float))
            got = m._dpsi(pts)
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def exact_orbit(m, point, n):
    """The true orbit of a linear map from the phases X = floor(x 2^64) of
    the fraction x of point, X -> A X mod 2^64 in Python ints, each phase
    written as the double in [0, 1) nearest to X 2^-64."""
    p = wrap(np.asarray(point, dtype=float).reshape(2))
    x, y = (math.floor(v * 2**64) for v in p.tolist())
    (a00, a01), (a10, a11) = m.matrix.tolist()
    rows = []
    for _ in range(n):
        rows.append([min(v * 2.0**-64, 1.0 - 2.0**-53) for v in (x, y)])
        x, y = (a00 * x + a01 * y) % 2**64, (a10 * x + a11 * y) % 2**64
    return np.array(rows)


def reference_orbit(m, point, n):
    """What HyperbolicToralMap.orbit must return exactly: a linear map's
    exact_orbit, or an element-by-element copy of the scalar loop of a
    nonlinear one, a row sum that % 1.0 rounds to 1.0 continued from 0.0."""
    if m.is_linear:
        return exact_orbit(m, point, n)
    a00, a01 = float(m.matrix[0, 0]), float(m.matrix[0, 1])
    a10, a11 = float(m.matrix[1, 0]), float(m.matrix[1, 1])
    p = wrap(np.asarray(point, dtype=float).reshape(2))
    x, y = float(p[0]), float(p[1])
    terms = [(float(c[0]), float(c[1]), float(k[0]), float(k[1]))
             for c, k in zip(m._coeffs, m._freqs)]
    xs, ys = [], []
    for _ in range(n):
        xs.append(x)
        ys.append(y)
        px = py = 0.0
        for c0, c1, k0, k1 in terms:
            s = math.sin(2.0 * math.pi * (k0 * x + k1 * y))
            px += c0 * s
            py += c1 * s
        x, y = ((a00 * x + a01 * y + m.amplitude * px) % 1.0,
                (a10 * x + a11 * y + m.amplitude * py) % 1.0)
        x, y = (0.0 if x == 1.0 else x), (0.0 if y == 1.0 else y)
    return np.column_stack([xs, ys])


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


LATTICE_MAPS = [[[2, 1], [1, 1]], [[1, 1], [1, 2]], [[3, 1], [2, 1]],
                [[1, -1], [-1, 2]], [[3, 2], [1, 1]]]
ORBIT_LENGTHS = [1, 63, 64, 65, 128, 129, 4097]


def lattice_starts(seed, uniform):
    """Six special starts (a fixed point, tiny and out-of-range coordinates,
    the smallest subnormal, a carry point), six uniform starts scaled by
    1e-8, whose phases lie below 2^38, and `uniform` uniform ones."""
    rng = random.Random(seed)
    starts = [(0.0, 0.0), (1e-20, 0.3), (5e-324, 0.0), (-1e-17, 0.2),
              (1.25, -0.5), CARRY_POINTS[0]]
    starts += [(1e-8 * rng.random(), 1e-8 * rng.random()) for _ in range(6)]
    return starts + [(rng.random(), rng.random()) for _ in range(uniform)]


class TestOrbit:
    @pytest.mark.parametrize("amplitude", [0.0, 0.005])
    @pytest.mark.parametrize("point", [(0.2137214321, 0.5721347123),
                                       (1.25, -0.5), (0.0, 0.0)])
    def test_bit_identical_to_reference_loop(self, amplitude, point):
        m = HyperbolicToralMap([[2, 1], [1, 1]], amplitude,
                               [((1.0, 0.0), (0, 1))] if amplitude else ())
        got = m.orbit(point, 20_000)
        assert got.dtype == np.float64 and got.shape == (20_000, 2)
        assert np.array_equal(got, reference_orbit(m, point, 20_000))

    def test_single(self, cat):
        o = cat.orbit([0.3, 0.4], 1)
        assert o.shape == (1, 2)
        assert np.allclose(o[0], [0.3, 0.4])

    def test_fixed_point_constant(self, cat):
        o = cat.orbit([0.0, 0.0], 9)
        assert np.allclose(o, 0.0)

    def test_three_steps(self, cat):
        o = cat.orbit([0.5, 0.5], 3)
        assert np.allclose(o, [[0.5, 0.5], [0.5, 0.0], [0.0, 0.5]])

    @settings(max_examples=30, deadline=None)
    @given(p=points, n=st.integers(min_value=2, max_value=12))
    def test_shift_property(self, cat, p, n):
        o = cat.orbit(np.array(p), n)
        o2 = cat.orbit(cat.step(np.array(p)), n - 1)
        # on the torus: from (1/3, 1/3) the true orbit reaches 1 - 2^-53
        # where the float step wraps 1.0 to 0
        assert np.all(torus_distance(o[1:], o2) <= 1e-8)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_rational_points_periodic(self, cat, k):
        # the cat map permutes the dyadic points (a/q, b/q), q = 2^k, which
        # are exact floats: over one period (up to 3 * 2^18 steps) orbit
        # must be the integer orbit divided by q, bit for bit, and come back
        # to its start
        q = 2 ** k
        rng = random.Random(k)
        for start in [(1, q - 1), (rng.randrange(q), rng.randrange(q))]:
            exact = array.array("q", start)
            a, b = (2 * start[0] + start[1]) % q, (start[0] + start[1]) % q
            while (a, b) != start:
                exact.extend((a, b))
                a, b = (2 * a + b) % q, (a + b) % q
            exact.extend(start)
            ref = np.frombuffer(exact, dtype=np.int64).reshape(-1, 2) / q
            got = cat.orbit(ref[0], len(ref))
            assert np.array_equal(bits(got), bits(ref)), (q, start)

    @pytest.mark.parametrize("map, n", [
        (HyperbolicToralMap([[2, 1], [1, 1]]), 10 ** 6),
        (HyperbolicToralMap([[2, 1], [1, 1]], 0.005, [((1.0, 0.0), (0, 1))]),
         10 ** 5)], ids=["cat", "perturbed"])
    def test_peak_memory_is_the_output(self, map, n):
        # orbit allocates its output once and writes it in place: no
        # zero-filled copy and no full-size temporary
        tracemalloc.start()
        try:
            out = map.orbit(ORBIT_SEED_POINT, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes, (peak, out.nbytes)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix", LATTICE_MAPS, ids=str)
    def test_lattice_path_equals_reference(self, matrix):
        # a linear orbit is the integer map on the lattice 2^-64 Z^2, filled
        # by doubling; every prefix length must give the exact orbit, for
        # [[3, 2], [1, 1]] too, whose float orbits never reached the lattice
        # of the former float loop
        m = HyperbolicToralMap(matrix)
        for start in lattice_starts(sum(map(sum, matrix)), 88):
            ref = bits(reference_orbit(m, start, ORBIT_LENGTHS[-1]))
            for n in ORBIT_LENGTHS:
                assert np.array_equal(bits(m.orbit(start, n)), ref[:n]), (
                    start, n)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix", LATTICE_MAPS, ids=str)
    def test_long_lattice_path_equals_reference(self, matrix):
        m = HyperbolicToralMap(matrix)
        # one start scaled by 1e-8 and two uniform ones
        for start in lattice_starts(7, 2)[-3:]:
            assert np.array_equal(bits(m.orbit(start, 70_001)),
                                  bits(reference_orbit(m, start, 70_001)))

    def test_first_row_is_the_start(self, cat):
        # a double of at least 2^-11 is a multiple of 2^-64, so its phase
        # is exact and converts back to itself
        rng = np.random.default_rng(3)
        starts = np.concatenate([
            2.0 ** -11 + (1 - 2.0 ** -11) * rng.random((200, 2)),
            [[2.0 ** -11, 1 - 2.0 ** -53], [0.5, 0.75], [1.25, -0.5]]])
        for p in starts:
            assert np.array_equal(bits(cat.orbit(p, 3)[0]), bits(wrap(p)))

    def test_small_starts_move_below_2_64(self, cat):
        # floor(x 2^64) moves a coordinate below 2^-11 by less than 2^-64:
        # the smallest subnormal goes to the fixed point 0
        rng = np.random.default_rng(4)
        small = 2.0 ** -11 * rng.random((200, 2)) ** 8
        first = np.array([cat.orbit(p, 2)[0] for p in small])
        assert np.all(first <= small) and np.all(small - first < 2.0 ** -64)
        o = cat.orbit((5e-324, 0.0), 2000)
        assert not o.any()

    def test_rational_float_orbit_matches_exact(self, cat):
        q = 7
        a, b = 2, 3
        orbit = cat.orbit([a / q, b / q], 20)
        ea, eb = a, b
        for i in range(20):
            assert torus_distance(orbit[i], np.array([ea / q, eb / q])) < 1e-7
            ea, eb = (2 * ea + eb) % q, (ea + eb) % q


def mod_wrap(points):
    """The np.mod form of `wrap` that the floor form replaced."""
    p = np.mod(np.asarray(points, dtype=float), 1.0)
    return np.where(p >= 1.0, 0.0, p)


class TestWrap:
    def test_tiny_negative(self):
        w = wrap(np.array([-1e-18, 0.5]))
        assert w[0] < 1.0 and w[0] >= 0.0

    def test_bitwise_equals_mod(self):
        special = [0.0, -0.0, -5e-324, 5e-324, -1e-18, 1e-18, 1 - 2.0 ** -53,
                   -(1 - 2.0 ** -53), 2.0 ** 52 + 0.5, 2.0 ** 51 + 0.5,
                   -(2.0 ** 51 + 0.5), 1e300, -1e300, np.nan, np.inf,
                   -np.inf]
        integers = [float(k) for k in range(-10, 11)] + [2.0 ** 53]
        seeded = np.random.default_rng(2024).uniform(-8.0, 8.0, 10 ** 5)
        p = np.concatenate([special, integers, seeded]).reshape(-1, 2)
        with np.errstate(invalid="ignore"):
            got, ref = wrap(p), mod_wrap(p)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_input_unchanged(self):
        p = np.array([[-0.25, 1.5], [2.0, -1e-18]])
        before = p.copy()
        wrap(p)
        assert np.array_equal(p, before)

    @settings(max_examples=50, deadline=None)
    @given(p=points)
    def test_distance_bound(self, p):
        d = torus_distance(np.array(p), np.array([0.9, 0.1]))
        assert 0.0 <= d <= math.sqrt(2.0) / 2.0 + 1e-15


def adjugate(D):
    """adj(D) = [[d11, -d01], [-d10, d00]] = det(D) D^-1 for a stack of 2x2
    matrices."""
    adj = np.empty_like(D)
    adj[:, 0, 0], adj[:, 0, 1] = D[:, 1, 1], -D[:, 0, 1]
    adj[:, 1, 0], adj[:, 1, 1] = -D[:, 1, 0], D[:, 0, 0]
    return adj


def reference_cone_report(map, grid_resolution, cone_half_angle=0.15,
                          n_dirs=2001):
    """The certified cone report with every check at every grid point, by
    batched products in the coordinates of the basis (v_u, v_s), the stable
    cone through det(Df) Df^-1 by np.linalg.inv in place of adj(Df), and
    each arc extreme taken over n_dirs sampled directions, the arc's two
    ends among them."""
    pts = _grid_points(grid_resolution)
    basis_inv = np.linalg.inv(np.column_stack([map.v_u, map.v_s]))
    tan_a = math.tan(cone_half_angle)
    slack = (map.differential_lipschitz * math.sqrt(2.0)
             / (2 * grid_resolution) + CONE_ROUNDING)
    eta = np.linalg.norm(basis_inv, 2) * slack
    D = map.differential(pts)
    dirs = tan_a * np.linspace(-1.0, 1.0, n_dirs)

    def cone(mats, axis, side, along):
        angle = 0.0
        for sign in (1.0, -1.0):
            ray = axis + sign * tan_a * side
            comp = (mats @ ray) @ basis_inv.T
            e = eta * np.linalg.norm(ray)
            angle = max(angle, float(np.max(np.arctan2(
                np.abs(comp[:, 1 - along]) + e, np.abs(comp[:, along]) - e))))
        v = axis + dirs[:, None] * side
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return angle, np.linalg.norm(np.einsum("nij,tj->nti", D, v), axis=2)

    unstable_angle, grow = cone(D, map.v_u, map.v_s, 0)
    scaled_inverse = np.linalg.det(D)[:, None, None] * np.linalg.inv(D)
    stable_angle, shrink = cone(scaled_inverse, map.v_s, map.v_u, 1)
    expand = float(np.min(grow)) - slack
    contract = float(np.max(shrink)) + slack
    certified = max(unstable_angle, stable_angle) < cone_half_angle
    return ConeReport(expand_bound=expand, contract_bound=contract,
                      unstable_angle=unstable_angle, stable_angle=stable_angle,
                      slack=slack, cone_half_angle=cone_half_angle,
                      grid_resolution=grid_resolution, certified=certified,
                      passed=certified and expand > 1.0 > contract)


def symmetric_bounds(lam_u, lam_s, alpha):
    """min |A v| on the unstable arc and max on the stable one, for a
    symmetric A: its eigenvectors are orthonormal, and both extremes sit at
    the arc's ends."""
    c2, s2 = math.cos(alpha) ** 2, math.sin(alpha) ** 2
    return (math.sqrt(lam_u ** 2 * c2 + lam_s ** 2 * s2),
            math.sqrt(lam_s ** 2 * c2 + lam_u ** 2 * s2))


class ConstantDifferential(HyperbolicToralMap):
    """The cat map with Df replaced by one constant matrix everywhere."""

    def __init__(self, jacobian):
        super().__init__([[2, 1], [1, 1]])
        self._jacobian = np.asarray(jacobian, dtype=float)

    def differential(self, points):
        shape = np.shape(points)[:-1] + (2, 2)
        return np.broadcast_to(self._jacobian, shape).copy()


LINEAR_CONE_MAPS = [[[2, 1], [1, 1]], [[1, 1], [1, 0]], [[3, 1], [2, 1]],
                    [[1, 1], [1, 2]]]
# (matrix, amplitude, perturbation) of the benchmark's perturbed-run map, of
# a two-term map with non-unit coefficients and of a steep map that passes
# the construction bound but turns directions by up to 0.09 rad
PERTURBED_RUN_MAP = ([[2, 1], [1, 1]], 0.005, [((1.0, 0.0), (0, 1))])
TWO_TERM_MAP = ([[2, 1], [1, 1]], 0.004,
                [((0.7, -0.3), (1, 2)), ((0.2, 0.5), (1, -1))])
STEEP_MAP = ([[2, 1], [1, 1]], 0.4, [((0.075, 0.0), (0, 1))])
DENSE_MAPS = {"amp-0.02": ([[2, 1], [1, 1]], 0.02, [((1.0, 0.0), (0, 1))]),
              "two-term": TWO_TERM_MAP, "steep": STEEP_MAP}


class TestConeVerification:
    @pytest.mark.parametrize("resolution", [16, 32, 64])
    @pytest.mark.parametrize("matrix", LINEAR_CONE_MAPS, ids=str)
    def test_linear_report_equals_full_grid(self, matrix, resolution):
        # a zero coefficient keeps Df = A exactly but takes the full-grid
        # path, which the one-point report of the linear map must equal
        m = HyperbolicToralMap(matrix)
        twin = HyperbolicToralMap(matrix, 0.01, [((0.0, 0.0), (1, 0))])
        assert m.is_linear and not twin.is_linear
        rep = verify_hyperbolicity(m, resolution)
        assert rep == verify_hyperbolicity(twin, resolution)
        assert rep.grid_resolution == resolution

    @pytest.mark.parametrize("matrix, amplitude, perturbation", [
        *((matrix, 0.0, ()) for matrix in LINEAR_CONE_MAPS),
        PERTURBED_RUN_MAP,
        TWO_TERM_MAP,
    ], ids=["linear-" + str(m) for m in LINEAR_CONE_MAPS]
        + ["perturbed-run", "two-term"])
    def test_adjugate_agrees_with_inverse(self, matrix, amplitude,
                                          perturbation):
        # the reference takes the stable cone through np.linalg.inv and
        # every arc extreme from 2001 sampled directions per grid point
        m = HyperbolicToralMap(matrix, amplitude, perturbation)
        rep = verify_hyperbolicity(m, 16)
        ref = reference_cone_report(m, 16)
        for field in ("expand_bound", "contract_bound", "unstable_angle",
                      "stable_angle", "slack"):
            assert abs(getattr(rep, field) - getattr(ref, field)) <= 1e-12, \
                field
        assert (rep.certified, rep.passed) == (ref.certified, ref.passed)
        assert rep.passed

    def test_arc_extreme_closed_form(self):
        # random matrices put the extreme directions on the arc as often as
        # off it; against 20001 sampled directions the closed form is never
        # beaten and is within the sampling error
        D = np.random.default_rng(3).normal(size=(100, 2, 2))
        start, width = 0.4, 1.1
        t = np.linspace(start, start + width, 20_001)
        v = np.column_stack([np.cos(t), np.sin(t)])
        lengths = np.linalg.norm(np.einsum("nij,tj->nti", D, v), axis=2)
        lo = _arc_extreme(D, start, width, largest=False)
        hi = _arc_extreme(D, start, width, largest=True)
        assert np.all(lo <= lengths.min(axis=1) + 1e-12)
        assert np.all(hi >= lengths.max(axis=1) - 1e-12)
        assert np.all(lengths.min(axis=1) - lo <= 1e-7)
        assert np.all(hi - lengths.max(axis=1) <= 1e-7)
        inner = [(0 < np.argmin(row) < len(t) - 1)
                 or (0 < np.argmax(row) < len(t) - 1) for row in lengths]
        assert 0 < sum(inner) < len(D)

    def test_perturbed_run_report_pinned(self):
        rep = verify_hyperbolicity(HyperbolicToralMap(*PERTURBED_RUN_MAP), 64)
        assert rep.expand_bound == 2.570079655400678
        assert rep.contract_bound == 0.5693705241745074
        assert rep.slack == 0.00218089506338715
        assert rep.unstable_angle == pytest.approx(0.027213370680092178,
                                                   rel=1e-14)
        assert rep.stable_angle == pytest.approx(0.03258254428971291,
                                                 rel=1e-14)
        assert rep.certified and rep.passed

    def test_perturbed_lyapunov_pinned(self):
        # the Lyapunov stage of the same map, kept bit for bit in the
        # 16-step block order of the cocycle pass; chi_minus is the mean
        # log |det Df| over the QR window minus chi_plus
        m = HyperbolicToralMap(*PERTURBED_RUN_MAP)
        spec = lyapunov_spectrum_qr(m, (0.2, 0.7), 10_000)
        assert spec.chi_plus == 0.96244351226123
        assert spec.chi_minus == -0.9628460593173278
        orbit = OrbitMeasure(m, (0.271, 0.653), 10_000)
        assert unstable_integral(m, orbit) == 0.9624327582709817

    def test_three_one_contract_exact(self):
        # [[3, 1], [2, 1]] is not symmetric, so v_u and v_s are not
        # orthogonal; the largest |A v| on its stable arc is still at a
        # boundary ray
        m = HyperbolicToralMap([[3, 1], [2, 1]])
        tan_a = math.tan(0.15)
        ends = [float(np.linalg.norm(m.matrix @ r) / np.linalg.norm(r))
                for r in (m.v_s + tan_a * m.v_u, m.v_s - tan_a * m.v_u)]
        rep = verify_hyperbolicity(m, 16)
        assert abs(rep.contract_bound - (max(ends) + CONE_ROUNDING)) < 1e-15

    def test_cat_exact_expansion(self, cat):
        rep = verify_hyperbolicity(cat, 32)
        expand, contract = symmetric_bounds(LAMBDA_CAT, 1.0 / LAMBDA_CAT,
                                            0.15)
        assert rep.passed and rep.certified
        assert rep.slack == CONE_ROUNDING
        assert abs(rep.expand_bound - (expand - CONE_ROUNDING)) < 1e-14
        assert abs(rep.contract_bound - (contract + CONE_ROUNDING)) < 1e-14
        assert round(rep.expand_bound, 4) == 2.5893
        assert round(rep.contract_bound, 4) == 0.5438

    def test_golden_exact_expansion(self, golden):
        rep = verify_hyperbolicity(golden, 32)
        expand, contract = symmetric_bounds(LAMBDA_GOLDEN,
                                            1.0 / LAMBDA_GOLDEN, 0.15)
        assert rep.passed and rep.certified
        assert abs(rep.expand_bound - (expand - CONE_ROUNDING)) < 1e-14
        assert abs(rep.contract_bound - (contract + CONE_ROUNDING)) < 1e-14

    @pytest.mark.parametrize("name", sorted(DENSE_MAPS))
    def test_dense_samples_inside_bounds(self, name):
        # the report holds at every point of the torus, not only at the
        # centres: 10^5 random points, 17 directions across each cone
        m = HyperbolicToralMap(*DENSE_MAPS[name])
        rep = verify_hyperbolicity(m, 32)
        assert rep.certified
        pts = np.random.default_rng(17).random((100_000, 2))
        D = m.differential(pts)
        basis_inv = np.linalg.inv(np.column_stack([m.v_u, m.v_s]))
        tan_a = math.tan(rep.cone_half_angle)
        for mats, axis, side, along, angle, bound, worst in (
                (D, m.v_u, m.v_s, 0, rep.unstable_angle,
                 rep.expand_bound, np.min),
                (adjugate(D), m.v_s, m.v_u, 1, rep.stable_angle,
                 -rep.contract_bound, lambda x: -np.max(x))):
            sides = []
            for s in tan_a * np.linspace(-1.0, 1.0, 17):
                v = axis + s * side
                comp = (mats @ v) @ basis_inv.T
                a, c = comp[:, along], comp[:, 1 - along]
                assert np.max(np.arctan2(np.abs(c), np.abs(a))) <= angle
                sides.append(a > 0)
                length = np.linalg.norm(D @ (v / np.linalg.norm(v)), axis=1)
                assert worst(length) >= bound
            assert all(np.array_equal(x, sides[0]) for x in sides)

    def test_uncertified_report_does_not_raise(self):
        # every sampled image angle fits a 0.08 cone on the G = 16 grid, but
        # the slack between grid points does not; G = 32 certifies it
        m = HyperbolicToralMap(*STEEP_MAP)
        rep = verify_hyperbolicity(m, 16, cone_half_angle=0.08)
        assert rep.stable_angle >= 0.08
        assert not rep.certified and not rep.passed
        assert verify_hyperbolicity(m, 32, cone_half_angle=0.08).certified

    def test_opposite_sides_raise(self, cat):
        # in (v_u, v_s) coordinates [[0.01, 1], [0, 0.01]] sends both
        # boundary rays of the unstable cone within 0.011 rad of the v_u
        # axis, but to opposite sides of the stable axis: the image sector
        # holds -v_s, and only the side check sees it
        basis = np.column_stack([cat.v_u, cat.v_s])
        jac = basis @ np.array([[0.01, 1.0], [0.0, 0.01]]) \
            @ np.linalg.inv(basis)
        with pytest.raises(NotHyperbolic,
                           match=r"unstable image angle 0\.01.*"
                                 r"opposite sides: unstable True"):
            verify_hyperbolicity(ConstantDifferential(jac), 16)

    def test_steep_perturbation_fails_tight_cone(self):
        # passes the construction contraction bound but rotates directions
        # past a 0.02 cone; the same map is fine at the default angle
        m = HyperbolicToralMap(*STEEP_MAP)
        with pytest.raises(NotHyperbolic):
            verify_hyperbolicity(m, 32, cone_half_angle=0.02)
        assert verify_hyperbolicity(m, 32, cone_half_angle=0.15).passed

    def test_small_grid_rejected(self, cat):
        with pytest.raises(ValueError):
            verify_hyperbolicity(cat, 8)

    def test_perturbed_passes_default(self):
        m = HyperbolicToralMap(*PERTURBED_RUN_MAP)
        rep = verify_hyperbolicity(m, 32)
        assert rep.passed and rep.certified
        assert rep.expand_bound > 1.0 > rep.contract_bound
