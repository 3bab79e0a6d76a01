import inspect
import math

import numpy as np
import pytest

from toruslab.dynamics import (HyperbolicToralMap, _grid_points,
                               unstable_growth, unstable_warmup)
from toruslab.lyapunov import (BLOCK, DegenerateCocycle, _cocycle,
                               lyapunov_spectrum_qr, unstable_integral)
from toruslab.weakstar import LEBESGUE, DiscreteMeasure, OrbitMeasure

LOG_CAT = math.log((3.0 + math.sqrt(5.0)) / 2.0)
LOG_GOLDEN = math.log((1.0 + math.sqrt(5.0)) / 2.0)
PERTURBED_ARGS = ([[2, 1], [1, 1]], 0.005, [((1.0, 0.0), (0, 1))])
PERTURBED = HyperbolicToralMap(*PERTURBED_ARGS)


def direction(map, point, warmup_n=60):
    """Unit vector spanning the unstable line F(point), up to sign."""
    return unstable_warmup(map, np.reshape(point, (1, 2)), warmup_n)[0]


def psi(map, point):
    """log |Df u| at one point: the unstable integral of its Dirac mass."""
    return unstable_integral(map, DiscreteMeasure.dirac(point))


def line_gap(u, v):
    """Distance between two unit vectors as lines (sign ignored)."""
    return min(np.linalg.norm(u - v), np.linalg.norm(u + v))


class TestSpectrumQR:
    def test_cat_exact(self, cat):
        spec = lyapunov_spectrum_qr(cat, (0.2, 0.7), 10_000)
        assert abs(spec.chi_plus - LOG_CAT) < 1e-9
        assert abs(spec.chi_plus + spec.chi_minus) < 1e-9

    def test_golden_exact(self, golden):
        spec = lyapunov_spectrum_qr(golden, (0.3, 0.9), 1000)
        assert abs(spec.chi_plus - LOG_GOLDEN) < 1e-9
        # |det| = 1 forces the exponents to cancel
        assert abs(spec.chi_plus + spec.chi_minus) < 1e-9

    def test_short_run_rejected(self, cat):
        with pytest.raises(ValueError):
            lyapunov_spectrum_qr(cat, (0.1, 0.1), 99)

    @pytest.mark.parametrize("warmup", [-1, -5])
    def test_negative_warmup_rejected(self, cat, warmup):
        # det[warmup:] would slice from the end instead
        with pytest.raises(ValueError, match="warmup"):
            lyapunov_spectrum_qr(cat, (0.2, 0.7), 1000, warmup=warmup)


class TestUnstableDirection:
    def test_linear_matches_eigenvector(self, cat):
        assert line_gap(direction(cat, (0.31, 0.64)), cat.v_u) < 1e-9

    def test_golden_matches_eigenvector(self, golden):
        assert line_gap(direction(golden, (0.12, 0.93)), golden.v_u) < 1e-9

    def test_covariance_relation(self):
        m = HyperbolicToralMap([[2, 1], [1, 1]], 0.005, [((1.0, 0.0), (0, 1))])
        p = np.array([0.22, 0.58])
        pushed = m.differential(p) @ direction(m, p)
        pushed /= np.linalg.norm(pushed)
        assert line_gap(pushed, direction(m, m.step(p))) < 1e-8

    def test_perturbed_close_to_linear_and_self_consistent(self, cat):
        m = HyperbolicToralMap([[2, 1], [1, 1]], 0.005, [((1.0, 0.0), (0, 1))])
        p = (0.41, 0.17)
        u60 = direction(m, p, warmup_n=60)
        u120 = direction(m, p, warmup_n=120)
        assert line_gap(u60, u120) < 1e-12
        angle = math.acos(min(1.0, abs(float(u60 @ cat.v_u))))
        assert angle < 10 * m.amplitude

    @pytest.mark.parametrize("warmup_n", [0, -3])
    def test_nonpositive_warmup_rejected(self, cat, warmup_n):
        # without the check, the unnormalized seed vector's log length
        # (log lambda + 0.1618) came back as psi
        with pytest.raises(ValueError, match="warmup_n"):
            unstable_warmup(cat, np.array([[0.3, 0.4]]), warmup_n)
        with pytest.raises(ValueError, match="warmup_n"):
            unstable_integral(cat, DiscreteMeasure.dirac((0.3, 0.4)),
                              warmup_n=warmup_n)
        with pytest.raises(ValueError, match="warmup_n"):
            unstable_integral(cat, OrbitMeasure(cat, (0.3, 0.4), 10),
                              warmup_n=warmup_n)


class TestLogUnstableJacobian:
    def test_linear_constant(self, cat, rng):
        for _ in range(5):
            assert abs(psi(cat, rng.random(2)) - LOG_CAT) < 1e-12

    @pytest.mark.parametrize("name", ["cat", "perturbed"])
    def test_dirac_integral_is_log_growth(self, name):
        m = MAPS[name]
        # one point at a time: a batch's inverse iteration runs until its
        # slowest point converges, which moves the last bits of the others
        for p in np.random.default_rng(11).random((20, 2)):
            growth = unstable_growth(m, p.reshape(1, 2), 60)
            assert psi(m, p) == math.log(growth[0])

    def test_chain_rule_telescoping(self):
        m = HyperbolicToralMap([[2, 1], [1, 1]], 0.005, [((1.0, 0.0), (0, 1))])
        p = np.array([0.355, 0.277])
        n = 12
        total = 0.0
        x = p
        for _ in range(n):
            total += psi(m, x)
            x = m.step(x)
        v = direction(m, p).copy()
        x = p
        for _ in range(n):
            v = m.differential(x) @ v
            x = m.step(x)
        assert abs(total - math.log(np.linalg.norm(v))) < 1e-8

    def test_perturbed_spatial_mean(self):
        # mean of psi over a grid stays within O(amplitude) of the linear value
        m = HyperbolicToralMap([[2, 1], [1, 1]], 0.005, [((1.0, 0.0), (0, 1))])
        val = unstable_integral(m, LEBESGUE, grid_resolution=256)
        assert abs(val - LOG_CAT) < 10 * m.amplitude

    def test_sample_unstable_fields(self, cat):
        assert abs(np.linalg.norm(direction(cat, (0.2, 0.9))) - 1.0) < 1e-12
        assert abs(psi(cat, (0.2, 0.9)) - LOG_CAT) < 1e-12
        default = inspect.signature(unstable_integral).parameters["warmup_n"]
        assert default.default == 60


class TestIntegrals:
    def test_dirac_at_fixed_point(self, cat):
        val = unstable_integral(cat, DiscreteMeasure.dirac((0.0, 0.0)))
        assert abs(val - LOG_CAT) < 1e-12

    def test_lebesgue_constant_integrand(self, cat):
        val = unstable_integral(cat, LEBESGUE, grid_resolution=64)
        assert abs(val - LOG_CAT) < 1e-12

    def test_mixture_linearity(self, cat):
        # integral of a convex mixture is the convex mixture of integrals
        leb = unstable_integral(cat, LEBESGUE, grid_resolution=64)
        dirac = unstable_integral(cat, DiscreteMeasure.dirac((0.4, 0.8)))
        t = 0.3
        assert abs((t * leb + (1 - t) * dirac) - LOG_CAT) < 1e-11

    def test_birkhoff_equals_integral_over_empirical(self, cat):
        p = (0.271, 0.653)
        n = 200
        avg = unstable_integral(cat, OrbitMeasure(cat, p, n))
        integral = unstable_integral(cat, DiscreteMeasure(cat.orbit(p, n)))
        assert abs(avg - integral) < 1e-10

    def test_birkhoff_perturbed_consistency(self):
        m = HyperbolicToralMap([[2, 1], [1, 1]], 0.005, [((1.0, 0.0), (0, 1))])
        p = (0.271, 0.653)
        n = 150
        avg = unstable_integral(m, OrbitMeasure(m, p, n))
        integral = unstable_integral(m, DiscreteMeasure(m.orbit(p, n)))
        assert abs(avg - integral) < 1e-10

    def test_fixed_point_birkhoff(self, cat):
        assert abs(unstable_integral(cat, OrbitMeasure(cat, (0.0, 0.0), 7))
                   - LOG_CAT) < 1e-12

    def test_qr_matches_integral_for_typical_orbit(self, cat):
        spec = lyapunov_spectrum_qr(cat, (0.2137, 0.5721), 5000)
        leb = unstable_integral(cat, LEBESGUE, grid_resolution=64)
        assert abs(spec.chi_plus - leb) < 1e-3

    def test_qr_matches_integral_perturbed(self):
        m = HyperbolicToralMap([[2, 1], [1, 1]], 0.005, [((1.0, 0.0), (0, 1))])
        spec = lyapunov_spectrum_qr(m, (0.2137, 0.5721), 20_000)
        leb = unstable_integral(m, LEBESGUE, grid_resolution=128)
        assert abs(spec.chi_plus - leb) < 5e-3


class TestPsiContinuity:
    def test_grid_increments_scale_with_spacing(self):
        # psi is Lipschitz for the perturbed map: neighboring grid values
        # differ by O(h), and halving h roughly halves the worst increment
        m = HyperbolicToralMap([[2, 1], [1, 1]], 0.005, [((1.0, 0.0), (0, 1))])

        def worst_increment(res):
            xs = (np.arange(res) + 0.5) / res
            gx, gy = np.meshgrid(xs, xs, indexing="ij")
            pts = np.column_stack([gx.ravel(), gy.ravel()])
            values = np.log(unstable_growth(m, pts, 40)).reshape(res, res)
            dx = np.abs(np.diff(values, axis=0)).max()
            dy = np.abs(np.diff(values, axis=1)).max()
            return max(dx, dy)

        w32 = worst_increment(32)
        w64 = worst_increment(64)
        assert w32 < 0.2 * 32 / 32          # O(h) at the coarse level
        assert w64 < 0.75 * w32             # shrinks roughly linearly in h


# -- per-step references: one Df call and one step per orbit point ----------

SEED_VECTOR = np.array([1.0, 0.6180339887498949])


def per_point_jacobians(map, point, length):
    """Df at the first `length` orbit points as nested Python floats, one Df
    call and one step per point."""
    x = np.asarray(point, dtype=float).reshape(2)
    jacs = []
    for _ in range(length):
        jacs.append(map.differential(x).tolist())
        x = map.step(x)
    return jacs


def push(jacs, u0, u1, total=0.0):
    """u <- D u / |D u| through the 2x2 matrices in turn, adding each
    log |D u| to total; returns (total, u0, u1)."""
    for (d00, d01), (d10, d11) in jacs:
        w0, w1 = d00 * u0 + d01 * u1, d10 * u0 + d11 * u1
        r = math.hypot(w0, w1)
        if r < 1e-300:
            raise DegenerateCocycle("first column vanished")
        total += math.log(r)
        u0, u1 = w0 / r, w1 / r
    return total, u0, u1


def block_growth(jacs, u, skip):
    """Sum of log |Df u| after the first `skip` matrices, in the block
    order of the pass: the skipped steps one at a time, then one push per
    product D_{bB+B-1} ... D_{bB} of BLOCK matrices, multiplied left to
    right, then the last (len - skip) % BLOCK steps one at a time."""
    _, u0, u1 = push(jacs[:skip], *u)
    body = jacs[skip:]
    nb = len(body) // BLOCK
    products = []
    for b in range(nb):
        (p00, p01), (p10, p11) = body[b * BLOCK]
        for (d00, d01), (d10, d11) in body[b * BLOCK + 1:(b + 1) * BLOCK]:
            p00, p01, p10, p11 = (d00 * p00 + d01 * p10,
                                  d00 * p01 + d01 * p11,
                                  d10 * p00 + d11 * p10,
                                  d10 * p01 + d11 * p11)
        products.append(((p00, p01), (p10, p11)))
    return push(products + body[nb * BLOCK:], u0, u1)[0]


def reference_qr(map, point, n, warmup, jacs=None):
    """Gram-Schmidt QR, one Df per step, products on Python floats."""
    if jacs is None:
        jacs = per_point_jacobians(map, point, warmup + n)
    q10, q11, q20, q21 = 1.0, 0.0, 0.0, 1.0
    log_r11 = 0.0
    log_r22 = 0.0
    for i, ((d00, d01), (d10, d11)) in enumerate(jacs):
        a0, a1 = d00 * q10 + d01 * q11, d10 * q10 + d11 * q11
        b0, b1 = d00 * q20 + d01 * q21, d10 * q20 + d11 * q21
        r11 = math.hypot(a0, a1)
        if r11 < 1e-300:
            raise DegenerateCocycle("first column vanished")
        q10, q11 = a0 / r11, a1 / r11
        r12 = q10 * b0 + q11 * b1
        b0, b1 = b0 - r12 * q10, b1 - r12 * q11
        r22 = math.hypot(b0, b1)
        if r22 < 1e-300:
            raise DegenerateCocycle("second column vanished")
        q20, q21 = b0 / r22, b1 / r22
        if i >= warmup:
            log_r11 += math.log(r11)
            log_r22 += math.log(r22)
    return log_r11 / n, log_r22 / n


def reference_warmup(map, points, warmup_n):
    """Per-point backward warmup, inverse steps included."""
    back = points
    path = []
    for _ in range(warmup_n):
        back = map.step_inverse(back)
        path.append(back)
    v = np.broadcast_to(SEED_VECTOR, points.shape).copy()
    for q in reversed(path):
        v = np.einsum("nij,nj->ni", map.differential(q), v)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def reference_birkhoff(map, point, n, warmup_n=60, jacs=None):
    """Per-step Birkhoff average of log |Df u| from the warmed-up u."""
    if jacs is None:
        jacs = per_point_jacobians(map, point, n)
    # the pass reads only |Df u|, so the sign of u does not matter
    u0, u1 = direction(map, point, warmup_n).tolist()
    return push(jacs, u0, u1)[0] / n


def reference_lebesgue_integral(map, grid_resolution, warmup_n=60):
    xs = (np.arange(grid_resolution) + 0.5) / grid_resolution
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    total = 0.0
    for i in range(0, len(pts), 65536):
        chunk = pts[i:i + 65536]
        u = reference_warmup(map, chunk, warmup_n)
        w = np.einsum("nij,nj->ni", map.differential(chunk), u)
        total += float(np.sum(np.log(np.linalg.norm(w, axis=1))))
    return total / len(pts)


class ConstantJacobian:
    """The part of the map interface the QR pass uses, with one fixed Df."""

    def __init__(self, jacobian):
        self.jacobian = np.asarray(jacobian, dtype=float)

    def orbit(self, point, n):
        return np.zeros((n, 2))

    def differential(self, points):
        shape = np.shape(points)[:-1] + (2, 2)
        return np.broadcast_to(self.jacobian, shape).copy()

    def step(self, points):
        return np.asarray(points, dtype=float)


MAPS = {"cat": HyperbolicToralMap([[2, 1], [1, 1]]),
        "golden": HyperbolicToralMap([[1, 1], [1, 0]]),
        "perturbed": PERTURBED,
        # non-integer entries in all four slots of Df
        "two-term": HyperbolicToralMap([[2, 1], [1, 1]], 0.004,
                                       [((0.7, -0.3), (1, 2)),
                                        ((0.2, 0.5), (1, -1))])}


# The per-step references sum one log |Df u| per step, the pass one per block
# of BLOCK steps, so they round apart.  Over the cases below the pass is
# within 2.7e-14 (relative) of the per-step chi_plus and Birkhoff average;
# the gap grows with n as the per-step sum drifts (4.9e-13 at n = 5*10^4).
PER_STEP_GAP = 1e-13


class TestScalarPassReference:
    @pytest.mark.parametrize("name", sorted(MAPS))
    @pytest.mark.parametrize("warmup", [0, 64])
    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_qr_bitwise(self, name, n, warmup):
        m = MAPS[name]
        rng = np.random.default_rng(n + warmup)
        extra = rng.random((1 if n == 10_000 else 8, 2))
        for p in [(0.2, 0.7)] + [tuple(q) for q in extra]:
            spec = lyapunov_spectrum_qr(m, p, n, warmup=warmup)
            jacs = per_point_jacobians(m, p, warmup + n)
            assert spec.chi_plus == block_growth(jacs, (1.0, 0.0),
                                                 warmup) / n, p
            chi_plus, chi_minus = reference_qr(m, p, n, warmup, jacs)
            assert abs(spec.chi_plus - chi_plus) <= PER_STEP_GAP * chi_plus
            assert spec.chi_plus > 0 > spec.chi_minus, p
            # chi_minus comes from log |det Df|, not from the second column
            assert abs(spec.chi_minus - chi_minus) < 1e-13, p

    @pytest.mark.parametrize("name", sorted(MAPS))
    @pytest.mark.parametrize("n", [1, 7, 200, 3000])
    def test_birkhoff_bitwise(self, name, n):
        m = MAPS[name]
        extra = np.random.default_rng(n).random((6, 2))
        for p in [(0.271, 0.653)] + [tuple(q) for q in extra]:
            avg = unstable_integral(m, OrbitMeasure(m, p, n))
            jacs = per_point_jacobians(m, p, n)
            u = direction(m, p).tolist()
            assert avg == block_growth(jacs, u, 0) / n, p
            per_step = reference_birkhoff(m, p, n, jacs=jacs)
            assert abs(avg - per_step) <= PER_STEP_GAP * per_step, p

    @pytest.mark.parametrize("matrix", [[[2, 1], [1, 1]], [[1, 1], [1, 0]],
                                        [[3, 2], [1, 1]]])
    @pytest.mark.parametrize("warmup_n", [1, 30, 60])
    def test_linear_broadcast_equals_per_point(self, matrix, warmup_n):
        m = HyperbolicToralMap(matrix)
        pts = np.random.default_rng(warmup_n).random((65536, 2))
        v = unstable_warmup(m, pts, warmup_n)
        assert v.shape == pts.shape
        assert np.array_equal(v, reference_warmup(m, pts, warmup_n))

    def test_perturbed_warmup_unchanged(self):
        pts = np.random.default_rng(5).random((4096, 2))
        assert np.array_equal(unstable_warmup(PERTURBED, pts, 60),
                              reference_warmup(PERTURBED, pts, 60))

    @pytest.mark.parametrize("name, grid", [("cat", 64), ("cat", 256),
                                            ("perturbed", 64)])
    def test_lebesgue_integral_bitwise(self, name, grid):
        m = MAPS[name]
        assert unstable_integral(m, LEBESGUE, grid_resolution=grid) \
            == reference_lebesgue_integral(m, grid)

    @pytest.mark.parametrize("name, grid", [("cat", 32), ("cat", 256),
                                            ("perturbed", 32)])
    def test_lebesgue_is_its_grid_measure(self, name, grid):
        # one quadrature loop: Lebesgue is the uniform measure on the grid
        m = MAPS[name]
        atoms = DiscreteMeasure(_grid_points(grid))
        assert unstable_integral(m, LEBESGUE, grid_resolution=grid) \
            == unstable_integral(m, atoms)

    def test_lebesgue_integral_value_pinned(self, cat):
        val = unstable_integral(cat, LEBESGUE, grid_resolution=256)
        assert val == 0.9624236501192072

    @pytest.mark.parametrize("name", ["cat", "perturbed"])
    def test_cone_expansion_uses_same_warmup(self, name):
        # |Df u| at every grid point, as the inline warmup that
        # verify_hyperbolicity once ran computed it
        m = MAPS[name]
        res = 32
        xs = (np.arange(res) + 0.5) / res
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        v = reference_warmup(m, pts, 30)
        expected = np.linalg.norm(
            np.einsum("nij,nj->ni", m.differential(pts), v), axis=1)
        assert np.array_equal(unstable_growth(m, pts, 30), expected)

    @pytest.mark.parametrize("jacobian, message", [
        ([[0.0, 0.0], [0.0, 0.0]], "first column"),
        ([[1.0, 0.0], [0.0, 0.0]], "second column"),
    ])
    def test_degenerate_cocycle_raised(self, jacobian, message):
        m = ConstantJacobian(jacobian)
        with pytest.raises(DegenerateCocycle, match=message):
            lyapunov_spectrum_qr(m, (0.2, 0.7), 100)
        with pytest.raises(DegenerateCocycle, match=message):
            reference_qr(m, (0.2, 0.7), 100, 64)


class SingularStep:
    """The cat map's Df at every orbit step but one, where it is `singular`;
    the orbit's points are their own step indices."""

    def __init__(self, index, singular):
        self.index = index
        self.singular = np.asarray(singular, dtype=float)

    def orbit(self, point, n):
        return np.column_stack([np.arange(n, dtype=float), np.zeros(n)])

    def step(self, points):
        return np.asarray(points, dtype=float) + (1.0, 0.0)

    def differential(self, points):
        points = np.asarray(points, dtype=float)
        out = np.broadcast_to(np.array([[2.0, 1.0], [1.0, 1.0]]),
                              points.shape[:-1] + (2, 2)).copy()
        out[points[..., 0] == self.index] = self.singular
        return out


class TestBlockCocycle:
    @pytest.mark.parametrize("matrix", [[[2, 1], [1, 1]], [[1, 1], [1, 0]],
                                        [[3, 2], [1, 1]]])
    def test_linear_exact_over_a_million_steps(self, matrix):
        # a per-step sum adds the same log lambda 10^6 times and drifts by
        # up to 2.3e-11; one rounding per block of 16 steps stays below 6e-13
        m = HyperbolicToralMap(matrix)
        log_lam = math.log(abs(m.lam_u))
        p = (0.2137, 0.5721)
        assert abs(unstable_integral(m, OrbitMeasure(m, p, 10**6))
                   - log_lam) < 1e-12
        assert abs(lyapunov_spectrum_qr(m, p, 10**6).chi_plus
                   - log_lam) < 1e-12

    @pytest.mark.parametrize("name", ["perturbed", "two-term"])
    @pytest.mark.parametrize("skip", [0, 5, 64])
    @pytest.mark.parametrize("n", [1, 7, 15, 16, 17, 35])
    def test_short_orbits(self, name, n, skip):
        # no block, one block with or without a tail, a tail alone
        m = MAPS[name]
        p = (0.271, 0.653)
        u = (0.6, 0.8)
        growth, log_det = _cocycle(m, m.orbit(p, skip + n), u, skip)
        jacs = per_point_jacobians(m, p, skip + n)
        assert growth == block_growth(jacs, u, skip)
        assert abs(log_det - sum(math.log(abs(d00 * d11 - d01 * d10))
                                 for (d00, d01), (d10, d11) in jacs[skip:])
                   ) < 1e-14

    def test_no_full_jacobian_array(self):
        # Df comes in strided batches of L // BLOCK points, never all L
        m = HyperbolicToralMap(*PERTURBED_ARGS)
        sizes = []
        differential = m.differential

        def recorded(points):
            sizes.append(len(points))
            return differential(points)

        m.differential = recorded
        lyapunov_spectrum_qr(m, (0.2, 0.7), 10_000)
        assert sizes == [64] + [10_000 // BLOCK] * BLOCK + [0]
        sizes.clear()
        unstable_integral(m, OrbitMeasure(m, (0.2, 0.7), 5000))
        assert max(sizes) == 5000 // BLOCK

    def test_all_zero_jacobian_without_warmup(self):
        # the block product is zero, so the first column vanishes before
        # the determinant is read
        m = ConstantJacobian([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateCocycle, match="first column"):
            lyapunov_spectrum_qr(m, (0.2, 0.7), 100, warmup=0)
        with pytest.raises(DegenerateCocycle, match="first column"):
            reference_qr(m, (0.2, 0.7), 100, 0)

    @pytest.mark.parametrize("singular, message", [
        ([[0.0, 0.0], [0.0, 0.0]], "first column"),
        ([[1.0, 0.0], [0.0, 0.0]], "second column"),
    ])
    # n = 100 after a warmup of 64: the warmup, the middle of the third
    # block, the first and the last step of the four-step tail
    @pytest.mark.parametrize("index", [10, 64 + 2 * BLOCK + 7, 160, 163])
    def test_singular_step(self, singular, message, index):
        m = SingularStep(index, singular)
        with pytest.raises(DegenerateCocycle, match=message):
            lyapunov_spectrum_qr(m, (0.0, 0.0), 100)
        with pytest.raises(DegenerateCocycle, match=message):
            reference_qr(m, (0.0, 0.0), 100, 64)

    def test_largest_entries_stay_finite(self):
        # eigenvalue 2^64 (1 - 2^-54): a block product of 16 is just below
        # the largest double
        big = 2.0 ** 63
        m = ConstantJacobian([[big, big], [big, big - 2.0 ** 11]])
        spec = lyapunov_spectrum_qr(m, (0.2, 0.7), 100)
        assert math.isfinite(spec.chi_plus) and math.isfinite(spec.chi_minus)
        jacs = per_point_jacobians(m, (0.2, 0.7), 164)
        _, u0, u1 = push(jacs[:64], 1.0, 0.0)
        per_step = push(jacs[64:], u0, u1)[0] / 100
        assert abs(spec.chi_plus - per_step) <= 1e-13 * per_step
