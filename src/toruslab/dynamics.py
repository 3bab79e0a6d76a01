"""Hyperbolic maps of the 2-torus and their tangent cocycle.

A map is an integer unimodular matrix A plus an optional trigonometric
perturbation, f(x) = A x + amp * psi(x)  (mod 1) with
psi(x) = sum_k c_k sin(2 pi k.x).  The perturbation is analytic, so the
derivative Df is available in closed form and no numerical differentiation
enters any cocycle computation.

All operations accept arrays of shape (..., 2) and broadcast over leading
axes.  Points are kept in the canonical representative [0, 1)^2.

The unstable direction u has one implementation, unstable_warmup, and the
expansion |Df u| one, unstable_growth: the cone report's lambda_expand and
the psi = log |Df u| of lyapunov's unstable integral both read it.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# tolerance and iteration cap for the inverse fixed-point iteration; the
# construction invariant keeps the contraction factor below 1/2, so 100
# iterations are far more than the ~40 needed for 1e-12
INVERSE_TOL = 1e-12
INVERSE_MAX_ITER = 100

# start vector of the unstable-direction warmup (see _seed_vector)
_SEED_VECTOR = np.array([1.0, 0.6180339887498949])


class IterationDivergence(RuntimeError):
    """Inverse fixed-point iteration failed to reach tolerance."""


class NotHyperbolic(RuntimeError):
    """Cone-field verification failed at some sampled point."""


def wrap(points):
    """Reduce to the canonical representative in [0,1)^2, as a new array.

    p - floor(p) equals np.mod(p, 1) bit for bit for every finite p (both
    round the same exact value once, and an integer gives +0), and NaN or
    inf give NaN as mod does, at a fraction of mod's cost.  A tiny negative
    p rounds to exactly 1.0, which is set to 0.
    """
    p = np.asarray(points, dtype=float)
    r = np.floor(p, out=np.empty(p.shape))
    np.subtract(p, r, out=r)
    r[r >= 1.0] = 0.0
    return r


def torus_distance(p, q):
    """Euclidean distance on the torus, minimized over integer translates."""
    d = np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))
    d = np.mod(d, 1.0)
    d = np.minimum(d, 1.0 - d)
    return np.sqrt(np.sum(d * d, axis=-1))


def _as_int_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix)
    if m.shape != (2, 2):
        raise ValueError(f"matrix must be 2x2, got shape {m.shape}")
    if not np.all(m == np.round(m)):
        raise ValueError("matrix entries must be integers")
    return m.astype(np.int64)


class HyperbolicToralMap:
    """Unimodular hyperbolic integer matrix plus a small sine perturbation.

    perturbation: sequence of (coefficient, frequency) pairs, coefficient a
    real 2-vector, frequency a nonzero integer 2-vector.  amplitude scales the
    whole series.

    Construction enforces |det A| = 1, no eigenvalue on the unit circle, a
    finite amplitude and finite coefficients, and amp * |A^-1| * Lip(psi)
    < 1/2 so the inverse iteration contracts.
    """

    def __init__(self, matrix, amplitude: float = 0.0,
                 perturbation: Sequence = ()):
        A = _as_int_matrix(matrix)
        det = int(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
        tr = int(A[0, 0] + A[1, 1])
        if abs(det) != 1:
            raise ValueError(f"matrix must be unimodular, det = {det}")
        # no eigenvalue on the unit circle: for det=1 this is |tr|>2, for
        # det=-1 any nonzero trace gives |lam| = (|tr|+sqrt(tr^2+4))/2 > 1
        if det == 1 and abs(tr) <= 2:
            raise ValueError(
                f"matrix is not hyperbolic: det=1 requires |trace| > 2, got {tr}")
        if det == -1 and tr == 0:
            raise ValueError("matrix is not hyperbolic: det=-1, trace=0")
        self.matrix = A
        self.det = det
        self.trace = tr
        # adjugate over det is exact for integer unimodular matrices
        self.matrix_inv = (np.array([[A[1, 1], -A[0, 1]],
                                     [-A[1, 0], A[0, 0]]], dtype=np.int64) * det)

        amplitude = float(amplitude)
        if not (math.isfinite(amplitude) and amplitude >= 0):
            raise ValueError(f"amplitude must be finite and >= 0, got "
                             f"{amplitude!r}")
        self.amplitude = amplitude

        coeffs, freqs = [], []
        for i, term in enumerate(perturbation):
            c, k = term
            c = np.asarray(c, dtype=float).reshape(2)
            if not np.all(np.isfinite(c)):
                raise ValueError(f"perturbation term {i}: coefficient must be "
                                 f"finite, got {c.tolist()}")
            k = np.asarray(k)
            if k.shape != (2,) or not np.all(np.isfinite(k)
                                             & (k == np.round(k))):
                raise ValueError(f"perturbation term {i}: frequency must be an integer 2-vector")
            k = k.astype(np.int64)
            if k[0] == 0 and k[1] == 0:
                raise ValueError(f"perturbation term {i}: frequency must be nonzero")
            coeffs.append(c)
            freqs.append(k)
        self._coeffs = np.array(coeffs, dtype=float).reshape(-1, 2)
        self._freqs = np.array(freqs, dtype=np.int64).reshape(-1, 2)
        # (c0, c1, k0, k1) of every term as Python floats, for the series
        self._terms = [(float(c[0]), float(c[1]), float(k[0]), float(k[1]))
                       for c, k in zip(self._coeffs, self._freqs)]
        # rows of A as Python floats (step, orbit); A^-1 transposed as a
        # float array (step_inverse)
        self._rows = tuple(map(tuple, A.astype(float).tolist()))
        self._inv_t = self.matrix_inv.T.astype(float)

        # Lip(psi) <= sum 2 pi |c_k| |k|
        self.lipschitz_bound = float(
            TWO_PI * np.sum(np.linalg.norm(self._coeffs, axis=1)
                            * np.linalg.norm(self._freqs, axis=1)))
        inv_norm = float(np.linalg.norm(self.matrix_inv.astype(float), 2))
        contraction = self.amplitude * inv_norm * self.lipschitz_bound
        if contraction >= 0.5:
            raise ValueError(
                "inverse iteration does not contract: "
                f"amp * |A^-1| * Lip(psi) = {contraction:.4f} >= 0.5")
        self.inverse_contraction = contraction

        # eigendata of the linear part
        lam, vecs = np.linalg.eig(A.astype(float))
        iu = int(np.argmax(np.abs(lam)))
        self.lam_u = float(lam[iu])
        self.lam_s = float(lam[1 - iu])
        vu = vecs[:, iu] / np.linalg.norm(vecs[:, iu])
        vs = vecs[:, 1 - iu] / np.linalg.norm(vecs[:, 1 - iu])
        self.v_u = vu if vu[np.argmax(np.abs(vu))] > 0 else -vu
        self.v_s = vs if vs[np.argmax(np.abs(vs))] > 0 else -vs

    @property
    def is_linear(self) -> bool:
        return self.amplitude == 0.0 or len(self._coeffs) == 0

    # -- perturbation field ------------------------------------------------

    def _dpsi(self, points):
        """Derivative of psi, shape (..., 2, 2).

        Entry (i, j) is the sum over terms m of (amp_m * c_mi) * k_mj, added
        term by term from zero, the order of the einsum it replaced
        ("...m,mi,mj->...ij"), so the result is that einsum's bit for bit.
        The cheaper-looking amp_m * (c_mi * k_mj) rounds differently.
        """
        p = np.asarray(points, dtype=float)
        out = np.zeros(p.shape[:-1] + (2, 2))
        if self.is_linear:
            return out
        phases = TWO_PI * (p @ self._freqs.T.astype(float))
        amps = TWO_PI * np.cos(phases)
        for m, (c0, c1, k0, k1) in enumerate(self._terms):
            for i, c in enumerate((c0, c1)):
                ac = amps[..., m] * c
                for j, k in enumerate((k0, k1)):
                    out[..., i, j] += ac * k
        return out

    # -- operations --------------------------------------------------------

    def _series(self, x, y):
        """The two components of psi at the points (x, y), summed term by
        term in the order of `orbit`'s scalar loop.

        A product with a frequency or coefficient of 0 or 1 is skipped.
        For finite points that is exact up to the sign of a zero, and the
        sums start at +0, which absorbs it, so the result is the full
        series' bit for bit.  A term such as (1, 0) sin(2 pi y) costs three
        NumPy calls instead of nine."""
        px = py = 0.0
        for c0, c1, k0, k1 in self._terms:
            if k0 == 0.0:
                phase = y if k1 == 1.0 else k1 * y
            elif k1 == 0.0:
                phase = x if k0 == 1.0 else k0 * x
            else:
                phase = k0 * x + k1 * y
            s = np.sin(TWO_PI * phase)
            if c0 != 0.0:
                px = px + (s if c0 == 1.0 else c0 * s)
            if c1 != 0.0:
                py = py + (s if c1 == 1.0 else c1 * s)
        return px, py

    def step(self, points):
        """One forward iterate, canonical representative.

        Element-wise products and sums in the order of `orbit`'s scalar
        loop, so iterating `step` from a point follows `orbit` bit for bit.
        """
        p = np.asarray(points, dtype=float)
        x, y = p[..., 0], p[..., 1]
        (a00, a01), (a10, a11) = self._rows
        q = np.empty(p.shape)
        qx, qy = q[..., 0], q[..., 1]
        np.multiply(a00, x, out=qx)
        qx += a01 * y
        np.multiply(a10, x, out=qy)
        qy += a11 * y
        if not self.is_linear:
            px, py = self._series(x, y)
            qx += self.amplitude * px
            qy += self.amplitude * py
        return wrap(q)

    def step_inverse(self, points):
        """Inverse iterate via the contracting lift q <- A^-1 (p - amp psi(q))."""
        p = np.asarray(points, dtype=float)
        ainv = self._inv_t
        if self.is_linear:
            return wrap(p @ ainv)
        q = p @ ainv
        psi = np.empty(p.shape)
        for _ in range(INVERSE_MAX_ITER):
            psi[..., 0], psi[..., 1] = self._series(q[..., 0], q[..., 1])
            q_next = (p - self.amplitude * psi) @ ainv
            delta = float(np.abs(q_next - q).max())
            q = q_next
            if delta < INVERSE_TOL:
                return wrap(q)
        raise IterationDivergence(
            f"inverse iteration stalled above {INVERSE_TOL} after "
            f"{INVERSE_MAX_ITER} iterations")

    def differential(self, points):
        """Df at each point, shape (..., 2, 2); exact analytic derivative."""
        p = np.asarray(points, dtype=float)
        base = np.broadcast_to(self.matrix.astype(float),
                               p.shape[:-1] + (2, 2)).copy()
        if not self.is_linear:
            base += self.amplitude * self._dpsi(p)
        return base

    def orbit(self, point, n: int) -> np.ndarray:
        """[p, f(p), ..., f^(n-1)(p)] for a single point, shape (n, 2).

        Scalar loop; orbits are inherently sequential and this stays fast for
        the 1e7-length runs the entropy pipeline uses.
        """
        if n < 1:
            raise ValueError("orbit length must be >= 1")
        p = wrap(np.asarray(point, dtype=float).reshape(2))
        # interleaved x, y doubles: array.array stores them unboxed and one
        # frombuffer wraps them without a copy
        buf = array.array("d", bytes(16 * n))
        (a00, a01), (a10, a11) = self._rows
        x, y = float(p[0]), float(p[1])
        if self.is_linear:
            for i in range(0, 2 * n, 2):
                buf[i] = x
                buf[i + 1] = y
                x, y = (a00 * x + a01 * y) % 1.0, (a10 * x + a11 * y) % 1.0
        else:
            amp = self.amplitude
            terms = self._terms
            sin = math.sin
            for i in range(0, 2 * n, 2):
                buf[i] = x
                buf[i + 1] = y
                px = py = 0.0
                for c0, c1, k0, k1 in terms:
                    s = sin(TWO_PI * (k0 * x + k1 * y))
                    px += c0 * s
                    py += c1 * s
                x, y = ((a00 * x + a01 * y + amp * px) % 1.0,
                        (a10 * x + a11 * y + amp * py) % 1.0)
        out = np.frombuffer(buf).reshape(n, 2)
        # mod of a float already in [0,1) is itself, so only the seeds needed
        # wrapping; still guard the pathological 1.0 case
        out[out >= 1.0] = 0.0
        return out

    def __repr__(self):
        return (f"HyperbolicToralMap({self.matrix.tolist()}, "
                f"amplitude={self.amplitude}, terms={len(self._coeffs)})")


@dataclass(frozen=True)
class ConeReport:
    """Outcome of the cone-field verification on a sample grid."""
    lambda_expand: float
    lambda_contract: float
    cone_half_angle: float
    grid_resolution: int
    passed: bool


def _grid_points(resolution: int) -> np.ndarray:
    xs = (np.arange(resolution) + 0.5) / resolution
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _seed_vector(map: HyperbolicToralMap) -> np.ndarray:
    """Fixed generic start vector, rotated once if it lies on the stable
    direction, where pushing it forward would not turn it toward the
    unstable one (the stable direction of [[1, -1], [-1, 2]] is
    (1, 0.618...))."""
    v = _SEED_VECTOR
    if abs(v[0] * map.v_s[1] - v[1] * map.v_s[0]) < 1e-12:
        c, s = math.cos(0.5), math.sin(0.5)
        v = np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])
    return v


def _matvec(D, v0, v1):
    """D v at each point for a stack D of 2x2 matrices, as the two components
    of the result; the rounding of the einsum "nij,nj->ni" it replaced."""
    return (D[:, 0, 0] * v0 + D[:, 0, 1] * v1,
            D[:, 1, 0] * v0 + D[:, 1, 1] * v1)


def _adjugate_matvec(D, w0, w1):
    """adj(D) w at each point, adj(D) = [[d11, -d01], [-d10, d00]].

    adj(D) = det(D) D^-1, so wherever only the direction of D^-1 w counts,
    this gives it with no inverse and no division."""
    return (D[:, 1, 1] * w0 - D[:, 0, 1] * w1,
            D[:, 0, 0] * w1 - D[:, 1, 0] * w0)


def _length(v0, v1):
    """Euclidean length of each vector, rounded as np.linalg.norm(v, axis=1)
    rounds it."""
    return np.sqrt(v0 * v0 + v1 * v1)


def _normalize(v0, v1):
    """Scale the vectors (v0, v1) to unit length, in place."""
    r = _length(v0, v1)
    v0 /= r
    v1 /= r
    return v0, v1


def unstable_warmup(map: HyperbolicToralMap, points,
                    warmup_n: int) -> np.ndarray:
    """Unit vectors close to the unstable direction at each point, (N, 2).

    A fixed seed vector is pushed forward by Df along the last warmup_n
    steps of the backward orbit that ends at each point, renormalized after
    every step; alignment is exponential with rate (lam_s/lam_u)^2 per step.
    For a linear map Df is A at every point, so the vectors do not depend on
    the point: they are computed once, for the first point, with no inverse
    steps, and broadcast.  The result is a read-only array.
    """
    if warmup_n < 1:
        raise ValueError(f"warmup_n must be >= 1, got {warmup_n}")
    points = np.asarray(points, dtype=float)
    if map.is_linear:
        start = points[:1]
        path = [start] * warmup_n
    else:
        start = back = points
        path = []
        for _ in range(warmup_n):
            back = map.step_inverse(back)
            path.append(back)
    v0, v1 = (np.full(len(start), c) for c in _seed_vector(map))
    for q in reversed(path):
        v0, v1 = _normalize(*_matvec(map.differential(q), v0, v1))
    return np.broadcast_to(np.column_stack([v0, v1]), points.shape)


def unstable_growth(map: HyperbolicToralMap, points,
                    warmup_n: int) -> np.ndarray:
    """|Df_x u| at each point x, u the unstable_warmup direction, (N,)."""
    u = unstable_warmup(map, points, warmup_n)
    return _length(*_matvec(map.differential(points), u[:, 0], u[:, 1]))


def verify_hyperbolicity(map: HyperbolicToralMap, grid_resolution: int,
                         cone_half_angle: float = 0.15,
                         warmup: int = 30) -> ConeReport:
    """Check the constant cone field around the eigendirections of A.

    At every grid point the boundary rays of the unstable cone must map
    strictly inside the cone under Df, and the stable cone strictly inside
    itself under Df^-1.  lambda_expand is the minimal growth along the
    numerically aligned unstable direction (warmup pushes a generic vector
    forward along the backward orbit), lambda_contract the maximal stable
    contraction (a vector pulled back along the forward orbit).

    No inverse is formed.  Df^-1 enters only through the direction of an
    image, and adj(Df) = det(Df) Df^-1 gives the same direction, so the
    stable cone check and the pull-back use the adjugate, renormalizing
    after every step.  Every product is written out term by term, in the
    order of the einsum it replaced.  Raises NotHyperbolic on any cone
    violation.

    For a linear map Df is A at every point, so every per-point quantity is
    the same at every grid point: the checks run on the first grid point
    alone, and the report (grid_resolution included) is the full grid's.
    """
    if grid_resolution < 16:
        raise ValueError("grid_resolution must be >= 16")
    if not 0 < cone_half_angle < math.pi / 4:
        raise ValueError("cone_half_angle must be in (0, pi/4)")
    if warmup < 1:
        raise ValueError(f"warmup must be >= 1, got {warmup}")
    pts = _grid_points(grid_resolution)
    if map.is_linear:
        pts = pts[:1]
    (u0, u1), (s0, s1) = map.v_u, map.v_s
    tan_a = math.tan(cone_half_angle)

    D = map.differential(pts)               # (N,2,2)
    d00, d01, d10, d11 = D[:, 0, 0], D[:, 0, 1], D[:, 1, 0], D[:, 1, 1]

    def worst_angle(m00, m01, m10, m11, axis_u: bool) -> float:
        axis, side = (map.v_u, map.v_s) if axis_u else (map.v_s, map.v_u)
        worst = 0.0
        for sign in (1.0, -1.0):
            r0, r1 = axis + sign * tan_a * side
            x = m00 * r0 + m01 * r1
            y = m10 * r0 + m11 * r1
            # coordinates along (v_u, v_s) times det[v_u v_s] (Cramer)
            cu = s1 * x - s0 * y
            cs = u0 * y - u1 * x
            along, across = (cu, cs) if axis_u else (cs, cu)
            ang = np.arctan2(np.abs(across), np.abs(along))
            worst = max(worst, float(np.max(ang)))
        return worst

    wu = worst_angle(d00, d01, d10, d11, axis_u=True)
    ws = worst_angle(d11, -d01, -d10, d00, axis_u=False)
    if wu >= cone_half_angle or ws >= cone_half_angle:
        raise NotHyperbolic(
            f"cone field not strictly invariant: unstable image angle "
            f"{wu:.5f}, stable image angle {ws:.5f}, half-angle "
            f"{cone_half_angle:.5f}")

    # aligned expansion/contraction via warmup
    lam_expand = float(np.min(unstable_growth(map, pts, warmup)))

    w0 = np.full(len(pts), 0.6180339887498949)
    w1 = np.full(len(pts), -1.0)
    forward = pts
    fpath = [pts]
    for _ in range(warmup - 1):
        forward = map.step(forward)
        fpath.append(forward)
    for q in reversed(fpath):
        Dq = D if q is pts else map.differential(q)
        w0, w1 = _normalize(*_adjugate_matvec(Dq, w0, w1))
    lam_contract = float(np.max(_length(*_matvec(D, w0, w1))))

    return ConeReport(
        lambda_expand=lam_expand,
        lambda_contract=lam_contract,
        cone_half_angle=cone_half_angle,
        grid_resolution=grid_resolution,
        passed=lam_expand > 1.0 and lam_contract < 1.0,
    )
