"""Hyperbolic maps of the 2-torus and their tangent cocycle.

A map is an integer unimodular matrix A plus an optional trigonometric
perturbation, f(x) = A x + amp * psi(x)  (mod 1) with
psi(x) = sum_k c_k sin(2 pi k.x).  The perturbation is analytic, so the
derivative Df is available in closed form and no numerical differentiation
enters any cocycle computation.

All operations accept arrays of shape (..., 2) and broadcast over leading
axes.  Points are kept in the canonical representative [0, 1)^2.

A linear map is exact integer arithmetic on the lattice 2^-64 Z^2: a point
x is carried as its uint64 phases X = floor(x 2^64) (to_phases), and x ->
A x mod 1 is X -> A X mod 2^64, which wrapping uint64 products and sums
compute with no mask and no rounding (Percival & Vivaldi, Physica D 25,
1987).  So a linear map's orbit is the true orbit of floor(x 2^64) 2^-64,
which is x itself for coordinates of at least 2^-11 (a double there is a
multiple of 2^-64) and moves a smaller one by less than 2^-64.  `step`
takes such phases as well as floats; `phase_blocks` yields an orbit's
phases in blocks of ORBIT_BLOCK rows, `orbit_phases` has it fill one array,
and `orbit` converts that to the nearest doubles in [0, 1) (from_phases).

A nonlinear map keeps float arithmetic.  Its series psi is written once, at
construction, as Python source (_series_source): each term's sine and
each component's sum, in one fixed order, with every product by a
coefficient, frequency or matrix entry of 0 or +-1 left out.  That source
is compiled into the array series that `step` and `step_inverse` call, the
scalar forward loop of `orbit` and the scalar inverse step that
`unstable_warmup` runs for one point, so all of them follow one float
orbit bit for bit.

The unstable direction u has one implementation, unstable_warmup, and the
expansion |Df u| one, unstable_growth, whose log is the psi of lyapunov's
unstable integral.

verify_hyperbolicity certifies the Anosov property from Df alone, in one
pass over a grid: constant cones around the eigendirections of A must map
strictly into themselves (the unstable cone under Df, the stable one under
Df^-1), with |Df| bounded below on the first and above on the second.  Df
is Lipschitz with the closed-form constant differential_lipschitz, so the
checks at the cell centres, widened by a slack of that constant times the
half cell diagonal plus the rounding allowance CONE_ROUNDING, hold at every
point of the torus.
"""

from __future__ import annotations

import math
import numbers
import textwrap
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# tolerance and iteration cap for the inverse fixed-point iteration; the
# construction invariant keeps the contraction factor below 1/2, so 100
# iterations are far more than the ~40 needed for 1e-12
INVERSE_TOL = 1e-12
INVERSE_MAX_ITER = 100
_STALLED = (f"inverse iteration stalled above {INVERSE_TOL} after "
            f"{INVERSE_MAX_ITER} iterations")

# rows per NumPy pass of a linear orbit's fill and conversion: NumPy copies
# an operand that overlaps its output, so whole-orbit passes would double
# the orbit's memory
_ORBIT_ROWS = 1 << 13
# rows per block of a linear orbit's phase stream (phase_blocks)
ORBIT_BLOCK = 1 << 16
_WORD = (1 << 64) - 1
# the largest double below 1
_BELOW_ONE = 1.0 - 2.0 ** -53

# float-rounding allowance in the cone slack (verify_hyperbolicity): the
# computed Df, ray images and arc extremes carry relative rounding errors of
# a few units of 2^-53 on entries of order |Df|, far below it
CONE_ROUNDING = 1e-12

# start vector of the unstable-direction warmup (see _seed_vector)
_SEED_VECTOR = np.array([1.0, 0.6180339887498949])


class IterationDivergence(RuntimeError):
    """Inverse fixed-point iteration failed to reach tolerance."""


class NotHyperbolic(RuntimeError):
    """Cone-field verification failed at some sampled point."""


class MatrixInvalid(ValueError):
    """The matrix is not a 2x2 hyperbolic unimodular integer matrix with
    entries below 2^63 in magnitude."""


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


def to_phases(points) -> np.ndarray:
    """uint64 phases X = floor(x 2^64) of the fractions x of the points.

    The fraction is `wrap`'s, so it lies in [0, 1 - 2^-53]; scaling by 2^64
    is exact, and the cast truncates toward 0, which is the floor here."""
    r = wrap(points)
    r *= 2.0 ** 64
    return r.astype(np.uint64)


def from_phases(phases, out=None) -> np.ndarray:
    """The double in [0, 1) nearest to X 2^-64 for each uint64 phase X.

    With X = hi 2^32 + lo, hi 2^-32 and lo 2^-64 are exact doubles, so
    their sum is X 2^-64 rounded once, to nearest; NumPy's own uint64 cast
    branches on the top bit and took 1.6 times as long on random phases.
    The one value that rounds to 1.0, for X >= 2^64 - 2^10, goes to the
    largest double below 1.  A phase with at most 53 significant bits, such
    as to_phases gives for a fraction of at least 2^-11, converts exactly.
    out, C-contiguous, may be the phases' own memory: the work goes in
    blocks of 2 _ORBIT_ROWS values through two scratch buffers."""
    phases = np.asarray(phases)
    if out is None:
        out = np.empty(phases.shape)
    src, dst = phases.reshape(-1), out.reshape(-1)
    block = min(2 * _ORBIT_ROWS, len(src)) or 1
    part, low = np.empty(block, dtype=np.uint64), np.empty(block)
    for s in range(0, len(src), block):
        x, o = src[s:s + block], dst[s:s + block]
        w, f = part[:len(x)], low[:len(x)]
        np.bitwise_and(x, 0xFFFFFFFF, out=w)
        np.multiply(w.view(np.int64), 2.0 ** -64, out=f)
        np.right_shift(x, 32, out=w)
        np.multiply(w.view(np.int64), 2.0 ** -32, out=o)
        o += f
        np.minimum(o, _BELOW_ONE, out=o)
    return out


def _phase_pass(words, src, dst, spare):
    """dst = W src mod 2^64, row by row, for the word matrix W = ((w00, w01),
    (w10, w11)) of Python ints below 2^64: passes of at most _ORBIT_ROWS
    rows, each product through `spare`."""
    (w00, w01), (w10, w11) = words
    for s in range(0, len(src), _ORBIT_ROWS):
        x, y = src[s:s + _ORBIT_ROWS, 0], src[s:s + _ORBIT_ROWS, 1]
        d, t = dst[s:s + _ORBIT_ROWS], spare[:len(x)]
        np.multiply(x, w00, out=d[:, 0])
        np.multiply(y, w01, out=t)
        d[:, 0] += t
        np.multiply(x, w10, out=d[:, 1])
        np.multiply(y, w11, out=t)
        d[:, 1] += t


def _square_words(words):
    """W^2 mod 2^64 of a word matrix, in Python ints."""
    (w00, w01), (w10, w11) = words
    return (((w00 * w00 + w01 * w10) & _WORD,
             (w00 * w01 + w01 * w11) & _WORD),
            ((w10 * w00 + w11 * w10) & _WORD,
             (w10 * w01 + w11 * w11) & _WORD))


def _combine(c0: float, u, c1: float, v):
    """c0 u + c1 v with every product by a coefficient of +-1 left out.

    1 u = u and w + (-1) v = w - v exactly, and float addition commutes, so
    the result is the plain expression's bit for bit at one or two NumPy
    calls fewer.  With both coefficients -1 it is (-u) - v, not -(u + v),
    which differs in the sign of a zero sum."""
    if c1 == 1.0 or c1 == -1.0:
        w = u if c0 == 1.0 else -u if c0 == -1.0 else c0 * u
        return w + v if c1 == 1.0 else w - v
    if c0 == 1.0 or c0 == -1.0:
        w = c1 * v
        return w + u if c0 == 1.0 else w - u
    return c0 * u + c1 * v


def _product(c: float, v: str) -> str:
    """Source of c v, the product by 1 left out: 1 v = v exactly.  The
    constant is its repr, which reads back as the same double."""
    return v if c == 1.0 else f"{c!r} * {v}"


def _combination(c0: float, u: str, c1: float, v: str) -> str:
    """Source of c0 u + c1 v, rounded as `_combine` rounds it, a term with
    a coefficient of 0 left out.  0 u is a zero for finite u, and adding a
    zero to a sum changes at most the sign of a zero sum."""
    if c0 == 0.0 or c1 == 0.0:
        c, w = (c1, v) if c0 == 0.0 else (c0, u)
        return "0.0" if c == 0.0 else f"-{w}" if c == -1.0 else _product(c, w)
    if c1 == 1.0 or c1 == -1.0:
        w = f"-{u}" if c0 == -1.0 else _product(c0, u)
        return f"{w} {'+' if c1 == 1.0 else '-'} {v}"
    if c0 == 1.0 or c0 == -1.0:
        return f"{_product(c1, v)} {'+' if c0 == 1.0 else '-'} {u}"
    return f"{_product(c0, u)} + {_product(c1, v)}"


def _series_source(terms, amp: float, rows, inv_rows) -> str:
    """Python source of psi and of the map's scalar loops.

    psi(x, y) = sum_m (c_m0, c_m1) sin(2 pi (k_m0 x + k_m1 y)): term m sets
    s_m, and each component sums its terms' c s_m from 0.0 in the order of
    the terms.  A component with no nonzero coefficient is the constant
    0.0, and its amp psi term is left out of the map.  Every other left-out
    product is by 0 or +-1 (_combination, _product) and changes at most the
    sign of a zero: a sine's phase or a sine of 0 enters a sum that starts
    at +0.0, which absorbs it, and a coordinate of the map ends in `% 1.0`
    or `wrap`, which take -0 to +0.  So for finite points every callable
    compiled from this source returns the plain series' and map's values
    bit for bit.

    It defines, with `sin` bound by the caller:
    - series(x, y) -> (px, py), on arrays with NumPy's sin;
    - forward(buf, start, stop, x, y): x, y and their images under the map
      stored into the flat doubles buf[start:stop], one point per pair;
      a coordinate that `% 1.0` rounds to 1.0 is stored as 1.0;
    - inverse(x, y): one inverse step of the point by the contracting lift
      q <- A^-1 ((x, y) - amp psi(q)), stopped at the first iterate whose
      step |q_next - q|_inf is below INVERSE_TOL and wrapped, or
      IterationDivergence after INVERSE_MAX_ITER iterates.
    """
    def psi(x, y):
        lines, sums = [], ["0.0", "0.0"]
        for m, (c0, c1, k0, k1) in enumerate(terms):
            if c0 == 0.0 and c1 == 0.0:
                continue
            phase = _combination(k0, x, k1, y)
            if " " in phase:
                phase = f"({phase})"
            lines.append(f"s{m} = sin({TWO_PI!r} * {phase})")
            for i, c in enumerate((c0, c1)):
                if c == -1.0:
                    sums[i] += f" - s{m}"
                elif c != 0.0:
                    sums[i] += f" + {_product(c, f's{m}')}"
        names = [None if t == "0.0" else n for n, t in zip(("px", "py"), sums)]
        lines += [f"{n} = {t}" for n, t in zip(names, sums) if n]
        return "\n".join(lines), names

    (b00, b01), (b10, b11) = inv_rows
    text, (px, py) = psi("x", "y")
    body, loop = textwrap.indent(text, "    "), textwrap.indent(text, " " * 8)
    lift = textwrap.indent(psi("q0", "q1")[0], " " * 8)
    fx, fy = (_combination(a0, "x", a1, "y")
              + ("" if p is None else f" + {_product(amp, p)}")
              for (a0, a1), p in zip(rows, (px, py)))
    # the residual (x, y) - amp psi(q) of the lift, named rx, ry
    residual = "".join(f"\n        r{c} = {c} - {_product(amp, p)}"
                       for c, p in (("x", px), ("y", py)) if p)
    rx, ry = ("x" if px is None else "rx"), ("y" if py is None else "ry")
    return f"""\
def series(x, y):
{body}
    return {px or 0.0}, {py or 0.0}


def forward(buf, start, stop, x, y):
    for i in range(start, stop, 2):
        buf[i] = x
        buf[i + 1] = y
{loop}
        x, y = ({fx}) % 1.0, ({fy}) % 1.0


def inverse(x, y):
    q0 = {_combination(b00, "x", b01, "y")}
    q1 = {_combination(b10, "x", b11, "y")}
    for _ in range({INVERSE_MAX_ITER}):
{lift}{residual}
        n0 = {_combination(b00, rx, b01, ry)}
        n1 = {_combination(b10, rx, b11, ry)}
        if abs(n0 - q0) < {INVERSE_TOL!r} and abs(n1 - q1) < {INVERSE_TOL!r}:
            x, y = n0 % 1.0, n1 % 1.0
            return 0.0 if x == 1.0 else x, 0.0 if y == 1.0 else y
        q0, q1 = n0, n1
    raise IterationDivergence(_STALLED)
"""


def torus_distance(p, q):
    """Euclidean distance on the torus, minimized over integer translates."""
    d = np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))
    d = np.mod(d, 1.0)
    d = np.minimum(d, 1.0 - d)
    return np.sqrt(np.sum(d * d, axis=-1))


def _as_int_matrix(matrix) -> list[list[int]]:
    """The entries of a 2x2 matrix as Python ints, so that no product or
    determinant of large entries wraps."""
    m = np.asarray(matrix, dtype=object)
    if m.shape != (2, 2):
        raise MatrixInvalid(f"matrix must be 2x2, got shape {m.shape}")
    rows = m.tolist()
    for v in (v for row in rows for v in row):
        if not (isinstance(v, numbers.Integral) or isinstance(v, numbers.Real)
                and math.isfinite(v) and float(v).is_integer()):
            raise MatrixInvalid(f"matrix entries must be integers, got {v!r}")
    return [[int(v) for v in row] for row in rows]


class HyperbolicToralMap:
    """Unimodular hyperbolic integer matrix plus a small sine perturbation.

    perturbation: sequence of (coefficient, frequency) pairs, coefficient a
    real 2-vector, frequency a nonzero integer 2-vector.  amplitude scales the
    whole series.

    Construction enforces |det A| = 1, no eigenvalue on the unit circle and
    entries below 2^63 in magnitude (MatrixInvalid otherwise), a finite
    amplitude and finite coefficients, and amp * |A^-1| * Lip(psi) < 1/2 so
    the inverse iteration contracts.
    """

    def __init__(self, matrix, amplitude: float = 0.0,
                 perturbation: Sequence = ()):
        (a00, a01), (a10, a11) = rows = _as_int_matrix(matrix)
        det = a00 * a11 - a01 * a10
        tr = a00 + a11
        if abs(det) != 1:
            raise MatrixInvalid(f"matrix must be unimodular, det = {det}")
        # no eigenvalue on the unit circle: for det=1 this is |tr|>2, for
        # det=-1 any nonzero trace gives |lam| = (|tr|+sqrt(tr^2+4))/2 > 1
        if det == 1 and abs(tr) <= 2:
            raise MatrixInvalid(
                f"matrix is not hyperbolic: det=1 requires |trace| > 2, got {tr}")
        if det == -1 and tr == 0:
            raise MatrixInvalid("matrix is not hyperbolic: det=-1, trace=0")
        if any(abs(v) >= 2 ** 63 for row in rows for v in row):
            raise MatrixInvalid(f"matrix entries too large: {rows} has an "
                             "entry of magnitude 2**63 or more")
        A = np.array(rows, dtype=np.int64)
        self.matrix = A
        self.det = det
        # adjugate over det is exact for integer unimodular matrices
        self.matrix_inv = (np.array([[A[1, 1], -A[0, 1]],
                                     [-A[1, 0], A[0, 0]]], dtype=np.int64) * det)
        # A mod 2^64, for the uint64 phases of `step` and `orbit`
        self._words = tuple(tuple(v & _WORD for v in row) for row in rows)

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
        # rows of A (step, orbit) and of A^-1 (step_inverse) as Python floats
        self._rows = tuple(map(tuple, A.astype(float).tolist()))
        self._inv_rows = tuple(map(tuple,
                                   self.matrix_inv.astype(float).tolist()))
        self._float_matrix = A.astype(float)

        # Lip(psi) <= sum 2 pi |c_k| |k|
        self.lipschitz_bound = float(
            TWO_PI * np.sum(np.linalg.norm(self._coeffs, axis=1)
                            * np.linalg.norm(self._freqs, axis=1)))
        # |Df(x) - Df(y)|_2 <= differential_lipschitz * |x - y|: each term
        # of amp * Dpsi is the rank-one 2 pi c_k k^T cos(2 pi k.x), and cos
        # is 1-Lipschitz, giving amp * sum (2 pi)^2 |c_k| |k|^2
        self.differential_lipschitz = self.amplitude * float(
            TWO_PI ** 2 * np.sum(np.linalg.norm(self._coeffs, axis=1)
                                 * np.sum(self._freqs ** 2, axis=1)))
        inv_norm = float(np.linalg.norm(self.matrix_inv.astype(float), 2))
        contraction = self.amplitude * inv_norm * self.lipschitz_bound
        if contraction >= 0.5:
            raise ValueError(
                "inverse iteration does not contract: "
                f"amp * |A^-1| * Lip(psi) = {contraction:.4f} >= 0.5")

        # eigendata of the linear part
        lam, vecs = np.linalg.eig(A.astype(float))
        iu = int(np.argmax(np.abs(lam)))
        self.lam_u = float(lam[iu])
        vu = vecs[:, iu] / np.linalg.norm(vecs[:, iu])
        vs = vecs[:, 1 - iu] / np.linalg.norm(vecs[:, 1 - iu])
        self.v_u = vu if vu[np.argmax(np.abs(vu))] > 0 else -vu
        self.v_s = vs if vs[np.argmax(np.abs(vs))] > 0 else -vs

        if not self.is_linear:
            # psi and the scalar loops, compiled once (_series_source)
            code = compile(_series_source(self._terms, amplitude, self._rows,
                                          self._inv_rows), "<series>", "exec")
            scalar = {"sin": math.sin, "IterationDivergence":
                      IterationDivergence, "_STALLED": _STALLED}
            array = {"sin": np.sin}
            exec(code, scalar)
            exec(code, array)
            self._series = array["series"]
            self._forward, self._inverse = scalar["forward"], scalar["inverse"]

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
        amp_m = 2 pi cos(2 pi (k_m0 x + k_m1 y)), the phase summed element
        by element: a matrix product would not give each point the same
        bits in every batch, since OpenBLAS uses fused multiply-adds in
        some product shapes and not in others.
        """
        p = np.asarray(points, dtype=float)
        out = np.zeros(p.shape[:-1] + (2, 2))
        x, y = p[..., 0], p[..., 1]
        for c0, c1, k0, k1 in self._terms:
            amp_m = TWO_PI * np.cos(TWO_PI * (k0 * x + k1 * y))
            for i, c in enumerate((c0, c1)):
                ac = amp_m * c
                for j, k in enumerate((k0, k1)):
                    out[..., i, j] += ac * k
        return out

    # -- operations --------------------------------------------------------

    def step(self, points):
        """One forward iterate, canonical representative.

        Float points: A x by element-wise products and sums, plus amp times
        the compiled series, in the order of `orbit`'s scalar loop, so
        iterating `step` from a point follows a nonlinear map's `orbit` bit
        for bit.  uint64 phases (`to_phases`) of a linear map: X -> A X mod
        2^64 in wrapping arithmetic, exact, with the layout of the input
        kept; iterated from to_phases(p), they are the phases of
        `orbit(p, n)`.
        """
        p = np.asarray(points)
        if p.dtype == np.uint64:
            if not self.is_linear:
                raise ValueError("phases step a linear map only")
            (a00, a01), (a10, a11) = self._words
            x, y = p[..., 0], p[..., 1]
            q = np.empty_like(p)
            q[..., 0] = _combine(a00, x, a01, y)
            q[..., 1] = _combine(a10, x, a11, y)
            return q
        p = np.asarray(p, dtype=float)
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
        """Inverse iterate via the contracting lift q <- A^-1 (p - amp psi(q)).

        A^-1 is applied by element-wise products and sums (`_combine`), psi
        is the compiled series, and each point stops at the first iterate
        where its own step |q_next - q|_inf falls below INVERSE_TOL, so a
        point's inverse does not depend on its batch: a batch gives what a
        loop over its points gives, bit for bit, and so does the map's
        compiled scalar inverse step (_series_source), which
        `unstable_warmup` runs for one point.
        (A BLAS product would not: OpenBLAS rounds a one-row product without
        the fused multiply-adds of a larger one.)
        """
        p = np.asarray(points, dtype=float)
        (b00, b01), (b10, b11) = self._inv_rows
        flat = p.reshape(-1, 2)
        x, y = flat[:, 0], flat[:, 1]
        q0, q1 = _combine(b00, x, b01, y), _combine(b10, x, b11, y)
        out = np.empty(flat.shape)
        if self.is_linear:
            out[:, 0], out[:, 1] = q0, q1
            return wrap(out.reshape(p.shape))
        amp = self.amplitude
        todo = np.arange(len(flat))
        for _ in range(INVERSE_MAX_ITER):
            px, py = self._series(q0, q1)
            rx, ry = x - amp * px, y - amp * py
            n0, n1 = _combine(b00, rx, b01, ry), _combine(b10, rx, b11, ry)
            done = np.maximum(np.abs(n0 - q0), np.abs(n1 - q1)) < INVERSE_TOL
            if done.all():
                out[todo, 0], out[todo, 1] = n0, n1
                return wrap(out.reshape(p.shape))
            if done.any():
                out[todo[done], 0], out[todo[done], 1] = n0[done], n1[done]
                keep = ~done
                todo, x, y = todo[keep], x[keep], y[keep]
                n0, n1 = n0[keep], n1[keep]
            q0, q1 = n0, n1
        raise IterationDivergence(_STALLED)

    def differential(self, points):
        """Df at each point, shape (..., 2, 2); exact analytic derivative.

        On a linear map Df is A everywhere, and the result is a read-only
        broadcast of A, with no per-point copy."""
        p = np.asarray(points, dtype=float)
        if self.is_linear:
            return np.broadcast_to(self._float_matrix, p.shape[:-1] + (2, 2))
        return self._float_matrix + self.amplitude * self._dpsi(p)

    def orbit(self, point, n: int) -> np.ndarray:
        """[p, f(p), ..., f^(n-1)(p)] for a single point, shape (n, 2).

        A linear map's orbit is `from_phases` of `orbit_phases(p, n)`,
        converted in place through a float view of the phases' memory; p
        may be given as its uint64 phases.

        A nonlinear map runs its compiled scalar loop (_series_source),
        `step`'s products and sums in the same order.  A sum in (-2^-54, 0)
        rounds to 1.0 under `% 1.0`; as in `wrap` and `step` it goes on as
        0.0: a stored 1.0 is looked for once the loop ends, and the loop
        runs again from its row.
        """
        if n < 1:
            raise ValueError("orbit length must be >= 1")
        if self.is_linear:
            phases = self.orbit_phases(point, n)
            return from_phases(phases, out=phases.view(np.float64))
        x, y = wrap(np.asarray(point, dtype=float).reshape(2)).tolist()
        out = np.empty((n, 2))
        # the interleaved x, y doubles of out, which the loop stores unboxed
        buf = memoryview(out).cast("B").cast("d")
        row = 0
        while True:
            self._forward(buf, 2 * row, 2 * n, x, y)
            ones = np.flatnonzero(out[row:] == 1.0)
            if not len(ones):
                return out
            row += int(ones[0]) // 2
            x, y = buf[2 * row], buf[2 * row + 1]
            x = 0.0 if x == 1.0 else x
            y = 0.0 if y == 1.0 else y

    def orbit_phases(self, point, n: int) -> np.ndarray:
        """uint64 phases of a linear map's orbit of a single point, shape
        (n, 2): the true orbit X_j = A^j X_0 mod 2^64 of X_0 =
        to_phases(p), or of X_0 = p when p is given as uint64 phases.

        The output is filled in place by `phase_blocks`."""
        lat = np.empty((max(n, 0), 2), dtype=np.uint64)
        for _ in self.phase_blocks(point, n, out=lat):
            pass
        return lat

    def phase_blocks(self, point, n: int, out=None):
        """Yield a linear map's orbit phases (`orbit_phases`) in blocks of
        ORBIT_BLOCK rows, the last one shorter.

        The first block is filled by doubling, X[L:L+c] = (A^L mod 2^64)
        X[0:c], which leaves A^B in hand at B = ORBIT_BLOCK; each later
        block is A^B times the block before it.  The powers are squared in
        Python ints, the products and sums wrap mod 2^64, which is the map
        mod 1, and every NumPy pass takes at most _ORBIT_ROWS rows through
        one spare row, so a block makes no temporary of its own size.
        With out, an (n, 2) uint64 array, block i is written to and yielded
        as out[i B:(i + 1) B]; without it the blocks take turns in two
        buffers, so a block is overwritten once the generator has moved two
        blocks past it."""
        if not self.is_linear:
            raise ValueError("phases step a linear map only")
        if n < 1:
            raise ValueError("orbit length must be >= 1")
        p = np.asarray(point)
        start = (p.reshape(2) if p.dtype == np.uint64
                 else to_phases(np.asarray(p, dtype=float).reshape(2)))
        rows = min(n, ORBIT_BLOCK)
        bufs = np.empty((2, rows, 2), dtype=np.uint64) if out is None else None
        spare = np.empty(min(rows, _ORBIT_ROWS), dtype=np.uint64)
        cur = out[:rows] if bufs is None else bufs[0]
        cur[0] = start
        words = self._words
        filled = 1
        while filled < rows:
            count = min(filled, rows - filled)
            _phase_pass(words, cur[:count], cur[filled:filled + count],
                        spare)
            filled += count
            words = _square_words(words)
        yield cur
        for s in range(ORBIT_BLOCK, n, ORBIT_BLOCK):
            count = min(ORBIT_BLOCK, n - s)
            nxt = (out[s:s + count] if bufs is None
                   else bufs[s // ORBIT_BLOCK % 2, :count])
            _phase_pass(words, cur[:count], nxt, spare)
            cur = nxt
            yield cur

    def __repr__(self):
        return (f"HyperbolicToralMap({self.matrix.tolist()}, "
                f"amplitude={self.amplitude}, terms={len(self._coeffs)})")


@dataclass(frozen=True)
class ConeReport:
    """Certified outcome of the cone-field verification on a sample grid.

    expand_bound and contract_bound bound |Df v| from below on the unstable
    cone and from above on the stable cone, at every point of the torus;
    unstable_angle and stable_angle are the certified image angles and slack
    the bound on |Df(y) - Df(c)| within a grid cell (see
    verify_hyperbolicity)."""
    expand_bound: float
    contract_bound: float
    unstable_angle: float
    stable_angle: float
    slack: float
    cone_half_angle: float
    grid_resolution: int
    certified: bool
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

    One vector is pushed on plain floats, through the Jacobians of its whole
    path from one `differential` call.  That serves a linear map, where Df
    is A at every point, so the vector does not depend on the point and is
    computed once, with no inverse steps, and broadcast; and a single point
    of a nonlinear map, whose backward orbit comes from the map's compiled
    scalar inverse step.  Since `step_inverse`, `differential` and the push
    give each point the same bits in every batch, that vector is the row of
    a batched call bit for bit.  A point that is not finite takes the batch
    path, whose NumPy sine gives NaN where the scalar one raises.  The
    result is a read-only array.
    """
    if warmup_n < 1:
        raise ValueError(f"warmup_n must be >= 1, got {warmup_n}")
    points = np.asarray(points, dtype=float)
    v0, v1 = _seed_vector(map).tolist()
    if map.is_linear or len(points) == 1 and np.isfinite(points).all():
        if map.is_linear:
            path = np.zeros((warmup_n, 2))
        else:
            x, y = points[0].tolist()
            path = []
            for _ in range(warmup_n):
                x, y = map._inverse(x, y)
                path.append((x, y))
        jacobians = map.differential(path[::-1]).reshape(-1, 4).tolist()
        for d00, d01, d10, d11 in jacobians:
            w0, w1 = d00 * v0 + d01 * v1, d10 * v0 + d11 * v1
            r = math.sqrt(w0 * w0 + w1 * w1)
            v0, v1 = w0 / r, w1 / r
        return np.broadcast_to(np.array([v0, v1]), points.shape)
    back, path = points, []
    for _ in range(warmup_n):
        back = map.step_inverse(back)
        path.append(back)
    v0, v1 = np.full(len(points), v0), np.full(len(points), v1)
    for q in reversed(path):
        v0, v1 = _normalize(*_matvec(map.differential(q), v0, v1))
    return np.broadcast_to(np.column_stack([v0, v1]), points.shape)


def unstable_growth(map: HyperbolicToralMap, points,
                    warmup_n: int) -> np.ndarray:
    """|Df_x u| at each point x, u the unstable_warmup direction, (N,)."""
    u = unstable_warmup(map, points, warmup_n)
    return _length(*_matvec(map.differential(points), u[:, 0], u[:, 1]))


def _arc(axis, side, tan_a: float) -> tuple[float, float]:
    """(start, width) of the angles t whose unit vector (cos t, sin t) lies
    in the cone {axis + s side : |s| <= tan_a}, one of its two halves."""
    (p0, p1), (m0, m1) = axis + tan_a * side, axis - tan_a * side
    cross = m0 * p1 - m1 * p0
    start = (m0, m1) if cross > 0 else (p0, p1)
    return (math.atan2(start[1], start[0]),
            math.atan2(abs(cross), m0 * p0 + m1 * p1))


def _arc_extreme(D, start: float, width: float, largest: bool):
    """max (largest) or min of |D v| over the unit vectors v of the arc, for
    each matrix of the stack D, in closed form.

    On v(t) = (cos t, sin t), |D v|^2 = a + b cos 2t + c sin 2t with a, b, c
    read off D^T D.  Its maximum is at 2t = atan2(c, b) and its minimum half
    a turn of 2t away; the extreme over the arc is at one of its ends, or at
    that angle when the angle lies on the arc."""
    d00, d01, d10, d11 = D[:, 0, 0], D[:, 0, 1], D[:, 1, 0], D[:, 1, 1]
    ends = [_length(*_matvec(D, math.cos(t), math.sin(t)))
            for t in (start, start + width)]
    g00 = d00 * d00 + d10 * d10
    g11 = d01 * d01 + d11 * d11
    a, b, c = 0.5 * (g00 + g11), 0.5 * (g00 - g11), d00 * d01 + d10 * d11
    r = np.hypot(b, c)
    pick = np.maximum if largest else np.minimum
    inner = np.sqrt(np.maximum(a + r if largest else a - r, 0.0))
    crit = 0.5 * np.arctan2(c, b) + (0.0 if largest else 0.5 * math.pi)
    on_arc = np.mod(crit - start, math.pi) <= width
    out = pick(*ends)
    return np.where(on_arc, pick(out, inner), out)


def verify_hyperbolicity(map: HyperbolicToralMap, grid_resolution: int,
                         cone_half_angle: float = 0.15) -> ConeReport:
    """Certify the constant cone fields around the eigendirections of A.

    The unstable cone C_u = {v_u + s v_s} and the stable cone C_s =
    {v_s + s v_u}, |s| <= tan(cone_half_angle), are checked at the centres
    c of a grid_resolution^2 grid, and the result is made to hold at every
    point y of the torus:

    - Sampled checks.  At each centre the images under Df of the two
      boundary rays r of C_u must lie strictly inside C_u, at an angle below
      the half-angle from v_u, and on the same side of the stable axis (two
      edges inside the cone on opposite sides would let the image sector
      cross it).  The stable cone is checked the same way under adj(Df) =
      det(Df) Df^-1, which gives the direction of Df^-1 with no inverse.
      Any violation raises NotHyperbolic.
    - Slack.  |Df(x) - Df(y)|_2 <= L_D |x - y| with L_D =
      map.differential_lipschitz, and every y lies within h = sqrt(2)/(2G)
      of a centre, so |Df(y) - Df(c)|_2 <= slack = L_D h + CONE_ROUNDING.
      For a 2x2 matrix |adj E|_2 = |E|_2, so the same slack bounds adj(Df).
      L_D is 0 on a linear map, whose slack is CONE_ROUNDING alone.
    - Certified angles.  With (along, across) = P Df(c) r the coordinates
      of an image on (v_u, v_s) by Cramer's rule, the image of r at y moves
      by at most eta |r|, eta = |P|_2 slack, so its angle is at most
      arctan2(|across| + eta |r|, |along| - eta |r|).  Both cones are
      certified when every such angle is below the half-angle; the image
      then keeps the side of its centre, and each cone maps strictly inside
      itself everywhere.
    - Rates.  expand_bound is the minimum over the centres of min |Df v|
      over the unit vectors of C_u, minus slack; contract_bound the maximum
      of max |Df v| over C_s, plus slack.  Each arc extreme is exact, in
      closed form (_arc_extreme).

    certified is the verdict of the angles; passed adds expand_bound > 1 >
    contract_bound.  A report that is not certified does not raise: a finer
    grid shrinks the slack.  For a linear map Df is A at every point, so
    every per-point quantity is the same at every grid point: the checks run
    on the first grid point alone, and the report (grid_resolution
    included) is the full grid's.
    """
    if grid_resolution < 16:
        raise ValueError("grid_resolution must be >= 16")
    if not 0 < cone_half_angle < math.pi / 4:
        raise ValueError("cone_half_angle must be in (0, pi/4)")
    pts = _grid_points(grid_resolution)
    if map.is_linear:
        pts = pts[:1]
    (u0, u1), (s0, s1) = map.v_u, map.v_s
    tan_a = math.tan(cone_half_angle)
    slack = (map.differential_lipschitz * math.sqrt(2.0)
             / (2 * grid_resolution) + CONE_ROUNDING)
    # P x = (s1 x0 - s0 x1, u0 x1 - u1 x0), the coordinates of x along
    # (v_u, v_s) times det[v_u v_s]
    eta = float(np.linalg.norm([[s1, -s0], [-u1, u0]], 2)) * slack

    D = map.differential(pts)               # (N,2,2)
    d00, d01, d10, d11 = D[:, 0, 0], D[:, 0, 1], D[:, 1, 0], D[:, 1, 1]

    def image_angles(m00, m01, m10, m11, axis_u: bool):
        """Worst sampled and certified image angle of the boundary rays, and
        whether their images lie on opposite sides of the other axis."""
        axis, side = (map.v_u, map.v_s) if axis_u else (map.v_s, map.v_u)
        sampled = certified = 0.0
        sides = []
        for sign in (1.0, -1.0):
            r0, r1 = axis + sign * tan_a * side
            x = m00 * r0 + m01 * r1
            y = m10 * r0 + m11 * r1
            cu = s1 * x - s0 * y
            cs = u0 * y - u1 * x
            along, across = (cu, cs) if axis_u else (cs, cu)
            sides.append(along > 0)
            along, across = np.abs(along), np.abs(across)
            e = eta * math.hypot(r0, r1)
            sampled = max(sampled, float(np.max(np.arctan2(across, along))))
            certified = max(certified, float(np.max(
                np.arctan2(across + e, along - e))))
        return sampled, certified, bool(np.any(sides[0] != sides[1]))

    wu, cert_u, flip_u = image_angles(d00, d01, d10, d11, axis_u=True)
    ws, cert_s, flip_s = image_angles(d11, -d01, -d10, d00, axis_u=False)
    if (wu >= cone_half_angle or ws >= cone_half_angle
            or flip_u or flip_s):
        raise NotHyperbolic(
            f"cone field not strictly invariant: unstable image angle "
            f"{wu:.5f}, stable image angle {ws:.5f}, half-angle "
            f"{cone_half_angle:.5f}, boundary ray images on opposite sides: "
            f"unstable {flip_u}, stable {flip_s}")

    expand = float(np.min(_arc_extreme(
        D, *_arc(map.v_u, map.v_s, tan_a), largest=False))) - slack
    contract = float(np.max(_arc_extreme(
        D, *_arc(map.v_s, map.v_u, tan_a), largest=True))) + slack
    certified = cert_u < cone_half_angle and cert_s < cone_half_angle
    return ConeReport(
        expand_bound=expand,
        contract_bound=contract,
        unstable_angle=cert_u,
        stable_angle=cert_s,
        slack=slack,
        cone_half_angle=cone_half_angle,
        grid_resolution=grid_resolution,
        certified=certified,
        passed=certified and expand > 1.0 and contract < 1.0,
    )
