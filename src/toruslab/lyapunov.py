"""Lyapunov spectrum, unstable directions and unstable log-Jacobian averages.

The unstable direction F(x) comes from dynamics.unstable_warmup: a fixed
generic vector pushed forward along the orbit that ends at x (a backward
warmup); alignment is exponential with rate (lam_s/lam_u)^2 per step, so the
default warmup of 60 steps is far below float precision for every admitted
map.  Since F is one dimensional on the 2-torus, log |det Df restricted to F|
at x is just log |Df_x u| for a unit vector u spanning F(x).

The orbit cocycles (QR spectrum, Birkhoff average) generate the orbit once,
take all its Jacobians in one batched call, and run the recursion on Python
floats.  The unstable integral of an orbit measure is the Birkhoff pass
along its stored orbit, so it needs one warmup, not one per point.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass

import numpy as np

from toruslab.dynamics import (HyperbolicToralMap, _grid_points, _length,
                               _matvec, unstable_warmup)
from toruslab.weakstar import (DiscreteMeasure, LebesgueMeasure, MeasureLike,
                               OrbitMeasure)

DEFAULT_WARMUP = 60
DEFAULT_QUAD_GRID = 512
_ATOM_CHUNK = 65536
_SPLIT = 134217729.0    # 2^27 + 1, Dekker's splitting constant


class DegenerateCocycle(RuntimeError):
    """Re-orthonormalization produced a vanishing column (bug guard)."""


@dataclass(frozen=True)
class LyapunovSpectrum:
    chi_plus: float
    chi_minus: float
    n_steps: int


def _fma(x: float, y: float, z: float) -> float:
    """x*y + z with a single rounding (math.fma needs Python 3.13).

    The cocycles round each two-term product as the per-step NumPy products
    they replace did with OpenBLAS on x86-64, whose 2x2 @ 2 and 2 @ 2 kernels
    fuse one of the two multiplications; so the scalar passes reproduce those
    results bit for bit, whatever BLAS is installed.  Splitting x and y into
    26-bit halves (Dekker) makes the four partial products exact, and fsum
    rounds their sum with z once.
    """
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLIT * y
    yh = t - (t - y)
    yl = y - yh
    return math.fsum((xh * yh, xh * yl, xl * yh, xl * yl, z))


def _jacobians(map: HyperbolicToralMap, orbit: np.ndarray) -> array.array:
    """Df along an orbit as unboxed doubles, d00 d01 d10 d11 per point."""
    return array.array("d", map.differential(orbit).tobytes())


def lyapunov_spectrum_qr(map: HyperbolicToralMap, point, n: int,
                         warmup: int = 64) -> LyapunovSpectrum:
    """Both exponents by QR re-orthonormalization along an orbit of length n.

    The frame is pushed `warmup` steps before accumulation starts so the
    transient alignment error does not enter the averages; without it the
    first-column average carries an O(1/n) bias that would swamp the 1e-9
    accuracy the linear maps admit.
    """
    if n < 100:
        raise ValueError("n must be >= 100")
    jac = iter(_jacobians(map, map.orbit(point, warmup + n)))
    hypot, log = math.hypot, math.log
    q10, q11, q20, q21 = 1.0, 0.0, 0.0, 1.0
    log_r11 = 0.0
    log_r22 = 0.0
    for i, (d00, d01, d10, d11) in enumerate(zip(jac, jac, jac, jac)):
        # rows of Df @ q fuse their first product, the dot q1 . b its second
        a0 = _fma(d00, q10, d01 * q11)
        a1 = _fma(d10, q10, d11 * q11)
        b0 = _fma(d00, q20, d01 * q21)
        b1 = _fma(d10, q20, d11 * q21)
        r11 = hypot(a0, a1)
        if r11 < 1e-300:
            raise DegenerateCocycle("first column vanished")
        q10 = a0 / r11
        q11 = a1 / r11
        r12 = _fma(q11, b1, q10 * b0)
        b0 = b0 - r12 * q10
        b1 = b1 - r12 * q11
        r22 = hypot(b0, b1)
        if r22 < 1e-300:
            raise DegenerateCocycle("second column vanished")
        q20 = b0 / r22
        q21 = b1 / r22
        if i >= warmup:
            log_r11 += log(r11)
            log_r22 += log(r22)
    return LyapunovSpectrum(chi_plus=log_r11 / n, chi_minus=log_r22 / n,
                            n_steps=n)


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1, keepdims=True),
                              axis=-1)
    return v * np.where(lead < 0, -1.0, 1.0)


def unstable_direction(map: HyperbolicToralMap, point,
                       warmup_n: int = DEFAULT_WARMUP) -> np.ndarray:
    """Unit vector spanning the unstable line F(point).

    Sign is canonicalized (largest component positive), so results are
    comparable across points; the direction itself is only defined up to sign.
    """
    if warmup_n < 1:
        raise ValueError("warmup_n must be >= 1")
    p = np.asarray(point, dtype=float).reshape(1, 2)
    return _canonical_sign(unstable_warmup(map, p, warmup_n))[0]


def log_unstable_jacobian(map: HyperbolicToralMap, point,
                          warmup_n: int = DEFAULT_WARMUP) -> float:
    """psi(x) = log |Df_x u| for u spanning F(x)."""
    p = np.asarray(point, dtype=float).reshape(1, 2)
    return float(_psi_batch(map, p, warmup_n)[0])


def _psi_batch(map: HyperbolicToralMap, points: np.ndarray,
               warmup_n: int) -> np.ndarray:
    u = unstable_warmup(map, points, warmup_n)
    w = _matvec(map.differential(points), u[:, 0], u[:, 1])
    return np.log(_length(*w))


def unstable_integral(map: HyperbolicToralMap, measure: MeasureLike,
                      warmup_n: int = DEFAULT_WARMUP,
                      grid_resolution: int = DEFAULT_QUAD_GRID) -> float:
    """Integral of psi against the measure.

    Orbit measures: the Birkhoff pass along the stored orbit.  One warmup
    fixes the direction at the first point; along the orbit it propagates
    by u <- Df u / |Df u|, so each step costs a single 2x2 product and the
    sum telescopes to log |Df^n u| between renormalizations.  Discrete
    measures: weighted sum of psi over the atoms (chunked, each atom gets
    its own warmup).  Lebesgue: the same sum over the grid_resolution^2
    cell centers of a uniform grid, each with weight 1/grid_resolution^2.
    """
    if isinstance(measure, OrbitMeasure):
        if measure.map is not map:
            raise ValueError("orbit measure was built for another map")
        if warmup_n < 1:
            raise ValueError("warmup_n must be >= 1")
        orbit = measure.atoms
        u0, u1 = (float(c)
                  for c in unstable_warmup(map, orbit[:1], warmup_n)[0])
        jac = iter(_jacobians(map, orbit))
        hypot, log = math.hypot, math.log
        total = 0.0
        for d00, d01, d10, d11 in zip(jac, jac, jac, jac):
            w0 = _fma(d00, u0, d01 * u1)
            w1 = _fma(d10, u0, d11 * u1)
            r = hypot(w0, w1)
            total += log(r)
            u0 = w0 / r
            u1 = w1 / r
        return total / len(orbit)
    if isinstance(measure, LebesgueMeasure):
        atoms = _grid_points(grid_resolution)
        weights = np.broadcast_to(1.0 / len(atoms), (len(atoms),))
    elif isinstance(measure, DiscreteMeasure):
        atoms, weights = measure.atoms, measure.weights
    else:
        raise TypeError(f"unsupported measure {type(measure).__name__}")
    total = 0.0
    for i in range(0, len(atoms), _ATOM_CHUNK):
        psis = _psi_batch(map, atoms[i:i + _ATOM_CHUNK], warmup_n)
        # not `w @ psi`: with the exact weight of a power-of-two grid, this
        # is the plain sum of the chunk's psi values, scaled
        total += float(np.sum(weights[i:i + _ATOM_CHUNK] * psis))
    return total
