"""Lyapunov spectrum, unstable directions and unstable log-Jacobian averages.

The unstable direction F(x) comes from dynamics.unstable_warmup: a fixed
generic vector pushed forward along the orbit that ends at x (a backward
warmup); alignment is exponential with rate (lam_s/lam_u)^2 per step, so the
default warmup of 60 steps is far below float precision for every admitted
map.  Since F is one dimensional on the 2-torus, log |det Df restricted to F|
at x is just log |Df_x u| for a unit vector u spanning F(x).

Both orbit cocycles are one pass: take all Jacobians along the orbit in one
batched call and push a unit vector u <- Df u / |Df u| on plain Python
floats, summing log |Df u|.  The QR spectrum pushes (1, 0) and gets the
second exponent from log |det Df| = log r11 + log r22; the unstable
integral of an orbit measure pushes its warmed-up unstable vector along the
stored orbit, so it needs one warmup, not one per point.
"""

from __future__ import annotations

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


class DegenerateCocycle(RuntimeError):
    """A QR column vanished: |Df u| or |det Df| below 1e-300 (bug guard)."""


@dataclass(frozen=True)
class LyapunovSpectrum:
    chi_plus: float
    chi_minus: float
    n_steps: int


def _log_growth(jac: np.ndarray, u0: float, u1: float, skip: int = 0
                ) -> float:
    """Sum of log |Df u| over the Jacobians after the first `skip`.

    u starts at (u0, u1) and is pushed by u <- Df u / |Df u| at every step,
    on plain Python floats read straight from the (n, 2, 2) array.
    """
    d = iter(memoryview(jac.reshape(-1)))
    hypot, log = math.hypot, math.log
    total = 0.0
    for i, (d00, d01, d10, d11) in enumerate(zip(d, d, d, d)):
        w0 = d00 * u0 + d01 * u1
        w1 = d10 * u0 + d11 * u1
        r = hypot(w0, w1)
        if r < 1e-300:
            raise DegenerateCocycle("first column vanished")
        u0 = w0 / r
        u1 = w1 / r
        if i >= skip:
            total += log(r)
    return total


def lyapunov_spectrum_qr(map: HyperbolicToralMap, point, n: int,
                         warmup: int = 64) -> LyapunovSpectrum:
    """Both exponents along an orbit of length n.

    chi_plus is the first QR column: (1, 0) pushed along the orbit, its log
    growth summed once `warmup` steps have aligned it with the unstable
    direction; without them the average carries an O(1/n) bias that would
    swamp the 1e-9 accuracy the linear maps admit.  The QR diagonal has
    r11 * r22 = |det Df| at every step, so chi_minus is the mean of
    log |det Df| over the same window minus chi_plus.
    """
    if n < 100:
        raise ValueError("n must be >= 100")
    jac = map.differential(map.orbit(point, warmup + n))
    top = _log_growth(jac, 1.0, 0.0, skip=warmup)
    det = np.abs(jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0])
    if det.min() < 1e-300:
        raise DegenerateCocycle("second column vanished")
    log_det = float(np.sum(np.log(det[warmup:])))
    return LyapunovSpectrum(chi_plus=top / n, chi_minus=(log_det - top) / n,
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
        return _log_growth(map.differential(orbit), u0, u1) / len(orbit)
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
