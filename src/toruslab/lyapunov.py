"""Lyapunov spectrum and unstable log-Jacobian integrals.

psi(x) = log |det Df restricted to F(x)| is log dynamics.unstable_growth,
|Df_x u| for u from dynamics.unstable_warmup spanning the unstable line
F(x).  That backward warmup aligns u at rate (lam_s/lam_u)^2 per step, so
the default of 60 steps is far below float precision for every admitted map.

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

from toruslab.dynamics import (HyperbolicToralMap, _grid_points,
                               unstable_growth, unstable_warmup)
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
    warmup: int


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
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    jac = map.differential(map.orbit(point, warmup + n))
    top = _log_growth(jac, 1.0, 0.0, skip=warmup)
    det = np.abs(jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0])
    if det.min() < 1e-300:
        raise DegenerateCocycle("second column vanished")
    log_det = float(np.sum(np.log(det[warmup:])))
    return LyapunovSpectrum(chi_plus=top / n, chi_minus=(log_det - top) / n,
                            n_steps=n, warmup=warmup)


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
        psis = np.log(unstable_growth(map, atoms[i:i + _ATOM_CHUNK],
                                      warmup_n))
        # not `w @ psi`: with the exact weight of a power-of-two grid, this
        # is the plain sum of the chunk's psi values, scaled
        total += float(np.sum(weights[i:i + _ATOM_CHUNK] * psis))
    return total
