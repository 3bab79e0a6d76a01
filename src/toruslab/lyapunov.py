"""Lyapunov spectrum and unstable log-Jacobian integrals.

psi(x) = log |det Df restricted to F(x)| is log dynamics.unstable_growth,
|Df_x u| for u from dynamics.unstable_warmup spanning the unstable line
F(x).  That backward warmup aligns u at rate (lam_s/lam_u)^2 per step, so
the default of 60 steps is far below float precision for every admitted map.

Both orbit cocycles are one pass, `_cocycle`: a unit vector u is pushed
along the orbit by u <- P u / |P u| on plain Python floats, summing
log |P u|, where P is the product of BLOCK = 16 consecutive Jacobians
(Benettin, Galgani, Giorgilli and Strelcyn, Meccanica 15, 1980, renormalise
every few steps).  Factor s of every block comes from one batched
`differential` call on the strided points orbit[s::BLOCK], so the products
of all blocks are built by 15 elementwise 2x2 products at once and no
(L, 2, 2) Jacobian array is formed.  The QR spectrum pushes (1, 0) and gets
the second exponent from log |det Df| = log r11 + log r22; the unstable
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
BLOCK = 16


class DegenerateCocycle(RuntimeError):
    """A QR column vanished: |Df u| or |det Df| below 1e-300 (bug guard)."""


@dataclass(frozen=True)
class LyapunovSpectrum:
    chi_plus: float
    chi_minus: float
    n_steps: int
    warmup: int


def _push(mats: np.ndarray, u0: float, u1: float, total: float):
    """Push (u0, u1) through the 2x2 matrices M of the flat row-major array
    `mats` in turn, u <- M u / |M u|, adding each log |M u| to total.

    Returns (total, u0, u1); runs on plain Python floats.
    """
    d = iter(memoryview(mats))
    hypot, log = math.hypot, math.log
    for d00, d01, d10, d11 in zip(d, d, d, d):
        w0 = d00 * u0 + d01 * u1
        w1 = d10 * u0 + d11 * u1
        r = hypot(w0, w1)
        if r < 1e-300:
            raise DegenerateCocycle("first column vanished")
        u0 = w0 / r
        u1 = w1 / r
        total += log(r)
    return total, u0, u1


def _abs_det(jac: np.ndarray) -> np.ndarray:
    return np.abs(jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0])


def _cocycle(map: HyperbolicToralMap, orbit: np.ndarray, u, skip: int
             ) -> tuple[float, float]:
    """Sums of log |Df u| and of log |det Df| over the orbit after its
    first `skip` points, u starting at the unit vector u and pushed by
    u <- Df u / |Df u|.

    The first `skip` steps are pushed one at a time.  The next
    nb = (L - skip) // BLOCK runs of BLOCK steps are pushed as their
    products P = D_{bB+15} ... D_{bB}, one log |P u| per block: factor s of
    every block is `map.differential` of the strided points
    orbit[skip + s::BLOCK], so each temporary holds nb matrices, and
    P <- D_s P is an elementwise 2x2 product across all blocks.  The last
    (L - skip) % BLOCK steps are pushed one at a time.

    BLOCK = 16 is the largest block for which a product of Jacobians with
    entries of magnitude at most 2^63 (the limit of the map's constructor)
    stays finite: each entry of P is at most 2^15 (2^63)^16 = 2^1023.
    Since log |P u| sums 16 steps' growth, the running sum takes 16 times
    fewer roundings than a per-step pass: on 10^6 steps of the linear maps
    it is within 6e-13 of log lambda, where the per-step sum drifted by up
    to 2.3e-11.

    A Df u below 1e-300 raises DegenerateCocycle("first column vanished")
    as the push meets it; a |det Df| below 1e-300 anywhere on the orbit
    raises "second column vanished" once the push is done, so an all-zero
    Jacobian is named by the first column.
    """
    u0, u1 = u
    head = map.differential(orbit[:skip])
    lowest = np.min(_abs_det(head), initial=math.inf)
    _, u0, u1 = _push(head.reshape(-1), u0, u1, 0.0)
    nb = (len(orbit) - skip) // BLOCK
    end = skip + nb * BLOCK
    log_det = 0.0
    for s in range(BLOCK):
        d = map.differential(orbit[skip + s:end:BLOCK])
        d00, d01, d10, d11 = d[:, 0, 0], d[:, 0, 1], d[:, 1, 0], d[:, 1, 1]
        det = _abs_det(d)
        lowest = min(lowest, np.min(det, initial=math.inf))
        # a zero det gives -inf here, and raises once the push is done
        with np.errstate(divide="ignore"):
            log_det += float(np.sum(np.log(det)))
        if s == 0:
            p00, p01, p10, p11 = d00, d01, d10, d11
        else:
            p00, p01, p10, p11 = (d00 * p00 + d01 * p10,
                                  d00 * p01 + d01 * p11,
                                  d10 * p00 + d11 * p10,
                                  d10 * p01 + d11 * p11)
    blocks = np.column_stack([p00, p01, p10, p11])
    total, u0, u1 = _push(blocks.reshape(-1), u0, u1, 0.0)
    tail = map.differential(orbit[end:])
    total, u0, u1 = _push(tail.reshape(-1), u0, u1, total)
    det = _abs_det(tail)
    lowest = min(lowest, np.min(det, initial=math.inf))
    if lowest < 1e-300:
        raise DegenerateCocycle("second column vanished")
    return total, log_det + float(np.sum(np.log(det)))


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
    top, log_det = _cocycle(map, map.orbit(point, warmup + n), (1.0, 0.0),
                            warmup)
    return LyapunovSpectrum(chi_plus=top / n, chi_minus=(log_det - top) / n,
                            n_steps=n, warmup=warmup)


def unstable_integral(map: HyperbolicToralMap, measure: MeasureLike,
                      warmup_n: int = DEFAULT_WARMUP,
                      grid_resolution: int = DEFAULT_QUAD_GRID) -> float:
    """Integral of psi against the measure.

    Orbit measures: the Birkhoff pass along the stored orbit.  One warmup
    fixes the direction at the first point; along the orbit it propagates
    by `_cocycle`, so the sum telescopes to log |Df^n u| between
    renormalizations, one every BLOCK steps.  Discrete
    measures: weighted sum of psi over the atoms (chunked, each atom gets
    its own warmup).  Lebesgue: the same sum over the grid_resolution^2
    cell centers of a uniform grid, each with weight 1/grid_resolution^2.
    """
    if isinstance(measure, OrbitMeasure):
        if measure.map is not map:
            raise ValueError("orbit measure was built for another map")
        orbit = measure.atoms
        u = unstable_warmup(map, orbit[:1], warmup_n)[0]
        growth, _ = _cocycle(map, orbit, (float(u[0]), float(u[1])), 0)
        return growth / len(orbit)
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
