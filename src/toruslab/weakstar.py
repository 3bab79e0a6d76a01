"""Weak* metric on torus probability measures via truncated Fourier moments.

The test family is phi_0 = 1 and, for each nonzero integer frequency vector
enumerated by increasing max-norm with lexicographic tie-break, the pair
(1 + cos(2 pi k.x))/2 then (1 + sin(2 pi k.x))/2.  All functions take values
in [0,1], so with weights 2^-i the metric is bounded by 2 and omitting the
tail beyond truncation K changes any distance by at most 2^(1-K).

The family separates measures on the torus (the moments are exactly the
Fourier coefficients), hence metrizes weak* convergence; distances computed
at different K agree to the tail bound but are only comparable at fixed K, so
the truncation and enumeration version are stamped into every result record.

Every mode is evaluated without a trig call per frequency.  A point enters
as its uint64 phases X = floor(x 2^64) (`dynamics.to_phases`; the basin
kernel steps a linear map's phases directly), and z_c = e^(2 pi i X_c/2^64)
comes from one table evaluator, `_characters`: two 4096-entry tables of
roots of unity on the top 12 and the next 12 bits of X, and the polynomial
1 + i d - d^2/2 in d = 2 pi (X mod 2^40) 2^-64 < 4e-7, whose cut-off is
below 1e-20.  It agrees with the exact value to about 1e-15.  The power
table z_c^a, a = -kmax..kmax (kmax the largest max-norm among the family's
frequencies, 2 for K=33), gives e^(2 pi i k.x) = z_1^k1 z_2^k2.  A plan built
once per family sorts the frequencies: one whose negative came earlier is the
conjugate of that row, filled from it only when the values are read; one on
an axis is a table row; any other is one complex product, 8 per point at
K=33 instead of 16.  Mode values are kept as complex (F, N) arrays, one row
per frequency and contiguous in the points; the real and imaginary parts of
row j are trig modes 2j+1 and 2j+2, the cos and sin of frequency j.
The blocked `weighted_sum` behind `moments` and `invariance_defect` and
the basin kernel's running sums share this evaluator.  Every buffer it
writes lives in a workspace from `zero_sums`, which `accumulate` and
`sum_distances` reuse at every step and the basin kernel across chunks
(`reset`); a workspace belongs to one thread at a time, and each basin
worker process makes its own.

A distance row is formed in that same layout, with no BLAS: the deviations
|u/(2n) + 1/2 - m_i| of the live sums, scaled by the weight of their row's
cos, a power of two and so exactly, fill one contiguous block, a row per
frequency (`_deviations`); `_weighted_sum` adds the rows in halves and then
each sin at half weight onto its cos.  Every pass is elementwise, so a
point's distance is the same bits at any live count, one point included,
and in any column.  `sum_distances` given a list of live columns gathers
them into a C-order block at the start of the deviation buffer and forms
their deviations over it in place, so their distances are those of the
full row.

The basin kernel drops start points that can never again be in a basin,
and forms full distances only for points that can hit.  Every phi_i,
i >= 1, lies in [0, 1], so after n of N steps each mean trig mode lies in a
box of half-width (N - n)/(2N) about 1/2 + u/(2N), u the cos or sin sum;
`box_bound` is the weighted distance from the target to that box over the
first BOUND_MODES modes, `compact` moves the live points into the first
`live` columns of the workspace, and `sum_distances` reads only those.  At
N = n the box is the mean and `box_bound` the distance over those modes
alone, a lower bound on the full distance: the kernel's screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from toruslab.dynamics import (TWO_PI, HyperbolicToralMap, from_phases,
                               to_phases, wrap)

FAMILY_VERSION = "fourier-maxnorm-lex-v1"
DEFAULT_TRUNCATION = 33
ATOM_MERGE_TOL = 1e-12
BOUND_MODES = 8
_PHI_ROWS = 1 << 13


def _unit_circle(turns) -> np.ndarray:
    """e^(2 pi i t) for each t of turns, from cos and sin."""
    return np.array([complex(math.cos(TWO_PI * t), math.sin(TWO_PI * t))
                     for t in turns])


def _roots_of_unity(count: int) -> np.ndarray:
    """e^(2 pi i j/count) for j < count, count a multiple of 8: cos and sin
    on the first octant, where the argument rounds least, and the rest by
    the exact symmetries e^(i(pi/2 - t)) = i conj(e^(it)) and
    e^(i(t + pi/2)) = i e^(it)."""
    e = count // 8
    octant = _unit_circle(j / count for j in range(e + 1))
    quarter = np.concatenate([octant, 1j * octant[e - 1:0:-1].conj()])
    return np.concatenate([quarter, 1j * quarter, -quarter, -1j * quarter])


# e^(2 pi i X/2^64) = _COARSE[X >> 52] _FINE[(X >> 40) & 4095] e^(i d)
_COARSE = _roots_of_unity(4096)
_FINE = _unit_circle(j * 2.0 ** -24 for j in range(4096))
_LOW_BITS = (1 << 40) - 1
_LOW_TURN = TWO_PI * 2.0 ** -64


def _characters(phases, out, index, scratch) -> None:
    """e^(2 pi i X/2^64) for each uint64 phase X into the complex array out,
    as _COARSE[X >> 52] _FINE[(X >> 40) & 4095] (1 + i d - d^2/2) with
    d = 2 pi (X & (2^40 - 1)) 2^-64.  index (uint64) and scratch (complex)
    are buffers of the phases' shape."""
    i = index.view(np.int64)
    np.right_shift(phases, 52, out=index)
    np.take(_COARSE, i, out=out, mode="clip")
    np.right_shift(phases, 40, out=index)
    index &= 4095
    np.take(_FINE, i, out=scratch, mode="clip")
    out *= scratch
    np.bitwise_and(phases, _LOW_BITS, out=index)
    d = scratch.imag
    np.multiply(index, _LOW_TURN, out=d)
    np.multiply(d, d, out=scratch.real)
    scratch.real *= -0.5
    scratch.real += 1.0
    out *= scratch


class FamilyMismatch(ValueError):
    """Moment vectors built from different test families."""


def _enumerate_frequencies(count: int) -> np.ndarray:
    """First `count` nonzero frequency vectors: shells of constant max-norm,
    lexicographic within a shell."""
    vecs = []
    shell = 0
    while len(vecs) < count:
        shell += 1
        ring = [(k1, k2)
                for k1 in range(-shell, shell + 1)
                for k2 in range(-shell, shell + 1)
                if max(abs(k1), abs(k2)) == shell]
        ring.sort()
        vecs.extend(ring)
    return np.array(vecs[:count], dtype=np.int64)


class TestFunctionFamily:
    """Truncated weighted family phi_0..phi_(K-1) with weights 2^-i."""

    def __init__(self, truncation: int = DEFAULT_TRUNCATION):
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        self.truncation = int(truncation)
        self.version = FAMILY_VERSION
        # mode i >= 1 uses frequency vector (i-1)//2; even offset cos, odd sin
        freqs = _enumerate_frequencies(self.truncation // 2).tolist()
        self._nfreq = len(freqs)
        self._kmax = k = max((max(abs(k1), abs(k2)) for k1, k2 in freqs),
                             default=0)
        # the mode plan, in rows of the flattened power table
        # [z_1^-kmax, z_2^-kmax, .., z_1^kmax, z_2^kmax]: a frequency whose
        # negative came earlier is the conjugate of that row (_conj, filled
        # by _fill_conjugates); of the rest, one on an axis is a table row
        # (_axis), the others a product of two (_products).  Entries are
        # (row, source rows).
        index = {(k1, k2): j for j, (k1, k2) in enumerate(freqs)}
        self._conj, self._axis, self._products = [], [], []
        for j, (k1, k2) in enumerate(freqs):
            a, b = 2 * (k1 + k), 2 * (k2 + k) + 1
            partner = index.get((-k1, -k2), j)
            if partner < j:
                self._conj.append((j, partner))
            elif k2 == 0:
                self._axis.append((j, a))
            elif k1 == 0:
                self._axis.append((j, b))
            else:
                self._products.append((j, a, b))
        self.weights = 2.0 ** -np.arange(self.truncation)
        self._bound_modes = min(BOUND_MODES, self.truncation - 1)

    def __eq__(self, other):
        return (isinstance(other, TestFunctionFamily)
                and other.truncation == self.truncation
                and other.version == self.version)

    def __hash__(self):
        return hash((self.truncation, self.version))

    def __repr__(self):
        return f"TestFunctionFamily(K={self.truncation})"

    def _add_modes(self, phases: np.ndarray, ws: "_Workspace") -> None:
        """Add e^(2 pi i k.x) at each of the n points with uint64 phases
        (n, 2) into row k of the workspace sums, for every frequency k of
        the family that is not the conjugate of an earlier one (see
        _fill_conjugates).

        The power table holds z_c^a, a = -kmax..kmax, for both coordinates,
        z_c from `_characters`; a mode on an axis is one of its rows, any
        other mode the product of two.  Every temporary is a workspace
        buffer: the z^-kmax rows, written last, are the evaluator's
        scratch."""
        if not self._nfreq:
            return
        n, k = len(phases), self._kmax
        pw = ws.power[:, :, :n]
        z = pw[k + 1]
        _characters(phases.T, z, ws.index[:, :n], pw[0])
        for a in range(2, k + 1):
            np.multiply(pw[k + a - 1], z, out=pw[k + a])
        # |z| = 1, so z^-a is the conjugate of z^a
        np.conjugate(pw[k + 1:], out=pw[k - 1::-1])
        rows = ws.power.reshape(-1, ws.power.shape[-1])[:, :n]
        sums = ws.sums[:, :n]
        for j, a in self._axis:
            sums[j] += rows[a]
        mode = ws.mode[:n]
        for j, a, b in self._products:
            np.multiply(rows[a], rows[b], out=mode)
            sums[j] += mode

    def _fill_conjugates(self, sums: np.ndarray) -> None:
        """Write each conjugate row of the (F, n) mode sums from its
        partner.  conj(a) conj(b) = conj(ab) and IEEE addition is
        sign-symmetric, so the row equals the sum of its own products."""
        for j, partner in self._conj:
            np.conjugate(sums[partner], out=sums[j])

    def weighted_sum(self, points, weights) -> np.ndarray:
        """sum_i w_i phi(x_i) over the N points, shape (K,).

        Blocks of _PHI_ROWS points reuse one workspace, so memory stays at
        one block for any N; each block adds its weighted mode sum, and a
        trig moment is W/2 plus half the weighted cos or sin sum,
        W = sum_i w_i."""
        p = np.asarray(points, dtype=float)
        w = np.asarray(weights, dtype=float)
        ws = self.zero_sums(min(len(p), _PHI_ROWS))
        acc = np.zeros(self._nfreq, dtype=complex)
        for i in range(0, len(p), _PHI_ROWS):
            rows = p[i:i + _PHI_ROWS]
            block = ws.sums[:, :len(rows)]
            block[...] = 0.0
            self._add_modes(to_phases(rows), ws)
            self._fill_conjugates(block)
            acc += block @ w[i:i + _PHI_ROWS]
        total = float(np.sum(w))
        out = np.empty(self.truncation)
        out[0] = total
        out[1:] = (0.5 * total
                   + 0.5 * acc.view(np.float64)[:self.truncation - 1])
        return out

    def zero_sums(self, npoints: int) -> "_Workspace":
        """A workspace for `accumulate` and `sum_distances` on up to npoints
        points: zeroed complex (F, npoints) running sums, one row per
        frequency, plus every buffer the kernel writes.  One workspace
        serves one thread at a time; nothing in it is shared.  `reset`
        readies it for the next set of points."""
        return _Workspace(self._nfreq, self._kmax, npoints)

    def accumulate(self, points, sums: "_Workspace") -> None:
        """Add e^(2 pi i k.x) at each point, for every frequency k of the
        family, into the running sums of a `zero_sums` workspace in place.
        points are floats or their uint64 phases (`dynamics.to_phases`).
        Conjugate rows are left to `sum_distances`."""
        p = np.asarray(points)
        self._add_modes(p if p.dtype == np.uint64 else to_phases(p), sums)

    def sum_distances(self, sums: "_Workspace", n: int, target,
                      columns=None) -> np.ndarray:
        """dist* from the mean over n accumulated steps to the target moment
        values, one per live point of the workspace `sums`, or, given an
        index array `columns` into the live points, one per listed point, as
        a new array.  Mean phi_0 is exactly 1 and a mean trig mode is
        1/2 + (1/2n) times the summed cos or sin.  Listed columns are
        gathered into a C-order block at the start of the deviation buffer,
        and the deviations are formed over it in place.  The conjugate rows
        are filled first; the terms are formed in the sums' own layout and
        added in an order fixed by K alone (`_deviations`, `_weighted_sum`),
        so a point's distance is the same bits at any live count, in any
        column and listed or not."""
        block = sums.sums[:, :sums.live]
        if columns is not None:
            block = sums.dev[:2 * self._nfreq * len(columns)].view(
                complex).reshape(self._nfreq, len(columns))
            np.take(sums.sums, columns, axis=1, out=block, mode="clip")
        self._fill_conjugates(block)
        dev = self._deviations(block, sums.dev, self.truncation - 1,
                               0.5 / n, target)
        return self._weighted_sum(dev, target)

    def _deviations(self, sums: np.ndarray, out: np.ndarray, modes: int,
                    scale: float, target) -> np.ndarray:
        """w_j |u scale + 1/2 - m_i| for the trig modes i = 1..modes, u the
        cos or sin sum of row j of the complex (F, m) mode sums and
        w_j = 2^-(2j+1) the weight of its cos, as a contiguous float
        (R, 2m) block at the start of the float buffer out, R =
        ceil(modes/2), with each point's cos and sin side by side.  The
        sums may be that same block of out, C-ordered; every pass is
        elementwise, so the deviations then overwrite them in place.  w_j
        is a power of two, so it scales exactly.  A sin past the last mode
        is 0."""
        t = np.asarray(target, dtype=float)
        r, m = (modes + 1) // 2, sums.shape[1]
        w = self.weights[1::2][:r, None]
        off = np.zeros((r, 1), dtype=complex)
        off.view(np.float64).reshape(-1)[:modes] = 0.5 - t[1:modes + 1]
        off *= w
        dev = out[:2 * r * m].reshape(r, 2 * m)
        np.multiply(sums[:r].view(np.float64), scale * w, out=dev)
        dev.view(complex)[...] += off
        np.abs(dev, out=dev)
        if modes % 2:
            dev[-1, 1::2] = 0.0
        return dev

    def _weighted_sum(self, dev: np.ndarray, target) -> np.ndarray:
        """w_0 |1 - m_0| plus the weighted sum of a `_deviations` block, as
        a new array of one value per point.  The last rows are added onto
        the first in halves, and then each point's sin, at half the weight
        of its cos, onto the cos.  Each pass is elementwise, so the order of
        a point's additions depends on the row count alone, never on the
        live count or on where the point lies."""
        r = len(dev)
        while r > 1:
            h = r // 2
            dev[:h] += dev[r - h:r]
            r -= h
        cos, sin = dev[:1, 0::2], dev[:1, 1::2]
        sin *= 0.5
        cos += sin
        base = self.weights[0] * abs(1.0 - float(target[0]))
        return np.add.reduce(cos, axis=0, initial=base)

    def box_bound(self, sums: "_Workspace", n: int, horizon: int,
                  target) -> np.ndarray:
        """A lower bound, per live point of the workspace, on the distance
        after any n' in [n, horizon] steps, given the sums after n, as a
        new array.

        phi_i lies in [0, 1], so the mean of mode i after n' steps lies in
        [S/n', (S + n' - n)/n'], S the phi-sum after n; these boxes grow
        with n', and the one at n' = horizon is centered at 1/2 + u/(2N),
        u the cos or sin sum, with half-width (N - n)/(2N), N = horizon.
        The bound is w_0 |1 - m_0| plus the weighted distance from the
        target to that box over the first BOUND_MODES modes.  At horizon n
        the box is the mean itself, and the bound is the distance over
        those modes: every term of a distance is nonnegative, so it is at
        most the distance at n.  The modes are the cos and sin of the first
        rows of the sums, which are never conjugate rows, so the bound
        reads the running sums as they stand."""
        dev = self._deviations(sums.sums[:, :sums.live], sums.dev,
                               self._bound_modes, 0.5 / horizon, target)
        if horizon > n:
            # each row of the block is weighted, so is its half-width
            half = (horizon - n) / (2 * horizon)
            dev -= half * self.weights[1::2][:len(dev), None]
            np.maximum(dev, 0.0, out=dev)
        return self._weighted_sum(dev, target)

    def box_bound_ceiling(self, ns, horizon: int, target) -> np.ndarray:
        """The largest value `box_bound` can take at each row n of `ns` (a
        number or a sequence): |u| <= n puts each box center at most n/(2N)
        from 1/2."""
        t = np.asarray(target, dtype=float)
        b = self._bound_modes
        n = np.asarray(ns, dtype=float)[..., None]
        reach = np.abs(0.5 - t[1:b + 1]) + (2 * n - horizon) / (2 * horizon)
        return (self.weights[0] * abs(1.0 - t[0])
                + (np.maximum(reach, 0.0) * self.weights[1:b + 1]).sum(-1))

    def compact(self, sums: "_Workspace", live: np.ndarray) -> np.ndarray:
        """Keep the live points where the mask `live` (one entry per live
        point) is true as the first columns of the workspace, and return
        where each came from: kept point k was point order[k].  A dead
        point among the first columns is overwritten by a live one from
        past them, so no more columns move than the fewer of the dead and
        the live points."""
        m = int(np.count_nonzero(live))
        holes = np.flatnonzero(~live[:m])
        order = np.arange(m)
        order[holes] = m + np.flatnonzero(live[m:])
        sums.sums[:, holes] = sums.sums[:, order[holes]]
        sums.live = m
        return order

    def lebesgue_moments(self) -> np.ndarray:
        """Exact integrals: 1 for phi_0, 1/2 for every trig mode."""
        m = np.full(self.truncation, 0.5)
        m[0] = 1.0
        return m


class _Workspace:
    """Buffers of the mode kernel for up to N points: the complex (F, N)
    running sums, the power table (2 kmax + 1, 2, N), one mode row, the
    character evaluator's uint64 (2, N) index buffer and the float
    deviation buffer of 2F N entries that `sum_distances` and `box_bound`
    fill, which also holds the columns `sum_distances` gathers.  The first
    `live` points are the ones those two read; `compact` lowers it and
    `reset` sets it.  Built by `TestFunctionFamily.zero_sums`.
    """

    __slots__ = ("sums", "power", "mode", "index", "dev", "live")

    def __init__(self, nfreq: int, kmax: int, npoints: int):
        self.sums = np.zeros((nfreq, npoints), dtype=complex)
        self.power = np.empty((2 * kmax + 1, 2, npoints), dtype=complex)
        self.power[kmax] = 1.0
        self.mode = np.empty(npoints, dtype=complex)
        self.index = np.empty((2, npoints), dtype=np.uint64)
        self.dev = np.empty(2 * nfreq * npoints)
        self.live = npoints

    def reset(self, npoints: int) -> None:
        """Make the first npoints points live with zero sums, for a new set
        of points."""
        self.sums[:, :npoints] = 0.0
        self.live = npoints


@dataclass(frozen=True)
class MomentVector:
    """Truncated moments m_i = integral of phi_i, tagged with the family."""
    values: np.ndarray
    truncation: int
    version: str = FAMILY_VERSION

    def distance(self, other: "MomentVector") -> float:
        if (self.truncation != other.truncation
                or self.version != other.version):
            raise FamilyMismatch(
                f"K={self.truncation}/{self.version} vs "
                f"K={other.truncation}/{other.version}")
        w = 2.0 ** -np.arange(self.truncation)
        return float(np.abs(self.values - other.values) @ w)


class LebesgueMeasure:
    """Normalized Lebesgue measure; moments are known in closed form."""

    def __repr__(self):
        return "LEBESGUE"


LEBESGUE = LebesgueMeasure()


class DiscreteMeasure:
    """Finitely supported probability measure: atoms (N,2) and weights (N,)."""

    def __init__(self, atoms, weights=None):
        a = np.atleast_2d(np.asarray(atoms, dtype=float))
        if a.size == 0:
            raise ValueError("atom list must be non-empty")
        if not np.all(np.isfinite(a)):
            raise ValueError("atoms must be finite")
        a = wrap(a)
        if weights is None:
            w = np.full(len(a), 1.0 / len(a))
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(a),):
                raise ValueError("weights must match atoms")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
            total = float(w.sum())
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"weights must sum to 1, got {total!r}")
        self.atoms, self.weights = _coalesce(a, w)

    @classmethod
    def dirac(cls, point) -> "DiscreteMeasure":
        return cls(np.asarray(point, dtype=float).reshape(1, 2), np.array([1.0]))

    def __len__(self):
        return len(self.atoms)

    def __repr__(self):
        return f"DiscreteMeasure({len(self)} atoms)"


def _coalesce(atoms: np.ndarray, weights: np.ndarray):
    """Merge atoms closer than ATOM_MERGE_TOL (torus metric, via rounding)."""
    keys = np.round(atoms / ATOM_MERGE_TOL).astype(np.int64)
    # identify 1/tol with 0 across the seam
    span = int(round(1.0 / ATOM_MERGE_TOL))
    keys = np.mod(keys, span)
    uniq, first, inverse = np.unique(keys, axis=0, return_index=True,
                                     return_inverse=True)
    if len(uniq) == len(atoms):
        return atoms, weights
    merged_w = np.zeros(len(uniq))
    np.add.at(merged_w, inverse.ravel(), weights)
    return atoms[first], merged_w


class OrbitMeasure:
    """Empirical measure of one forward orbit: weight 1/L on each point.

    `atoms` holds the L orbit points in orbit order and is never coalesced,
    so every stage can read the measure as a stream: moments in row blocks,
    the unstable integral as one Birkhoff pass, cylinder words from one
    located symbol sequence.  The orbit is generated once, when the measure
    is built; `map` is kept because only along its orbits is the point
    order meaningful.  On a linear map the orbit is kept as its uint64
    `phases` (`map.orbit_phases`) until `atoms` is first read, which
    converts them in place, bit for bit `map.orbit(point, L)`, and sets
    `phases` to None: a stage that reads only the phases never builds the
    float orbit, and the measure holds one orbit array either way.  On a
    nonlinear map `phases` is None.
    """

    def __init__(self, map: HyperbolicToralMap, point, length: int):
        if length < 1:
            raise ValueError("orbit length must be >= 1")
        self.map = map
        self.weights = np.broadcast_to(1.0 / length, (length,))
        if map.is_linear:
            self.phases, self._atoms = map.orbit_phases(point, length), None
        else:
            self.phases, self._atoms = None, map.orbit(point, length)

    @property
    def atoms(self) -> np.ndarray:
        if self.phases is not None:
            self._atoms = from_phases(self.phases,
                                      out=self.phases.view(np.float64))
            self.phases = None
        return self._atoms

    def __len__(self):
        return len(self.weights)

    def __repr__(self):
        return f"OrbitMeasure({len(self)} points)"


MeasureLike = DiscreteMeasure | OrbitMeasure | LebesgueMeasure


def moments(measure: MeasureLike, family: TestFunctionFamily) -> MomentVector:
    """Lebesgue moments in closed form; for atoms, the weighted sum of phi
    in blocks (`TestFunctionFamily.weighted_sum`), so no (N, K) array of
    phi values is built."""
    if isinstance(measure, LebesgueMeasure):
        vals = family.lebesgue_moments()
    elif isinstance(measure, (DiscreteMeasure, OrbitMeasure)):
        vals = family.weighted_sum(measure.atoms, measure.weights)
    else:
        raise TypeError(f"unsupported measure {type(measure).__name__}")
    return MomentVector(values=vals, truncation=family.truncation,
                        version=family.version)


def weak_star_distance(mu: MeasureLike, nu: MeasureLike,
                       family: TestFunctionFamily) -> float:
    """dist*(mu, nu) = sum_i 2^-i |m_i(mu) - m_i(nu)|, bounded by 2."""
    return moments(mu, family).distance(moments(nu, family))


def invariance_defect(map: HyperbolicToralMap, point, n: int,
                      family: TestFunctionFamily) -> float:
    """dist* between the time-n empirical measure and its pushforward.

    The pushforward of the empirical measure of x is the empirical measure of
    f(x), so both moment vectors are sums over one orbit x_0..x_n.  They
    differ only in the endpoint terms, (phi(x_0) - phi(x_n))/n, which bounds
    the result by 2/n; only those two points are evaluated, each as a
    one-point `weighted_sum`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    first, last = (family.weighted_sum(p, [1.0])
                   for p in map.orbit(point, n + 1)[[0, n], None])
    return float(np.abs(first - last) / n @ family.weights)
