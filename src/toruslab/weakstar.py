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

Every mode is evaluated without a trig call per frequency: with
z_c = e^(2 pi i x_c) from one complex exponential per coordinate, the power
table z_c^a, a = -kmax..kmax (kmax the largest max-norm among the family's
frequencies, 2 for K=33), gives e^(2 pi i k.x) = z_1^k1 z_2^k2.  A plan built
once per family sorts the frequencies: one whose negative came earlier is the
conjugate of that row, filled from it only when the values are read; one on
an axis is a table row; any other is one complex product, 8 per point at
K=33 instead of 16.  Mode values are kept as complex (F, N) arrays, one row
per frequency and contiguous in the points.  Transposed to (N, F) and viewed
as float64, each point's row reads cos, sin, cos, sin, ... in the family's
mode order, so its first K-1 entries are the trig modes for odd and even K
alike.  `phi_values`, the blocked `weighted_sum` behind `moments` and the
basin kernel's running sums share this evaluator.  Every buffer it writes
lives in a workspace from `zero_sums`, which `accumulate` and
`sum_distances` reuse at every step; a workspace belongs to one thread.

The basin kernel drops start points that can never again be in a basin.
Every phi_i, i >= 1, lies in [0, 1], so after n of N steps each mean trig
mode lies in a box of half-width (N - n)/(2N) about 1/2 + u/(2N), u the cos
or sin sum; `box_bound` is the weighted distance from the target to that box
over the first BOUND_MODES modes, `compact` moves the live points into the
first `live` columns of the workspace, and `sum_distances` reads only those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from toruslab.dynamics import TWO_PI, HyperbolicToralMap, wrap

FAMILY_VERSION = "fourier-maxnorm-lex-v1"
DEFAULT_TRUNCATION = 33
ATOM_MERGE_TOL = 1e-12
BOUND_MODES = 8
_PHI_ROWS = 1 << 13
# BLAS gemv kernels take rows in blocks and round a short tail differently
_GEMV_BLOCK = 16


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
        # [z_1^-kmax .. z_1^kmax, z_2^-kmax .. z_2^kmax]: a frequency whose
        # negative came earlier is the conjugate of that row (_conj, filled
        # by _fill_conjugates); of the rest, one on an axis is a table row
        # (_axis), the others a product of two (_products).  Entries are
        # (row, source rows).
        index = {(k1, k2): j for j, (k1, k2) in enumerate(freqs)}
        self._conj, self._axis, self._products = [], [], []
        for j, (k1, k2) in enumerate(freqs):
            a, b = k1 + k, k2 + 3 * k + 1
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

    def __eq__(self, other):
        return (isinstance(other, TestFunctionFamily)
                and other.truncation == self.truncation
                and other.version == self.version)

    def __hash__(self):
        return hash((self.truncation, self.version))

    def __repr__(self):
        return f"TestFunctionFamily(K={self.truncation})"

    def _add_modes(self, p: np.ndarray, ws: "_Workspace") -> None:
        """Add e^(2 pi i k.x) at each of the n points p into row k of the
        workspace sums, for every frequency k of the family that is not the
        conjugate of an earlier one (see _fill_conjugates).

        The power table holds z_c^a, a = -kmax..kmax, for both coordinates;
        a mode on an axis is one of its rows, any other mode the product of
        two.  Every temporary is a workspace buffer."""
        if not self._nfreq:
            return
        n, k = len(p), self._kmax
        pw = ws.power[:, :, :n]
        z = pw[:, k + 1]
        np.multiply(p.T, 1j * TWO_PI, out=z)
        np.exp(z, out=z)
        for a in range(2, k + 1):
            np.multiply(pw[:, k + a - 1], z, out=pw[:, k + a])
        # |z| = 1, so z^-a is the conjugate of z^a
        np.conjugate(pw[:, k + 1:], out=pw[:, k - 1::-1])
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

    def _trig_modes(self, ws: "_Workspace", n: int) -> np.ndarray:
        """The first n points' mode sums as (n, K-1) floats in mode order:
        the conjugate rows are filled and the sums transposed into the
        workspace's (N, F) buffer, a row of which, viewed as float64, reads
        cos, sin, cos, sin, ..."""
        sums = ws.sums[:, :n]
        self._fill_conjugates(sums)
        trans = ws.trans[:n]
        np.copyto(trans, sums.T)
        return trans.view(np.float64)[:, :self.truncation - 1]

    def phi_values(self, points) -> np.ndarray:
        """phi_i at each point, shape (N, K)."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((p.shape[0], self.truncation))
        out[:, 0] = 1.0
        # row blocks keep the complex temporaries cache-sized on long atom
        # lists; the output is the only array of full length
        ws = self.zero_sums(min(len(p), _PHI_ROWS))
        for i in range(0, len(p), _PHI_ROWS):
            rows = p[i:i + _PHI_ROWS]
            ws.sums[...] = 0.0
            self._add_modes(rows, ws)
            block = out[i:i + _PHI_ROWS, 1:]
            np.multiply(self._trig_modes(ws, len(rows)), 0.5, out=block)
            block += 0.5
        return out

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
            self._add_modes(rows, ws)
            self._fill_conjugates(block)
            acc += block @ w[i:i + _PHI_ROWS]
        total = float(np.sum(w))
        out = np.empty(self.truncation)
        out[0] = total
        out[1:] = (0.5 * total
                   + 0.5 * acc.view(np.float64)[:self.truncation - 1])
        return out

    def zero_sums(self, npoints: int) -> "_Workspace":
        """A workspace for `accumulate` and `sum_distances` on npoints
        points: zeroed complex (F, npoints) running sums, one row per
        frequency, plus every buffer the kernel writes.  One workspace
        serves one thread; nothing in it is shared."""
        return _Workspace(self._nfreq, self._kmax, npoints)

    def accumulate(self, points, sums: "_Workspace") -> None:
        """Add e^(2 pi i k.x) at each point, for every frequency k of the
        family, into the running sums of a `zero_sums` workspace in place.
        Conjugate rows are left to `sum_distances`."""
        self._add_modes(np.asarray(points, dtype=float), sums)

    def sum_distances(self, sums: "_Workspace", n: int,
                      target) -> np.ndarray:
        """dist* from the mean over n accumulated steps to the target moment
        values, one per live point of the workspace `sums`.  Mean phi_0 is
        exactly 1 and a mean trig mode is 1/2 + (1/2n) times the summed cos
        or sin.  The result is a view of the workspace's distance vector,
        overwritten by the next call.

        The row is formed over the live count rounded up to _GEMV_BLOCK
        (the columns past it hold zeros or the sums of dropped points), so
        the BLAS kernel takes every live row in a full block and a point's
        distance is the same at any live count and chunk size."""
        t = np.asarray(target, dtype=float)
        m = sums.live
        rows = _padded(m)
        dev = self._trig_modes(sums, rows)
        dev *= 0.5 / n
        dev += 0.5
        dev -= t[1:]
        np.abs(dev, out=dev)
        np.matmul(dev, self.weights[1:], out=sums.dist[:rows])
        dist = sums.dist[:m]
        dist += self.weights[0] * abs(1.0 - t[0])
        return dist

    def _bound_terms(self, target):
        """What `box_bound` needs of the target: the offsets 1/2 - m_i and
        weights w_i of the first BOUND_MODES trig modes as (2R, 1) and (2R,)
        arrays in the order of the float view of R mode-sum rows (a slot
        past the family's last mode has weight 0), and w_0 |1 - m_0|."""
        t = np.asarray(target, dtype=float)
        b = min(BOUND_MODES, self.truncation - 1)
        off = np.zeros(b + b % 2)
        w = np.zeros(b + b % 2)
        off[:b] = 0.5 - t[1:b + 1]
        w[:b] = self.weights[1:b + 1]
        return off[:, None], w, self.weights[0] * abs(1.0 - t[0])

    def box_bound(self, sums: "_Workspace", n: int, horizon: int,
                  target) -> np.ndarray:
        """A lower bound, per live point of the workspace, on the distance
        after any n' in (n, horizon] steps, given the sums after n.

        phi_i lies in [0, 1], so the mean of mode i after n' steps lies in
        [S/n', (S + n' - n)/n'], S the phi-sum after n; these boxes grow
        with n', and the one at n' = horizon is centered at 1/2 + u/(2N),
        u the cos or sin sum, with half-width (N - n)/(2N), N = horizon.
        The bound is w_0 |1 - m_0| plus the weighted distance from the
        target to that box over the first BOUND_MODES modes.  Those are the
        cos and sin of the first rows of the sums, which are never conjugate
        rows, so the bound reads the running sums as they stand.

        The work is done in the transposed-sums and mode buffers, which the
        kernel has touched already, so no fresh pages are faulted in; the
        result is a view of the mode buffer, overwritten by the next
        `accumulate` or `box_bound`."""
        off, w, base = self._bound_terms(target)
        m = sums.live
        rows = sums.sums[:len(off) // 2, :m]
        box = sums.trans.view(np.float64).reshape(-1)[:len(off) * m]
        box = box.reshape(len(off), m)
        np.multiply(rows.real, 0.5 / horizon, out=box[0::2])
        np.multiply(rows.imag, 0.5 / horizon, out=box[1::2])
        box += off
        np.abs(box, out=box)
        box -= (horizon - n) / (2 * horizon)
        np.maximum(box, 0.0, out=box)
        bound = sums.mode.view(np.float64)[:m]
        np.matmul(w, box, out=bound)
        bound += base
        return bound

    def box_bound_ceiling(self, ns, horizon: int, target) -> np.ndarray:
        """The largest value `box_bound` can take at each row n of `ns` (a
        number or a sequence): |u| <= n puts each box center at most n/(2N)
        from 1/2."""
        off, w, base = self._bound_terms(target)
        n = np.asarray(ns, dtype=float)[..., None]
        reach = np.abs(off[:, 0]) + (2 * n - horizon) / (2 * horizon)
        return base + np.maximum(reach, 0.0) @ w

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


def _padded(npoints: int) -> int:
    return -(-npoints // _GEMV_BLOCK) * _GEMV_BLOCK


class _Workspace:
    """Buffers of the mode kernel for up to N points: the complex (F, N)
    running sums, the power table (2, 2 kmax + 1, N), whose z^1 rows also
    hold the exponential's argument, one mode row, the (N, F) transposed
    sums and the distance vector.  The sums, the transposed sums and the
    distances have N rounded up to _GEMV_BLOCK points (see
    `sum_distances`).  The first `live` points are the ones `sum_distances`
    and `box_bound` read; `compact` lowers it.  Built by
    `TestFunctionFamily.zero_sums`.
    """

    __slots__ = ("sums", "power", "mode", "trans", "dist", "live")

    def __init__(self, nfreq: int, kmax: int, npoints: int):
        self.sums = np.zeros((nfreq, _padded(npoints)), dtype=complex)
        self.power = np.empty((2, 2 * kmax + 1, npoints), dtype=complex)
        self.power[:, kmax] = 1.0
        self.mode = np.empty(npoints, dtype=complex)
        self.trans = np.empty((_padded(npoints), nfreq), dtype=complex)
        self.dist = np.empty(_padded(npoints))
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
    located symbol sequence.  The orbit is generated once, by `map.orbit`,
    when the measure is built; `map` is kept because only along its orbits
    is the point order meaningful.
    """

    def __init__(self, map: HyperbolicToralMap, point, length: int):
        if length < 1:
            raise ValueError("orbit length must be >= 1")
        self.map = map
        self.atoms = map.orbit(point, length)
        self.weights = np.broadcast_to(1.0 / length, (length,))

    def __len__(self):
        return len(self.atoms)

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
    the result by 2/n; only those two points are evaluated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    first, last = family.phi_values(map.orbit(point, n + 1)[[0, n]])
    return float(np.abs(first - last) / n @ family.weights)
