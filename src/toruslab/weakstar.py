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
frequencies, 2 for K=33), gives e^(2 pi i k.x) = z_1^k1 z_2^k2 as one complex
product per frequency.  Mode values are kept as complex (F, N) arrays, one
row per frequency and contiguous in the points.  Transposed to (N, F) and
viewed as float64, each point's row reads cos, sin, cos, sin, ... in the
family's mode order, so its first K-1 entries are the trig modes for odd and
even K alike.  `phi_values`, the blocked `weighted_sum` behind `moments` and
the basin kernel's running sums (`zero_sums`, `accumulate`, `sum_distances`)
share this evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from toruslab.dynamics import TWO_PI, HyperbolicToralMap, wrap

FAMILY_VERSION = "fourier-maxnorm-lex-v1"
DEFAULT_TRUNCATION = 33
ATOM_MERGE_TOL = 1e-12
_PHI_ROWS = 1 << 13


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
        freqs = _enumerate_frequencies(self.truncation // 2)
        self._kmax = int(np.abs(freqs).max(initial=0))
        # columns of each frequency's two factors in the flattened power
        # table [z_1^-kmax .. z_1^kmax, z_2^-kmax .. z_2^kmax]
        self._pairs = [(k1 + self._kmax, k2 + 3 * self._kmax + 1)
                       for k1, k2 in freqs.tolist()]
        self.weights = 2.0 ** -np.arange(self.truncation)

    def __eq__(self, other):
        return (isinstance(other, TestFunctionFamily)
                and other.truncation == self.truncation
                and other.version == self.version)

    def __hash__(self):
        return hash((self.truncation, self.version))

    def __repr__(self):
        return f"TestFunctionFamily(K={self.truncation})"

    def tail_bound(self) -> float:
        return 2.0 ** (1 - self.truncation)

    def _add_modes(self, p: np.ndarray, sums: np.ndarray) -> None:
        """Add e^(2 pi i k.x) at each of the N points p, for every frequency
        k of the family, into the row for k of the complex (F, N) `sums`.

        The power table holds z_c^a, a = -kmax..kmax, for both coordinates;
        each mode is one product of two of its rows.  Rows are contiguous in
        the points, and the temporaries are the table plus one row."""
        if not self._pairs:
            return
        k = self._kmax
        pw = np.empty((2, 2 * k + 1, len(p)), dtype=complex)
        np.exp(p.T * (1j * TWO_PI), out=pw[:, k + 1])
        pw[:, k] = 1.0
        for a in range(2, k + 1):
            np.multiply(pw[:, k + a - 1], pw[:, k + 1], out=pw[:, k + a])
        # |z| = 1, so z^-a is the conjugate of z^a
        np.conjugate(pw[:, k + 1:], out=pw[:, k - 1::-1])
        pw = pw.reshape(-1, len(p))
        mode = np.empty(len(p), dtype=complex)
        for j, (a, b) in enumerate(self._pairs):
            np.multiply(pw[a], pw[b], out=mode)
            sums[j] += mode

    def _trig_modes(self, sums: np.ndarray) -> np.ndarray:
        """The complex (F, N) sums as (N, K-1) floats in mode order: a row of
        the transposed sums viewed as float64 reads cos, sin, cos, sin, ..."""
        return (np.ascontiguousarray(sums.T).view(np.float64)
                [:, :self.truncation - 1])

    def phi_values(self, points) -> np.ndarray:
        """phi_i at each point, shape (N, K)."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((p.shape[0], self.truncation))
        out[:, 0] = 1.0
        # row blocks keep the complex temporaries cache-sized on long atom
        # lists; the output is the only array of full length
        for i in range(0, len(p), _PHI_ROWS):
            rows = p[i:i + _PHI_ROWS]
            modes = self.zero_sums(len(rows))
            self._add_modes(rows, modes)
            block = out[i:i + _PHI_ROWS, 1:]
            np.multiply(self._trig_modes(modes), 0.5, out=block)
            block += 0.5
        return out

    def weighted_sum(self, points, weights) -> np.ndarray:
        """sum_i w_i phi(x_i) over the N points, shape (K,).

        Blocks of _PHI_ROWS points reuse one complex (F, block) array of
        mode values, so memory stays at one block for any N; each block
        adds its weighted mode sum, and a trig moment is W/2 plus half the
        weighted cos or sin sum, W = sum_i w_i."""
        p = np.asarray(points, dtype=float)
        w = np.asarray(weights, dtype=float)
        modes = self.zero_sums(min(len(p), _PHI_ROWS))
        acc = np.zeros(len(self._pairs), dtype=complex)
        for i in range(0, len(p), _PHI_ROWS):
            rows = p[i:i + _PHI_ROWS]
            block = modes[:, :len(rows)]
            block[...] = 0.0
            self._add_modes(rows, block)
            acc += block @ w[i:i + _PHI_ROWS]
        total = float(np.sum(w))
        out = np.empty(self.truncation)
        out[0] = total
        out[1:] = 0.5 * total + 0.5 * self._trig_modes(acc[:, None])[0]
        return out

    def zero_sums(self, npoints: int) -> np.ndarray:
        """Empty running sums for `accumulate`: complex (F, npoints), one
        row per frequency."""
        return np.zeros((len(self._pairs), npoints), dtype=complex)

    def accumulate(self, points, sums) -> None:
        """Add e^(2 pi i k.x) at each point, for every frequency k of the
        family, into the running sums from `zero_sums` in place."""
        self._add_modes(np.asarray(points, dtype=float), sums)

    def sum_distances(self, sums, n: int, target) -> np.ndarray:
        """dist* from the mean over n accumulated steps to the target moment
        values, one per point of `sums`.  Mean phi_0 is exactly 1 and a mean
        trig mode is 1/2 + (1/2n) times the summed cos or sin."""
        t = np.asarray(target, dtype=float)
        dev = self._trig_modes(sums) * (0.5 / n)
        dev += 0.5
        dev -= t[1:]
        np.abs(dev, out=dev)
        return dev @ self.weights[1:] + self.weights[0] * abs(1.0 - t[0])

    def lebesgue_moments(self) -> np.ndarray:
        """Exact integrals: 1 for phi_0, 1/2 for every trig mode."""
        m = np.full(self.truncation, 0.5)
        m[0] = 1.0
        return m


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
        a = wrap(a)
        if weights is None:
            w = np.full(len(a), 1.0 / len(a))
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(a),):
                raise ValueError("weights must match atoms")
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
    f(x), so both moment vectors come from one orbit of length n+1.  The two
    sums differ only in the endpoint terms, which bounds the result by 2/n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    orbit = map.orbit(point, n + 1)
    phis = family.phi_values(orbit)
    m_here = phis[:n].sum(axis=0) / n
    m_next = phis[1:].sum(axis=0) / n
    return float(np.abs(m_here - m_next) @ family.weights)
