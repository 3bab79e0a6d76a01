"""Adler-Weiss Markov partition of the cat map and cylinder statistics.

The partition is the classical net construction for [[2,1],[1,1]]: the
boundary consists of one segment of the unstable eigenline through the origin
and one of the stable eigenline, with golden-ratio extents chosen so that
every segment endpoint lands back on the other segment modulo Z^2.  The
complement falls into five rectangles whose sides are parallel to the
eigendirections; side lengths are the two golden lengths q = g/sqrt(2-g) and
r = g*q where g = (sqrt(5)-1)/2.

The construction is self-checking: tiling (areas sum to 1), the geometric
Markov property (images cross partition rectangles in single full-width
unstable stripes), invariance of the boundary net under the map, and the
subshift spectral radius (3+sqrt(5))/2 are all verified before the partition
is returned, along with a torus-diameter gate on the pieces.  Because every
image stripe is a single crossing, depth-n cylinders correspond one-to-one to
admissible symbol words and their number can be counted exactly by
transition-matrix powers.

The two sampled checks, piece diameters and boundary invariance, are one
question: the max over sample points of the distance to the nearest lattice
translate of a set of axis-aligned segments (a lattice point is a zero-length
segment).  `_max_min_distance` answers it in blocks of samples, evaluating for
each block only the translates that can be nearest to it by a box bound, and
its result equals the all-translates loop exactly.

`locate` reads most points' symbols from a table over a 128 x 128 grid of
cells of [0,1)^2.  A cell carries a symbol only when its frame box, widened by
_CELL_MARGIN = 1e-9, meets exactly one listed piece translate and lies inside
it, so the table gives the symbol the piece scan `_locate_chunk` would give.
Points in unlabelled cells (about 5% of the square), outside [0,1)^2 or not
finite go to the scan, the one exact point-in-piece test, so the lowest-index
tie-break and LocationFailure are the scan's.  `locate` also takes a linear
map's uint64 phases (`dynamics.to_phases`): the cell of a phase pair is the
top 7 bits of each phase, and only the phases in unlabelled cells are
converted (`from_phases`) and scanned.  That gives the symbol of the
converted point: a phase just below c 2^57 may round up to the double
c/128, the edge of the next cell, but that edge lies in the closed box of
the phase's own cell, and the scan gives every point of a labelled cell's
closed box its label; so the next cell, if labelled, carries the same one.

`entropy_tables` walks and locates a cylinder source (orbit measure, grid or
atoms) once and reduces its symbols to tables of sorted int64 base-k word
codes with int64 counts, every table over one start set.  A linear map's
source is walked as uint64 phases, a true orbit, and never as floats: an
orbit measure's `phases`, and a grid's or atoms' phases stepped by `step`.
It builds the deepest codes with one multiply-add per depth, in int32 when
k^depth fits, sorts them once, and takes every shallower table as a
marginal.  That is exact because cylinder tables built from a common start
set are shift-consistent: marginalizing a depth-n table over its last
symbol reproduces the depth-(n-1) table.  Words are
decoded to tuples only on request (`CylinderTable.words`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from toruslab.dynamics import HyperbolicToralMap, from_phases, to_phases, wrap
from toruslab.weakstar import DiscreteMeasure, OrbitMeasure
from toruslab.basin import SampleGrid

CAT_MATRIX = ((2, 1), (1, 1))
SPECTRAL_RADIUS_TOL = 1e-6
AREA_TOL = 1e-9
BOUNDARY_TOL = 1e-9
LOCATE_TOL = 1e-12
# expansivity-scale gate on piece size, measured as torus diameter; the
# five-rectangle net tops out at 0.588
DIAMETER_GATE = 0.6
ADEQUACY_FACTOR = 10
_LOCATE_CHUNK = 1 << 20
# side of the cell table over [0,1)^2 that `locate` reads before scanning; a
# power of two, so the cell index of a point is exact and that of a uint64
# phase is its top _CELL_BITS bits
_CELL_BITS = 7
_CELLS = 1 << _CELL_BITS
# a cell is labelled only if its frame box, widened by this much, meets one
# listed translate and lies inside it
_CELL_MARGIN = 1e-9
# side of the square sample tiles of the nearest-translate kernel; 1-d samples
# go in runs of _TILE**2
_TILE = 16
# pruning margin of the nearest-translate kernel: its bounds and distances
# are rounded, so a segment within this much of a bound is kept
_PRUNE_SLACK = 1e-9


class ConstructionInvalid(RuntimeError):
    """Partition failed its construction-time self-checks."""


class LocationFailure(RuntimeError):
    """A point was not claimed by any partition piece."""


class InsufficientSamples(RuntimeError):
    """No requested depth meets the sample-adequacy rule."""


CylinderSource = OrbitMeasure | SampleGrid | DiscreteMeasure


class MarkovPartition:
    """Five-rectangle Markov partition for the linear cat map.

    boxes: the rectangles as intervals in unstable/stable coordinates;
    transition: 0/1 admissibility matrix of symbol pairs.
    """

    def __init__(self):
        s5 = math.sqrt(5.0)
        g = (s5 - 1.0) / 2.0
        nrm = math.sqrt(2.0 - g)
        self._frame = np.array([[1.0, g], [-g, 1.0]]) / nrm  # rows u_hat, s_hat
        q = g / nrm
        r = (1.0 - g) / nrm
        p = q + r
        # (xi0, xi1, eta0, eta1); index order fixes the symbol alphabet
        self.boxes = [
            (0.0, q, 0.0, q),
            (r, p, -q, 0.0),
            (0.0, r, -q, 0.0),
            (p, p + q, 0.0, r),
            (q, p, 0.0, r),
        ]
        self.k = len(self.boxes)
        self.expansion = (3.0 + s5) / 2.0
        self._lattice = self._lattice_vectors(4)
        self._map = HyperbolicToralMap(CAT_MATRIX)
        self._piece_offsets = self._compute_offsets()
        self.transition = self._transition_matrix()
        self.max_diameter = max(self._torus_diameter(b) for b in self.boxes)
        self._cells = self._cell_table()
        self._validate()

    # -- geometry helpers ----------------------------------------------------

    def _lattice_vectors(self, reach: int) -> np.ndarray:
        basis = self._frame @ np.eye(2)
        out = []
        for m in range(-reach, reach + 1):
            for n in range(-reach, reach + 1):
                out.append(m * basis[:, 0] + n * basis[:, 1])
        return np.array(out)

    def to_frame(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self._frame.T

    def from_frame(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(coords, dtype=float) @ self._frame

    def _compute_offsets(self) -> list[np.ndarray]:
        """Per piece: lattice offsets whose translate can meet the image of
        the unit square in frame coordinates."""
        corners = self.to_frame(np.array([[0.0, 0.0], [1.0, 0.0],
                                          [0.0, 1.0], [1.0, 1.0]]))
        lo = corners.min(axis=0) - 0.1
        hi = corners.max(axis=0) + 0.1
        out = []
        for (x0, x1, e0, e1) in self.boxes:
            keep = []
            for gvec in self._lattice:
                if (x1 + gvec[0] >= lo[0] and x0 + gvec[0] <= hi[0]
                        and e1 + gvec[1] >= lo[1] and e0 + gvec[1] <= hi[1]):
                    keep.append(gvec)
            out.append(np.array(keep))
        return out

    def _cell_table(self) -> np.ndarray:
        """Flat int8 table over the _CELLS x _CELLS grid of [0,1)^2, cell
        (a, b) at a*_CELLS + b: the symbol the scan gives every point of the
        cell, or -1 where the cell is not safely inside one piece.

        A cell is labelled when its bounding box in frame coordinates (from
        its corners), widened by _CELL_MARGIN, meets exactly one listed
        translate and lies inside it.  The margin dwarfs LOCATE_TOL and the
        rounding of `to_frame`, so the scan claims every point of a labelled
        cell for that translate's piece and for no other translate.
        """
        ticks = np.arange(_CELLS + 1) / _CELLS
        corners = self.to_frame(np.stack(np.meshgrid(ticks, ticks,
                                                     indexing="ij"), axis=-1))
        quad = np.stack([corners[:-1, :-1], corners[1:, :-1],
                         corners[:-1, 1:], corners[1:, 1:]])
        # one contiguous row per frame axis
        lo_u, lo_s = quad.min(axis=0).reshape(-1, 2).T.copy() - _CELL_MARGIN
        hi_u, hi_s = quad.max(axis=0).reshape(-1, 2).T.copy() + _CELL_MARGIN
        # every listed translate as (xi0, xi1, eta0, eta1), with its piece
        piece = np.concatenate([np.full(len(o), j)
                                for j, o in enumerate(self._piece_offsets)])
        off = np.concatenate(self._piece_offsets)
        x0, x1, e0, e1 = (np.array(self.boxes)[piece] + off[:, [0, 0, 1, 1]]).T
        # meets[t, c]: translate t meets the widened box of cell c
        meets = lo_u <= x1[:, None]
        meets &= hi_u >= x0[:, None]
        meets &= lo_s <= e1[:, None]
        meets &= hi_s >= e0[:, None]
        t = meets.argmax(axis=0)
        ok = ((np.count_nonzero(meets, axis=0) == 1)
              & (lo_u >= x0[t]) & (hi_u <= x1[t])
              & (lo_s >= e0[t]) & (hi_s <= e1[t]))
        return np.where(ok, piece[t], -1).astype(np.int8)

    def _transition_matrix(self) -> np.ndarray:
        """Pair admissibility from exact interval geometry of the images.

        Raises if any image fails to cross a rectangle as one full-width
        unstable stripe (the property that makes words countable by matrix
        powers).
        """
        lam = self.expansion
        M = np.zeros((self.k, self.k), dtype=np.int64)
        for i, (x0, x1, e0, e1) in enumerate(self.boxes):
            ix0, ix1 = lam * x0, lam * x1
            ie0, ie1 = e0 / lam, e1 / lam
            for j, (y0, y1, f0, f1) in enumerate(self.boxes):
                crossings = 0
                for gvec in self._lattice:
                    ox0 = max(ix0, y0 + gvec[0])
                    ox1 = min(ix1, y1 + gvec[0])
                    oy0 = max(ie0, f0 + gvec[1])
                    oy1 = min(ie1, f1 + gvec[1])
                    if ox1 - ox0 < 1e-12 or oy1 - oy0 < 1e-12:
                        continue
                    crossings += 1
                    full_u = (abs(ox0 - (y0 + gvec[0])) < 1e-9
                              and abs(ox1 - (y1 + gvec[0])) < 1e-9)
                    full_s = (abs(oy0 - ie0) < 1e-9 and abs(oy1 - ie1) < 1e-9)
                    if not (full_u and full_s):
                        raise ConstructionInvalid(
                            f"image of piece {i} crosses piece {j} partially")
                if crossings > 1:
                    raise ConstructionInvalid(
                        f"image of piece {i} crosses piece {j} "
                        f"{crossings} times")
                M[i, j] = 1 if crossings else 0
        return M

    def _torus_diameter(self, box, samples: int = 401) -> float:
        du = box[1] - box[0]
        ds = box[3] - box[2]
        # the samples x samples grid in square tiles: tile (I, J) holds the
        # points aa[I] x bb[J]
        aa = np.linspace(-du, du, samples)[_runs(samples, _TILE)]
        bb = np.linspace(-ds, ds, samples)[_runs(samples, _TILE)]
        tiles = (len(aa), len(bb), _TILE, _TILE)
        perp = np.broadcast_to(aa[:, None, :, None], tiles)
        par = np.broadcast_to(bb[None, :, None, :], tiles)
        # a lattice point is a zero-length segment
        zero = np.zeros(len(self._lattice))
        return _max_min_distance(perp.reshape(-1, _TILE * _TILE),
                                 par.reshape(-1, _TILE * _TILE),
                                 self._lattice[:, 0], self._lattice[:, 1],
                                 zero, zero)

    # -- validation ----------------------------------------------------------

    def _validate(self):
        areas = [(b[1] - b[0]) * (b[3] - b[2]) for b in self.boxes]
        if abs(sum(areas) - 1.0) > AREA_TOL:
            raise ConstructionInvalid(f"piece areas sum to {sum(areas)!r}")
        self.areas = areas
        if self.max_diameter >= DIAMETER_GATE:
            raise ConstructionInvalid(
                f"piece torus diameter {self.max_diameter:.4f} exceeds "
                f"gate {DIAMETER_GATE}")
        rho = float(max(abs(np.linalg.eigvals(self.transition))))
        if abs(rho - self.expansion) > SPECTRAL_RADIUS_TOL:
            raise ConstructionInvalid(
                f"transition spectral radius {rho!r} != {self.expansion!r}")
        self.validate_markov_boundary(1000)
        # every point of a probe grid must be claimed by some piece
        probe = SampleGrid(resolution=64).chunk(0, 64 * 64)
        locate(self, probe)

    def validate_markov_boundary(self, samples_per_edge: int = 1000) -> float:
        """Re-assert the boundary conditions by sampling.

        Points on stable (vertical, in frame coordinates) edges must map into
        the union of stable edges; unstable edges must pull back into
        unstable edges.  Returns the worst observed defect and raises
        ConstructionInvalid above BOUNDARY_TOL, naming the piece and the wall
        (x0, x1 stable; e0, e1 unstable) whose image is worst.
        """
        worst, where = 0.0, ""
        t = np.linspace(0.0, 1.0, samples_per_edge)
        for i, (x0, x1, e0, e1) in enumerate(self.boxes):
            for name, xw in (("x0", x0), ("x1", x1)):
                pts = np.column_stack([np.full_like(t, xw),
                                       e0 + (e1 - e0) * t])
                img = self.to_frame(self._map.step(wrap(self.from_frame(pts))))
                defect = self._dist_to_edges(img, stable=True)
                if defect > worst:
                    worst, where = defect, f"piece {i} wall {name}"
            for name, ew in (("e0", e0), ("e1", e1)):
                pts = np.column_stack([x0 + (x1 - x0) * t,
                                       np.full_like(t, ew)])
                img = self.to_frame(
                    self._map.step_inverse(wrap(self.from_frame(pts))))
                defect = self._dist_to_edges(img, stable=False)
                if defect > worst:
                    worst, where = defect, f"piece {i} wall {name}"
        if worst > BOUNDARY_TOL:
            raise ConstructionInvalid(
                f"boundary net is not invariant: defect {worst:.3e} in the "
                f"image of {where}")
        return worst

    def _dist_to_edges(self, coords: np.ndarray, stable: bool) -> float:
        """Max over coords of the distance to the nearest translate of a
        stable (vertical) or unstable (horizontal) partition wall."""
        ax = 0 if stable else 1  # the frame axis across the walls
        walls = []  # (position across, along-range start, end)
        for (x0, x1, e0, e1) in self.boxes:
            walls += ([(x0, e0, e1), (x1, e0, e1)] if stable
                      else [(e0, x0, x1), (e1, x0, x1)])
        walls = np.array(walls)
        n = len(self._lattice)
        W = (walls[:, :1] + self._lattice[:, ax]).ravel()
        G = np.tile(self._lattice[:, 1 - ax], len(walls))
        rows = _runs(len(coords), _TILE * _TILE)
        return _max_min_distance(coords[rows, ax], coords[rows, 1 - ax], W, G,
                                 np.repeat(walls[:, 1], n),
                                 np.repeat(walls[:, 2], n))


def _runs(n: int, size: int) -> np.ndarray:
    """Indices 0..n-1 in rows of `size`.  The last row is padded with n-1:
    a repeated sample leaves every max over samples unchanged."""
    return np.minimum(np.arange(-(-n // size) * size), n - 1).reshape(-1, size)


def _max_min_distance(perp: np.ndarray, par: np.ndarray, W: np.ndarray,
                      G: np.ndarray, A0: np.ndarray, A1: np.ndarray) -> float:
    """Max over sample points of the distance to the nearest of a set of
    axis-aligned segments.

    Samples are the rows of (perp, par), one block per row; segment j is the
    points (W[j], G[j] + a) for a in [A0[j], A1[j]].  Each block evaluates only
    the segments whose distance to its bounding box is within _PRUNE_SLACK of
    the block's upper bound (the least farthest-corner distance), and blocks
    are taken by decreasing upper bound until none can raise the maximum.
    Every evaluated distance is the one the all-segments loop computes, and a
    segment that is nearest to some sample is never skipped, so the result
    equals the all-segments value exactly.
    """
    pmin, pmax = perp.min(axis=1)[:, None], perp.max(axis=1)[:, None]
    qmin, qmax = par.min(axis=1)[:, None], par.max(axis=1)[:, None]
    # a segment beyond reach of the box around all samples is nearest to none
    lower_sq, upper_sq = _box_bounds(pmin.min(), pmax.max(), qmin.min(),
                                     qmax.max(), W, G, A0, A1)
    reach = math.sqrt(upper_sq.min()) + _PRUNE_SLACK
    keep = lower_sq <= reach * reach
    W, G, A0, A1 = W[keep], G[keep], A0[keep], A1[keep]
    lower_sq, upper_sq = _box_bounds(pmin, pmax, qmin, qmax, W, G, A0, A1)
    upper = np.sqrt(upper_sq.min(axis=1))
    best = 0.0
    for b in np.argsort(-upper):
        reach = upper[b] + _PRUNE_SLACK
        if reach < best:
            break
        near = np.flatnonzero(lower_sq[b] <= reach * reach)
        along = par[b][:, None] - G[near]
        dist = np.hypot(perp[b][:, None] - W[near],
                        _overhang(along, A0[near], A1[near]))
        best = max(best, float(dist.min(axis=1).max()))
    return best


def _box_bounds(pmin, pmax, qmin, qmax, W, G, A0, A1):
    """Squared least and greatest distance from the box [pmin, pmax] x
    [qmin, qmax] to each segment (W, G + [A0, A1])."""
    lo_p, hi_p = pmin - W, pmax - W
    lo_q, hi_q = qmin - G, qmax - G
    lower_sq = (np.maximum(np.maximum(lo_p, -hi_p), 0) ** 2
                + np.maximum(np.maximum(A0 - hi_q, lo_q - A1), 0) ** 2)
    upper_sq = (np.maximum(lo_p ** 2, hi_p ** 2)
                + np.maximum(_overhang(lo_q, A0, A1),
                             _overhang(hi_q, A0, A1)) ** 2)
    return lower_sq, upper_sq


def _overhang(along, a0, a1):
    """Distance from `along` to the interval [a0, a1]."""
    return np.maximum(a0 - along, 0) + np.maximum(along - a1, 0)


_PARTITION_CACHE: MarkovPartition | None = None


def cat_map_partition() -> MarkovPartition:
    """The validated five-rectangle partition (cached; construction runs the
    full self-check suite once per process)."""
    global _PARTITION_CACHE
    if _PARTITION_CACHE is None:
        _PARTITION_CACHE = MarkovPartition()
    return _PARTITION_CACHE


def locate(partition: MarkovPartition, points) -> np.ndarray | int:
    """Symbol of the piece containing each point.

    Boundary points go to the lowest piece index whose closed rectangle
    contains them (tolerance LOCATE_TOL).  Raises LocationFailure if any
    point is unclaimed.

    A point in [0,1)^2 whose cell of the partition's cell table is labelled
    takes that label, which is the symbol the scan would give it; every
    other point (an unlabelled cell, outside [0,1)^2, not finite) is
    scanned by `_locate_chunk`, the one exact test.  uint64 phases X
    (`to_phases`) are located as the points from_phases(X).
    """
    pts = np.asarray(points)
    if pts.dtype != np.uint64:
        pts = np.asarray(pts, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    out = np.full(len(pts), -1, dtype=np.int8)
    for i0 in range(0, len(pts), _LOCATE_CHUNK):
        out[i0:i0 + _LOCATE_CHUNK] = _locate_cells(partition,
                                                   pts[i0:i0 + _LOCATE_CHUNK])
    if single:
        return int(out[0])
    return out


def _locate_cells(partition: MarkovPartition, pts: np.ndarray) -> np.ndarray:
    """`locate` on one chunk: cell-table labels, the scan for the rest."""
    if pts.dtype == np.uint64:
        # the top _CELL_BITS bits of X0 above those of X1: a * _CELLS + b
        cell = pts[:, 0] >> (64 - 2 * _CELL_BITS)
        cell &= (_CELLS - 1) << _CELL_BITS
        cell |= pts[:, 1] >> (64 - _CELL_BITS)
        sym = partition._cells[cell.view(np.int64)]
        scan = np.flatnonzero(sym < 0)
        if len(scan):
            sym[scan] = _locate_chunk(partition, from_phases(pts[scan]))
        return sym
    x, y = pts[:, 0], pts[:, 1]
    inside = (x >= 0.0) & (x < 1.0) & (y >= 0.0) & (y < 1.0)
    # x * _CELLS is exact, so the truncation is the cell of x
    cell = (np.where(inside, x, 0.0) * _CELLS).astype(np.intp) * _CELLS
    cell += (np.where(inside, y, 0.0) * _CELLS).astype(np.intp)
    sym = partition._cells[cell]
    sym[~inside] = -1
    scan = np.flatnonzero(sym < 0)
    if len(scan):
        sym[scan] = _locate_chunk(partition, pts[scan])
    return sym


def _locate_chunk(partition: MarkovPartition, pts: np.ndarray) -> np.ndarray:
    xe = partition.to_frame(pts)
    sym = np.full(len(pts), -1, dtype=np.int8)
    for idx, (x0, x1, e0, e1) in enumerate(partition.boxes):
        todo = sym < 0
        if not np.any(todo):
            break
        xi = xe[todo, 0]
        eta = xe[todo, 1]
        hit = np.zeros(len(xi), dtype=bool)
        for gvec in partition._piece_offsets[idx]:
            hit |= ((xi >= x0 + gvec[0] - LOCATE_TOL)
                    & (xi <= x1 + gvec[0] + LOCATE_TOL)
                    & (eta >= e0 + gvec[1] - LOCATE_TOL)
                    & (eta <= e1 + gvec[1] + LOCATE_TOL))
        target = np.flatnonzero(todo)[hit]
        sym[target] = idx
    if np.any(sym < 0):
        bad = pts[sym < 0][0]
        raise LocationFailure(f"no piece claims point {bad.tolist()}")
    return sym


@dataclass
class CylinderTable:
    """Empirical distribution over depth-n cylinders (itinerary words).

    Word w = (s_0, ..., s_{n-1}) has code sum s_j k^(n-1-j), so sorted codes
    are words in lexicographic order.  codes holds the observed codes in
    increasing order, counts the int64 count of each; `words()` decodes to
    tuples on request.  rounded_mass is the count mass that integer rounding
    moved when the table came from weighted_merge (0 for counted tables).
    """
    depth: int
    k: int
    codes: np.ndarray
    counts: np.ndarray
    rounded_mass: float = 0.0
    total: int = field(init=False)

    def __post_init__(self):
        self.total = int(self.counts.sum())

    def words(self) -> list[tuple]:
        """Observed words as symbol tuples, in code order."""
        powers = self.k ** np.arange(self.depth - 1, -1, -1, dtype=np.int64)
        digits = (self.codes[:, None] // powers) % self.k
        return [tuple(w) for w in digits.tolist()]

    def marginal(self) -> "CylinderTable":
        """Drop the last symbol: the exact depth-(n-1) table for the same
        start set."""
        codes, counts = _sum_runs(self.codes // self.k, self.counts)
        return CylinderTable(self.depth - 1, self.k, codes, counts)


def _sum_runs(codes: np.ndarray, counts: np.ndarray):
    """Sorted codes with repeats -> (unique codes, summed counts)."""
    if len(codes) == 0:
        return codes, counts
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    return codes[starts], np.add.reduceat(counts, starts)


def entropy_tables(map: HyperbolicToralMap, partition: MarkovPartition,
                   source: CylinderSource,
                   depths: Sequence[int]) -> Dict[int, CylinderTable]:
    """Cylinder tables of a source at several depths from one walk.

    The source is walked and located once, and every table counts the same
    starts: for an orbit measure of length L, starts 0..L-max(depths); for a
    grid or atom source, every start, stepped max(depths) - 1 times.  The
    deepest table is sorted from codes built with one multiply-add per
    depth, in int32 when every code k^depth - 1 fits and int64 otherwise;
    each shallower table is a marginal of the one below it, which is exact
    because the starts are shared.
    """
    depths = sorted(set(int(d) for d in depths))
    if depths[0] < 1:
        raise ValueError("depths must be >= 1")
    k = partition.k
    if k ** depths[-1] > np.iinfo(np.int64).max:
        raise ValueError(f"depth {depths[-1]} overflows int64 word codes")
    rows = iter(_symbol_rows(map, partition, source, depths[-1]))
    # a long orbit is not kept alive through the sort
    del source
    fits = k ** depths[-1] - 1 <= np.iinfo(np.int32).max
    codes = next(rows).astype(np.int32 if fits else np.int64)
    for row in rows:
        codes *= k
        codes += row
    vals, cnts = np.unique(codes, return_counts=True)
    table = CylinderTable(depths[-1], k, vals.astype(np.int64, copy=False),
                          cnts.astype(np.int64, copy=False))
    out = {table.depth: table}
    while table.depth > depths[0]:
        table = table.marginal()
        out[table.depth] = table
    return {d: out[d] for d in depths}


def _symbol_rows(map: HyperbolicToralMap, partition: MarkovPartition,
                 source: CylinderSource, depth: int):
    """First `depth` partition symbols of every start of a source: row j
    holds symbol j of each start.  An orbit measure is located once as a
    stream, from its phases while it holds them; grid and atom sources
    are stepped depth - 1 times, a linear map's as uint64 phases."""
    if isinstance(source, OrbitMeasure):
        if source.map is not map:
            raise ValueError("orbit measure was built for another map")
        if len(source) < depth:
            raise ValueError("orbit shorter than requested depth")
        # phases locate as the atoms they convert to
        stream = locate(partition, source.atoms if source.phases is None
                        else source.phases)
        n_starts = len(stream) - depth + 1
        return [stream[j:j + n_starts] for j in range(depth)]
    if isinstance(source, SampleGrid):
        starts = source.chunk(0, source.size,
                              source._offsets() if source.jitter else None)
    elif isinstance(source, DiscreteMeasure):
        if np.ptp(source.weights) > 1e-12:
            raise ValueError(
                "cylinder counts need uniform atom weights; build per-"
                "component tables and combine with weighted_merge")
        starts = source.atoms
    else:
        raise TypeError(f"unsupported source {type(source).__name__}")
    rows = np.empty((depth, len(starts)), dtype=np.int8)
    x = to_phases(starts) if map.is_linear else starts
    for j in range(depth):
        rows[j] = locate(partition, x)
        if j + 1 < depth:
            x = map.step(x)
    return rows


def weighted_merge(tables: Sequence[CylinderTable],
                   weights: Sequence[float]) -> CylinderTable:
    """Mixture table: counts rescaled so component masses match the weights.

    Counts stay integers (each rescaled count rounded half to even); the
    merged table's rounded_mass is the summed |rounded - rescaled| over all
    component counts.  Every surviving itinerary was observed in some
    component.
    """
    if len(tables) != len(weights):
        raise ValueError("one weight per table")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    depth, k = tables[0].depth, tables[0].k
    if any(t.depth != depth or t.k != k for t in tables):
        raise ValueError("tables must share a depth and an alphabet")
    base = max(t.total for t in tables)
    scaled = [t.counts * (w * base / t.total) for t, w in zip(tables, weights)]
    rounded = [np.rint(s) for s in scaled]
    moved = float(sum(np.abs(r - s).sum() for r, s in zip(rounded, scaled)))
    codes = np.concatenate([t.codes for t in tables])
    counts = np.concatenate(rounded).astype(np.int64)
    keep = counts > 0
    codes, counts = codes[keep], counts[keep]
    order = np.argsort(codes)
    codes, counts = _sum_runs(codes[order], counts[order])
    return CylinderTable(depth, k, codes, counts, rounded_mass=moved)


def partition_entropy(table: CylinderTable) -> float:
    """Plug-in entropy -sum p log p (natural log, 0 log 0 = 0)."""
    if table.total <= 0:
        raise ValueError("table is empty")
    pr = table.counts / table.total
    return float(-np.sum(pr * np.log(pr)))


@dataclass
class EntropyRateResult:
    """H(depth)/depth at the deepest adequate depth, with the full scan."""
    h_est: float
    depth_used: int
    sequence: list  # (depth, h_over_n, observed_cylinders, adequate)


def entropy_rate_estimate(tables: Dict[int, CylinderTable]
                          ) -> EntropyRateResult:
    """Entropy rate from plug-in cylinder entropies.

    A depth is adequate when the sample count is at least ADEQUACY_FACTOR
    times the number of observed cylinders; the estimate is taken at the
    deepest adequate depth and the whole (depth, H/depth) sequence is
    retained.
    """
    seq = []
    best = None
    for d in sorted(tables):
        t = tables[d]
        observed = len(t.counts)
        adequate = t.total >= ADEQUACY_FACTOR * observed
        h_over_n = partition_entropy(t) / d
        seq.append((d, h_over_n, observed, adequate))
        if adequate:
            best = (d, h_over_n)
    if best is None:
        raise InsufficientSamples(
            f"no depth in {sorted(tables)} meets the {ADEQUACY_FACTOR}x "
            "sample-adequacy rule")
    return EntropyRateResult(h_est=best[1], depth_used=best[0], sequence=seq)


@dataclass
class CountRates:
    rates: list            # (n, log(#cylinders)/n)
    k0_est: float
    counts: list           # (n, exact word count)


def cylinder_count_rate(partition: MarkovPartition,
                        n_range: Sequence[int]) -> CountRates:
    """log(#words)/n from exact admissible-word counts (matrix powers).

    Counting uses Python integers, so arbitrary depths stay exact.
    """
    ns = sorted(set(int(n) for n in n_range))
    if ns[0] < 1:
        raise ValueError("depths must be >= 1")
    M = [[int(v) for v in row] for row in partition.transition]
    k = partition.k
    vec = [1] * k
    counts = {1: sum(vec)}
    power = vec
    for n in range(2, ns[-1] + 1):
        power = [sum(M[i][j] * power[j] for j in range(k)) for i in range(k)]
        counts[n] = sum(power)
    rates = [(n, math.log(counts[n]) / n) for n in ns]
    return CountRates(rates=rates, k0_est=max(r for _, r in rates),
                      counts=[(n, counts[n]) for n in ns])


def entropy_count_bound_check(table: CylinderTable, epsilon: float) -> float:
    """Margin of the cylinder-counting entropy bound on a depth-n table.

    A is the smallest union of depth-n cylinders with empirical mass above
    1 - epsilon (largest counts first).  Returns

        log #A  -  [ H_n - n K0 eps + eps log eps + (1-eps) log(1-eps) ]

    which should be nonnegative up to sampling error.  K0 is log k: word
    counts are submultiplicative (c_(m+n) <= c_m c_n), so the largest
    count rate log(c_n)/n is the depth-1 rate log c_1 = log k.
    """
    if not 0 < epsilon < 0.25:
        raise ValueError("epsilon must be in (0, 1/4)")
    n = table.depth
    h = partition_entropy(table)
    k0 = math.log(table.k)
    mass = np.cumsum(np.sort(table.counts)[::-1])
    need = (1.0 - epsilon) * table.total
    taken = min(int(np.searchsorted(mass, need, side="right")) + 1, len(mass))
    lhs = math.log(taken)
    rhs = (h - n * k0 * epsilon + epsilon * math.log(epsilon)
           + (1.0 - epsilon) * math.log(1.0 - epsilon))
    return lhs - rhs
