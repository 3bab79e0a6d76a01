import copy
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from toruslab import markov
from toruslab.basin import SampleGrid
from toruslab.dynamics import from_phases, to_phases, wrap
from toruslab.markov import (_CELLS, _locate_chunk, ConstructionInvalid,
                             CylinderTable, InsufficientSamples,
                             LocationFailure, cylinder_count_rate,
                             entropy_count_bound_check,
                             entropy_rate_estimate, entropy_tables, locate,
                             partition_entropy, weighted_merge)
from toruslab.weakstar import DiscreteMeasure, OrbitMeasure

PHI = (1.0 + math.sqrt(5.0)) / 2.0
LAMBDA = (3.0 + math.sqrt(5.0)) / 2.0
LOG_LAMBDA = math.log(LAMBDA)
SEED_POINT = (0.2137214321, 0.5721347123)


def brute_nearest_wall(partition, coords, stable):
    """Per sample: distance to the nearest of all 810 wall translates (the
    all-translates loop the pruned kernel replaces)."""
    best = np.full(len(coords), np.inf)
    for (x0, x1, e0, e1) in partition.boxes:
        if stable:
            walls = ((x0, e0, e1), (x1, e0, e1))
        else:
            walls = ((e0, x0, x1), (e1, x0, x1))
        for (w, a0, a1) in walls:
            for gvec in partition._lattice:
                if stable:
                    dperp = coords[:, 0] - (w + gvec[0])
                    along = coords[:, 1] - gvec[1]
                else:
                    dperp = coords[:, 1] - (w + gvec[1])
                    along = coords[:, 0] - gvec[0]
                dpar = np.maximum(a0 - along, 0) + np.maximum(along - a1, 0)
                np.minimum(best, np.hypot(dperp, dpar), out=best)
    return best


def brute_boundary_defect(partition, samples_per_edge):
    """validate_markov_boundary's edge sampling with brute_nearest_wall."""
    worst = 0.0
    t = np.linspace(0.0, 1.0, samples_per_edge)
    for (x0, x1, e0, e1) in partition.boxes:
        for xw in (x0, x1):
            pts = np.column_stack([np.full_like(t, xw), e0 + (e1 - e0) * t])
            img = partition.to_frame(
                partition._map.step(wrap(partition.from_frame(pts))))
            worst = max(worst, float(
                brute_nearest_wall(partition, img, True).max()))
        for ew in (e0, e1):
            pts = np.column_stack([x0 + (x1 - x0) * t, np.full_like(t, ew)])
            img = partition.to_frame(
                partition._map.step_inverse(wrap(partition.from_frame(pts))))
            worst = max(worst, float(
                brute_nearest_wall(partition, img, False).max()))
    return worst


def doctored(partition, piece, side, shift, squeeze):
    """A shallow copy whose box `piece` has side `side` moved by `shift`
    and both stable extents scaled by `squeeze`."""
    bad = copy.copy(partition)
    box = list(partition.boxes[piece])
    box[side] += shift
    box[2] *= squeeze
    box[3] *= squeeze
    bad.boxes = [tuple(box) if i == piece else b
                 for i, b in enumerate(partition.boxes)]
    return bad


def brute_transition(partition):
    """Admissibility matrix from the pair-by-pair loop over every lattice
    translate, or the message of the first failing pair in (i, j) order:
    a partial crossing as soon as it is met, else a count above one."""
    lam = partition.expansion
    M = np.zeros((partition.k, partition.k), dtype=np.int64)
    for i, (x0, x1, e0, e1) in enumerate(partition.boxes):
        ix0, ix1, ie0, ie1 = lam * x0, lam * x1, e0 / lam, e1 / lam
        for j, (y0, y1, f0, f1) in enumerate(partition.boxes):
            crossings = 0
            for g in partition._lattice:
                ox0, ox1 = max(ix0, y0 + g[0]), min(ix1, y1 + g[0])
                oy0, oy1 = max(ie0, f0 + g[1]), min(ie1, f1 + g[1])
                if ox1 - ox0 < 1e-12 or oy1 - oy0 < 1e-12:
                    continue
                crossings += 1
                if not (abs(ox0 - (y0 + g[0])) < 1e-9
                        and abs(ox1 - (y1 + g[0])) < 1e-9
                        and abs(oy0 - ie0) < 1e-9
                        and abs(oy1 - ie1) < 1e-9):
                    return f"image of piece {i} crosses piece {j} partially"
            if crossings > 1:
                return (f"image of piece {i} crosses piece {j} "
                        f"{crossings} times")
            M[i, j] = 1 if crossings else 0
    return M


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestConstruction:
    def test_areas_sum_to_one(self, partition):
        assert abs(sum(partition.areas) - 1.0) < 1e-9

    def test_golden_areas(self, partition):
        # side lengths are q and gq with g = 1/phi; areas in golden ratios
        g = 1.0 / PHI
        q2 = g * g / (2.0 - g)
        expected = sorted([q2, q2, g * q2, g * q2, g * g * q2])
        assert np.allclose(sorted(partition.areas), expected, atol=1e-12)

    def test_diameter_below_gate(self, partition):
        assert partition.max_diameter < 0.6

    def test_pruned_diameter_matches_all_lattice_vectors(self, partition):
        # the former brute force: nearest of all 81 lattice vectors
        def brute_force(box, samples=401):
            du, ds = box[1] - box[0], box[3] - box[2]
            AA, BB = np.meshgrid(np.linspace(-du, du, samples),
                                 np.linspace(-ds, ds, samples), indexing="ij")
            best = np.full(AA.shape, np.inf)
            for gvec in partition._lattice:
                np.minimum(best, np.hypot(AA - gvec[0], BB - gvec[1]),
                           out=best)
            return float(best.max())

        assert len(partition._lattice) == 81
        expected = [brute_force(b) for b in partition.boxes]
        assert [partition._torus_diameter(b) for b in partition.boxes] \
            == expected
        assert partition.max_diameter == max(expected) == 0.5877852522924731

    def test_spectral_radius(self, partition):
        rho = max(abs(np.linalg.eigvals(partition.transition.astype(float))))
        assert abs(rho - LAMBDA) < 1e-6

    def test_boundary_invariance_resample(self, partition):
        # re-assert the Markov boundary conditions at 10^4 samples
        defect = partition.validate_markov_boundary(1250)
        assert defect <= 1e-9

    @pytest.mark.parametrize("samples", [333, 1000, 1250])
    def test_boundary_defect_matches_all_translates(self, partition,
                                                    samples):
        assert partition.validate_markov_boundary(samples) \
            == brute_boundary_defect(partition, samples)

    def test_boundary_defect_value(self, partition):
        assert partition.validate_markov_boundary(1000) \
            == 1.2212453270876722e-15

    @pytest.mark.parametrize("stable", [True, False])
    def test_wall_distance_matches_all_translates_off_net(self, partition,
                                                          stable):
        # a seeded random walk on the torus: runs of consecutive samples are
        # compact, so the pruning drops most translates, and the defects are
        # nonzero
        rng = np.random.default_rng(20261018)
        walk = rng.random(2) + np.cumsum(rng.normal(0.0, 0.004, (3000, 2)),
                                         axis=0)
        coords = partition.to_frame(wrap(walk))
        nearest = brute_nearest_wall(partition, coords, stable)
        assert nearest.min() > 0.0
        assert partition._dist_to_edges(coords, stable) == nearest.max()
        assert [partition._dist_to_edges(c, stable)
                for c in coords.reshape(300, 10, 2)] \
            == nearest.reshape(300, 10).max(axis=1).tolist()

    @pytest.mark.parametrize("stable", [True, False])
    def test_wall_distance_across_wrap_seam(self, partition, stable):
        # samples along a wall, shifted off the net and across the torus
        # seam y = 1, so one sample block holds points on both sides of it
        x0, x1, e0, e1 = partition.boxes[0]
        t = np.linspace(0.0, 1.0, 1000)
        torus = partition.from_frame(
            np.column_stack([np.full_like(t, x1), e0 + (e1 - e0) * t]))
        torus[:, 1] += 1.0 - torus[100, 1] + 0.003
        coords = partition.to_frame(wrap(torus))
        assert np.ptp(coords[:256], axis=0).max() > 0.5
        nearest = brute_nearest_wall(partition, coords, stable)
        assert nearest.max() > 1e-3
        assert partition._dist_to_edges(coords, stable) == nearest.max()
        assert partition._dist_to_edges(coords[:256], stable) \
            == nearest[:256].max()

    @pytest.mark.parametrize("piece", range(5))
    @pytest.mark.parametrize("side", range(4))
    def test_boundary_error_names_the_wall(self, partition, piece, side):
        bad = copy.copy(partition)
        box = list(partition.boxes[piece])
        box[side] += 1e-3
        bad.boxes = [tuple(box) if i == piece else b
                     for i, b in enumerate(partition.boxes)]
        name = ("x0", "x1", "e0", "e1")[side]
        with pytest.raises(ConstructionInvalid,
                           match=rf"defect [12]\.618e-03 in the image of "
                                 rf"piece {piece} wall {name}$"):
            bad.validate_markov_boundary(1000)

    @pytest.mark.parametrize("piece, side, shift, squeeze, message", [
        # a pair with a partial crossing and several crossings: partial
        (0, 3, 1e-3, 1.0, "image of piece 0 crosses piece 0 partially"),
        (1, 0, -1e-3, 1.0, "image of piece 1 crosses piece 1 partially"),
        # two full crossings of (0, 0) come before later partial ones
        (0, 3, 0.5, 1.0, "image of piece 0 crosses piece 0 2 times"),
        (0, 1, 2.0, 0.1, "image of piece 0 crosses piece 1 3 times"),
    ])
    def test_transition_error_names_the_first_pair(self, partition, piece,
                                                   side, shift, squeeze,
                                                   message):
        bad = doctored(partition, piece, side, shift, squeeze)
        with pytest.raises(ConstructionInvalid, match=rf"^{message}$"):
            bad._transition_matrix()

    def test_transition_matches_pair_loop(self, partition):
        # the same matrix, or the same first error, as the scalar loop over
        # pairs and lattice translates, on the true boxes and on boxes with
        # one side moved and, optionally, the stable extents squeezed
        cases = [doctored(partition, piece, side, shift, squeeze)
                 for piece in range(5) for side in range(4)
                 for shift in (-1.5, -1e-3, 1e-3, 0.5, 2.0)
                 for squeeze in (1.0, 0.1)]
        outcomes = set()
        for part in [partition] + cases:
            expected = brute_transition(part)
            try:
                got = part._transition_matrix()
            except ConstructionInvalid as exc:
                got = str(exc)
            if isinstance(expected, str):
                assert got == expected
                outcomes.add(expected.split()[-1])
            else:
                assert got.dtype == np.int64
                assert np.array_equal(got, expected)
                outcomes.add("M")
        assert np.array_equal(brute_transition(partition),
                              partition.transition)
        assert outcomes == {"M", "partially", "times"}

    def test_alphabet_matches_pieces(self, partition):
        assert partition.k == len(partition.boxes) == 5
        assert partition.transition.shape == (5, 5)


class TestLocate:
    def test_origin_lowest_index(self, partition):
        # the origin is a corner of several pieces; tie-break gives piece 0
        assert locate(partition, (0.0, 0.0)) == 0

    def test_centroids(self, partition):
        for idx, (x0, x1, e0, e1) in enumerate(partition.boxes):
            corners = np.array([[x0, e0], [x1, e0], [x1, e1], [x0, e1]])
            c = partition.from_frame(corners).mean(axis=0) % 1.0
            assert locate(partition, c) == idx

    def test_million_random_points(self, partition, cat):
        pts = np.random.default_rng(42).random((1_000_000, 2))
        syms = locate(partition, pts)
        fractions = np.bincount(syms, minlength=5) / len(pts)
        assert np.all(np.abs(fractions - np.array(partition.areas)) < 3e-3)
        # the cell table gives the exact test's symbol for every point
        assert np.array_equal(syms, _locate_chunk(partition, pts))

    def test_vectorized_matches_scalar(self, partition, rng):
        pts = rng.random((200, 2))
        vec = locate(partition, pts)
        scal = [locate(partition, p) for p in pts]
        assert list(vec) == scal


def wall_points(partition, offsets, along=257):
    """Points at each signed distance in `offsets` across every wall of
    every listed piece translate, `along` per wall, that fall in [0,1)^2."""
    t = np.linspace(0.0, 1.0, along)
    coords = []
    for (x0, x1, e0, e1), offs in zip(partition.boxes,
                                      partition._piece_offsets):
        for gx, gy in offs:
            for d in offsets:
                for xw in (x0, x1):  # stable walls
                    coords.append(np.column_stack([
                        np.full_like(t, xw + gx + d),
                        e0 + gy + (e1 - e0) * t]))
                for ew in (e0, e1):  # unstable walls
                    coords.append(np.column_stack([
                        x0 + gx + (x1 - x0) * t,
                        np.full_like(t, ew + gy + d)]))
    pts = partition.from_frame(np.concatenate(coords))
    return pts[np.all((pts >= 0.0) & (pts < 1.0), axis=1)]


class TestCellTable:
    """`locate` reads labelled cells from a table and tests the rest; every
    result must be that of the exact test against every translate."""

    def test_wall_neighbourhoods_match_scan(self, partition):
        offsets = [0.0] + [s * d for d in (1e-13, 1e-12, 1e-10, 1e-9)
                           for s in (1, -1)]
        pts = wall_points(partition, offsets)
        assert len(pts) > 40_000
        assert np.array_equal(locate(partition, pts),
                              _locate_chunk(partition, pts))

    def test_cell_corners_match_scan(self, partition):
        ticks = np.arange(_CELLS + 1) / _CELLS
        pts = np.stack(np.meshgrid(ticks, ticks, indexing="ij"),
                       axis=-1).reshape(-1, 2)
        assert np.array_equal(locate(partition, pts),
                              _locate_chunk(partition, pts))

    @pytest.mark.parametrize("x", [1.0, -1e-17, 1.5])
    def test_outside_unit_square_scanned(self, partition, x):
        # per point, the symbol or the LocationFailure message
        def outcome(f, p):
            try:
                return f(partition, p[None]).tolist()
            except LocationFailure as exc:
                return str(exc)

        pts = np.column_stack([np.full(9, x), np.linspace(0.0, 0.99, 9)])
        for p in np.concatenate([pts, pts[:, ::-1]]):
            assert outcome(locate, p) == outcome(_locate_chunk, p), p

    def test_nan_raises_scan_failure(self, partition):
        pts = np.array([[0.3, 0.4], [np.nan, 0.2], [0.5, np.nan]])
        with pytest.raises(LocationFailure) as scanned:
            _locate_chunk(partition, pts)
        with pytest.raises(LocationFailure) as located:
            locate(partition, pts)
        assert str(located.value) == str(scanned.value)
        assert str(located.value) == "no piece claims point [nan, 0.2]"

    def test_labelled_cells_scan_to_label(self, partition):
        cells = partition._cells
        assert cells.shape == (_CELLS * _CELLS,) and cells.dtype == np.int8
        assert np.mean(cells >= 0) >= 0.95
        labelled = np.flatnonzero(cells >= 0)
        a, b = np.divmod(labelled, _CELLS)
        for da, db in ((0.5, 0.5), (0, 0), (1, 0), (0, 1), (1, 1)):
            pts = np.column_stack([(a + da) / _CELLS, (b + db) / _CELLS])
            assert np.array_equal(_locate_chunk(partition, pts),
                                  cells[labelled])

    def test_phases_locate_as_their_doubles(self, partition, cat):
        # uint64 phases are located by the top bits of each phase; a phase
        # just below c 2^57 rounds up to the double c/128, the edge of the
        # next cell, and must still get that double's symbol
        below = np.array([(c << 57) - d for c in range(1, _CELLS + 1)
                          for d in (1, 1 << 10)], dtype=np.uint64)
        assert np.all(from_phases(below[::2]) == np.minimum(
            np.arange(1, _CELLS + 1) / _CELLS, 1.0 - 2.0 ** -53))
        other = np.random.default_rng(9).integers(
            0, 2 ** 64, len(below), dtype=np.uint64, endpoint=False)
        edges = np.concatenate([np.column_stack([below, other]),
                                np.column_stack([other, below])])
        orbit = cat.orbit_phases(SEED_POINT, 100_000)
        for phases in (edges, orbit):
            got = locate(partition, phases)
            assert np.array_equal(got, locate(partition,
                                              from_phases(phases)))
            assert np.array_equal(got, _locate_chunk(partition,
                                                     from_phases(phases)))
        assert locate(partition, orbit[7]) == got[7]


def listed_translates(partition):
    """Every listed piece translate in translate order: (piece, box)."""
    return [(j, (x0 + gx, x1 + gx, e0 + gy, e1 + gy))
            for j, ((x0, x1, e0, e1), offs) in enumerate(
                zip(partition.boxes, partition._piece_offsets))
            for gx, gy in offs]


def piece_loop(partition, pts):
    """Symbols from the loop over pieces in index order and each piece's
    listed translates, with the LOCATE_TOL-widened walls written out; -1
    where no piece claims a point."""
    xe = partition.to_frame(pts)
    sym = np.full(len(pts), -1)
    tol = markov.LOCATE_TOL
    for j, (x0, x1, e0, e1) in enumerate(partition.boxes):
        for gx, gy in partition._piece_offsets[j]:
            hit = ((xe[:, 0] >= x0 + gx - tol) & (xe[:, 0] <= x1 + gx + tol)
                   & (xe[:, 1] >= e0 + gy - tol)
                   & (xe[:, 1] <= e1 + gy + tol))
            sym[(sym < 0) & hit] = j
    return sym


def unlabelled_cells(partition):
    return np.flatnonzero(partition._cells < 0)


class TestCandidates:
    """A point of an unlabelled cell is tested against its cell's candidate
    translates only; every result must be that of the test against every
    translate."""

    def test_candidates_hold_every_claiming_translate(self, partition):
        # a translate whose LOCATE_TOL box meets the frame box of a cell
        # (its corners' hull, plus rounding) is among the cell's candidates
        cand = partition._candidates
        translates = listed_translates(partition)
        assert cand.shape == (4, _CELLS * _CELLS)
        real = cand < len(translates)
        assert np.all(real[0])
        # each column: distinct translates in increasing order, then padding
        assert np.all(real[:-1] | ~real[1:])
        assert np.all(np.where(real[1:], np.diff(cand, axis=0) > 0, True))
        counts = np.bincount(np.count_nonzero(real, axis=0)
                             [unlabelled_cells(partition)])
        assert counts.tolist() == [0, 0, 758, 8, 8]
        a, b = np.divmod(np.arange(_CELLS * _CELLS), _CELLS)
        corners = [partition.to_frame(np.column_stack([(a + da) / _CELLS,
                                                       (b + db) / _CELLS]))
                   for da in (0, 1) for db in (0, 1)]
        lo = np.min(corners, axis=0) - 1e-14
        hi = np.max(corners, axis=0) + 1e-14
        tol = markov.LOCATE_TOL
        for t, (_, (x0, x1, e0, e1)) in enumerate(translates):
            meets = ((lo[:, 0] <= x1 + tol) & (hi[:, 0] >= x0 - tol)
                     & (lo[:, 1] <= e1 + tol) & (hi[:, 1] >= e0 - tol))
            assert np.all(np.any(cand[:, meets] == t, axis=0)), t

    def test_unlabelled_cells_match_exact_test(self, partition):
        # random points of every unlabelled cell, as floats and as phases
        # whose top bits name the cell
        rng = np.random.default_rng(20261022)
        cells = np.repeat(unlabelled_cells(partition), 16)
        a, b = np.divmod(cells, _CELLS)
        pts = np.column_stack([(a + rng.random(len(a))) / _CELLS,
                               (b + rng.random(len(b))) / _CELLS])
        low = rng.integers(0, 2 ** 57, (len(cells), 2), dtype=np.uint64)
        phases = (np.column_stack([a, b]).astype(np.uint64) << 57) | low
        assert np.array_equal((pts * _CELLS).astype(int),
                              np.column_stack([a, b]))
        assert np.array_equal(locate(partition, pts),
                              _locate_chunk(partition, pts))
        assert np.array_equal(locate(partition, phases),
                              _locate_chunk(partition, from_phases(phases)))

    def test_candidate_walls_match_exact_test(self, partition):
        # 0, 1e-13 and 2e-12 either side of every wall of every translate,
        # as floats and as the phases of those floats
        offsets = [0.0] + [s * d for d in (1e-13, 2e-12) for s in (1, -1)]
        pts = wall_points(partition, offsets)
        cell = ((pts[:, 0] * _CELLS).astype(int) * _CELLS
                + (pts[:, 1] * _CELLS).astype(int))
        assert np.mean(partition._cells[cell] < 0) > 0.5
        phases = to_phases(pts)
        assert np.array_equal(locate(partition, pts),
                              _locate_chunk(partition, pts))
        assert np.array_equal(locate(partition, phases),
                              _locate_chunk(partition, from_phases(phases)))

    def test_exact_test_matches_piece_loop(self, partition):
        # the tolerance and the lowest-index tie-break, against the loop
        # over pieces: a point within LOCATE_TOL outside a wall is claimed
        offsets = [s * d for d in (1e-13, 5e-13, 2e-12) for s in (1, -1)]
        pts = np.concatenate([wall_points(partition, [0.0] + offsets, 33),
                              np.random.default_rng(5).random((20_000, 2))])
        expect = piece_loop(partition, pts)
        assert np.array_equal(_locate_chunk(partition, pts), expect)
        assert np.array_equal(locate(partition, pts), expect)

    @pytest.mark.parametrize("as_phases", [False, True])
    def test_doctored_candidates_raise_scan_message(self, partition,
                                                    as_phases):
        # a cell whose candidates lack the translates that claim a point of
        # it: the point is named as the test against every translate names
        # an unclaimed point
        cell = unlabelled_cells(partition)[100]
        a, b = divmod(int(cell), _CELLS)
        pts = np.array([[0.5, 0.5], [(a + 0.3) / _CELLS, (b + 0.6) / _CELLS],
                        [(a + 0.7) / _CELLS, (b + 0.2) / _CELLS]])
        if as_phases:
            pts = to_phases(pts)
        named = from_phases(pts[1]) if as_phases else pts[1]
        claimed = _locate_chunk(partition, named[None])[0]
        piece = [j for j, _ in listed_translates(partition)]
        keep = [t for t in partition._candidates[:, cell]
                if t < len(piece) and piece[t] != claimed]
        bad = copy.copy(partition)
        bad._candidates = partition._candidates.copy()
        bad._candidates[:, cell] = len(piece)
        bad._candidates[:len(keep), cell] = keep
        assert locate(partition, pts).tolist()[1] == claimed
        with pytest.raises(LocationFailure) as located:
            locate(bad, pts)
        assert str(located.value) == \
            f"no piece claims point {named.tolist()}"


class TestItinerary:
    def test_fixed_point_constant(self, cat, partition):
        assert locate(partition, cat.orbit((0.0, 0.0), 6)).tolist() == [0] * 6

    def test_depth_one(self, cat, partition, rng):
        p = rng.random(2)
        assert (locate(partition, cat.orbit(p, 1)).tolist()
                == [locate(partition, p)])

    def test_shift_property(self, cat, partition, rng):
        for _ in range(20):
            p = rng.random(2)
            full = locate(partition, cat.orbit(p, 7))
            tail = locate(partition, cat.orbit(cat.step(p), 6))
            assert full[1:].tolist() == tail.tolist()


def walk_table(m, partition, source, n):
    return entropy_tables(m, partition, source, [n])[n]


def as_dict(table):
    return dict(zip(table.words(), table.counts.tolist()))


def make_table(depth, counts, k=5):
    """Table from a {word: count} dict, for hand-built cases."""
    codes = [sum(s * k ** (depth - 1 - j) for j, s in enumerate(w))
             for w in counts]
    order = np.argsort(codes)
    return CylinderTable(depth, k, np.array(codes, dtype=np.int64)[order],
                         np.array(list(counts.values()),
                                  dtype=np.int64)[order])


def reference_tables(m, partition, source, depths):
    """{depth: {word: count}} from the element-wise base-k code and tuple
    decode loop, in code order; independent of CylinderTable and of the
    cell table of `locate` (symbols come from the exact test against every
    translate).  A linear map's grid or atoms walk the true orbits of their
    phases."""
    k, top = partition.k, max(depths)
    if isinstance(source, OrbitMeasure):
        sym = _locate_chunk(partition, m.orbit(source.atoms[0], len(source)))
        n_starts = len(sym) - top + 1
        rows = [sym[j:j + n_starts] for j in range(top)]
    else:
        x = (source.chunk(0, source.size) if isinstance(source, SampleGrid)
             else source.atoms)
        x = to_phases(x) if m.is_linear else x
        rows = []
        for j in range(top):
            rows.append(_locate_chunk(partition,
                                      from_phases(x) if m.is_linear else x))
            x = m.step(x)
    out = {}
    for d in depths:
        codes = np.zeros(len(rows[0]), dtype=np.int64)
        for j in range(d):
            codes = codes * k + rows[j]
        vals, cnts = np.unique(codes, return_counts=True)
        counts = {}
        for v, c in zip(vals.tolist(), cnts.tolist()):
            word = []
            for _ in range(d):
                word.append(v % k)
                v //= k
            counts[tuple(reversed(word))] = c
        out[d] = counts
    return out


def counted_words(m, partition, source, depth):
    """Each start's first `depth` symbols as a tuple, from the exact test
    on the orbit's atoms, or on the true orbits of a grid's phases."""
    if isinstance(source, OrbitMeasure):
        sym = _locate_chunk(partition, source.atoms).tolist()
        return [tuple(sym[i:i + depth])
                for i in range(len(sym) - depth + 1)]
    x = to_phases(source.chunk(0, source.size))
    rows = []
    for _ in range(depth):
        rows.append(_locate_chunk(partition, from_phases(x)).tolist())
        x = m.step(x)
    return list(zip(*rows))


def check_table(table, expect):
    """A table holds exactly the words and counts of a Counter, in word
    order, as int64 codes and counts."""
    assert table.words() == sorted(expect)
    assert table.counts.tolist() == [expect[w] for w in sorted(expect)]
    assert table.codes.dtype == table.counts.dtype == np.int64


class TestCylinderTables:
    def test_dirac_single_cylinder(self, cat, partition):
        t = walk_table(cat, partition, DiscreteMeasure.dirac((0.0, 0.0)), 6)
        assert as_dict(t) == {(0,) * 6: 1}
        assert partition_entropy(t) == 0.0

    def test_grid_depth1_matches_areas(self, cat, partition):
        g = 256
        t = as_dict(walk_table(cat, partition, SampleGrid(resolution=g), 1))
        total = sum(t.values())
        for i, a in enumerate(partition.areas):
            assert abs(t[(i,)] / total - a) < 2.0 / g

    def test_observed_at_most_admissible(self, cat, partition):
        tables = entropy_tables(cat, partition,
                                OrbitMeasure(cat, SEED_POINT, 100_000),
                                [1, 2, 3, 4, 5, 6])
        counts = dict(cylinder_count_rate(partition, range(1, 7)).counts)
        for d, t in tables.items():
            assert len(t.counts) <= counts[d]

    def test_shift_consistency_exact(self, cat, partition):
        tables = entropy_tables(cat, partition,
                                OrbitMeasure(cat, SEED_POINT, 50_000), [7, 8])
        assert as_dict(tables[8].marginal()) == as_dict(tables[7])
        assert np.array_equal(tables[8].marginal().codes, tables[7].codes)
        assert np.array_equal(tables[8].marginal().counts, tables[7].counts)

    def test_shift_consistency_grid_source(self, cat, partition):
        tables = entropy_tables(cat, partition, SampleGrid(resolution=64),
                                [3, 4])
        assert as_dict(tables[4].marginal()) == as_dict(tables[3])
        assert np.array_equal(tables[4].marginal().codes, tables[3].codes)

    def test_nonuniform_weights_rejected(self, cat, partition):
        mu = DiscreteMeasure(np.array([[0.1, 0.1], [0.6, 0.7]]),
                             np.array([0.25, 0.75]))
        with pytest.raises(ValueError, match="uniform"):
            walk_table(cat, partition, mu, 3)

    @pytest.mark.parametrize("make_source", [
        lambda m: OrbitMeasure(m, SEED_POINT, 20_000),
        lambda m: SampleGrid(resolution=48),
        lambda m: DiscreteMeasure(np.random.default_rng(7).random((3000, 2))),
    ], ids=["orbit", "grid", "atoms"])
    def test_words_match_reference_decoder(self, cat, partition,
                                           make_source):
        source = make_source(cat)
        # the first call locates an orbit's phases; the reference reads its
        # atoms, which converts them, and later calls locate those.  Codes
        # are int32 up to depth 13 (5^13 < 2^31) and int64 beyond
        for depths in (list(range(1, 9)), [2, 5, 9], [1], [7], [13],
                       [13, 14]):
            tables = entropy_tables(cat, partition, source, depths)
            ref = reference_tables(cat, partition, source, depths)
            assert sorted(tables) == depths
            for d in depths:
                t = tables[d]
                assert t.words() == list(ref[d])
                assert t.counts.tolist() == list(ref[d].values())
                assert t.counts.dtype == np.int64
                assert t.codes.dtype == np.int64
                assert t.total == sum(ref[d].values())
                assert np.all(np.diff(t.codes) > 0)

    def test_one_walk_serves_every_depth(self, cat, partition):
        # every table of one call counts one start set: starts 0..L-9 of an
        # orbit of length L when the deepest depth is 9, so the depth-n table
        # is that of the orbit cut to L-9+n points; a grid counts every point
        length = 5_000
        tables = entropy_tables(cat, partition,
                                OrbitMeasure(cat, SEED_POINT, length),
                                [3, 6, 9])
        for n in (3, 6, 9):
            cut = OrbitMeasure(cat, SEED_POINT, length - 9 + n)
            alone = walk_table(cat, partition, cut, n)
            assert tables[n].total == length - 9 + 1
            assert np.array_equal(tables[n].codes, alone.codes)
            assert np.array_equal(tables[n].counts, alone.counts)
        grid = SampleGrid(resolution=32)
        tables = entropy_tables(cat, partition, grid, [3, 6, 9])
        for n in (3, 6, 9):
            alone = walk_table(cat, partition, grid, n)
            assert tables[n].total == grid.size
            assert np.array_equal(tables[n].codes, alone.codes)
            assert np.array_equal(tables[n].counts, alone.counts)

    def test_source_released_before_sort(self, cat, partition, monkeypatch):
        # an orbit passed inline, streamed or held as atoms, is freed once
        # located, before its codes are sorted; the codes are sorted once
        # for every depth, in place, and only the marginals' runs are
        # found after that
        refs, seen = [], []
        run_ends = markov._run_ends

        def spy(codes):
            seen.append((refs[-1]() is not None, len(codes),
                         bool(np.all(np.diff(codes) >= 0))))
            return run_ends(codes)

        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique called")

        def orbit(read_atoms):
            mu = OrbitMeasure(cat, SEED_POINT, 1_000)
            if read_atoms:
                mu.atoms
            refs.append(weakref.ref(mu))
            return mu

        monkeypatch.setattr(markov, "_run_ends", spy)
        monkeypatch.setattr(np, "unique", no_unique)
        starts = 1_000 - 5 + 1
        for read_atoms in (False, True):
            seen.clear()
            tables = entropy_tables(cat, partition, orbit(read_atoms), [2, 5])
            assert seen[0] == (False, starts, True)
            # depths 4, 3 and 2 marginalize the unique codes above them
            assert len(seen) == 4 and seen[1][1] == len(tables[5].codes)
            assert all(ok and n < starts for _, n, ok in seen[1:])
            assert tables[2].total == tables[5].total == starts

    def test_chain_matches_counted_words(self, cat, partition):
        # every table 13 -> 1 of an orbit and of a grid source, and the
        # marginals of a weighted_merge of their depth-13 tables, against
        # words counted one by one from the exact test's symbols
        orbit = OrbitMeasure(cat, SEED_POINT, 20_000)
        grid = SampleGrid(resolution=48)
        counted = []
        for source in (orbit, grid):
            tables = entropy_tables(cat, partition, source, range(1, 14))
            words = counted_words(cat, partition, source, 13)
            for d in range(13, 0, -1):
                expect = Counter(w[:d] for w in words)
                check_table(tables[d], expect)
            counted.append((tables[13], Counter(words)))
        weights = (0.3, 0.7)
        base = max(t.total for t, _ in counted)
        merged = Counter()
        for (t, words), w in zip(counted, weights):
            for word, c in words.items():
                merged[word] += round(c * (w * base / t.total))
        table = weighted_merge([t for t, _ in counted], weights)
        for d in range(13, 0, -1):
            expect = Counter()
            for word, c in merged.items():
                expect[word[:d]] += c
            check_table(table, +expect)
            if d > 1:
                table = table.marginal()

    def test_code_overflow_rejected(self, cat, partition):
        with pytest.raises(ValueError, match="int64"):
            entropy_tables(cat, partition,
                           OrbitMeasure(cat, SEED_POINT, 100), [28])

    def test_words_of_hand_built_table(self):
        t = make_table(3, {(4, 0, 2): 1, (0, 1, 0): 2})
        assert t.codes.tolist() == [5, 102]
        assert t.words() == [(0, 1, 0), (4, 0, 2)]
        assert t.total == 3


class TestEntropy:
    def test_single_cylinder_zero(self):
        t = make_table(3, {(0, 0, 0): 17})
        assert partition_entropy(t) == 0.0

    def test_uniform_log_m(self):
        t = make_table(2, {(0, 0): 5, (0, 1): 5, (1, 0): 5})
        assert t.total == 15
        assert abs(partition_entropy(t) - math.log(3)) < 1e-15

    def test_entropy_le_log_observed(self, cat, partition):
        t = walk_table(cat, partition,
                       OrbitMeasure(cat, SEED_POINT, 30_000), 6)
        assert partition_entropy(t) <= math.log(len(t.counts)) + 1e-12

    def test_grid_depth1_entropy_matches_areas(self, cat, partition):
        t = walk_table(cat, partition, SampleGrid(resolution=512), 1)
        exact = -sum(a * math.log(a) for a in partition.areas)
        assert abs(partition_entropy(t) - exact) < 1e-3

    def test_rate_estimate_dirac_zero(self, cat, partition):
        est = entropy_rate_estimate(entropy_tables(
            cat, partition, OrbitMeasure(cat, (0.0, 0.0), 2000), range(1, 9)))
        assert est.h_est == 0.0

    def test_rate_estimate_leb_short(self, cat, partition):
        est = entropy_rate_estimate(entropy_tables(
            cat, partition, OrbitMeasure(cat, SEED_POINT, 300_000),
            range(4, 9)))
        assert est.depth_used == 8
        assert abs(est.h_est - LOG_LAMBDA) < 0.15

    def test_adjacent_depths_stable(self, cat, partition):
        est = entropy_rate_estimate(entropy_tables(
            cat, partition, OrbitMeasure(cat, SEED_POINT, 300_000),
            range(4, 9)))
        rates = [h for _, h, _, ok in est.sequence if ok]
        assert max(abs(a - b) for a, b in zip(rates, rates[1:])) < 0.05

    def test_inadequate_raises(self, cat, partition):
        with pytest.raises(InsufficientSamples):
            entropy_rate_estimate(entropy_tables(
                cat, partition, OrbitMeasure(cat, SEED_POINT, 120), [10]))

    def test_weighted_merge_halves(self, cat, partition):
        leb = walk_table(cat, partition,
                         OrbitMeasure(cat, SEED_POINT, 20_000), 4)
        dirac = walk_table(cat, partition, DiscreteMeasure.dirac((0.0, 0.0)),
                           4)
        mix = weighted_merge([leb, dirac], [0.5, 0.5])
        share = as_dict(mix)[(0, 0, 0, 0)] / mix.total
        assert abs(share - (0.5 + 0.5 * as_dict(leb).get((0, 0, 0, 0), 0)
                            / leb.total)) < 1e-3

    def test_weighted_merge_reports_rounding(self):
        a = make_table(2, {(0, 0): 3, (0, 1): 1, (1, 0): 4})
        b = make_table(2, {(0, 1): 1})
        mix = weighted_merge([a, b], [0.25, 0.75])
        # a scaled by 1/4: 0.75, 0.25, 1.0 -> 1, 0, 1; b by 6: exact
        assert as_dict(mix) == {(0, 0): 1, (0, 1): 6, (1, 0): 1}
        assert mix.rounded_mass == 0.25 + 0.25
        assert abs(mix.total - a.total) <= mix.rounded_mass
        assert a.rounded_mass == 0.0


class TestCountRates:
    def test_depth_one_log_k(self, partition):
        rates = cylinder_count_rate(partition, [1])
        assert abs(rates.rates[0][1] - math.log(5)) < 1e-15

    def test_counts_are_fibonacci(self, partition):
        # admissible words at depth n number F(2n+3), an independent
        # recurrence check of the transition structure
        counts = dict(cylinder_count_rate(partition, range(1, 11)).counts)
        for n in range(1, 11):
            assert counts[n] == fib(2 * n + 3)

    def test_rate14_near_log_lambda(self, partition):
        rates = cylinder_count_rate(partition, range(1, 15))
        r14 = dict(rates.rates)[14]
        assert abs(r14 - LOG_LAMBDA) <= 0.1 * LOG_LAMBDA

    def test_k0_is_supremum(self, partition):
        rates = cylinder_count_rate(partition, range(1, 15))
        assert all(rates.k0_est >= r for _, r in rates.rates)
        assert rates.k0_est == rates.rates[0][1]

    def test_k0_is_log_k(self, partition):
        # the bound check's K0: word counts are submultiplicative, so the
        # largest count rate over depths 1..14 is the depth-1 rate log k
        rates = cylinder_count_rate(partition, range(1, 15))
        assert math.log(partition.k) == max(r for _, r in rates.rates)


class TestCountBound:
    def test_fixed_point_nonnegative(self, cat, partition):
        m = entropy_count_bound_check(
            walk_table(cat, partition, DiscreteMeasure.dirac((0.0, 0.0)), 8),
            0.1)
        assert m >= 0.0

    def test_full_cover_case(self, cat, partition):
        # tiny epsilon forces A to cover nearly everything observed:
        # log #A >= H always
        m = entropy_count_bound_check(
            walk_table(cat, partition,
                       OrbitMeasure(cat, SEED_POINT, 50_000), 5),
            0.01)
        assert m >= 0.0

    def test_lebesgue_margin(self, cat, partition):
        m = entropy_count_bound_check(
            walk_table(cat, partition,
                       OrbitMeasure(cat, SEED_POINT, 500_000), 8),
            0.1)
        assert m >= -0.05

    def test_epsilon_domain(self, cat, partition):
        with pytest.raises(ValueError):
            entropy_count_bound_check(
                walk_table(cat, partition,
                           DiscreteMeasure.dirac((0.0, 0.0)), 5),
                0.3)

    def test_cover_matches_greedy_loop(self, cat, partition):
        # #A from the sorted cumulative sum equals the largest-first loop
        t = walk_table(cat, partition,
                       OrbitMeasure(cat, SEED_POINT, 50_000), 6)
        k0 = cylinder_count_rate(partition, range(1, 15)).k0_est
        h = partition_entropy(t)
        for eps in (0.01, 0.1, 0.2):
            mass = taken = 0
            for c in sorted(t.counts.tolist(), reverse=True):
                mass += c
                taken += 1
                if mass > (1.0 - eps) * t.total:
                    break
            want = math.log(taken) - (h - 6 * k0 * eps + eps * math.log(eps)
                                      + (1 - eps) * math.log(1 - eps))
            assert entropy_count_bound_check(t, eps) == want
