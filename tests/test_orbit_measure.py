"""An empirical-orbit target read as one stream, against the coalesced atoms.

OrbitMeasure keeps the L orbit points in order; DiscreteMeasure of the same
orbit is the per-atom route every stage took before.  The two must agree:
moments to the rounding of a blocked sum, the unstable integral to the
alignment of a 60-step warmup, cylinder tables exactly.
"""

import math
import tracemalloc

import numpy as np
import pytest

from toruslab import markov
from toruslab.config import parse_config
from toruslab.dynamics import (ORBIT_BLOCK, TWO_PI, HyperbolicToralMap,
                               from_phases, unstable_warmup)
from toruslab.lyapunov import unstable_integral
from toruslab.markov import entropy_tables
from toruslab.runner import run
from toruslab.weakstar import (DiscreteMeasure, OrbitMeasure,
                               TestFunctionFamily, _enumerate_frequencies,
                               moments)

PERTURBED_SPEC = {"matrix": [[2, 1], [1, 1]], "amplitude": 0.005,
                  "perturbation": [{"coeff": [1.0, 0.0], "freq": [0, 1]}]}
PERTURBED = HyperbolicToralMap([[2, 1], [1, 1]], 0.005,
                               [((1.0, 0.0), (0, 1))])
CAT = HyperbolicToralMap([[2, 1], [1, 1]])
POINT = (0.2137214321, 0.5721347123)


@pytest.fixture(scope="module")
def orbit_2000():
    return OrbitMeasure(PERTURBED, POINT, 2000)


class TestOrbitMeasure:
    @pytest.mark.parametrize("map", [PERTURBED, CAT],
                             ids=["perturbed", "cat"])
    def test_atoms_are_the_orbit_in_order(self, map, monkeypatch):
        # a cat orbit is built on the first read of atoms, a perturbed one
        # with the measure; either is built once
        calls = []
        orbit = HyperbolicToralMap.orbit

        def counted(self, point, n):
            calls.append(n)
            return orbit(self, point, n)

        monkeypatch.setattr(HyperbolicToralMap, "orbit", counted)
        mu = OrbitMeasure(map, POINT, 2000)
        assert len(mu) == 2000
        assert calls == ([] if map.is_linear else [2000])
        atoms = mu.atoms
        assert mu.atoms is atoms and calls == [2000]
        monkeypatch.undo()
        assert atoms.tobytes() == map.orbit(POINT, 2000).tobytes()
        assert np.all(mu.weights == 1.0 / 2000)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            OrbitMeasure(PERTURBED, POINT, 0)

    def test_tables_build_no_float_orbit(self, partition, monkeypatch):
        # a cat orbit is generated and located as uint64 phases: only the
        # points of unlabelled cells, about 5%, are converted to doubles
        def no_orbit(*args):
            raise AssertionError("float orbit built")

        converted = []

        def counted(phases, out=None):
            converted.append(len(phases))
            return from_phases(phases, out)

        monkeypatch.setattr(HyperbolicToralMap, "orbit", no_orbit)
        monkeypatch.setattr(OrbitMeasure, "atoms", property(no_orbit))
        monkeypatch.setattr(markov, "from_phases", counted)
        mu = OrbitMeasure(CAT, POINT, 100_000)
        tables = entropy_tables(CAT, partition, mu, [1, 6])
        assert tables[6].total == 100_000 - 6 + 1
        assert 0 < sum(converted) < 0.1 * len(mu)

    def test_other_map_rejected(self, orbit_2000, cat, partition):
        with pytest.raises(ValueError, match="another map"):
            unstable_integral(cat, orbit_2000)
        with pytest.raises(ValueError, match="another map"):
            entropy_tables(cat, partition, orbit_2000, [4])


class TestStreamedEqualsAtoms:
    def test_moments(self, orbit_2000, family):
        streamed = moments(orbit_2000, family).values
        atoms = moments(DiscreteMeasure(orbit_2000.atoms), family).values
        assert np.max(np.abs(streamed - atoms)) <= 1e-13

    def test_blocked_moments_match_exact_sum(self, family):
        # 25 row blocks against correctly rounded column sums of phi; the
        # former single (N, K) product was 7.2e-13 off in m_0 here
        mu = OrbitMeasure(PERTURBED, POINT, 200_000)
        # phi_0 = 1, then (1 + cos)/2 and (1 + sin)/2 of each frequency,
        # each column from a trig call
        sums = [float(len(mu))]
        for k in _enumerate_frequencies(family.truncation // 2):
            turn = TWO_PI * (mu.atoms @ k.astype(float))
            sums += [math.fsum((1 + np.cos(turn)) / 2),
                     math.fsum((1 + np.sin(turn)) / 2)]
        exact = np.array(sums[:family.truncation]) / len(mu)
        assert np.max(np.abs(moments(mu, family).values - exact)) <= 1e-15

    def test_unstable_integral(self, orbit_2000):
        streamed = unstable_integral(PERTURBED, orbit_2000)
        per_atom = unstable_integral(PERTURBED,
                                     DiscreteMeasure(orbit_2000.atoms))
        assert abs(streamed - per_atom) <= 1e-12

    def test_integral_is_the_birkhoff_average(self, orbit_2000):
        # (1/L) sum of log |Df u| along the orbit, u pushed forward by Df
        u = unstable_warmup(PERTURBED, np.array([POINT]), 60)[0]
        total = 0.0
        for jac in PERTURBED.differential(orbit_2000.atoms):
            w = jac @ u
            r = math.hypot(w[0], w[1])
            total += math.log(r)
            u = w / r
        assert abs(unstable_integral(PERTURBED, orbit_2000)
                   - total / 2000) <= 1e-12

    def test_entropy_tables(self, orbit_2000, partition):
        # the stream's starts 0..L-8, stepped as atoms, give the same words
        depths = list(range(1, 9))
        streamed = entropy_tables(PERTURBED, partition, orbit_2000, depths)
        starts = DiscreteMeasure(orbit_2000.atoms[:2000 - 8 + 1])
        stepped = entropy_tables(PERTURBED, partition, starts, depths)
        for d in depths:
            assert np.array_equal(streamed[d].codes, stepped[d].codes)
            assert np.array_equal(streamed[d].counts, stepped[d].counts)
            assert streamed[d].total == 2000 - 8 + 1


def float_orbit_tables(map, partition, length, depths):
    """{depth: (codes, counts)} of the float orbit map.orbit(POINT, length),
    located in one call, with int64 codes and np.unique's counts."""
    sym = markov.locate(partition, map.orbit(POINT, length))
    n_starts = length - max(depths) + 1
    out = {}
    for d in depths:
        codes = np.zeros(n_starts, dtype=np.int64)
        for j in range(d):
            codes = codes * partition.k + sym[j:j + n_starts]
        vals, cnts = np.unique(codes, return_counts=True)
        out[d] = (vals, cnts.astype(np.int64))
    return out


class TestStreamedTables:
    # a cat orbit measure streams its phases through locate in blocks of
    # ORBIT_BLOCK rows; lengths below one block, of whole blocks, with a
    # short last block, and of a single start
    @pytest.mark.parametrize("length", [1000, 3 * ORBIT_BLOCK,
                                        3 * ORBIT_BLOCK + 17, 13])
    def test_stream_atoms_and_float_orbit_agree(self, partition, length):
        depths = list(range(1, 14))
        streamed = entropy_tables(CAT, partition,
                                  OrbitMeasure(CAT, POINT, length), depths)
        read = OrbitMeasure(CAT, POINT, length)
        read.atoms
        from_atoms = entropy_tables(CAT, partition, read, depths)
        floats = float_orbit_tables(CAT, partition, length, depths)
        for d in depths:
            t, a = streamed[d], from_atoms[d]
            assert t.total == length - 13 + 1
            assert t.codes.dtype == a.codes.dtype == np.int64
            assert t.counts.dtype == a.counts.dtype == np.int64
            for codes, counts in ((a.codes, a.counts), floats[d]):
                assert np.array_equal(t.codes, codes)
                assert np.array_equal(t.counts, counts)

    def test_stream_peak_memory(self, partition):
        # the orbit is never held: a 4*10^6-point stream's tables, orbit
        # built inside the window, peak below 3/4 of its 16-byte phases
        # and within 26 MiB, so neither the code build nor the run sums
        # holds a large array beside the deepest codes
        length = 4_000_000
        tracemalloc.start()
        try:
            entropy_tables(CAT, partition, OrbitMeasure(CAT, POINT, length),
                           range(1, 14))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 16 * length, peak
        assert peak <= 26 * 2**20, peak


@pytest.mark.parametrize("measure", [
    lambda: OrbitMeasure(PERTURBED, POINT, 200_000),
    lambda: DiscreteMeasure(
        np.random.default_rng(3).random((200_000, 2))),
], ids=["orbit", "atoms"])
def test_moments_peak_memory(measure):
    # blocks of _PHI_ROWS rows: no (N, K) array of phi values is built
    mu = measure()
    family = TestFunctionFamily(33)
    tracemalloc.start()
    try:
        moments(mu, family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _config(tmp_path, label, source):
    return parse_config({
        "label": label, "map": PERTURBED_SPEC,
        "family": {"truncation": 17},
        "grid": {"resolution": 16, "jitter": True, "seed": 1},
        "target": {"kind": "empirical_orbit", "point": list(POINT),
                   "length": 5000},
        "basin": {"epsilons": [0.2], "n_values": [10, 20, 30]},
        "entropy": {"source": source, "depths": list(range(1, 7))},
        "output_dir": str(tmp_path),
    })


class TestRunner:
    def test_orbit_generated_once_per_run(self, tmp_path, monkeypatch):
        lengths = []
        orbit = HyperbolicToralMap.orbit

        def counted(self, point, n):
            lengths.append(n)
            return orbit(self, point, n)

        monkeypatch.setattr(HyperbolicToralMap, "orbit", counted)
        rec = run(_config(tmp_path, "once", {"kind": "target_atoms"}),
                  threads=1)
        assert not any("error" in st for st in rec["stages"].values())
        assert lengths.count(5000) == 1

    def test_target_atoms_read_the_orbit_stream(self, tmp_path):
        # target_atoms on an orbit target and an orbit source with the
        # same seed and length walk the same stream
        atoms = run(_config(tmp_path, "atoms", {"kind": "target_atoms"}),
                    threads=1)["stages"]
        orbit = run(_config(tmp_path, "orbit", {
            "kind": "orbit", "point": list(POINT), "length": 5000}),
            threads=1)["stages"]
        assert atoms["entropy"] == orbit["entropy"]
        assert atoms["lyapunov"]["unstable_integral_target"] == \
            unstable_integral(PERTURBED, OrbitMeasure(PERTURBED, POINT, 5000))

    def test_parse_builds_no_orbit(self, tmp_path, monkeypatch):
        # an empirical_orbit target and an orbit source are specs until the
        # run builds them, so parsing stays cheap for any orbit length
        def no_orbit(self, point, n):
            raise AssertionError("parse_config generated an orbit")

        monkeypatch.setattr(HyperbolicToralMap, "orbit", no_orbit)
        cfg = _config(tmp_path, "parse", {
            "kind": "orbit", "point": list(POINT), "length": 5000})
        assert cfg.target.kind == cfg.entropy["source"].kind \
            == "empirical_orbit"
