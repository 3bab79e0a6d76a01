import importlib.util
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from toruslab import markov as markov_mod
from toruslab.basin import SampleGrid
from toruslab.cli import main
from toruslab.config import (ConfigInvalid, config_hash,
                             moment_vector_for_target, parse_config,
                             target_measure)
from toruslab.markov import (cat_map_partition, entropy_count_bound_check,
                             entropy_rate_estimate, entropy_tables)
from toruslab.runner import check_expectations, report, run, MissingRecord


ROOT = pathlib.Path(__file__).resolve().parents[1]
GRID_SOURCE = {"kind": "grid", "resolution": 16}
PERTURBED_MAP = {"matrix": [[2, 1], [1, 1]], "amplitude": 0.005,
                 "perturbation": [{"coeff": [1.0, 0.0], "freq": [0, 1]}]}


def minimal_config(tmpdir, **overrides):
    cfg = {
        "label": "mini",
        "map": {"matrix": [[2, 1], [1, 1]]},
        "family": {"truncation": 33},
        "grid": {"resolution": 64},
        "target": {"kind": "lebesgue"},
        "basin": {"epsilons": [0.2], "n_values": [10, 20, 30, 40, 50],
                  "window": [10, 50]},
        "output_dir": str(tmpdir),
    }
    cfg.update(overrides)
    return cfg


class TestConfigValidation:
    def test_identity_matrix_names_hyperbolicity(self, tmp_path):
        cfg = minimal_config(tmp_path, map={"matrix": [[1, 0], [0, 1]]})
        with pytest.raises(ConfigInvalid, match="hyperbolic"):
            parse_config(cfg)

    def test_increasing_epsilons_rejected(self, tmp_path):
        cfg = minimal_config(tmp_path)
        cfg["basin"]["epsilons"] = [0.1, 0.2]
        with pytest.raises(ConfigInvalid, match="decreasing"):
            parse_config(cfg)

    @pytest.mark.parametrize("epsilons, message", [
        ([], "non-empty"),
        ([float("nan")], "nan"),
        ([float("inf")], "inf"),
        ([-0.1], "-0.1"),
        ([0.2, 0.0], "0.0"),
        ("0.1", "basin.epsilons"),
    ])
    def test_bad_epsilons_named(self, tmp_path, epsilons, message):
        cfg = minimal_config(tmp_path)
        cfg["basin"]["epsilons"] = epsilons
        with pytest.raises(ConfigInvalid, match=message) as info:
            parse_config(cfg)
        assert info.value.field_path == "basin.epsilons"

    @pytest.mark.parametrize("key, value, message", [
        ("qr_steps", 99, ">= 100"),
        ("qr_steps", 0, ">= 100"),
        ("warmup", 0, ">= 1"),
        ("quad_grid", 0, ">= 1"),
        ("quad_grid", -4, ">= 1"),
        ("qr_point", [0.2], "two finite numbers"),
        ("qr_point", [0.2, 0.7, 0.1], "two finite numbers"),
        ("qr_point", [0.2, float("nan")], "two finite numbers"),
        ("qr_point", [float("inf"), 0.7], "two finite numbers"),
        ("qr_point", ["a", 0.7], "two finite numbers"),
        ("qr_point", 0.5, "two finite numbers"),
        ("qr_point", [False, 0.7], "two finite numbers"),
        ("qr_point", ["0.2", 0.7], "two finite numbers"),
    ])
    def test_bad_lyapunov_values_named(self, tmp_path, key, value, message):
        cfg = minimal_config(tmp_path, lyapunov={key: value})
        with pytest.raises(ConfigInvalid, match=message) as info:
            parse_config(cfg)
        assert info.value.field_path == f"lyapunov.{key}"

    @pytest.mark.parametrize("overrides, field_path, message", [
        ({"verify_grid": 8}, "verify_grid", ">= 16"),
        ({"threads": 0}, "threads", ">= 1"),
        ({"threads": -2}, "threads", ">= 1"),
        ({"grid": {"resolution": 0}}, "grid", "resolution must be >= 1"),
        ({"entropy": {"source": {"kind": "grid", "resolution": 0}}},
         "entropy.source", "resolution must be >= 1"),
        ({"entropy": {"source": GRID_SOURCE, "depths": []}},
         "entropy.depths", "non-empty"),
        ({"entropy": {"source": GRID_SOURCE, "depths": [0, 1]}},
         "entropy.depths", ">= 1"),
        ({"entropy": {"source": GRID_SOURCE, "count_depths": [0]}},
         "entropy.count_depths", ">= 1"),
        ({"entropy": {"source": GRID_SOURCE,
                      "bound_check": {"epsilon": 0.1, "depth": 0}}},
         "entropy.bound_check.depth", ">= 1"),
        ({"entropy": {"source": {"kind": "orbit", "point": ["nan", 0.2],
                                 "length": 100}}},
         "entropy.source.point", "two finite numbers"),
        ({"entropy": {"source": {"kind": "orbit", "point": [0.1, 0.2],
                                 "length": 0}}},
         "entropy.source.length", ">= 1"),
        ({"basin": {"epsilons": [0.2], "n_values": [10, 20],
                    "min_hits": "x"}}, "basin.min_hits", "integer"),
        ({"basin": {"epsilons": [0.2], "n_values": [10, 20],
                    "min_hits": 0}}, "basin.min_hits", ">= 1"),
        ({"basin": {"epsilons": [0.2], "n_values": [10, 20],
                    "verdict_tol": "x"}}, "basin.verdict_tol", "number"),
        ({"basin": {"epsilons": [0.2], "n_values": [10, 20],
                    "verdict_tol": -0.1}}, "basin.verdict_tol", ">= 0"),
        ({"basin": {"epsilons": [0.2], "n_values": [10, 20],
                    "window": ["x", 20]}}, "basin.window", "integer"),
        ({"basin": {"epsilons": [0.2], "n_values": [10, 20],
                    "window": 20}}, "basin.window", "list of integers"),
        ({"basin": {"epsilons": [0.2], "n_values": [10, "x"]}},
         "basin.n_values", "integer"),
        ({"basin": {"epsilons": [0.2], "n_values": None}},
         "basin.n_values", "list of integers"),
        ({"entropy": {"source": GRID_SOURCE,
                      "bound_check": {"epsilon": 0.1, "depth": 4,
                                      "tolerance": "x"}}},
         "entropy.bound_check.tolerance", "number"),
        ({"entropy": {"source": GRID_SOURCE,
                      "bound_check": {"epsilon": "x", "depth": 4}}},
         "entropy.bound_check.epsilon", "number"),
        ({"target": {"kind": "dirac", "point": [0.1, 0.2, 0.3]}},
         "target.point", "two finite numbers"),
        ({"target": {"kind": "periodic", "point": ["a", 0.2], "period": 1}},
         "target.point", "two finite numbers"),
        ({"target": {"kind": "empirical_orbit", "point": [math.nan, 0.2],
                     "length": 10}}, "target.point", "two finite numbers"),
        ({"target": {"kind": "mixture", "weights": [0.5, 0.5],
                     "components": [{"kind": "lebesgue"},
                                    {"kind": "dirac", "point": [0.1]}]}},
         "target.components[1].point", "two finite numbers"),
        ({"target": {"kind": "mixture", "weights": ["x", 0.5],
                     "components": [{"kind": "lebesgue"},
                                    {"kind": "lebesgue"}]}},
         "target.weights", "number"),
        ({"target": {"kind": "mixture", "weights": [1.5, -0.5],
                     "components": [{"kind": "lebesgue"},
                                    {"kind": "lebesgue"}]}},
         "target.weights", ">= 0"),
        ({"target": {"kind": "mixture", "weights": [math.inf, 0.5],
                     "components": [{"kind": "lebesgue"},
                                    {"kind": "lebesgue"}]}},
         "target.weights", "finite"),
        ({"map": {"matrix": [[2, 1], [1, 1]], "amplitude": 0.005,
                  "perturbation": [{"coeff": [1.0, 0.0]}]}},
         "map.perturbation[0].freq", "missing"),
        ({"target": 5}, "target", "object"),
        ({"map": [[2, 1], [1, 1]]}, "map", "object"),
        ({"grid": 64}, "grid", "object"),
        ({"family": 33}, "family", "object"),
        ({"entropy": "orbit"}, "entropy", "object"),
        ({"lyapunov": [60]}, "lyapunov", "object"),
        ({"expect": 5}, "expect", "object"),
        ({"basin": {"n_values": [10, 20]}}, "basin.epsilons", "missing"),
        ({"label": "../escape"}, "label", "plain file name"),
        ({"label": "a/b"}, "label", "plain file name"),
        ({"label": ""}, "label", "plain file name"),
        ({"map": {**PERTURBED_MAP, "amplitude": math.nan}}, "map",
         "amplitude must be finite"),
        ({"map": {**PERTURBED_MAP, "perturbation": [
            {"coeff": [math.inf, 0.0], "freq": [0, 1]}]}}, "map",
         "coefficient must be finite"),
        ({"basin": {"epsilons": [0.2], "n_values": [10.9, 20]}},
         "basin.n_values", "integer, got 10.9"),
        ({"basin": {"epsilons": [0.2], "n_values": [10, 20],
                    "min_hits": 30.5}}, "basin.min_hits", "integer"),
        ({"basin": {"epsilons": [0.2], "n_values": [10, 20],
                    "min_hits": "30"}}, "basin.min_hits", "integer"),
        ({"basin": {"epsilons": [0.2], "n_values": [10, 20],
                    "verdict_tol": True}}, "basin.verdict_tol", "number"),
        ({"lyapunov": {"warmup": True}}, "lyapunov.warmup", "integer"),
        ({"threads": 1.5}, "threads", "integer"),
        ({"grid": {"resolution": 2.7}}, "grid",
         "resolution must be an integer"),
        ({"grid": {"resolution": 64, "seed": "1"}}, "grid",
         "seed must be an integer"),
        ({"grid": {"resolution": 64, "jitter": "false"}}, "grid",
         "jitter must be true or false"),
        ({"grid": {"resolution": 64, "jitter": 1}}, "grid",
         "jitter must be true or false"),
        ({"entropy": {"source": {"kind": "grid", "resolution": 16.5}}},
         "entropy.source", "resolution must be an integer"),
        ({"expect": {"verdikt": "negative_rate"}}, "expect.verdikt",
         "unknown expectation"),
        ({"expect": {"verdict": "rate zero"}}, "expect.verdict",
         "verdict name"),
        ({"expect": {"max_abs_slope": "0.1"}}, "expect.max_abs_slope",
         "number"),
        ({"expect": {"max_abs_rate_residual": -0.1}},
         "expect.max_abs_rate_residual", ">= 0"),
        ({"expect": {"bound_margin_min": math.nan}},
         "expect.bound_margin_min", "finite"),
        ({"target": {"kind": "dirac", "point": [0.1, True]}},
         "target.point", "two finite numbers"),
        ({"basin": {"epsilons": [True], "n_values": [10, 20]}},
         "basin.epsilons", "number, got True"),
        ({"basin": {"epsilons": [0.2, "0.1"], "n_values": [10, 20]}},
         "basin.epsilons", "number, got '0.1'"),
        ({"grid": {"resolution": 64, "jitter": True, "seed": -1}}, "grid",
         "seed must be >= 0"),
        ({"entropy": {"source": {**GRID_SOURCE, "seed": -1}}},
         "entropy.source", "seed must be >= 0"),
        # float() and NumPy would read "0.005" and true as 0.005 and 1.0,
        # and fail on "2" inside a ufunc, not naming the field
        ({"map": {**PERTURBED_MAP, "amplitude": "0.005"}}, "map.amplitude",
         "number, got '0.005'"),
        ({"map": {**PERTURBED_MAP, "amplitude": True}}, "map.amplitude",
         "number, got True"),
        ({"map": {**PERTURBED_MAP, "perturbation": [
            {"coeff": ["1.0", 0], "freq": [0, 1]}]}},
         "map.perturbation[0].coeff", "two numbers"),
        ({"map": {**PERTURBED_MAP, "perturbation": [
            {"coeff": [1.0, 0.0], "freq": [0, 1]},
            {"coeff": [True, 0], "freq": [0, 1]}]}},
         "map.perturbation[1].coeff", "two numbers"),
        ({"map": {**PERTURBED_MAP, "perturbation": [
            {"coeff": [1.0, 0.0], "freq": [True, 0]}]}},
         "map.perturbation[0].freq", "two integers"),
        ({"map": {**PERTURBED_MAP, "perturbation": [
            {"coeff": [1.0, 0.0], "freq": [0.5, 1]}]}},
         "map.perturbation[0].freq", "two integers"),
        ({"map": {"matrix": [[2, 1], [1, True]]}}, "map.matrix",
         "2x2 list of integers"),
        ({"map": {"matrix": [["2", 1], [1, 1]]}}, "map.matrix",
         "2x2 list of integers"),
        ({"map": {"matrix": [[2, 1], [1, 1.5]]}}, "map.matrix",
         "2x2 list of integers"),
        ({"map": {"matrix": [2, 1, 1, 1]}}, "map.matrix",
         "2x2 list of integers"),
        # str() would name the record files "True", "['a']" and "None"
        ({"label": True}, "label", "string, got True"),
        ({"label": ["a"]}, "label", "string, got"),
        ({"label": None}, "label", "string, got None"),
        ({"output_dir": None}, "output_dir", "string, got None"),
        ({"output_dir": 5}, "output_dir", "string, got 5"),
        # int64 det and trace wrap: det 2^64 + 1 read as 1
        ({"map": {"matrix": [[2**32, -1], [1, 2**32]]}}, "map.matrix",
         "unimodular"),
        ({"map": {"matrix": [[2**64 + 1, 2**64], [1, 1]]}}, "map.matrix",
         "too large"),
        # through uint64 and int64, 2^63 gave det -2^63 - 1 and 2^70 a
        # NumPy TypeError
        ({"map": {"matrix": [[2**63, 1], [1, 1]]}}, "map.matrix",
         f"det = {2**63 - 1}$"),
        ({"map": {"matrix": [[2**70, 1], [1, 1]]}}, "map.matrix",
         f"det = {2**70 - 1}$"),
    ])
    def test_bad_fields_named(self, tmp_path, overrides, field_path,
                              message):
        cfg = minimal_config(tmp_path, **overrides)
        with pytest.raises(ConfigInvalid, match=message) as info:
            parse_config(cfg)
        assert info.value.field_path == field_path
        assert str(info.value).count(f"{field_path}:") == 1

    @pytest.mark.parametrize("overrides, field_path", [
        ({"verfy_grid": 64}, "verfy_grid"),
        ({"map": {"matrix": [[2, 1], [1, 1]], "amp": 0.1}}, "map.amp"),
        ({"map": {**PERTURBED_MAP, "perturbation": [
            {"coeff": [1.0, 0.0], "freq": [0, 1], "phase": 0.5}]}},
         "map.perturbation[0].phase"),
        ({"family": {"trunc": 9}}, "family.trunc"),
        ({"grid": {"resolution": 64, "jiter": True}}, "grid.jiter"),
        ({"target": {"kind": "lebesgue", "point": [0, 0]}}, "target.point"),
        ({"target": {"kind": "dirac", "point": [0, 0], "period": 1}},
         "target.period"),
        ({"target": {"kind": "periodic", "point": [0.4, 0.8], "period": 2,
                     "length": 2}}, "target.length"),
        ({"target": {"kind": "empirical_orbit", "point": [0.1, 0.2],
                     "length": 10, "period": 1}}, "target.period"),
        ({"target": {"kind": "mixture", "weights": [1.0], "components": [
            {"kind": "lebesgue", "weight": 1.0}]}},
         "target.components[0].weight"),
        ({"target": {"kind": "mixture", "weights": [1.0], "components": [
            {"kind": "lebesgue"}], "weight": [1.0]}}, "target.weight"),
        ({"basin": {"epsilons": [0.2], "n_values": [10, 20],
                    "min_hit": 5}}, "basin.min_hit"),
        ({"entropy": {"source": GRID_SOURCE, "depth": 5}}, "entropy.depth"),
        ({"entropy": {"source": {**GRID_SOURCE, "length": 5}}},
         "entropy.source.length"),
        ({"entropy": {"source": {"kind": "orbit", "point": [0.1, 0.2],
                                 "length": 100, "seed": 1}}},
         "entropy.source.seed"),
        ({"target": {"kind": "dirac", "point": [0, 0]},
          "entropy": {"source": {"kind": "target_atoms", "length": 5}}},
         "entropy.source.length"),
        ({"entropy": {"source": GRID_SOURCE,
                      "bound_check": {"epsilon": 0.1, "depth": 4,
                                      "eps": 0.1}}},
         "entropy.bound_check.eps"),
        ({"lyapunov": {"wramup": 5}}, "lyapunov.wramup"),
    ])
    def test_unknown_fields_named(self, tmp_path, overrides, field_path):
        # before, each of these keys was ignored and its default used
        cfg = minimal_config(tmp_path, **overrides)
        with pytest.raises(ConfigInvalid, match="unknown field; known: "
                           ) as info:
            parse_config(cfg)
        assert info.value.field_path == field_path

    def test_shipped_configs_parse(self, tmp_path, monkeypatch):
        # every config the project ships uses only known fields: the
        # benchmark workloads, the acceptance runs, the scripts' runs and
        # the README example
        from toruslab.experiments import (DIRAC_RATE_CONFIG, LEB_RATE_CONFIG,
                                          PERTURBED_PROXY_CONFIG)
        monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
        from workloads import WORKLOADS
        raws = [w(1, str(tmp_path)).raw_config() for w in WORKLOADS.values()]
        raws += [DIRAC_RATE_CONFIG, LEB_RATE_CONFIG, PERTURBED_PROXY_CONFIG]
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        raws += [json.loads(block) for block in
                 re.findall(r"```json\n(.*?)```", readme, re.S)]
        assert len(raws) == 8
        for raw in raws:
            parse_config(raw)

        class Parsed(Exception):
            pass

        def stop(cfg, **kwargs):
            raise Parsed(cfg)

        for path in sorted((ROOT / "scripts").glob("*.py")):
            spec = importlib.util.spec_from_file_location(path.stem, path)
            script = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(script)
            monkeypatch.setattr(script, "run", stop)
            monkeypatch.setattr(sys, "argv", [str(path), "--out",
                                              str(tmp_path)])
            with pytest.raises(Parsed):
                script.main()

    def test_integral_floats_accepted(self, tmp_path):
        cfg = minimal_config(tmp_path, grid={"resolution": 64.0,
                                             "jitter": True, "seed": 3.0})
        cfg["basin"].update(n_values=[10.0, 20], min_hits=1e1)
        parsed = parse_config(cfg)
        assert parsed.grid == SampleGrid(resolution=64, jitter=True, seed=3)
        assert parsed.basin["n_values"] == [10, 20]
        assert type(parsed.basin["min_hits"]) is int
        assert parsed.basin["min_hits"] == 10

    def test_expectations_parsed(self, tmp_path):
        cfg = minimal_config(tmp_path, expect={
            "verdict": "negative_rate", "max_abs_slope": 1,
            "max_abs_rate_residual": 0.25, "bound_margin_min": -0.05})
        assert parse_config(cfg).expect == {
            "verdict": "negative_rate", "max_abs_slope": 1.0,
            "max_abs_rate_residual": 0.25, "bound_margin_min": -0.05}

    def test_lyapunov_bounds_accepted(self, tmp_path):
        cfg = minimal_config(tmp_path, lyapunov={
            "qr_steps": 100, "warmup": 1, "quad_grid": 1,
            "qr_point": [0, 1]})
        ly = parse_config(cfg).lyapunov
        assert (ly["qr_steps"], ly["warmup"], ly["quad_grid"]) == (100, 1, 1)
        assert ly["qr_point"] == (0.0, 1.0)

    def test_mixture_weights_must_sum(self, tmp_path):
        cfg = minimal_config(tmp_path, target={
            "kind": "mixture",
            "components": [{"kind": "lebesgue"},
                           {"kind": "dirac", "point": [0, 0]}],
            "weights": [0.5, 0.4]})
        with pytest.raises(ConfigInvalid, match="sum to 1"):
            parse_config(cfg)

    def test_periodic_point_verified(self, tmp_path):
        cfg = minimal_config(tmp_path, target={
            "kind": "periodic", "point": [0.3, 0.3], "period": 2})
        with pytest.raises(ConfigInvalid, match="not periodic"):
            parse_config(cfg)
        good = minimal_config(tmp_path, target={
            "kind": "periodic", "point": [0.4, 0.8], "period": 2})
        parsed = parse_config(good)
        assert parsed.target.period == 2

    def test_hash_stable_and_sensitive(self, tmp_path):
        cfg = minimal_config(tmp_path)
        h1 = config_hash(cfg)
        h2 = config_hash(json.loads(json.dumps(cfg)))
        assert h1 == h2
        cfg["grid"]["resolution"] = 65
        assert config_hash(cfg) != h1

    def test_mixture_moments_affine(self, tmp_path):
        cfg = minimal_config(tmp_path, target={
            "kind": "mixture",
            "components": [{"kind": "lebesgue"},
                           {"kind": "dirac", "point": [0.0, 0.0]}],
            "weights": [0.25, 0.75]})
        parsed = parse_config(cfg)
        mv = moment_vector_for_target(parsed.target, parsed.map,
                                      parsed.family)
        from toruslab.weakstar import (LEBESGUE, DiscreteMeasure, moments)
        leb = moments(LEBESGUE, parsed.family).values
        dirac = moments(DiscreteMeasure.dirac((0.0, 0.0)),
                        parsed.family).values
        assert np.allclose(mv.values, 0.25 * leb + 0.75 * dirac)


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    tmpdir = tmp_path_factory.mktemp("rec")
    cfg = parse_config(minimal_config(tmpdir))
    return run(cfg, threads=1), tmpdir


class TestRunner:

    def test_minimal_run_high_fraction(self, record):
        rec, _ = record
        rows = rec["stages"]["basin"]["curves"][0]["rows"]
        last = rows[-1]
        assert last[0] == 50
        assert last[1] / last[2] >= 0.9

    def test_verdict_and_rates_present(self, record):
        rec, _ = record
        st = rec["stages"]["basin"]
        assert st["verdict"] == "consistent_with_zero"
        assert len(st["rates"]) == 1

    def test_csv_sidecars(self, record):
        rec, tmpdir = record
        curves = os.path.join(str(tmpdir), "mini_curves.csv")
        rates = os.path.join(str(tmpdir), "mini_rates.csv")
        header = open(curves).readline().strip()
        assert header == "epsilon,n,hits,samples,log_fraction"
        assert open(rates).readline().startswith("epsilon,slope,stderr")

    def test_rerun_identical_counts(self, record):
        # same config, different thread count: identical counts and hash
        rec, _ = record
        cfg = parse_config(json.loads(json.dumps(rec["config"])))
        rec2 = run(cfg, threads=2)
        assert (rec2["stages"]["basin"]["curves"]
                == rec["stages"]["basin"]["curves"])
        assert rec2["config_hash"] == rec["config_hash"]

    @pytest.mark.parametrize("threads", [0, -1])
    def test_bad_threads_named(self, tmp_path, threads):
        cfg = parse_config(minimal_config(tmp_path))
        with pytest.raises(ValueError, match="threads"):
            run(cfg, threads=threads)
        assert not (tmp_path / "mini.json").exists()

    def test_expectations(self, record):
        rec, _ = record
        assert check_expectations(rec, {"verdict": "consistent_with_zero"}) == []
        fails = check_expectations(rec, {"verdict": "negative_rate"})
        assert fails and "verdict" in fails[0]

    @pytest.fixture(scope="class")
    def dirac_record(self, tmp_path_factory):
        cfg = parse_config(minimal_config(
            tmp_path_factory.mktemp("dirac"), label="dirac-mini",
            target={"kind": "dirac", "point": [0.0, 0.0]},
            basin={"epsilons": [0.2, 0.1], "n_values": list(range(4, 11)),
                   "window": [4, 10], "min_hits": 5},
            grid={"resolution": 128}))
        return run(cfg, threads=1)

    def test_dirac_residual_pipeline(self, dirac_record):
        res = dirac_record["stages"]["residuals"]
        assert res["h_est"] == 0.0
        assert res["h_est_source"] == "point_mass_exact"
        assert abs(res["unstable_integral"]
                   - math.log((3 + math.sqrt(5)) / 2)) < 1e-9
        assert "rate_residual" in res

    def test_point_steps_recorded(self, dirac_record, tmp_path):
        # pruned below samples x n_max, and the same on two threads
        st = dirac_record["stages"]["basin"]
        assert isinstance(st["point_steps"], int)
        assert st["samples"] * 4 < st["point_steps"] < st["samples"] * 10
        cfg = parse_config({**dirac_record["config"],
                            "output_dir": str(tmp_path)})
        assert (run(cfg, threads=2)["stages"]["basin"]
                == dirac_record["stages"]["basin"])

    def test_rate_residual_names_its_epsilon(self, dirac_record):
        # the residual is measured at the smallest eps of the sweep
        res = dirac_record["stages"]["residuals"]
        rates = dirac_record["stages"]["basin"]["rates"]
        assert [r["epsilon"] for r in rates] == [0.2, 0.1]
        assert res["rate_residual_epsilon"] == 0.1
        assert res["a_est"] == rates[-1]["slope"]

    def test_dyadic_grid_orbits_are_periodic(self, cat):
        # the premise of the grid warning: every float orbit of the G=64
        # grid returns exactly after 1.5 G = 96 steps, and not before
        start = SampleGrid(resolution=64).chunk(0, 64 * 64)
        x = start
        for _ in range(95):
            x = cat.step(x)
        assert not np.array_equal(x, start)
        assert np.array_equal(cat.step(x), start)

    @pytest.mark.parametrize("grid, map_spec, n_max, period", [
        ({"resolution": 64}, None, 96, 96),
        ({"resolution": 64}, None, 95, None),
        ({"resolution": 64, "jitter": True}, None, 96, None),
        ({"resolution": 96}, None, 200, None),
        ({"resolution": 64}, PERTURBED_MAP, 96, None),
    ], ids=["G64-n96", "G64-n95", "jittered", "G96", "perturbed"])
    def test_periodic_grid_warning(self, tmp_path, grid, map_spec, n_max,
                                   period):
        cfg = minimal_config(
            tmp_path, grid=grid, lyapunov={"quad_grid": 16},
            basin={"epsilons": [0.2], "n_values": [n_max - 2, n_max - 1,
                                                   n_max]})
        if map_spec is not None:
            cfg["map"] = map_spec
        rec = run(parse_config(cfg), threads=1)
        warned = [w for w in rec["warnings"] if w.startswith("grid:")]
        if period is None:
            assert warned == []
        else:
            assert len(warned) == 1
            assert f"period {period}," in warned[0]

    def test_entropy_stage_with_bound_check(self, tmp_path):
        cfg = parse_config(minimal_config(
            tmp_path, label="ent-mini",
            entropy={"source": {"kind": "orbit",
                                "point": [0.2137214321, 0.5721347123],
                                "length": 200000},
                     "depths": list(range(1, 9)),
                     "count_depths": list(range(1, 15)),
                     "bound_check": {"epsilon": 0.1, "depth": 6,
                                     "tolerance": 0.05}}))
        rec = run(cfg, threads=1)
        ent = rec["stages"]["entropy"]
        assert ent["non_exact_partition"] is False
        assert ent["bound_check"]["ok"]
        assert abs(dict((r["depth"], r["rate"])
                        for r in ent["count_rates"])[14]
                   - 0.9624236501192069) <= 0.09624236501192069


    def test_entropy_stage_unchanged_by_cell_table(self, tmp_path,
                                                   monkeypatch):
        # with every cell unlabelled `locate` scans every point; cylinder
        # counts, entropies and the bound margin must not move
        cfg = parse_config(minimal_config(
            tmp_path, label="ent-cells", basin=None,
            entropy={"source": {"kind": "orbit",
                                "point": [0.2137214321, 0.5721347123],
                                "length": 100_000},
                     "depths": list(range(1, 14)),
                     "bound_check": {"epsilon": 0.1, "depth": 10}}))
        part = cat_map_partition()
        assert np.any(part._cells >= 0)
        shipped = run(cfg, threads=1)["stages"]["entropy"]
        monkeypatch.setattr(part, "_cells", np.full_like(part._cells, -1))
        scanned = run(cfg, threads=1)["stages"]["entropy"]
        assert shipped == scanned
        assert "margin" in shipped["bound_check"]

    def test_entropy_stage_takes_one_start_set(self, tmp_path, monkeypatch):
        # one entropy_tables call per entropy stage; with the bound depth
        # above every entropy depth, all tables count starts 0..L-n of the
        # orbit, n the bound depth
        calls = []
        tables_of = markov_mod.entropy_tables

        def spy(*args):
            calls.append(tables_of(*args))
            return calls[-1]

        monkeypatch.setattr(markov_mod, "entropy_tables", spy)
        length, bound_depth = 20_000, 10
        cfg = parse_config(minimal_config(
            tmp_path, label="ent-once", basin=None,
            entropy={"source": {"kind": "orbit", "point": [0.2137, 0.5721],
                                "length": length},
                     "depths": list(range(1, 9)),
                     "bound_check": {"epsilon": 0.1, "depth": bound_depth}}))
        assert "error" not in run(cfg, threads=1)["stages"]["entropy"]
        assert len(calls) == 1
        assert sorted(calls[0]) == list(range(1, 9)) + [bound_depth]
        assert {t.total for t in calls[0].values()} == {
            length - bound_depth + 1}

    @pytest.mark.parametrize("source, depths, bound_depth", [
        ({"kind": "orbit", "point": [0.2137214321, 0.5721347123],
          "length": 200000}, list(range(1, 9)), 10),
        ({"kind": "grid", "resolution": 64}, [1, 2, 3, 4], 6),
    ], ids=["orbit", "grid"])
    def test_entropy_stage_matches_standalone_calls(self, tmp_path, source,
                                                    depths, bound_depth):
        # the runner takes every table of the stage from one call over the
        # depths and the bound depth; its numbers must equal that call's,
        # bit for bit
        cfg = parse_config(minimal_config(
            tmp_path, label="ent-walk", basin=None,
            entropy={"source": source, "depths": depths,
                     "bound_check": {"epsilon": 0.1, "depth": bound_depth}}))
        ent = run(cfg, threads=1)["stages"]["entropy"]
        part = cat_map_partition()
        src = cfg.entropy["source"]
        if source["kind"] == "orbit":
            src = target_measure(src, cfg.map)
        tables = entropy_tables(cfg.map, part, src, depths + [bound_depth])
        assert (ent["bound_check"]["margin"]
                == entropy_count_bound_check(tables[bound_depth], 0.1))
        est = entropy_rate_estimate({d: tables[d] for d in depths})
        assert ent["sequence"] == [
            {"depth": d, "h_over_n": h, "observed": obs, "adequate": ok}
            for d, h, obs, ok in est.sequence]
        assert ent["h_est"] == est.h_est


class TestReport:
    def _two_records(self, tmpdir):
        recs = []
        for label, k in (("a", 33), ("b", 17)):
            cfg = parse_config(minimal_config(
                tmpdir, label=label, family={"truncation": k},
                basin={"epsilons": [0.3], "n_values": [5, 10, 15, 20],
                       "window": [5, 20]},
                grid={"resolution": 32}))
            rec = run(cfg, threads=1)
            recs.append(rec["record_path"])
        return recs

    def test_csv_merge_same_family(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path, label="one"))
        rec = run(cfg, threads=1)
        out = report([rec["record_path"]], "csv", str(tmp_path / "rep"))
        assert any(p.endswith("curves.csv") for p in out)

    def test_family_mismatch_not_merged(self, tmp_path):
        paths = self._two_records(tmp_path)
        out = report(paths, "csv", str(tmp_path / "rep"))
        names = [os.path.basename(p) for p in out]
        assert "report_warnings.txt" in names
        assert any("curves_K33" in n for n in names)
        assert any("curves_K17" in n for n in names)

    def test_plotdata_columns(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path, label="pd"))
        rec = run(cfg, threads=1)
        out = report([rec["record_path"]], "plotdata", str(tmp_path / "rep"))
        curve = [p for p in out if p.endswith("curve.csv")][0]
        assert open(curve).readline().strip() == "n,log_fraction"
        sweep = [p for p in out if p.endswith("sweep.csv")][0]
        assert open(sweep).readline().strip() == "epsilon,slope,stderr"

    def test_missing_record(self, tmp_path):
        with pytest.raises(MissingRecord):
            report([str(tmp_path / "nope.json")], "csv", str(tmp_path))


class TestCli:
    def _run(self, *args, env=None):
        e = dict(os.environ)
        if env:
            e.update(env)
        return subprocess.run([sys.executable, "-m", "toruslab.cli", *args],
                              capture_output=True, text=True, env=e)

    def test_run_and_exit_codes(self, tmp_path):
        cfg = minimal_config(tmp_path, expect={"verdict":
                                               "consistent_with_zero"})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        r = self._run("run", str(path))
        assert r.returncode == 0, r.stderr
        cfg["expect"] = {"verdict": "negative_rate"}
        path.write_text(json.dumps(cfg))
        assert self._run("run", str(path)).returncode == 2

    def test_unknown_expectation_exit_1(self, tmp_path):
        cfg = minimal_config(tmp_path, expect={"verdikt": "negative_rate"})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        r = self._run("run", str(path))
        assert r.returncode == 1
        assert ("invalid config: expect.verdikt: unknown expectation"
                in r.stderr)
        assert not (tmp_path / "mini.json").exists()

    def test_invalid_config_exit_1(self, tmp_path):
        cfg = minimal_config(tmp_path, map={"matrix": [[1, 0], [0, 1]]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        r = self._run("run", str(path))
        assert r.returncode == 1
        assert "hyperbolic" in r.stderr

    def test_verify_map(self, tmp_path):
        cfg = minimal_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        r = self._run("verify-map", str(path))
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["passed"] is True

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_bad_threads_flag_rejected(self, tmp_path, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_config(tmp_path)))
        r = self._run("run", str(path), "--threads", value)
        assert r.returncode == 1
        assert "--threads" in r.stderr
        assert not (tmp_path / "mini.json").exists()

    @pytest.mark.parametrize("argv, message", [
        (["run", "cfg.json", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        (["verify-map", "cfg.json", "--grid", "8"],
         "argument --grid: must be >= 16, got 8"),
    ], ids=["unknown-flag", "no-subcommand", "verify-grid-below-16"])
    def test_usage_error_exit_1(self, capsys, argv, message):
        # 2 is reserved for a failed verdict or expectation
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert message in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "usage: toruslab" in capsys.readouterr().out

    def test_threads_env_var(self, tmp_path):
        cfg = minimal_config(tmp_path, label="envthreads")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        r = self._run("run", str(path), env={"TORUSLAB_THREADS": "2"})
        assert r.returncode == 0
        rec = json.load(open(tmp_path / "envthreads.json"))
        assert rec["env"]["threads"] == 2
