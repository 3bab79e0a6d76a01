"""Experiment configuration: one JSON document, validated with field paths.

A config names a map, a test-function family, a sample grid, a target
measure, and the pipelines to run (basin sweep, entropy pipeline, Lyapunov
data).  Records echo the config and its hash so every reported number is
traceable to its inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from toruslab.basin import MIN_HITS, SampleGrid, Verdict
from toruslab.dynamics import (HyperbolicToralMap, MatrixInvalid,
                               torus_distance)
from toruslab.lyapunov import DEFAULT_QUAD_GRID, DEFAULT_WARMUP
from toruslab.weakstar import (DEFAULT_TRUNCATION, LEBESGUE, DiscreteMeasure,
                               MomentVector, OrbitMeasure, TestFunctionFamily,
                               moments)

PERIODIC_TOL = 1e-9


class ConfigInvalid(ValueError):
    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path


def config_hash(raw: dict) -> str:
    """Content hash of the canonical JSON form."""
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class TargetSpec:
    kind: str
    point: tuple | None = None
    period: int | None = None
    length: int | None = None
    components: list = field(default_factory=list)
    weights: list = field(default_factory=list)

    def h_exact(self) -> float | None:
        """Entropy known without estimation: point masses carry none."""
        if self.kind in ("dirac", "periodic"):
            return 0.0
        return None


@dataclass
class ExperimentConfig:
    label: str
    raw: dict
    map: HyperbolicToralMap
    family: TestFunctionFamily
    grid: SampleGrid
    target: TargetSpec
    basin: dict | None
    entropy: dict | None
    lyapunov: dict
    expect: dict
    output_dir: str
    verify_grid: int

    @property
    def hash(self) -> str:
        return config_hash(self.raw)


def _require(d: dict, key: str, path: str):
    if key not in _object(d, path):
        raise ConfigInvalid(f"{path}.{key}", "missing required field")
    return d[key]


def _object(value, path: str, known=None) -> dict:
    """value, checked to be an object with no key outside known, if given."""
    if not isinstance(value, dict):
        raise ConfigInvalid(path, f"must be an object, got {value!r}")
    for key in value if known is not None else ():
        if key not in known:
            name = key if path == "$" else f"{path}.{key}"
            raise ConfigInvalid(name, "unknown field; known: "
                                + ", ".join(known))
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigInvalid(path, f"must be a list, got {value!r}")
    return value


def parse_target(spec: dict, map: HyperbolicToralMap, path: str = "target"
                 ) -> TargetSpec:
    kind = _require(spec, "kind", path)
    if kind == "lebesgue":
        _object(spec, path, ("kind",))
        return TargetSpec(kind="lebesgue")
    if kind == "dirac":
        _object(spec, path, ("kind", "point"))
        pt = _parse_point(_require(spec, "point", path), f"{path}.point")
        return TargetSpec(kind="dirac", point=pt)
    if kind == "periodic":
        _object(spec, path, ("kind", "point", "period"))
        pt = _parse_point(_require(spec, "point", path), f"{path}.point")
        period = _at_least(_require(spec, "period", path), 1,
                           f"{path}.period")
        back = map.orbit(pt, period + 1)[-1]
        err = float(torus_distance(back, np.asarray(pt)))
        if err > PERIODIC_TOL:
            raise ConfigInvalid(
                f"{path}.point",
                f"not periodic with period {period}: returns {err:.2e} away")
        return TargetSpec(kind="periodic", point=pt, period=period)
    if kind == "empirical_orbit":
        return _orbit_spec(spec, path)
    if kind == "mixture":
        _object(spec, path, ("kind", "components", "weights"))
        comps = _list(_require(spec, "components", path),
                      f"{path}.components")
        weights = [_number_at_least(w, 0.0, f"{path}.weights")
                   for w in _list(_require(spec, "weights", path),
                                  f"{path}.weights")]
        if len(comps) != len(weights):
            raise ConfigInvalid(f"{path}.weights",
                                "one weight per component")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ConfigInvalid(f"{path}.weights",
                                f"must sum to 1, got {sum(weights)!r}")
        parsed = [parse_target(c, map, f"{path}.components[{i}]")
                  for i, c in enumerate(comps)]
        if any(p.kind == "mixture" for p in parsed):
            raise ConfigInvalid(f"{path}.components",
                                "nested mixtures are not supported")
        return TargetSpec(kind="mixture", components=parsed, weights=weights)
    raise ConfigInvalid(f"{path}.kind", f"unknown target kind {kind!r}")


def _orbit_spec(spec: dict, path: str) -> TargetSpec:
    """Orbit point and length only: `target_measure` builds the orbit."""
    _object(spec, path, ("kind", "point", "length"))
    return TargetSpec(
        kind="empirical_orbit",
        point=_parse_point(_require(spec, "point", path), f"{path}.point"),
        length=_at_least(_require(spec, "length", path), 1,
                         f"{path}.length"))


def target_measure(target: TargetSpec, map: HyperbolicToralMap):
    """Materialize the measure object of a non-mixture target.

    Dirac and periodic targets are exact coalesced DiscreteMeasures; an
    empirical orbit is an OrbitMeasure, its points kept in orbit order.
    """
    if target.kind == "lebesgue":
        return LEBESGUE
    if target.kind == "dirac":
        return DiscreteMeasure.dirac(target.point)
    if target.kind == "periodic":
        return DiscreteMeasure(map.orbit(target.point, target.period))
    if target.kind == "empirical_orbit":
        return OrbitMeasure(map, target.point, target.length)
    raise ValueError(target.kind)


def target_components(target: TargetSpec, map: HyperbolicToralMap
                      ) -> list[tuple[float, object]]:
    """(weight, measure) of each component of the target, each measure
    materialized once: one pair with weight 1 unless it is a mixture."""
    if target.kind == "mixture":
        return [(w, target_measure(c, map))
                for c, w in zip(target.components, target.weights)]
    return [(1.0, target_measure(target, map))]


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pair(value, is_kind) -> bool:
    """A JSON list of two values that each pass is_kind."""
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(is_kind, value)))


def _parse_point(value, path: str) -> tuple[float, float]:
    if not _is_pair(value, lambda v: _is_number(v) and math.isfinite(v)):
        raise ConfigInvalid(path,
                            f"must be two finite numbers, got {value!r}")
    return tuple(float(v) for v in value)


def _is_integer(value) -> bool:
    """A JSON integer: an int but not a bool, or an integral float (1e6)."""
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer())


def _at_least(value, least: int, path: str) -> int:
    if not _is_integer(value):
        raise ConfigInvalid(path, f"must be an integer, got {value!r}")
    n = int(value)
    if n < least:
        raise ConfigInvalid(path, f"must be >= {least}, got {n}")
    return n


def _number_at_least(value, least: float, path: str) -> float:
    if not _is_number(value):
        raise ConfigInvalid(path, f"must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x) or x < least:
        raise ConfigInvalid(path, f"must be finite and >= {least}, got {x!r}")
    return x


def _int_list(value, least: int, path: str) -> list[int]:
    try:
        return [_at_least(v, least, path) for v in value]
    except TypeError as exc:
        raise ConfigInvalid(path, f"must be a list of integers: {exc}"
                            ) from exc


def _parse_depths(value, path: str) -> list[int]:
    depths = _int_list(value, 1, path)
    if not depths:
        raise ConfigInvalid(path, "must be non-empty")
    return depths


def _parse_grid(spec: dict, path: str,
                known=("resolution", "jitter", "seed")) -> SampleGrid:
    spec = {"resolution": 256, "jitter": False, "seed": 0,
            **_object(spec, path, known)}
    for key in ("resolution", "seed"):
        if not _is_integer(spec[key]):
            raise ConfigInvalid(path, f"{key} must be an integer, got "
                                      f"{spec[key]!r}")
    if not isinstance(spec["jitter"], bool):
        raise ConfigInvalid(path, f"jitter must be true or false, got "
                                  f"{spec['jitter']!r}")
    try:
        return SampleGrid(resolution=int(spec["resolution"]),
                          jitter=spec["jitter"], seed=int(spec["seed"]))
    except ValueError as exc:
        raise ConfigInvalid(path, str(exc)) from exc


# least value of each numeric expectation; "verdict" names a Verdict
_EXPECT_NUMBERS = {"max_abs_slope": 0.0, "max_abs_rate_residual": 0.0,
                   "bound_margin_min": -math.inf}


def _parse_expect(spec: dict) -> dict:
    expect = dict(_object(spec, "expect"))
    for key, value in expect.items():
        path = f"expect.{key}"
        if key in _EXPECT_NUMBERS:
            expect[key] = _number_at_least(value, _EXPECT_NUMBERS[key], path)
        elif key != "verdict":
            raise ConfigInvalid(path, "unknown expectation; known: verdict, "
                                      + ", ".join(_EXPECT_NUMBERS))
        elif value not in [v.value for v in Verdict]:
            raise ConfigInvalid(path, f"must be a verdict name, got {value!r}")
    return expect


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigInvalid(path, f"must be a string, got {value!r}")
    return value


def _parse_label(value) -> str:
    """The label names the record files in output_dir, so it must be one
    plain file name."""
    label = _string(value, "label")
    if label in ("", ".", "..") or any(
            sep and sep in label for sep in ("/", os.sep, os.altsep)):
        raise ConfigInvalid("label", f"must be a plain file name, got "
                                     f"{label!r}")
    return label


def parse_config(raw: dict) -> ExperimentConfig:
    _object(raw, "$", ("label", "map", "family", "grid", "target", "basin",
                       "entropy", "lyapunov", "expect", "output_dir",
                       "verify_grid"))
    label = _parse_label(raw.get("label", "experiment"))

    mspec = _object(_require(raw, "map", "$"), "map",
                    ("matrix", "amplitude", "perturbation"))
    matrix = _require(mspec, "matrix", "map")
    if not _is_pair(matrix, lambda row: _is_pair(row, _is_integer)):
        raise ConfigInvalid("map.matrix", f"must be a 2x2 list of integers, "
                                          f"got {matrix!r}")
    amplitude = mspec.get("amplitude", 0.0)
    if not _is_number(amplitude):
        raise ConfigInvalid("map.amplitude", f"must be a number, got "
                                             f"{amplitude!r}")
    terms = []
    for i, t in enumerate(_list(mspec.get("perturbation", []),
                                "map.perturbation")):
        path = f"map.perturbation[{i}]"
        _object(t, path, ("coeff", "freq"))
        coeff, freq = _require(t, "coeff", path), _require(t, "freq", path)
        if not _is_pair(coeff, _is_number):
            raise ConfigInvalid(f"{path}.coeff", f"must be two numbers, got "
                                                 f"{coeff!r}")
        if not _is_pair(freq, _is_integer):
            raise ConfigInvalid(f"{path}.freq", f"must be two integers, got "
                                                f"{freq!r}")
        terms.append((coeff, freq))
    try:
        map = HyperbolicToralMap(matrix, float(amplitude), terms)
    except MatrixInvalid as exc:
        raise ConfigInvalid("map.matrix", str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid("map", str(exc)) from exc

    fam_spec = _object(raw.get("family", {}), "family", ("truncation",))
    family = TestFunctionFamily(_at_least(
        fam_spec.get("truncation", DEFAULT_TRUNCATION), 1,
        "family.truncation"))

    grid = _parse_grid(raw.get("grid", {}), "grid")

    target = parse_target(_require(raw, "target", "$"), map)

    basin = raw.get("basin")
    if basin is not None:
        _object(basin, "basin", ("epsilons", "n_values", "window",
                                 "min_hits", "verdict_tol"))
        eps = [_number_at_least(e, 0.0, "basin.epsilons")
               for e in _list(_require(basin, "epsilons", "basin"),
                              "basin.epsilons")]
        if (not eps or eps[-1] == 0
                or any(b >= a for a, b in zip(eps, eps[1:]))):
            raise ConfigInvalid("basin.epsilons", f"must be a non-empty, "
                                f"strictly decreasing list of numbers > 0, "
                                f"got {eps!r}")
        ns = _int_list(_require(basin, "n_values", "basin"), 1,
                       "basin.n_values")
        if any(b <= a for a, b in zip(ns, ns[1:])) or not ns:
            raise ConfigInvalid("basin.n_values",
                                "must be strictly increasing and >= 1")
        win = _int_list(basin.get("window", [ns[0], ns[-1]]), 1,
                        "basin.window")
        if len(win) != 2 or win[0] > win[1]:
            raise ConfigInvalid("basin.window", "must be [n_min, n_max]")
        basin = {
            "epsilons": eps,
            "n_values": ns,
            "window": tuple(win),
            "min_hits": _at_least(basin.get("min_hits", MIN_HITS), 1,
                                  "basin.min_hits"),
            "verdict_tol": _number_at_least(basin.get("verdict_tol", 0.01),
                                            0.0, "basin.verdict_tol"),
        }

    entropy = raw.get("entropy")
    if entropy is not None:
        _object(entropy, "entropy", ("source", "depths", "count_depths",
                                     "bound_check"))
        src = _require(entropy, "source", "entropy")
        kind = _require(src, "kind", "entropy.source")
        if kind == "orbit":
            source = _orbit_spec(src, "entropy.source")
        elif kind == "grid":
            source = _parse_grid(src, "entropy.source",
                                 ("kind", "resolution", "jitter", "seed"))
        elif kind == "target_atoms":
            _object(src, "entropy.source", ("kind",))
            if target.kind not in ("dirac", "periodic", "empirical_orbit"):
                raise ConfigInvalid("entropy.source",
                                    "target_atoms needs an atomic target")
            source = "target_atoms"
        else:
            raise ConfigInvalid("entropy.source.kind",
                                f"unknown source kind {kind!r}")
        entropy = {
            "source": source,
            "depths": sorted(set(_parse_depths(
                entropy.get("depths", range(1, 13)), "entropy.depths"))),
            "count_depths": _parse_depths(
                entropy.get("count_depths", range(1, 15)),
                "entropy.count_depths"),
            "bound_check": entropy.get("bound_check"),
        }
        bc = entropy["bound_check"]
        if bc is not None:
            _object(bc, "entropy.bound_check", ("epsilon", "depth",
                                                "tolerance"))
            e = _number_at_least(_require(bc, "epsilon",
                                          "entropy.bound_check"),
                                 0.0, "entropy.bound_check.epsilon")
            if not 0 < e < 0.25:
                raise ConfigInvalid("entropy.bound_check.epsilon",
                                    "must be in (0, 1/4)")
            entropy["bound_check"] = {
                "epsilon": e,
                "depth": _at_least(
                    _require(bc, "depth", "entropy.bound_check"), 1,
                    "entropy.bound_check.depth"),
                "tolerance": _number_at_least(
                    bc.get("tolerance", 0.05), 0.0,
                    "entropy.bound_check.tolerance"),
            }

    lyap = _object(raw.get("lyapunov", {}), "lyapunov",
                   ("warmup", "quad_grid", "qr_steps", "qr_point"))
    lyapunov = {
        "warmup": _at_least(lyap.get("warmup", DEFAULT_WARMUP), 1,
                            "lyapunov.warmup"),
        "quad_grid": _at_least(lyap.get("quad_grid", DEFAULT_QUAD_GRID), 1,
                               "lyapunov.quad_grid"),
        "qr_steps": _at_least(lyap.get("qr_steps", 10000), 100,
                              "lyapunov.qr_steps"),
        "qr_point": _parse_point(lyap.get("qr_point", (0.2, 0.7)),
                                 "lyapunov.qr_point"),
        "enabled": bool(lyap) or basin is not None,
    }

    return ExperimentConfig(
        label=label,
        raw=raw,
        map=map,
        family=family,
        grid=grid,
        target=target,
        basin=basin,
        entropy=entropy,
        lyapunov=lyapunov,
        expect=_parse_expect(raw.get("expect", {})),
        output_dir=_string(raw.get("output_dir", "records"), "output_dir"),
        verify_grid=_at_least(raw.get("verify_grid", 64), 16, "verify_grid"),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid("$", f"invalid JSON: {exc}") from exc
    return parse_config(raw)


def mixture_moments(components, family: TestFunctionFamily) -> MomentVector:
    """Moments of sum_i w_i mu_i from (w_i, mu_i) pairs."""
    vals = np.zeros(family.truncation)
    for w, measure in components:
        vals += w * moments(measure, family).values
    return MomentVector(values=vals, truncation=family.truncation,
                        version=family.version)


def moment_vector_for_target(target: TargetSpec, map: HyperbolicToralMap,
                             family: TestFunctionFamily) -> MomentVector:
    return mixture_moments(target_components(target, map), family)
