"""Per-layer spans for toruslab, recorded from outside the package.

Tracer.install() replaces every public function of the given modules, and
every public method of the classes they define, with a wrapper that records a
span: name, start, end, parent span and thread id, plus a work count for the
calls listed in WORK.  Names bound by `from ... import` in other modules are
rebound too, so calls between modules are seen.  uninstall() restores the
originals.  Spans stay in memory until the caller takes them.

A span's self time is its duration minus its direct children.  Parents are
tracked per thread, so a span's children always ran in its own thread:
basin chunks running side by side on two workers are never subtracted from
each other or from the sweep that waits for them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time

import numpy as np


def _npoints(points) -> int:
    shape = np.shape(points)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _unstable_integral_work(args, kwargs, _result):
    measure = _arg(args, kwargs, 1, "measure")
    warmup = args[2] if len(args) > 2 else kwargs.get("warmup_n", 60)
    if hasattr(measure, "atoms"):
        points = len(measure.atoms)
    else:
        grid = args[3] if len(args) > 3 else kwargs.get("grid_resolution",
                                                        512)
        points = grid * grid
    return (points, points * warmup)


def _qr_work(args, kwargs, _result):
    warmup = args[3] if len(args) > 3 else kwargs.get("warmup", 64)
    return _arg(args, kwargs, 2, "n") + warmup


def _sweep_work(args, kwargs, _result):
    n_values = list(_arg(args, kwargs, 3, "n_values"))
    size = _arg(args, kwargs, 4, "grid").size
    return (size * n_values[-1], size * len(n_values))


# Work counted per span name: points stepped, orbit steps, cylinders, ...
WORK = {
    "dynamics.HyperbolicToralMap.step":
        lambda a, k, r: _npoints(_arg(a, k, 1, "points")),
    "dynamics.HyperbolicToralMap.step_inverse":
        lambda a, k, r: _npoints(_arg(a, k, 1, "points")),
    "dynamics.HyperbolicToralMap.differential":
        lambda a, k, r: _npoints(_arg(a, k, 1, "points")),
    "dynamics.HyperbolicToralMap.orbit": lambda a, k, r: _arg(a, k, 2, "n"),
    "weakstar.TestFunctionFamily.accumulate":
        lambda a, k, r: _npoints(_arg(a, k, 1, "points")),
    "markov.locate": lambda a, k, r: _npoints(_arg(a, k, 1, "points")),
    "markov.entropy_tables":
        lambda a, k, r: sum(len(t.counts) for t in r.values()),
    "lyapunov.lyapunov_spectrum_qr": _qr_work,
    "lyapunov.unstable_integral": _unstable_integral_work,
    "basin.curve_sweep": _sweep_work,
}

NAME, START, END, PARENT, THREAD, COUNT = range(6)


class Tracer:
    def __init__(self, modules, hooks=()):
        """modules: toruslab modules to wrap; hooks: extra (owner, attribute,
        span name) triples for private functions worth a span of their own."""
        self.modules = list(modules)
        self.hooks = list(hooks)
        self.spans: list[list] = []
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name):
        work = WORK.get(name)
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, clock(), 0.0, stack[-1] if stack else None,
                    get_ident(), 0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if work is not None:
                span[COUNT] = work(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        wrapped = {}
        for m in self.modules:
            short = m.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(m).items()):
                if name.startswith("_") or getattr(obj, "__module__",
                                                   None) != m.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{short}.{name}")
                elif inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(val):
                            self._set(obj, attr, self._wrap(
                                val, f"{short}.{obj.__name__}.{attr}"))
        for owner, attr, name in self.hooks:
            fn = getattr(owner, attr)
            wrapped[fn] = self._wrap(fn, name)
        for m in self.modules:
            for name, obj in list(vars(m).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(m, name, wrapped[obj])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


# -- reduction -------------------------------------------------------------------

def export(spans: list[list]) -> list[dict]:
    ids = {id(s): i for i, s in enumerate(spans)}
    return [{"id": i, "name": s[NAME], "start": s[START], "end": s[END],
             "parent": ids.get(id(s[PARENT])) if s[PARENT] else None,
             "thread": s[THREAD], "work": s[COUNT]}
            for i, s in enumerate(spans)]


class SpanTable:
    """Totals per span name: duration, self time and work."""

    def __init__(self, spans: list[list]):
        child = {}
        for s in spans:
            if s[PARENT] is not None:
                key = id(s[PARENT])
                child[key] = child.get(key, 0.0) + s[END] - s[START]
        self.dur: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.work: dict[str, list] = {}
        self.calls: dict[str, int] = {}
        for s in spans:
            name, d = s[NAME], s[END] - s[START]
            self.dur[name] = self.dur.get(name, 0.0) + d
            self.self_time[name] = (self.self_time.get(name, 0.0) + d
                                    - child.get(id(s), 0.0))
            self.calls[name] = self.calls.get(name, 0) + 1
            self.work.setdefault(name, []).append(s[COUNT])
        self.spans = spans

    def seconds(self, name: str) -> float:
        return self.dur.get(name, 0.0)

    def total(self, name: str, part: int | None = None) -> float:
        vals = self.work.get(name, [])
        if part is not None:
            vals = [v[part] for v in vals]
        return float(sum(vals))

    def rate(self, work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    def total_under(self, name: str, prefix: str) -> float:
        """Work of `name` spans with an ancestor whose name starts with
        prefix."""
        out = 0.0
        for s in self.spans:
            if s[NAME] != name:
                continue
            p = s[PARENT]
            while p is not None and not p[NAME].startswith(prefix):
                p = p[PARENT]
            if p is not None:
                out += s[COUNT]
        return out


M = "dynamics.HyperbolicToralMap."


def run_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced runner.run."""
    t = SpanTable(spans)
    step_s, inv_s = t.seconds(M + "step"), t.seconds(M + "step_inverse")
    orbit_s = t.seconds(M + "orbit")
    acc_s = t.seconds("weakstar.TestFunctionFamily.accumulate")
    sweep_s = t.seconds("basin.curve_sweep")
    qr_s = t.seconds("lyapunov.lyapunov_spectrum_qr")
    integral_s = t.seconds("lyapunov.unstable_integral")
    locate_s = t.seconds("markov.locate")
    point_steps = t.total("basin.curve_sweep", 0) if sweep_s else 0.0
    return {
        "dynamics.step_s": step_s,
        "dynamics.step_points_per_s": t.rate(t.total(M + "step"), step_s),
        "dynamics.step_inverse_s": inv_s,
        "dynamics.step_inverse_points_per_s":
            t.rate(t.total(M + "step_inverse"), inv_s),
        "dynamics.differential_s": t.seconds(M + "differential"),
        "dynamics.differential_calls": float(t.calls.get(M + "differential",
                                                         0)),
        "dynamics.orbit_s": orbit_s,
        "dynamics.orbit_steps_per_s": t.rate(t.total(M + "orbit"), orbit_s),
        "dynamics.verify_s": t.seconds("dynamics.verify_hyperbolicity"),
        "weakstar.accumulate_s": acc_s,
        "weakstar.accumulate_points_per_s":
            t.rate(t.total("weakstar.TestFunctionFamily.accumulate"), acc_s),
        "weakstar.moments_s": t.seconds("weakstar.moments"),
        "basin.sweep_s": sweep_s,
        "basin.point_steps": point_steps,
        "basin.point_steps_per_s": t.rate(point_steps, sweep_s),
        "basin.self_s": (t.self_time.get("basin.chunk", 0.0)
                         + t.seconds("basin.SampleGrid.chunk")),
        "basin.distance_rows": (t.total("basin.curve_sweep", 1)
                                if sweep_s else 0.0),
        "lyapunov.qr_s": qr_s,
        "lyapunov.qr_steps_per_s":
            t.rate(t.total("lyapunov.lyapunov_spectrum_qr"), qr_s),
        "lyapunov.integral_s": integral_s,
        "lyapunov.integral_points_per_s":
            t.rate(t.total("lyapunov.unstable_integral", 0)
                   if integral_s else 0.0, integral_s),
        "lyapunov.warmup_steps": (t.total("lyapunov.unstable_integral", 1)
                                  if integral_s else 0.0),
        "markov.locate_s": locate_s,
        "markov.locate_points_per_s": t.rate(t.total("markov.locate"),
                                             locate_s),
        "markov.tables_s": t.seconds("markov.entropy_tables"),
        "markov.tables_self_s": t.self_time.get("markov.entropy_tables", 0.0),
        "markov.cylinders": t.total("markov.entropy_tables"),
        "markov.bound_check_s": t.seconds("markov.entropy_count_bound_check"),
        "markov.orbit_steps": t.total_under(M + "orbit", "markov."),
        "runner.self_s": t.self_time.get("runner.run", 0.0),
    }


def setup_metrics(spans: list[list]) -> dict[str, float]:
    t = SpanTable(spans)
    return {"config.parse_s": t.seconds("config.parse_config"),
            "markov.partition_build_s": t.seconds("markov.cat_map_partition")}


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
