"""Finite-time statistical basins: grid volume sweeps and rate regression.

The basin A(eps, n) of a target measure is the set of start points whose
time-n empirical measure lies within eps of the target in the weak* metric.
Volumes are estimated over a deterministic grid of cell centers (optionally
jittered inside cells with a seeded generator); membership is evaluated by
accumulating the test-function sums along each orbit, so a single traversal
of length max(n) yields every requested n and every epsilon at once.

A linear map's start points are stepped as uint64 phases X = floor(x 2^64)
(`dynamics.to_phases`) by X -> A X mod 2^64, exactly, so every hit belongs
to the true orbit of its own start point, floor(x 2^64) 2^-64; a float
orbit of the cat map leaves the true one after about 35 steps.  A nonlinear
map's points are stepped as floats and converted to phases at every step.
Each step adds e^(2 pi i k.x) for the family's frequencies, from one table
evaluator and a power table with no trig call per frequency; at K=33 that is
8 complex products, since conjugate rows are filled from their partners and
axis rows are table rows (see `weakstar`).  Weak* distances are formed only
at the requested n, and only for points the screen below passes.

A sweep splits its chunks into shares, one per worker process: share w takes
every k-th chunk from the w-th, k = min(workers, chunks).  Share 0 runs in
the calling process; every other share runs in a child forked before share 0
starts, which sends its (hits, point-steps, distance points) back through a
pipe and always leaves by `os._exit` (`_run_shares`).  A chunk-step is a few
dozen small NumPy calls, and threads, which hand the interpreter lock over
at every call, scaled only 1.1-1.3x on two CPUs; processes do not share it.
Each share makes one workspace (`TestFunctionFamily.zero_sums`): the complex
(F, N) running mode sums and every buffer a step writes, reset and reused by
every chunk of the share.  CHUNK start points keep a workspace within a few
MB, so it stays in cache; it is a fixed constant, not a setting.  Where
`os.fork` is missing, one share runs in the caller.

A child runs only NumPy elementwise kernels, `pickle` and `os.write`.
Forking a process that runs other threads is safe for that much, but
Python 3.12 and later warn about it with a DeprecationWarning.  A spawned
worker would start a fresh interpreter and import the package at every
sweep: 0.24-0.26 s on a 2-vCPU Xeon, about what a whole two-worker sweep
of a 512 x 512 grid takes.

Pruning: a start point that can never again be a hit is dropped, and the
chunk is compacted so that later steps touch only live points.  Every
phi_i, i >= 1, lies in [0, 1], so after n steps with phi-sum S_i the mean at
a later n' lies in [S_i/n', (S_i + n' - n)/n'].  These boxes are nested and
grow with n', so the box at the last requested n, N, bounds every remaining
row at once, row n included: it is centered at 1/2 + u_i/(2N), u_i the cos
or sin sum, with half-width (N - n)/(2N), and the weighted distance from the
target to it over the first `weakstar.BOUND_MODES` modes is a lower bound on
the distance at every row from n on (`TestFunctionFamily.box_bound`).  At
each requested row but the last, a point whose bound is at least
max(eps) + PRUNE_SLACK is dropped before the row's distances; the slack
covers the float reduction order of a distance against its bound.  A row
where even the largest possible bound stays below that limit
(`box_bound_ceiling`) skips the bound.

Screening: at horizon n the box is the mean itself, so `box_bound(ws, n,
n)` is the distance over the bound's modes alone, at most the full distance
and at least the prune bound.  Each row screens its live points with it and
forms full distances only for those below the same limit
(`sum_distances` with their columns); on a Dirac target most rows pass a
few percent of the points.  Distances of listed points are bit for bit
those of the unpruned kernel, so hit counts do not change; the sweep
reports the point-steps it actually stepped and the full distances it
formed.

Work is split into fixed-size chunks of start points that are independent of
the worker count; hit counters are integers merged by addition, so counts are
bit-identical for any worker count.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import signal
import traceback
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from toruslab.dynamics import HyperbolicToralMap, to_phases
from toruslab.weakstar import MomentVector, TestFunctionFamily

CHUNK = 1 << 13
# covers the float reduction order of a distance against its box bound
PRUNE_SLACK = 1e-9
# rows with fewer hits are censored from a rate regression
MIN_HITS = 30


class InsufficientData(RuntimeError):
    """Fewer than three uncensored rows available for regression."""


class Verdict(str, Enum):
    CONSISTENT_WITH_ZERO = "consistent_with_zero"
    NEGATIVE_RATE = "negative_rate"
    INCONCLUSIVE = "inconclusive"


class WorkerDied(RuntimeError):
    """A sweep's worker process ended without sending its result."""


def default_threads() -> int:
    """Worker count: the number of CPUs this process may run on (its
    affinity mask, where the platform has one), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_integer(name: str, value, least: int) -> None:
    """value must be an integer, not a bool, and at least least; the error
    names it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def check_threads(threads: int | None) -> None:
    """A worker count must be None (the default) or a positive integer."""
    if threads is not None:
        _check_integer("threads", threads, 1)


@dataclass(frozen=True)
class SampleGrid:
    """resolution^2 start points at cell centers, optionally jittered.

    Deterministic given (resolution, jitter, seed): jitter offsets come from
    one seeded generator for the whole grid, independent of how the points
    are later chunked.
    """
    resolution: int
    jitter: bool = False
    seed: int = 0

    def __post_init__(self):
        _check_integer("resolution", self.resolution, 1)
        _check_integer("seed", self.seed, 0)

    @property
    def size(self) -> int:
        return self.resolution * self.resolution

    def _offsets(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.random((self.size, 2))

    def chunk(self, start: int, stop: int, offsets: np.ndarray | None = None
              ) -> np.ndarray:
        idx = np.arange(start, stop)
        g = self.resolution
        off = offsets[start:stop] if offsets is not None else 0.5
        cells = np.column_stack([idx // g, idx % g]).astype(float)
        return (cells + off) / g


@dataclass
class BasinCurve:
    """Hit counts of A(eps, n) over the grid, one row per requested n."""
    epsilon: float
    ns: np.ndarray
    hits: np.ndarray
    samples: int


@dataclass
class RateEstimate:
    """Least-squares slope of log(fraction) vs n over uncensored rows."""
    epsilon: float
    slope: float
    stderr: float
    window: tuple[int, int]
    censored: list[int]
    min_hits: int
    rows_used: int


@dataclass
class SweepResult:
    """One grid traversal: a curve per epsilon, the point-steps stepped,
    after pruning, the full distances formed, after screening, and the
    worker processes it ran in.  `epsilon_sweep` adds the rate estimates,
    or the reason an epsilon has none."""
    estimates: list[RateEstimate] = field(default_factory=list)
    errors: dict[float, str] = field(default_factory=dict)
    curves: list[BasinCurve] = field(default_factory=list)
    point_steps: int = 0
    distance_points: int = 0
    workers: int = 1


def _accumulate_hits(map: HyperbolicToralMap, points: np.ndarray,
                     target: np.ndarray, epsilons: Sequence[float],
                     n_values: Sequence[int], family: TestFunctionFamily,
                     ws=None) -> tuple[np.ndarray, int, int]:
    """Hit counts for one chunk, shape (n_eps, n_rows), the point-steps it
    took and the full distances it formed, in the workspace ws (a fresh one
    if None).

    A linear map steps the points' uint64 phases, kept as (2, N) rows seen
    as (N, 2), the layout `step` keeps and `accumulate` reads row by row; a
    nonlinear map steps the float points.  At each requested row but the
    last, a point whose box bound reaches the largest eps plus PRUNE_SLACK
    is dead and compacted away; when no point can reach it
    (`box_bound_ceiling`) the bound is not formed.  The live points are
    then screened by their distance over the bound's modes, the box bound
    at horizon n, and only those below that limit get a full distance."""
    hits = np.zeros((len(epsilons), len(n_values)), dtype=np.int64)
    if ws is None:
        ws = family.zero_sums(len(points))
    else:
        ws.reset(len(points))
    points = np.asarray(points, dtype=float)
    x = to_phases(points.T).T if map.is_linear else points
    limit = max(epsilons) + PRUNE_SLACK
    row = 0
    n_max = n_values[-1]
    bounded = family.box_bound_ceiling(n_values[:-1], n_max, target) >= limit
    steps = formed = 0
    for n in range(1, n_max + 1):
        family.accumulate(x, ws)
        steps += len(x)
        if n == n_values[row]:
            if n < n_max and bounded[row]:
                live = family.box_bound(ws, n, n_max, target) < limit
                if not live.all():
                    x = x.T[:, family.compact(ws, live)].T
                    if not len(x):
                        break
            near = np.flatnonzero(family.box_bound(ws, n, n, target)
                                  < limit)
            if len(near):
                dist = family.sum_distances(ws, n, target, near)
                formed += len(near)
                for ei, eps in enumerate(epsilons):
                    hits[ei, row] = int(np.count_nonzero(dist < eps))
            row += 1
            if row == len(n_values):
                break
        x = map.step(x)
    return hits, steps, formed


def _check_epsilon(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {eps!r}")


def curve_sweep(map: HyperbolicToralMap, target: MomentVector,
                epsilons: Sequence[float], n_values: Sequence[int],
                grid: SampleGrid, family: TestFunctionFamily,
                threads: int | None = None) -> SweepResult:
    """One grid traversal shared by every epsilon: one curve per eps and the
    traversal's point-steps."""
    if target.truncation != family.truncation:
        raise ValueError("target moments and family disagree on truncation")
    n_values = list(n_values)
    for n in n_values:
        _check_integer("n_values", n, 1)
    if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be non-empty and strictly increasing")
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ValueError("epsilons must be non-empty")
    for eps in epsilons:
        _check_epsilon(eps)
    check_threads(threads)
    workers = threads if threads is not None else default_threads()
    offsets = grid._offsets() if grid.jitter else None
    tvals = target.values

    spans = [(i, min(i + CHUNK, grid.size))
             for i in range(0, grid.size, CHUNK)]
    k = min(workers, len(spans)) if hasattr(os, "fork") else 1

    def share(w):
        # one workspace, reset and reused by every chunk of the share
        ws = family.zero_sums(min(CHUNK, grid.size))
        return [_accumulate_hits(map, grid.chunk(a, b, offsets), tvals,
                                 epsilons, n_values, family, ws)
                for a, b in spans[w::k]]

    parts = [p for part in _run_shares(share, k) for p in part]
    hits = np.sum([h for h, _, _ in parts], axis=0)

    ns = np.array(n_values)
    curves = [BasinCurve(epsilon=eps, ns=ns, hits=hits[ei].copy(),
                         samples=grid.size)
              for ei, eps in enumerate(epsilons)]
    return SweepResult(curves=curves,
                       point_steps=sum(s for _, s, _ in parts),
                       distance_points=sum(d for _, _, d in parts),
                       workers=k)


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a worker process."""


def _share_child(share, w: int, fd: int) -> None:
    """In a forked child: pickle share(w), or the exception it raised, to
    the pipe fd and leave through os._exit, so the child never returns into
    the caller's stack, runs no atexit handler and flushes no inherited
    stdio buffer."""
    status = 1
    try:
        try:
            payload = pickle.dumps((True, share(w)))
        except BaseException as exc:
            tb = traceback.format_exc()
            try:
                payload = pickle.dumps((False, (exc, tb)))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps((False, (RuntimeError(
                    f"{type(exc).__qualname__}: {exc}"), tb)))
        view = memoryview(payload)
        while view:
            view = view[os.write(fd, view):]
        status = 0
    finally:
        os._exit(status)


def _run_shares(share, k: int) -> list:
    """[share(0), ..., share(k - 1)]: share 0 in this process, every other
    share in a child forked before share 0 starts.  A child's exception is
    raised here with its type and message; a child that sends no result
    raises WorkerDied.  Every child is reaped, and killed first if this
    process raises."""
    children = []                 # (pid, read end of its pipe), not reaped
    try:
        for w in range(1, k):
            r, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wfd)
                raise
            if pid == 0:
                os.close(r)
                _share_child(share, w, wfd)
            os.close(wfd)
            children.append((pid, r))
        results = [share(0)]
        while children:
            pid, r = children[0]
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(r)
            if not data or status != 0:
                how = (f"signal {os.WTERMSIG(status)}"
                       if os.WIFSIGNALED(status) else
                       f"exit status {os.waitstatus_to_exitcode(status)}")
                raise WorkerDied(f"basin worker process {pid} ended with no "
                                 f"result ({how})")
            ok, value = pickle.loads(data)
            if not ok:
                exc, tb = value
                raise exc from _ChildTraceback(tb)
            results.append(value)
        return results
    finally:
        for pid, r in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def basin_membership(map: HyperbolicToralMap, point, target: MomentVector,
                     epsilon: float, n: int,
                     family: TestFunctionFamily) -> bool:
    """Is dist*(sigma_n(point), target) < epsilon?  Streaming accumulation,
    the empirical measure is never materialized."""
    _check_integer("n", n, 1)
    _check_epsilon(epsilon)
    pts = np.asarray(point, dtype=float).reshape(1, 2)
    hits, _, _ = _accumulate_hits(map, pts, target.values, [epsilon], [n],
                                  family)
    return bool(hits[0, 0])


def rate_estimate(curve: BasinCurve, window: tuple[int, int],
                  min_hits: int = MIN_HITS) -> RateEstimate:
    """Regress log(hits/samples) on n over uncensored rows inside window."""
    lo, hi = window
    in_win = (curve.ns >= lo) & (curve.ns <= hi)
    censored = [int(n) for n, h in zip(curve.ns[in_win], curve.hits[in_win])
                if h < min_hits]
    use = in_win & (curve.hits >= min_hits)
    m = int(np.count_nonzero(use))
    if m < 3:
        raise InsufficientData(
            f"only {m} uncensored rows in window {window} at eps="
            f"{curve.epsilon} (min_hits={min_hits}); grid too coarse "
            "for this epsilon and window")
    x = curve.ns[use].astype(float)
    y = np.log(curve.hits[use] / curve.samples)
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - ym - slope * (x - xm)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / max(m - 2, 1) / sxx)
    return RateEstimate(epsilon=curve.epsilon, slope=slope, stderr=stderr,
                        window=(int(lo), int(hi)), censored=censored,
                        min_hits=min_hits, rows_used=m)


def epsilon_sweep(map: HyperbolicToralMap, target: MomentVector,
                  epsilons: Sequence[float], n_values: Sequence[int],
                  grid: SampleGrid, family: TestFunctionFamily,
                  window: tuple[int, int], min_hits: int = MIN_HITS,
                  threads: int | None = None) -> SweepResult:
    """Rate estimates for a strictly decreasing epsilon list.

    A per-epsilon InsufficientData is recorded, not raised; the reported
    limit toward eps -> 0 is the last valid estimate together with the
    observed trend, never a claimed converged value.
    """
    eps = [float(e) for e in epsilons]
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    result = curve_sweep(map, target, eps, n_values, grid, family, threads)
    for curve in result.curves:
        try:
            result.estimates.append(rate_estimate(curve, window, min_hits))
        except InsufficientData as exc:
            result.errors[curve.epsilon] = str(exc)
    return result


def weak_pseudo_physical_verdict(estimates: Sequence[RateEstimate],
                                 tol: float) -> Verdict:
    """Classify a sweep: all slopes within +-tol of zero, some slope clearly
    negative (below -3 stderr - tol), or neither."""
    if not estimates:
        raise ValueError("need at least one valid estimate")
    slopes = np.array([e.slope for e in estimates])
    if np.all(np.abs(slopes) <= tol):
        return Verdict.CONSISTENT_WITH_ZERO
    if any(e.slope < -3.0 * e.stderr - tol for e in estimates):
        return Verdict.NEGATIVE_RATE
    return Verdict.INCONCLUSIVE


def rate_residual(a_est: float, h_est: float, integral_est: float) -> float:
    """Defect of the rate identity: a - (h - integral of psi)."""
    for name, v in (("a_est", a_est), ("h_est", h_est),
                    ("integral_est", integral_est)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    return a_est - (h_est - integral_est)


def pesin_defect(h_est: float, integral_est: float) -> float:
    """h - integral of psi; zero exactly when the entropy formula holds."""
    return h_est - integral_est
