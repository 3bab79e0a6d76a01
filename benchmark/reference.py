"""Independent reference computations for the benchmark's output checks.

Everything here is written from the definitions in the project README and
PAPER.md and imports nothing from toruslab, so a fault in the package cannot
hide in the value it is compared against.

- the cat map A = [[2, 1], [1, 1]] on arrays of points, and the scalar
  forward orbit of f(x) = A x + amp * (sin 2 pi y, 0)  (mod 1), the
  perturbation the benchmark uses (no inverse is needed);
- its differential Df = A + amp * 2 pi cos(2 pi y) (0, 1; 0, 0);
- the truncated test family: phi_0 = 1, then (1 + cos)/2 and (1 + sin)/2 of
  2 pi k.x for frequencies k enumerated by max-norm shells, lexicographic
  inside a shell, with weights 2^-i;
- the weak* distance sum_i 2^-i |m_i(mu) - m_i(nu)|;
- golden-ratio facts about the Adler-Weiss partition of the cat map.
"""

from __future__ import annotations

import math

import numpy as np

CAT = ((2, 1), (1, 1))
LAMBDA = (3.0 + math.sqrt(5.0)) / 2.0
LOG_LAMBDA = math.log(LAMBDA)
TRUNCATION = 33


# -- the map ------------------------------------------------------------------

def step(points: np.ndarray) -> np.ndarray:
    """One cat-map iterate of an (N, 2) array, reduced to [0, 1)^2."""
    x, y = points[:, 0], points[:, 1]
    (a, b), (c, d) = CAT
    out = np.column_stack([(a * x + b * y) % 1.0, (c * x + d * y) % 1.0])
    out[out >= 1.0] = 0.0
    return out


def orbit_xy(point, n: int, amp: float) -> tuple[list, list]:
    """Scalar forward orbit of length n of the cat map perturbed by
    amp * (sin 2 pi y, 0); returns the x and y coordinate lists."""
    x, y = float(point[0]) % 1.0, float(point[1]) % 1.0
    xs, ys = [0.0] * n, [0.0] * n
    two_pi = 2.0 * math.pi
    sin = math.sin
    for i in range(n):
        xs[i], ys[i] = x, y
        x, y = (2.0 * x + y + amp * sin(two_pi * y)) % 1.0, (x + y) % 1.0
    return xs, ys


def differential_sin_y(x: float, y: float, amp: float) -> tuple:
    """Df of the cat map perturbed by amp * (sin 2 pi y, 0), row-major."""
    return (2.0, 1.0 + amp * 2.0 * math.pi * math.cos(2.0 * math.pi * y),
            1.0, 1.0)


def birkhoff_log_unstable(xs: list, ys: list, amp: float) -> float:
    """(1/L) sum over the orbit of log |Df u| with u carried forward as the
    normalised image of the previous direction.

    The start vector aligns with the unstable line at rate (lam_s/lam_u)^2
    per step, so the missing warmup biases the mean by O(1/L) only.
    """
    ux, uy = 1.0, 0.6180339887498949
    nrm = math.hypot(ux, uy)
    ux, uy = ux / nrm, uy / nrm
    total = 0.0
    for x, y in zip(xs, ys):
        a, b, c, d = differential_sin_y(x, y, amp)
        wx, wy = a * ux + b * uy, c * ux + d * uy
        r = math.hypot(wx, wy)
        total += math.log(r)
        ux, uy = wx / r, wy / r
    return total / len(xs)


# -- the test family and the weak* distance ------------------------------------

def frequencies(count: int) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    shell = 0
    while len(out) < count:
        shell += 1
        out.extend(sorted((k1, k2)
                          for k1 in range(-shell, shell + 1)
                          for k2 in range(-shell, shell + 1)
                          if max(abs(k1), abs(k2)) == shell))
    return out[:count]


class Family:
    """The K-function test family; K = 33 gives 16 frequency pairs."""

    def __init__(self, truncation: int = TRUNCATION):
        if truncation < 1 or (truncation - 1) % 2:
            raise ValueError("the reference family needs odd K >= 1")
        self.truncation = truncation
        self.freqs = np.array(frequencies((truncation - 1) // 2),
                              dtype=float).reshape(-1, 2)
        self.weights = 0.5 ** np.arange(truncation)

    def phi(self, points: np.ndarray) -> np.ndarray:
        """phi_i at each point, shape (N, K)."""
        n = len(points)
        out = np.empty((n, self.truncation))
        out[:, 0] = 1.0
        phase = 2.0 * math.pi * (points[:, :1] * self.freqs[:, 0]
                                 + points[:, 1:] * self.freqs[:, 1])
        out[:, 1::2] = 0.5 + 0.5 * np.cos(phase)
        out[:, 2::2] = 0.5 + 0.5 * np.sin(phase)
        return out

    def lebesgue(self) -> np.ndarray:
        m = np.full(self.truncation, 0.5)
        m[0] = 1.0
        return m

    def dirac(self, point) -> np.ndarray:
        return self.phi(np.asarray(point, dtype=float).reshape(1, 2))[0]

    def distance(self, m: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Weak* distance of each row of m to the target moments."""
        return np.abs(m - target) @ self.weights


def basin_distances(points: np.ndarray, target: np.ndarray,
                    n_values: list[int], family: Family) -> np.ndarray:
    """dist*(sigma_n(x), target) for every start point and requested n,
    shape (len(n_values), N): sigma_n averages phi over x, f(x), ...,
    f^(n-1)(x) of the linear cat map."""
    sums = np.zeros((len(points), family.truncation))
    out = np.empty((len(n_values), len(points)))
    x = points
    row = 0
    for n in range(1, n_values[-1] + 1):
        sums += family.phi(x)
        if n == n_values[row]:
            out[row] = family.distance(sums / n, target)
            row += 1
        x = step(x)
    return out


# -- symbolic dynamics of the cat map -------------------------------------------

def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def golden_piece_areas() -> list[float]:
    """Areas of the five Adler-Weiss rectangles: sides q = g/sqrt(2-g) and
    r = (1-g)/sqrt(2-g) with g the golden section, two q-by-q squares, two
    q-by-r rectangles and one r-by-r square."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    q = g / math.sqrt(2.0 - g)
    r = (1.0 - g) / math.sqrt(2.0 - g)
    return [q * q, q * q, q * r, q * r, r * r]


def parry_block_entropy(depth: int) -> float:
    """H of depth-d cylinders under Lebesgue (the Parry measure, a stationary
    Markov chain on the pieces): H_1 + (d - 1) log lambda."""
    h1 = -sum(a * math.log(a) for a in golden_piece_areas())
    return h1 + (depth - 1) * LOG_LAMBDA
