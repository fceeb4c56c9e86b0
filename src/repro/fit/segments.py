"""Piecewise-linear curve approximation.

The FPF curve is a set of ``(B_i, F_i)`` samples; LRU-Fit stores an
approximation using a small number of line segments whose knots are a
subset of the samples (so the stored curve passes exactly through the
retained data points, including both endpoints).  Est-IO later evaluates
the approximation at arbitrary buffer sizes, extrapolating linearly with
the terminal segments' slopes when ``B`` falls outside the modeled range
(Section 4.1: "extrapolation is used to generate page fetch estimates").
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import FitError

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the scalar path is complete
    _np = None

Point = Tuple[float, float]


@dataclass(frozen=True)
class PiecewiseLinear:
    """A continuous piecewise-linear function defined by its knots."""

    knots: Tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.knots:
            raise FitError("a piecewise-linear curve needs at least one knot")
        xs = [x for x, _y in self.knots]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise FitError(
                f"knot x-coordinates must be strictly increasing, got {xs}"
            )

    @property
    def segment_count(self) -> int:
        """Number of line segments (knots minus one)."""
        return max(0, len(self.knots) - 1)

    @property
    def x_min(self) -> float:
        """Smallest knot x (start of the modeled range)."""
        return self.knots[0][0]

    @property
    def x_max(self) -> float:
        """Largest knot x (end of the modeled range)."""
        return self.knots[-1][0]

    def __call__(self, x: float) -> float:
        return self.evaluate(x)

    def evaluate(self, x: float) -> float:
        """Interpolate inside the knot range, extrapolate linearly outside."""
        knots = self.knots
        if len(knots) == 1:
            return knots[0][1]
        # Pick the segment: clamp to terminal segments outside the range.
        xs = [k[0] for k in knots]
        idx = bisect_right(xs, x) - 1
        idx = min(max(idx, 0), len(knots) - 2)
        (x0, y0), (x1, y1) = knots[idx], knots[idx + 1]
        slope = (y1 - y0) / (x1 - x0)
        return y0 + slope * (x - x0)

    def to_pairs(self) -> List[List[float]]:
        """JSON-friendly representation (catalog storage)."""
        return [[float(x), float(y)] for x, y in self.knots]

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "PiecewiseLinear":
        """Rebuild from :meth:`to_pairs` output."""
        return cls(tuple((float(x), float(y)) for x, y in pairs))


def _chord_sse(points: Sequence[Point], i: int, j: int) -> float:
    """SSE of the chord from points[i] to points[j] over points i..j.

    Residuals are squared by multiplication, which IEEE 754 rounds
    correctly.  ``** 2`` would go through the C library's ``pow``, which
    on some platforms (glibc 2.36 among them) misrounds about 0.08 % of
    squares, so the table would depend on the platform.
    """
    (x0, y0), (x1, y1) = points[i], points[j]
    slope = (y1 - y0) / (x1 - x0)
    sse = 0.0
    for k in range(i + 1, j):
        x, y = points[k]
        predicted = y0 + slope * (x - x0)
        residual = y - predicted
        sse += residual * residual
    return sse


def _chord_table(points: Sequence[Point]) -> List[List[float]]:
    """``table[i][j] == _chord_sse(points, i, j)`` for every ``i < j``.

    With numpy, one chord origin ``i`` at a time: a (j x k) matrix of
    squared residuals made with the same float operations as
    :func:`_chord_sse`, summed along k by ``cumsum`` (which adds in
    order, as the scalar loop does), and ``table[i][j]`` read off the
    diagonal where k stops at ``j - 1``.  The entries equal the scalar
    ones bit for bit.
    """
    n = len(points)
    if _np is None:
        return [
            [_chord_sse(points, i, j) if j > i else 0.0 for j in range(n)]
            for i in range(n)
        ]
    np = _np
    xs = np.array([x for x, _y in points], dtype=np.float64)
    ys = np.array([y for _x, y in points], dtype=np.float64)
    table = []
    for i in range(n):
        row = [0.0] * min(n, i + 2)
        if i + 2 < n:
            x0, y0 = xs[i], ys[i]
            slopes = (ys[i + 1:] - y0) / (xs[i + 1:] - x0)
            dx = xs[i + 1:n - 1] - x0
            predicted = y0 + slopes[:, None] * dx
            residual = ys[i + 1:n - 1] - predicted
            sums = np.cumsum(residual * residual, axis=1)
            row.extend(np.diagonal(sums, offset=-1).tolist())
        table.append(row)
    return table


def _validate(points: Sequence[Point], segments: int) -> List[Point]:
    if segments < 1:
        raise FitError(f"segments must be >= 1, got {segments}")
    unique = sorted(set((float(x), float(y)) for x, y in points))
    xs = [x for x, _y in unique]
    if len(set(xs)) != len(xs):
        raise FitError("duplicate x-coordinates with differing y values")
    if len(unique) < 2:
        raise FitError(
            f"need at least 2 distinct points to fit, got {len(unique)}"
        )
    return unique


def fit_optimal(points: Sequence[Point], segments: int) -> PiecewiseLinear:
    """Minimum-SSE knot selection by dynamic programming.

    The chord table holds O(n^2) chord SSEs of O(n) terms each.  FPF
    grids are not small: the paper's grid step is
    ``2 * sqrt(B_max - B_min)``, so ``T = 2x10^5`` pages give n = 224
    points.  There the scalar table cost 0.2-0.3 s on a 2-vCPU x86 VM,
    about 30 % of an LRU-Fit pass, so :func:`_chord_table` builds it
    with numpy when numpy imports (same floats).  The DP on top is
    O(segments * n^2).
    """
    data = _validate(points, segments)
    n = len(data)
    if n <= segments + 1:
        return PiecewiseLinear(tuple(data))

    sse = _chord_table(data)

    infinity = float("inf")
    # best[s][j]: minimal SSE covering points 0..j with s segments ending at j.
    best = [[infinity] * n for _ in range(segments + 1)]
    choice = [[-1] * n for _ in range(segments + 1)]
    best[0][0] = 0.0
    for s in range(1, segments + 1):
        for j in range(1, n):
            for i in range(j):
                if best[s - 1][i] == infinity:
                    continue
                candidate = best[s - 1][i] + sse[i][j]
                if candidate < best[s][j]:
                    best[s][j] = candidate
                    choice[s][j] = i

    # The final knot must be the last point.  A forced knot can *hurt* on
    # non-monotone data (the chosen knot pins the curve to a data point),
    # so take the best solution over any count up to the budget.
    best_s = min(
        range(1, segments + 1), key=lambda s: best[s][n - 1]
    )
    knot_indices = [n - 1]
    s, j = best_s, n - 1
    while s > 0:
        i = choice[s][j]
        if i < 0:
            raise FitError("dynamic program failed to cover the points")
        knot_indices.append(i)
        s, j = s - 1, i
    knot_indices.reverse()
    return PiecewiseLinear(tuple(data[i] for i in knot_indices))


def fit_greedy(points: Sequence[Point], segments: int) -> PiecewiseLinear:
    """Greedy top-down splitting (Douglas-Peucker flavour).

    Start with one chord over the whole range; repeatedly split the segment
    at its worst-approximated interior point until ``segments`` pieces
    exist.  Faster than the DP and usually within a few percent of optimal
    on monotone FPF curves.
    """
    data = _validate(points, segments)
    n = len(data)
    if n <= segments + 1:
        return PiecewiseLinear(tuple(data))

    def worst_point(i: int, j: int) -> Tuple[float, int]:
        (x0, y0), (x1, y1) = data[i], data[j]
        slope = (y1 - y0) / (x1 - x0)
        worst_err, worst_k = -1.0, -1
        for k in range(i + 1, j):
            x, y = data[k]
            err = abs(y - (y0 + slope * (x - x0)))
            if err > worst_err:
                worst_err, worst_k = err, k
        return worst_err, worst_k

    boundaries = [0, n - 1]
    while len(boundaries) - 1 < segments:
        best_err, best_split = -1.0, -1
        for a, b in zip(boundaries, boundaries[1:]):
            if b - a < 2:
                continue
            err, k = worst_point(a, b)
            if err > best_err:
                best_err, best_split = err, k
        if best_split < 0:
            break  # every segment is already exact
        boundaries.append(best_split)
        boundaries.sort()
    return PiecewiseLinear(tuple(data[i] for i in boundaries))


def fit_piecewise_linear(
    points: Sequence[Point], segments: int, method: str = "optimal"
) -> PiecewiseLinear:
    """Fit with the chosen method (``"optimal"`` or ``"greedy"``)."""
    fitters = {"optimal": fit_optimal, "greedy": fit_greedy}
    try:
        fitter = fitters[method]
    except KeyError:
        raise FitError(
            f"unknown fit method {method!r}; expected one of {sorted(fitters)}"
        ) from None
    return fitter(points, segments)
