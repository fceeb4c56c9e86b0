"""Unit tests for piecewise-linear fitting."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest

from repro.errors import FitError
from repro.estimators.epfis import buffer_grid
from repro.fit import segments
from repro.fit.segments import (
    PiecewiseLinear,
    _chord_sse,
    _chord_table,
    fit_greedy,
    fit_optimal,
    fit_piecewise_linear,
)


def _sse(curve, points):
    return sum((curve.evaluate(x) - y) ** 2 for x, y in points)


class TestPiecewiseLinear:
    def test_requires_knots(self):
        with pytest.raises(FitError):
            PiecewiseLinear(())

    def test_rejects_unordered_knots(self):
        with pytest.raises(FitError):
            PiecewiseLinear(((1.0, 1.0), (1.0, 2.0)))
        with pytest.raises(FitError):
            PiecewiseLinear(((2.0, 1.0), (1.0, 2.0)))

    def test_single_knot_is_constant(self):
        curve = PiecewiseLinear(((5.0, 3.0),))
        assert curve.evaluate(0.0) == 3.0
        assert curve.evaluate(99.0) == 3.0
        assert curve.segment_count == 0

    def test_interpolation(self):
        curve = PiecewiseLinear(((0.0, 0.0), (10.0, 20.0)))
        assert curve.evaluate(5.0) == pytest.approx(10.0)
        assert curve(2.5) == pytest.approx(5.0)

    def test_knot_values_exact(self):
        knots = ((0.0, 1.0), (2.0, 5.0), (6.0, 4.0))
        curve = PiecewiseLinear(knots)
        for x, y in knots:
            assert curve.evaluate(x) == pytest.approx(y)

    def test_extrapolation_uses_terminal_slopes(self):
        curve = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0), (2.0, 4.0)))
        assert curve.evaluate(-1.0) == pytest.approx(-1.0)  # slope 1
        assert curve.evaluate(3.0) == pytest.approx(7.0)    # slope 3

    def test_round_trip_serialization(self):
        curve = PiecewiseLinear(((0.0, 1.5), (3.0, 2.5)))
        assert PiecewiseLinear.from_pairs(curve.to_pairs()) == curve


class TestFitters:
    @pytest.fixture()
    def convex_points(self):
        # A smooth convex decreasing curve like an FPF curve.
        return [(x, 1000.0 * math.exp(-x / 30.0) + 100.0) for x in range(0, 101, 5)]

    def test_validation(self, convex_points):
        with pytest.raises(FitError):
            fit_optimal(convex_points, 0)
        with pytest.raises(FitError):
            fit_optimal([(1.0, 1.0)], 2)
        with pytest.raises(FitError):
            fit_optimal([(1.0, 1.0), (1.0, 2.0)], 1)

    def test_few_points_returned_verbatim(self):
        points = [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)]
        curve = fit_optimal(points, 6)
        assert curve.knots == tuple(points)

    def test_endpoints_always_kept(self, convex_points):
        for fitter in (fit_optimal, fit_greedy):
            curve = fitter(convex_points, 4)
            assert curve.knots[0] == convex_points[0]
            assert curve.knots[-1] == convex_points[-1]

    def test_segment_count_honored(self, convex_points):
        for segments in (1, 2, 4, 6):
            curve = fit_optimal(convex_points, segments)
            assert curve.segment_count <= segments

    def test_error_decreases_with_segments(self, convex_points):
        errors = [
            _sse(fit_optimal(convex_points, s), convex_points)
            for s in (1, 2, 4, 6)
        ]
        assert errors[0] >= errors[1] >= errors[2] >= errors[3]

    def test_optimal_beats_or_ties_greedy(self, convex_points):
        for segments in (2, 3, 5):
            optimal = _sse(fit_optimal(convex_points, segments), convex_points)
            greedy = _sse(fit_greedy(convex_points, segments), convex_points)
            assert optimal <= greedy + 1e-9

    def test_exact_fit_of_piecewise_data(self):
        # Data that IS two segments: both fitters should be exact.
        points = [(float(x), float(2 * x)) for x in range(5)]
        points += [(float(x), float(8 - 3 * (x - 4))) for x in range(5, 10)]
        for fitter in (fit_optimal, fit_greedy):
            curve = fitter(points, 2)
            assert _sse(curve, points) == pytest.approx(0.0, abs=1e-18)

    def test_dispatch(self, convex_points):
        assert fit_piecewise_linear(convex_points, 3, "optimal").knots
        assert fit_piecewise_linear(convex_points, 3, "greedy").knots
        with pytest.raises(FitError):
            fit_piecewise_linear(convex_points, 3, "cubic")

    def test_duplicate_points_deduplicated(self):
        points = [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]
        curve = fit_optimal(points, 2)
        assert len(curve.knots) <= 3


def _scalar_table(points):
    n = len(points)
    return [
        [_chord_sse(points, i, j) if j > i else 0.0 for j in range(n)]
        for i in range(n)
    ]


def _knots_without_numpy(points, budget):
    with mock.patch.object(segments, "_np", None):
        return fit_optimal(points, budget).knots


def _paper_scale_points():
    """A 224-point FPF table on the paper-scale zipf grid.

    ``B`` runs from 2000 to 200000 in steps of 890 (the paper's
    ``2 * sqrt(B_max - B_min)``), and the integer fetch counts fall
    hyperbolically from about 10^6 towards T = 2x10^5.
    """
    grid = buffer_grid(2_000, 200_000)
    return [
        (float(b), float(200_000 + 7_900_000_000 // (b + 8_000)))
        for b in grid
    ]


class TestChordTable:
    """The numpy chord table is the scalar definition, bit for bit."""

    @pytest.mark.parametrize(
        "points",
        [
            # Integer-valued, decreasing, convex: an FPF table.
            [(float(b), float(50_000 // b + 400)) for b in range(12, 900, 7)],
            # Non-monotone, with negative and fractional values.
            [(float(x), math.sin(x / 3.0) * 1e3 - x * 0.37)
             for x in range(0, 160, 3)],
            # Tied y values: flat runs, where chords are exact.
            [(float(x), float(x // 10 * 10)) for x in range(0, 120)],
            # Two and three points: empty and one-term chords.
            [(0.0, 1.0), (1.0, 3.0)],
            [(0.0, 1.0), (1.0, 3.0), (5.0, -2.0)],
        ],
        ids=["fpf", "non-monotone", "tied", "two", "three"],
    )
    def test_equals_scalar_definition(self, points):
        assert _chord_table(points) == _scalar_table(points)

    def test_squares_are_correctly_rounded(self):
        # Flat one-point chords, so each SSE is one residual squared.  It
        # must be the correctly rounded square, whatever the C library's
        # pow() does (glibc 2.36 misrounds about 1 in 1200 of these).
        rng = random.Random(7)
        residuals = [rng.uniform(-1e4, 1e4) for _ in range(5_000)]
        points = []
        for k, r in enumerate(residuals):
            points += [(2.0 * k, 0.0), (2.0 * k + 1, r)]
        points.append((2.0 * len(residuals), 0.0))
        assert [
            _chord_sse(points, 2 * k, 2 * k + 2)
            for k in range(len(residuals))
        ] == [float(Fraction(r) ** 2) for r in residuals]

    def test_paper_scale_grid_regression(self):
        points = _paper_scale_points()
        assert len(points) == 224
        assert _chord_table(points) == _scalar_table(points)
        knots = fit_optimal(points, 6).knots
        assert knots == _knots_without_numpy(points, 6)
        assert [x for x, _y in knots] == [
            2000.0, 6450.0, 14460.0, 27810.0, 52730.0, 99900.0, 200000.0,
        ]
