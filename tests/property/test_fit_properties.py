"""Property-based tests for piecewise-linear fitting."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fit import segments
from repro.fit.segments import (
    PiecewiseLinear,
    _chord_sse,
    _chord_table,
    fit_greedy,
    fit_optimal,
)

# Monotone-decreasing convex-ish samples, like FPF curves.
point_sets = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=2,
    max_size=40,
    unique_by=lambda p: p[0],
)
segment_counts = st.integers(min_value=1, max_value=8)


def _sse(curve, points):
    return sum((curve.evaluate(x) - y) ** 2 for x, y in points)


@given(points=point_sets, segments=segment_counts)
@settings(max_examples=150)
def test_fit_keeps_endpoints_and_passes_through_knots(points, segments):
    data = sorted((float(x), float(y)) for x, y in points)
    for fitter in (fit_optimal, fit_greedy):
        curve = fitter(data, segments)
        assert curve.knots[0] == data[0]
        assert curve.knots[-1] == data[-1]
        point_set = set(data)
        assert all(k in point_set for k in curve.knots)


@given(points=point_sets, segments=segment_counts)
@settings(max_examples=100)
def test_optimal_no_worse_than_greedy(points, segments):
    data = sorted((float(x), float(y)) for x, y in points)
    assert _sse(fit_optimal(data, segments), data) <= (
        _sse(fit_greedy(data, segments), data) + 1e-6
    )


@given(points=point_sets)
@settings(max_examples=100)
def test_error_monotone_in_segment_budget(points):
    data = sorted((float(x), float(y)) for x, y in points)
    errors = [_sse(fit_optimal(data, s), data) for s in (1, 2, 4, 8)]
    for worse, better in zip(errors, errors[1:]):
        assert better <= worse + 1e-6


@given(points=point_sets)
def test_full_budget_is_exact(points):
    data = sorted((float(x), float(y)) for x, y in points)
    curve = fit_optimal(data, len(data) - 1)
    assert _sse(curve, data) < 1e-9


@given(
    knots=st.lists(
        st.tuples(
            st.integers(0, 500), st.integers(-100, 100)
        ),
        min_size=2,
        max_size=6,
        unique_by=lambda p: p[0],
    ),
    x=st.floats(min_value=-100, max_value=700, allow_nan=False),
)
def test_evaluate_is_continuous_and_bounded_inside(knots, x):
    data = tuple(sorted((float(a), float(b)) for a, b in knots))
    curve = PiecewiseLinear(data)
    value = curve.evaluate(x)
    assert value == value  # not NaN
    if data[0][0] <= x <= data[-1][0]:
        ys = [y for _x, y in data]
        assert min(ys) - 1e-9 <= value <= max(ys) + 1e-9


# FPF-like tables up to the paper-scale grid's size: integer-valued,
# non-monotone, and with tied y values (a small y range forces ties).
chord_tables = st.one_of(
    st.integers(min_value=2, max_value=250).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=250_000),
                st.integers(min_value=0, max_value=1_000_000),
            ),
            min_size=n,
            max_size=n,
            unique_by=lambda p: p[0],
        )
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=500),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=2,
        max_size=120,
        unique_by=lambda p: p[0],
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=-10**6, max_value=10**6).map(
                lambda v: v / 64
            ),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        min_size=2,
        max_size=80,
        unique_by=lambda p: p[0],
    ),
)


@given(points=chord_tables, segments_budget=segment_counts)
@settings(max_examples=60)
def test_chord_table_and_knots_match_scalar_path(points, segments_budget):
    data = sorted((float(x), float(y)) for x, y in points)
    n = len(data)
    table = _chord_table(data)
    assert table == [
        [_chord_sse(data, i, j) if j > i else 0.0 for j in range(n)]
        for i in range(n)
    ]
    knots = fit_optimal(data, segments_budget).knots
    with mock.patch.object(segments, "_np", None):
        assert fit_optimal(data, segments_budget).knots == knots
