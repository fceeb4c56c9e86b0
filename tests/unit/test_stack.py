"""Unit tests for stack distances and the FetchCurve."""

import pytest

from repro.buffer.kernels.baseline import stack_distances
from repro.buffer.lru import LRUBufferPool
from repro.buffer.stack import FetchCurve
from repro.errors import TraceError


class TestStackDistances:
    def test_no_reuse_all_cold(self):
        distances, cold = stack_distances([1, 2, 3, 4])
        assert distances == []
        assert cold == 4

    def test_immediate_reuse_distance_one(self):
        distances, cold = stack_distances([5, 5])
        assert distances == [1]
        assert cold == 1

    def test_distance_counts_distinct_intervening_pages(self):
        # 2@3 reuses 2@1 across {3} -> depth 2.
        # 1@4 reuses 1@0 across {2, 3} -> depth 3 (the repeated 2 counts once).
        distances, cold = stack_distances([1, 2, 3, 2, 1])
        assert cold == 3
        assert distances == [2, 3]

    def test_distance_example_worked_by_hand(self):
        # trace:  a b a c b a
        # a@2: since a@0 distinct {b} -> depth 2
        # b@4: since b@1 distinct {a, c} -> depth 3
        # a@5: since a@2 distinct {c, b} -> depth 3
        distances, cold = stack_distances(["a", "b", "a", "c", "b", "a"])
        assert cold == 3
        assert distances == [2, 3, 3]


class TestFetchCurve:
    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            FetchCurve.from_trace([])

    def test_fetches_monotone_nonincreasing_in_buffer(self):
        trace = [1, 2, 1, 3, 2, 4, 1, 2, 5, 3]
        curve = FetchCurve.from_trace(trace)
        fetches = [curve.fetches(b) for b in range(1, 8)]
        assert fetches == sorted(fetches, reverse=True)

    def test_large_buffer_reaches_compulsory_floor(self):
        trace = [1, 2, 1, 3, 2, 4, 1]
        curve = FetchCurve.from_trace(trace)
        assert curve.fetches(10) == curve.distinct_pages == 4

    def test_matches_exact_lru_simulation(self):
        trace = [0, 1, 2, 0, 3, 1, 0, 2, 4, 2, 1]
        curve = FetchCurve.from_trace(trace)
        for b in range(1, 7):
            assert curve.fetches(b) == LRUBufferPool(b).run(trace)

    def test_buffer_below_one_rejected(self):
        curve = FetchCurve.from_trace([1, 2])
        with pytest.raises(TraceError):
            curve.fetches(0)

    def test_hits_complement_fetches(self):
        trace = [1, 2, 1, 1, 3, 2]
        curve = FetchCurve.from_trace(trace)
        for b in (1, 2, 3):
            assert curve.hits(b) + curve.fetches(b) == len(trace)

    def test_curve_returns_pairs(self):
        curve = FetchCurve.from_trace([1, 2, 1])
        assert curve.curve([1, 2]) == [(1, 3), (2, 2)]

    def test_reuses_property(self):
        curve = FetchCurve.from_trace([1, 1, 2, 2])
        assert curve.reuses == 2
        assert curve.max_depth == 1

    def test_min_buffer_for(self):
        trace = [1, 2, 3, 1, 2, 3]  # depth-3 reuses
        curve = FetchCurve.from_trace(trace)
        assert curve.min_buffer_for(3) == 3
        assert curve.fetches(3) == 3
        assert curve.fetches(2) == 6

    def test_min_buffer_for_unachievable_bound(self):
        curve = FetchCurve.from_trace([1, 2, 3])
        with pytest.raises(TraceError):
            curve.min_buffer_for(2)

