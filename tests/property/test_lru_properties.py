"""Property-based tests for the LRU machinery.

The central invariant of the whole reproduction: the single-pass Mattson
stack analysis must agree *exactly* with brute-force LRU simulation for
every trace and every buffer size — this is what justifies LRU-Fit's
one-pass simultaneous simulation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.lru import LRUBufferPool
from repro.buffer.stack import FetchCurve

traces = st.lists(st.integers(min_value=0, max_value=12), min_size=1,
                  max_size=120)
buffers = st.integers(min_value=1, max_value=16)


@given(trace=traces, buffer_pages=buffers)
@settings(max_examples=300)
def test_stack_analysis_equals_lru_simulation(trace, buffer_pages):
    """FetchCurve(B) == exact LRU fetch count, for all traces and sizes."""
    curve = FetchCurve.from_trace(trace)
    assert curve.fetches(buffer_pages) == LRUBufferPool(buffer_pages).run(
        trace
    )


@given(trace=traces)
def test_inclusion_property_fetches_nonincreasing(trace):
    """LRU has the stack property: more buffer never causes more fetches."""
    curve = FetchCurve.from_trace(trace)
    previous = None
    for b in range(1, 18):
        fetches = curve.fetches(b)
        if previous is not None:
            assert fetches <= previous
        previous = fetches


@given(trace=traces, buffer_pages=buffers)
def test_fetch_bounds(trace, buffer_pages):
    """A <= F <= len(trace): compulsory misses floor, one fetch per access
    ceiling (the paper's Section 2 bounds)."""
    curve = FetchCurve.from_trace(trace)
    fetches = curve.fetches(buffer_pages)
    assert curve.distinct_pages <= fetches <= len(trace)


@given(trace=traces)
def test_infinite_buffer_reaches_floor(trace):
    curve = FetchCurve.from_trace(trace)
    assert curve.fetches(len(trace) + 1) == curve.distinct_pages


@given(trace=traces, buffer_pages=buffers)
def test_lru_pool_never_exceeds_capacity(trace, buffer_pages):
    pool = LRUBufferPool(buffer_pages)
    for page in trace:
        pool.access(page)
        assert len(pool.resident_pages()) <= buffer_pages


@given(trace=traces, small=buffers, extra=st.integers(1, 8))
def test_lru_inclusion_of_resident_sets(trace, small, extra):
    """The resident set of a small pool is contained in a larger pool's —
    the inclusion property itself, not just its fetch-count corollary."""
    small_pool = LRUBufferPool(small)
    large_pool = LRUBufferPool(small + extra)
    for page in trace:
        small_pool.access(page)
        large_pool.access(page)
        assert small_pool.resident_pages() <= large_pool.resident_pages()
