"""The reference kernel: the library's one Fenwick-over-positions pass.

The depth of a reuse is 1 + the number of *distinct* pages referenced
strictly between the two accesses.  Counting distinct pages in a window is
done with a Fenwick tree over "most recent occurrence" flags, giving
O(M log M) for a trace of M references.  :func:`stack_distances` runs the
pass once over a sized trace with the tree pre-sized to its length; the
streaming variant grows the tree geometrically so references can be fed in
chunks without knowing the trace length up front.  Both share the one loop
in :meth:`_BaselineStream._consume`.  :func:`python_depths` is the
no-numpy side of the library's per-position depth routine
(:func:`repro.buffer.kernels.vectorized.reuse_depths`).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.buffer.kernels.base import (
    KernelStream,
    StackDistanceKernel,
    _record_kernel_pass,
)
from repro.buffer.kernels.mergeable import ExactShardSummary
from repro.buffer.stack import FetchCurve
from repro.obs.metrics import global_registry


class _BaselineStream(KernelStream):
    """Chunk-fed Fenwick pass over trace positions."""

    def __init__(self, capacity: int = 1024) -> None:
        self._capacity = capacity
        self._tree: List[int] = [0] * (self._capacity + 1)
        self._last_seen: Dict[int, int] = {}
        self._distances: List[int] = []
        self._cold = 0
        self._position = 0

    def _grow(self, needed: int) -> None:
        """Double the position capacity to cover ``needed`` references.

        The tree is rebuilt from the "most recent occurrence" flags in
        O(capacity); geometric growth keeps the amortized per-reference
        cost constant, and distances are position-independent so growth
        never changes the output.
        """
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        tree = [0] * (capacity + 1)
        for pos in self._last_seen.values():
            tree[pos + 1] += 1
        for i in range(1, capacity + 1):
            parent = i + (i & -i)
            if parent <= capacity:
                tree[parent] += tree[i]
        self._capacity = capacity
        self._tree = tree

    def _consume(self, pages: Iterable[int]) -> None:
        chunk = pages if isinstance(pages, (list, tuple)) else list(pages)
        if self._position + len(chunk) > self._capacity:
            self._grow(self._position + len(chunk))
        # Slot t of the tree holds 1 iff trace position t is currently
        # the most recent occurrence of its page.  Locals are bound once
        # per chunk: this is the hottest loop in the library.
        tree = self._tree
        n = self._capacity
        last_seen = self._last_seen
        append = self._distances.append
        get = last_seen.get
        cold = self._cold
        t = self._position
        for page in chunk:
            prev = get(page)
            if prev is None:
                cold += 1
            else:
                # Distinct pages strictly between prev and t: the flags in
                # positions (prev, t), as two prefix sums.
                i = t
                hi = 0
                while i > 0:
                    hi += tree[i]
                    i -= i & -i
                i = prev + 1
                lo = 0
                while i > 0:
                    lo += tree[i]
                    i -= i & -i
                append(hi - lo + 1)
                # prev is no longer the most recent occurrence of page.
                i = prev + 1
                while i <= n:
                    tree[i] -= 1
                    i += i & -i
            i = t + 1
            while i <= n:
                tree[i] += 1
                i += i & -i
            last_seen[page] = t
            t += 1
        self._cold = cold
        self._position = t

    def _result(self) -> FetchCurve:
        return FetchCurve.from_distances(self._distances, self._cold)

    def shard_summary(self) -> ExactShardSummary:
        """Reduce this stream's shard to a mergeable summary.

        ``_last_seen`` already carries both orders the seam needs: dict
        keys in insertion order are the first-local-access sequence, and
        sorting by value (trace position) yields last-access recency.
        """
        self._close_for_summary()
        last_seen = self._last_seen
        return ExactShardSummary(
            histogram=dict(Counter(self._distances)),
            first_seen=tuple(last_seen),
            recency=tuple(
                sorted(last_seen, key=last_seen.__getitem__)
            ),
            references=self._position,
        )


def stack_distances(trace: Sequence[int]) -> Tuple[List[int], int]:
    """Return ``(distances, cold_misses)`` for a page-reference trace.

    ``distances`` holds, for every *reuse* (a reference to a page seen
    before), its LRU stack depth: ``1`` means the page was the most
    recently used, so it hits even in a single-slot pool.  First
    references are compulsory (cold) misses in every pool and are
    returned as a count.
    """
    stream = _BaselineStream(max(len(trace), 1))
    stream._consume(trace)
    return stream._distances, stream._cold


#: Distinct pages up to which :func:`python_depths` runs its sorted-list
#: pass.  Its cost grows with the reuse depths, the Fenwick pass's with
#: log M; on streams of 4 references per page they break even near here.
_LIST_PAGES = 1 << 15


def python_depths(pages: Sequence[int]) -> List[int]:
    """The LRU stack depth at every position of ``pages``, without numpy.

    0 marks a page's first occurrence.  Up to :data:`_LIST_PAGES`
    distinct pages, one ascending list holds the live pages' last
    positions: a reuse's depth is the number of entries at or after its
    previous position, found with one bisect, and deleting that entry
    moves depth - 1 pointers.  Beyond that, one :func:`stack_distances`
    Fenwick pass gives the reuse depths in trace order and a walk with a
    seen-set hands each to its position.
    """
    depths: List[int] = []
    append = depths.append
    if len(set(pages)) <= _LIST_PAGES:
        last: Dict[int, int] = {}
        get = last.get
        live: List[int] = []
        push = live.append
        for t, page in enumerate(pages):
            prev = get(page)
            if prev is None:
                append(0)
            else:
                i = bisect_left(live, prev)
                append(len(live) - i)
                del live[i]
            push(t)
            last[page] = t
        return depths
    distances, _cold = stack_distances(pages)
    depth_of = iter(distances).__next__
    seen = set()
    for page in pages:
        if page in seen:
            append(depth_of())
        else:
            seen.add(page)
            append(0)
    return depths


class BaselineKernel(StackDistanceKernel):
    """Exact Fenwick-tree kernel — the library's original hot loop."""

    name = "baseline"
    exact = True

    def _new_stream(self) -> KernelStream:
        """A fresh growable-Fenwick stream."""
        return _BaselineStream()

    def analyze(self, trace: Iterable[int]) -> FetchCurve:
        """One-shot pass; sized traces pre-size the tree (no growth)."""
        if hasattr(trace, "__len__"):
            if not global_registry().enabled:
                distances, cold = stack_distances(trace)
                return FetchCurve.from_distances(distances, cold)
            started = time.perf_counter_ns()
            distances, cold = stack_distances(trace)
            curve = FetchCurve.from_distances(distances, cold)
            _record_kernel_pass(
                self.name,
                curve.accesses,
                time.perf_counter_ns() - started,
            )
            return curve
        return super().analyze(trace)
