"""Single-pass LRU analysis via Mattson stack distances.

Section 4.1 of the paper: "To simultaneously perform this simulation for a
number of buffer pool sizes without maintaining that many buffer pools, the
*stack* property of the LRU algorithm (Mattson et al., 1970) is used".

For LRU, the contents of a pool of size ``B`` are always the top ``B`` pages
of a single global LRU stack (the *inclusion property*).  A reference to a
page sitting at stack depth ``d`` therefore hits in every pool with
``B >= d`` and misses in every smaller pool.  Recording the histogram of
reuse depths in **one pass** over the trace yields the exact fetch count for
*every* buffer size at once:

    F(B) = cold_misses + #{ reuses with depth > B }

This module holds the resulting curve, :class:`FetchCurve`.  The pass
itself — a Fenwick tree over "most recent occurrence" flags, O(M log M) for
a trace of M references — is
:func:`repro.buffer.kernels.baseline.stack_distances`; the other kernels in
:mod:`repro.buffer.kernels` build the same curve through
:meth:`FetchCurve.from_histogram`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Sequence, Tuple

from repro.errors import TraceError


@dataclass(frozen=True)
class FetchCurve:
    """The exact fetch-count function ``B -> F(B)`` for one reference trace.

    Built once from a stack-distance histogram, then queried in O(log k)
    for any buffer size.  ``fetches(1)`` equals the fetch count of a
    single-slot pool (used by Algorithm SD) and ``fetches(B)`` for
    ``B >= distinct_pages`` equals the compulsory-miss floor ``A`` (the
    number of distinct pages accessed).

    Edge semantics (relied on by the fleet advisor, regression-tested):

    * ``B = 0`` is rejected (:meth:`fetches` raises) — a scan cannot run
      without one buffer page.  Consumers that need a value at zero
      pages clamp to ``fetches(1)`` (see :mod:`repro.advisor.curves`).
    * ``B > distinct_pages`` is **flat**: once every distinct page fits,
      extra pages cannot avoid any fetch, so the curve sits at the
      compulsory floor ``A`` for all larger ``B`` — never below it.
    """

    #: Total references in the trace (the paper's per-scan record count
    #: when each record touches one page reference).
    accesses: int
    #: Number of distinct pages referenced (compulsory misses; paper's A).
    distinct_pages: int
    #: Sorted unique reuse depths.
    depths: Tuple[int, ...]
    #: cumulative_reuses[i] = number of reuses with depth <= depths[i].
    cumulative_reuses: Tuple[int, ...]

    @classmethod
    def from_trace(cls, trace: Sequence[int]) -> "FetchCurve":
        """Analyze ``trace`` and build its fetch curve."""
        if not len(trace):
            raise TraceError("cannot build a FetchCurve from an empty trace")
        # Lazy: the kernels package imports this module.
        from repro.buffer.kernels.baseline import stack_distances

        distances, cold = stack_distances(trace)
        return cls.from_distances(distances, cold)

    @classmethod
    def from_distances(
        cls, distances: Iterable[int], cold_misses: int
    ) -> "FetchCurve":
        """Build the curve from a precomputed reuse-depth sequence.

        Any pass that produces the multiset of reuse depths plus the
        compulsory-miss count yields exactly this curve.  ``Counter``
        does the histogram in C rather than a Python dict loop.
        """
        return cls.from_histogram(Counter(distances), cold_misses)

    @classmethod
    def from_histogram(
        cls, histogram: Mapping[int, int], cold_misses: int
    ) -> "FetchCurve":
        """Build the curve from a reuse-depth histogram (depth -> count).

        This is the constructor the pluggable kernels and the shard merge
        share: a histogram holds everything the curve needs, so a kernel
        never has to materialize one integer per reuse.  Depths with a
        zero count are ignored, so equal multisets give equal curves.
        """
        depths = tuple(sorted(d for d, count in histogram.items() if count))
        cumulative = tuple(
            itertools.accumulate(histogram[d] for d in depths)
        )
        accesses = cold_misses + (cumulative[-1] if cumulative else 0)
        if not accesses:
            raise TraceError("cannot build a FetchCurve from an empty trace")
        return cls(
            accesses=accesses,
            distinct_pages=cold_misses,
            depths=depths,
            cumulative_reuses=cumulative,
        )

    @property
    def reuses(self) -> int:
        """References that were not compulsory misses."""
        return self.accesses - self.distinct_pages

    @property
    def max_depth(self) -> int:
        """Largest reuse depth; 0 when the trace never revisits a page."""
        return self.depths[-1] if self.depths else 0

    def fetches(self, buffer_pages: int) -> int:
        """Exact page fetches for an LRU pool of ``buffer_pages`` slots."""
        if buffer_pages < 1:
            raise TraceError(
                f"buffer size must be >= 1, got {buffer_pages}"
            )
        # Reuses with depth <= B hit; the rest miss.
        idx = bisect_right(self.depths, buffer_pages)
        hits = self.cumulative_reuses[idx - 1] if idx else 0
        return self.distinct_pages + (self.reuses - hits)

    def hits(self, buffer_pages: int) -> int:
        """Accesses satisfied from the pool at the given size."""
        return self.accesses - self.fetches(buffer_pages)

    def curve(self, buffer_sizes: Iterable[int]) -> List[Tuple[int, int]]:
        """``[(B, F(B)), ...]`` for each requested buffer size."""
        return [(b, self.fetches(b)) for b in buffer_sizes]

    def min_buffer_for(self, max_fetches: int) -> int:
        """Smallest ``B`` with ``F(B) <= max_fetches``.

        Raises :class:`TraceError` if even an infinite buffer exceeds the
        bound (i.e. ``max_fetches < distinct_pages``).
        """
        if max_fetches < self.distinct_pages:
            raise TraceError(
                f"no buffer size achieves <= {max_fetches} fetches; the "
                f"compulsory-miss floor is {self.distinct_pages}"
            )
        # F(B) <= max_fetches iff hits(B) >= reuses - (max_fetches - A).
        # F only decreases at stored depth values, so the answer is read
        # straight off the cumulative histogram with one bisect instead of
        # a binary search over fetches() calls.
        needed_hits = self.reuses - (max_fetches - self.distinct_pages)
        if needed_hits <= 0:
            return 1
        return self.depths[bisect_left(self.cumulative_reuses, needed_hits)]
