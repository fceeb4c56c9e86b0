"""Locality diagnostics for page-reference traces.

The FPF curve is the integral view of a trace's locality; these helpers
expose the differential view — run lengths, reuse fractions, and the
reuse-distance histogram — which explains *why* a curve bends where it
does (a knee at B = w means the trace's reuses concentrate at depth <= w).
Used by data-generation tests (the window placer should concentrate reuse
depth near the window size) and available for ad-hoc analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.buffer.kernels.baseline import stack_distances
from repro.errors import TraceError


def run_lengths(trace: Sequence[int]) -> List[int]:
    """Lengths of maximal constant-page runs, in trace order."""
    if not len(trace):
        raise TraceError("empty trace has no runs")
    lengths: List[int] = []
    current = 1
    for previous, page in zip(trace, trace[1:]):
        if page == previous:
            current += 1
        else:
            lengths.append(current)
            current = 1
    lengths.append(current)
    return lengths


def reuse_distance_histogram(trace: Sequence[int]) -> Dict[int, int]:
    """Map LRU reuse depth -> number of reuses at that depth."""
    distances, _cold = stack_distances(trace)
    histogram: Dict[int, int] = {}
    for d in distances:
        histogram[d] = histogram.get(d, 0) + 1
    return histogram


@dataclass(frozen=True)
class LocalitySummary:
    """Compact locality profile of one trace."""

    references: int
    distinct_pages: int
    mean_run_length: float
    #: Fraction of references that reuse a previously seen page.
    reuse_fraction: float
    #: Median reuse depth (0 when the trace never reuses a page).
    median_reuse_depth: int
    #: Smallest buffer capturing >= 90% of reuses as hits.
    depth_p90: int

    def describe(self) -> str:
        """One-line human-readable profile."""
        return (
            f"{self.references} refs over {self.distinct_pages} pages, "
            f"mean run {self.mean_run_length:.2f}, "
            f"reuse {self.reuse_fraction:.0%}, "
            f"depth p50/p90 = {self.median_reuse_depth}/{self.depth_p90}"
        )


def summarize_locality(trace: Sequence[int]) -> LocalitySummary:
    """Build the :class:`LocalitySummary` for ``trace``."""
    if not len(trace):
        raise TraceError("empty trace has no locality profile")
    distances, cold = stack_distances(trace)
    lengths = run_lengths(trace)
    reuses = len(distances)
    ordered = sorted(distances)

    def depth_at(fraction: float) -> int:
        if not ordered:
            return 0
        index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
        return ordered[index]

    return LocalitySummary(
        references=len(trace),
        distinct_pages=cold,
        mean_run_length=sum(lengths) / len(lengths),
        reuse_fraction=reuses / len(trace),
        median_reuse_depth=depth_at(0.5),
        depth_p90=depth_at(0.9),
    )


def locality_by_window(
    traces: Dict[float, Sequence[int]]
) -> List[Tuple[float, LocalitySummary]]:
    """Summaries for several traces keyed by a parameter (e.g. K)."""
    return [
        (key, summarize_locality(trace))
        for key, trace in sorted(traces.items())
    ]
