"""Mergeable shard summaries for the exact stack-distance kernels.

A *sharded* pass (PARDA-style) splits one reference trace into N
contiguous shards and analyzes each independently.  Reuses whose previous
occurrence lies in the same shard are already exact; the only information
a shard cannot resolve locally is the depth of each *first-local-access*
— the page may be cold globally, or a seam reuse of an earlier shard.

Each exact-kernel stream therefore reduces its shard to an
:class:`ExactShardSummary` holding exactly what the seam needs:

* ``histogram`` — intra-shard reuse depths, already exact;
* ``first_seen`` — pages in first-local-access order (the seam replay
  sequence; its length is the shard's local cold-miss count);
* ``recency`` — pages in last-local-access order, oldest first (how the
  shard reorders the global LRU stack for its successors).

:func:`repro.buffer.kernels.sharded.merge_exact_summaries` resolves the
seams with one exact stack pass over the summaries' ``first_seen`` and
``recency`` pages, shard by shard, and reports :class:`SeamStats`.  The
sampled (SHARDS) kernel merges differently — by summing per-page
hash/count states under a shared seed; see
:func:`repro.buffer.kernels.sampled.merge_sampled_summaries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.errors import KernelError


@dataclass(frozen=True)
class ExactShardSummary:
    """One shard's contribution to an exact sharded pass.

    Memory is O(distinct pages in the shard): depths are histogrammed,
    never kept as a raw per-reference list.
    """

    #: Intra-shard reuse depth -> count.  Exact; merged by summation.
    histogram: Mapping[int, int]
    #: Pages in first-local-access order (local cold misses, in order).
    first_seen: Tuple[int, ...]
    #: Pages in last-local-access order, oldest first.
    recency: Tuple[int, ...]
    #: References the shard consumed.
    references: int

    def __post_init__(self) -> None:
        if set(self.first_seen) != set(self.recency):
            raise KernelError(
                "shard summary first_seen and recency must cover the "
                "same page set"
            )
        reuses = sum(self.histogram.values())
        if len(self.first_seen) + reuses != self.references:
            raise KernelError(
                f"shard summary accounting broken: {len(self.first_seen)}"
                f" cold + {reuses} reuses != {self.references} references"
            )


@dataclass(frozen=True)
class SeamStats:
    """What the merge resolved at the shard boundaries."""

    #: First-local-accesses that turned out to be reuses of earlier
    #: shards (each contributes one corrected depth to the histogram).
    seam_reuses: int
    #: First-local-accesses that were genuinely cold globally.
    cold_misses: int
    #: Shards merged (empty shards included).
    shards: int
