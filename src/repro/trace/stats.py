"""Trace- and index-level statistics used by the baseline algorithms.

* :func:`jump_count` / :func:`fetches_with_single_buffer` — Algorithm SD's
  ``J`` can be computed directly: with a one-page buffer, every transition
  to a different page is a fetch.
* :func:`key_page_spans` / :func:`dc_cluster_count` — Algorithm DC's cluster
  counter ``CC`` compares each key's first page with the previous key's last
  page.  :func:`key_page_spans` is the readable definition, built from
  :meth:`~repro.storage.index.Index.entries`; :func:`dc_cluster_count` is
  one walk over the B-tree's leaves, comparing the two adjacent entries at
  each key change, with no per-entry objects.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Sequence, Tuple

from repro.buffer.lru import LRUBufferPool
from repro.errors import TraceError
from repro.storage.index import Index

#: The paper's smallest modeled buffer size ("In our experiments, we set
#: B_sml = 12"), chosen "to avoid the large effects on page fetches due to
#: too small a buffer size".
B_SML_DEFAULT = 12


def min_modeled_buffer(table_pages: int, b_sml: int = B_SML_DEFAULT) -> int:
    """LRU-Fit's ``B_min = max(0.01 * T, B_sml)``, clamped into [1, T]."""
    if table_pages < 1:
        raise TraceError(f"table_pages must be >= 1, got {table_pages}")
    b_min = max(math.ceil(0.01 * table_pages), b_sml)
    return max(1, min(b_min, table_pages))


def clustering_factor(
    trace: Sequence[int], table_pages: int, b_sml: int = B_SML_DEFAULT
) -> float:
    """The paper's clustering factor ``C = (N - F_min) / (N - T)``.

    ``F_min`` is the fetch count of a full index scan with the smallest
    modeled buffer ``B_min``.  ``C ~ 0`` means records are located at random
    on pages; ``C -> 1`` means the index order matches page order.  For the
    degenerate ``N == T`` (one record per page, every scan fetches exactly
    N pages regardless of order) the index is perfectly clustered by
    convention and 1.0 is returned.
    """
    n = len(trace)
    if not n:
        raise TraceError("empty trace has no clustering factor")
    if n <= table_pages:
        return 1.0
    b_min = min_modeled_buffer(table_pages, b_sml)
    f_min = LRUBufferPool(b_min).run(trace)
    c = (n - f_min) / (n - table_pages)
    # Float guard: F_min is bounded by [T, N] so C is in [0, 1] already,
    # but noisy inputs (e.g. traces touching fewer than T pages) can push
    # F_min below T; clamp to keep the documented contract.
    return min(1.0, max(0.0, c))


def distinct_pages(trace: Iterable[int]) -> int:
    """The paper's ``A``: number of different pages in the trace."""
    return len(set(trace))


def jump_count(trace: Sequence[int]) -> int:
    """Adjacent transitions where the page changes."""
    return sum(1 for a, b in zip(trace, trace[1:]) if a != b)


def fetches_with_single_buffer(trace: Sequence[int]) -> int:
    """Exact fetches with ``B = 1``: one plus the number of jumps."""
    if not len(trace):
        raise TraceError("empty trace has no fetch count")
    return 1 + jump_count(trace)


def key_page_spans(index: Index) -> List[Tuple[Any, int, int]]:
    """Per distinct key (in key order): ``(key, first_page, last_page)``.

    "First" and "last" follow the stored entry order within the key, which
    is what an index-sequence scan observes.
    """
    spans: List[Tuple[Any, int, int]] = []
    current_key: Any = None
    have_key = False
    first_page = last_page = -1
    for entry in index.entries():
        if not have_key or entry.key != current_key:
            if have_key:
                spans.append((current_key, first_page, last_page))
            current_key = entry.key
            have_key = True
            first_page = entry.rid.page
        last_page = entry.rid.page
    if have_key:
        spans.append((current_key, first_page, last_page))
    return spans


def dc_cluster_count(index: Index, count_first_key: bool = True) -> int:
    """Algorithm DC's cluster counter ``CC`` (Section 3.2).

    ``CC`` is incremented when "the first page containing the records of the
    next key value is the same or a higher page than the last page
    containing the records of the previous key value".  The paper does not
    say how the very first key is treated; since ``CC/I`` is meant to reach
    1 for a perfectly clustered index, we count the first key as clustered
    by default (``count_first_key=True``).

    A key's first entry directly follows the previous key's last one, so
    the walk compares the pages of the two entries at each key change:
    the same test as on adjacent :func:`key_page_spans` rows.
    """
    cc = 0
    previous_key: Any = object()  # unequal to every key
    # Pages are >= 0: the first key's page is compared with -1 (always
    # counted) or with +inf (never counted).
    previous_page: float = -1 if count_first_key else math.inf
    for order_keys, rids in index.btree.leaves():
        for (key, _seq), rid in zip(order_keys, rids):
            page = rid.page
            if key != previous_key:
                if page >= previous_page:
                    cc += 1
                previous_key = key
            previous_page = page
    return cc
