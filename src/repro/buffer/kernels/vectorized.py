"""Optional numpy kernel: vectorized offline stack-distance computation.

The stack depth of a reuse at position ``t`` with previous occurrence
``prev(t)`` equals the number of positions ``j < t`` whose *own* previous
occurrence satisfies ``prev(j) <= prev(t)`` (each such ``j`` is the most
recent touch of a distinct page in the window), minus ``prev(t)`` — a
classic 2-D dominance-counting problem.  This kernel solves it offline
with a bottom-up merge sort over power-of-two levels.  One int64 array
holds every position keyed by ``(prev, position)``, sorted within blocks
of the current width.  Each level merges the sorted halves of every
block with one stable in-place row sort; in merged order, the left-half
positions before a right-half position are exactly its dominated
partners at that level, so a running ``cumsum`` counts them.  Every pair
``j < t`` meets at exactly one level.  That is O(M log M) vectorized
work, with no per-reference Python loop and no binary search.

The output is a depth histogram (an int64 ``bincount``) rather than one
integer per reuse, fed to :meth:`FetchCurve.from_histogram
<repro.buffer.stack.FetchCurve.from_histogram>`.  Memory stays linear:
the keyed array (8 B per position) and the per-position depth counters
(int32 below 2**31 - 1 references, int64 beyond) are the only O(M) state
across levels, and each level works in slabs of :data:`_SLAB`
positions, so per-level temporaries are O(slab).  ``tracemalloc``
measures about 20 bytes of temporaries per reference on a uniform
2**20-reference trace (25 at 2**18, where the slab weighs more); the
unit tests bound it at 48.

Results are bit-identical to the baseline kernel.  The module always
imports — :data:`HAVE_NUMPY` reports availability — but the kernel class
raises :class:`~repro.errors.KernelError` at construction when numpy is
missing, and :mod:`repro.buffer.kernels` only registers it when numpy
imports, keeping the package zero-dependency.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.buffer.kernels.base import KernelStream, StackDistanceKernel
from repro.buffer.kernels.mergeable import ExactShardSummary
from repro.buffer.stack import FetchCurve
from repro.errors import KernelError, TraceError

try:  # pragma: no cover - exercised implicitly by the registry
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when numpy imported and the kernel is usable.
HAVE_NUMPY = _np is not None


#: Positions one merge level processes per vectorized step: the
#: level's temporaries are O(slab), not O(M).
_SLAB = 1 << 16


def _vectorized_distances(pages) -> "tuple[object, int]":
    """Return ``(counts, cold_misses)`` for an integer page array.

    ``counts[d]`` is the number of reuses at stack depth ``d`` (an int64
    ``bincount``; see :func:`_histogram`).  ``pages`` is not modified.
    """
    np = _np
    n = int(pages.size)
    # Positions and depths (and -n - 1, below) fit int32 up to here.
    idx = np.int32 if n < 2**31 - 1 else np.int64
    # prev[t] = position of the previous occurrence of pages[t]: a
    # stable sort groups each page's positions in trace order.
    order = np.argsort(pages, kind="stable").astype(idx, copy=False)
    sorted_pages = pages[order]
    same = sorted_pages[1:] == sorted_pages[:-1]
    del sorted_pages
    reuse = order[1:][same]  # positions with an earlier occurrence
    prev = order[:-1][same]  # ... and that occurrence
    del order, same
    cold = n - int(reuse.size)
    if not reuse.size:
        return np.zeros(1, dtype=np.int64), cold

    # ``acc`` starts at -prev and gains the window's distinct pages
    # level by level, so it ends as the depth; positions without an
    # earlier occurrence start below -n and stay negative.
    acc = np.full(n, -n - 1, dtype=idx)
    acc[reuse] = -prev
    # level[j] = (prev(j) + 1) << shift | j, with prev(j) = -1 when j
    # has no earlier occurrence: keys order by prev, then position.
    shift = (n - 1).bit_length()
    level = np.arange(n, dtype=np.int64)
    for s in range(0, reuse.size, _SLAB):
        level[reuse[s:s + _SLAB]] += (
            prev[s:s + _SLAB].astype(np.int64) + 1
        ) << shift
    del reuse, prev
    mask = (1 << shift) - 1
    width = 1
    while width < n:
        span = 2 * width
        # Merge each block's sorted halves (timsort merges the runs);
        # the last block may be partial.
        full = n - n % span
        level[:full].reshape(-1, span).sort(axis=1, kind="stable")
        level[full:].sort(kind="stable")
        # In merged order, a right-half position is preceded in its
        # block by exactly the left-half positions with a smaller or
        # equal prev: the distinct pages its window gains from the left.
        carry = 0
        for lo in range(0, n, _SLAB):
            pos = level[lo:lo + _SLAB] & mask
            left = (pos & width) == 0
            seen = np.cumsum(left)
            seen += carry
            carry = int(seen[-1]) if (lo + _SLAB) % span else 0
            right = np.flatnonzero(~left)
            acc[pos[right]] += seen[right] - right // span * width
        width = span
    del level
    np.maximum(acc, 0, out=acc)
    counts = np.bincount(acc)
    counts[0] = 0
    return counts, cold


def _histogram(counts) -> dict:
    """A ``bincount`` of depths as the ``{depth: count}`` of its nonzeros."""
    depths = _np.flatnonzero(counts)
    return dict(zip(depths.tolist(), counts[depths].tolist()))


class _VectorizedStream(KernelStream):
    """Buffers chunks as arrays; the analysis itself is offline."""

    def __init__(self) -> None:
        self._chunks: List = []  # one int64 ndarray per fed chunk

    def _consume(self, pages: Iterable[int]) -> None:
        arr = _np.asarray(
            pages if isinstance(pages, (list, tuple)) else list(pages),
            dtype=_np.int64,
        )
        if arr.size:
            self._chunks.append(arr)

    def _pages(self):
        """Every fed reference as one array; the buffer is released."""
        chunks, self._chunks = self._chunks, []
        return chunks[0] if len(chunks) == 1 else _np.concatenate(chunks)

    def _result(self) -> FetchCurve:
        if not self._chunks:
            raise TraceError("cannot build a FetchCurve from an empty trace")
        counts, cold = _vectorized_distances(self._pages())
        return FetchCurve.from_histogram(_histogram(counts), cold)

    def shard_summary(self) -> ExactShardSummary:
        """Reduce this stream's shard to a mergeable summary.

        One stable argsort groups each page's positions in trace order:
        the first and last position of every group, re-sorted, give the
        first- and last-occurrence orders — no Python loop over
        references.
        """
        self._close_for_summary()
        np = _np
        if not self._chunks:
            return ExactShardSummary({}, (), (), 0)
        pages = self._pages()
        counts, _cold = _vectorized_distances(pages)
        n = int(pages.size)
        order = np.argsort(pages, kind="stable")
        sorted_pages = pages[order]
        starts = np.flatnonzero(sorted_pages[1:] != sorted_pages[:-1]) + 1
        firsts = order[np.concatenate(([0], starts))]
        lasts = order[np.concatenate((starts - 1, [n - 1]))]
        return ExactShardSummary(
            histogram=_histogram(counts),
            first_seen=tuple(pages[np.sort(firsts)].tolist()),
            recency=tuple(pages[np.sort(lasts)].tolist()),
            references=n,
        )


class VectorizedKernel(StackDistanceKernel):
    """Exact numpy kernel (auto-registered only when numpy is present)."""

    name = "numpy"
    exact = True

    def __init__(self) -> None:
        if not HAVE_NUMPY:
            raise KernelError(
                "the 'numpy' kernel requires numpy, which is not installed"
            )

    def _new_stream(self) -> KernelStream:
        """A fresh buffering stream."""
        return _VectorizedStream()
