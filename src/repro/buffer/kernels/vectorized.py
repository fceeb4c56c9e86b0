"""Optional numpy kernel: vectorized offline stack-distance computation.

The stack depth of a reuse at position ``t`` with previous occurrence
``prev(t)`` equals the number of positions ``j < t`` whose *own* previous
occurrence satisfies ``prev(j) <= prev(t)`` (each such ``j`` is the most
recent touch of a distinct page in the window), minus ``prev(t)`` — a
classic 2-D dominance-counting problem, solved offline in two steps.

*Grouping.*  One unstable sort of the int64 keys
``page << shift | position`` (unique, so stability is not needed) puts
each page's positions next to each other in trace order; adjacent keys
of the same page give every reuse its ``prev``.  Page ids too wide for
the key's high bits, or negative, are first remapped to dense ids.

*Merging.*  A bottom-up merge sort over power-of-two levels counts the
dominated pairs.  One int64 array holds every position keyed by
``(prev, position)``, sorted within blocks of the current width.  Each
level merges the sorted halves of every block with one stable in-place
row sort; in merged order, the left-half positions before a right-half
position are exactly its dominated partners at that level.  The k-th
right-half position of a slab, at slab index i, has i - k left-half
positions before it, so counting them needs no ``cumsum``: only the
right-half keys are picked out, and an ``np.add.at`` adds the counts to
their positions.  Every pair ``j < t`` meets at exactly one level.
That is O(M log M) vectorized work, with no per-reference Python loop
and no binary search.

The pass, :func:`_depths`, yields the depth at every position (0 at a
page's first occurrence).  The kernel counts it into a depth histogram
with an ``np.add.at`` into int64 counters, which reads the int32 depths
in place (a ``bincount`` would first copy them to intp, 8 B per
reference), and feeds that to :meth:`FetchCurve.from_histogram
<repro.buffer.stack.FetchCurve.from_histogram>`.  The stream's
:meth:`~_VectorizedStream.shard_summary` takes each page's first and
last occurrence from the same grouping sort.  Memory stays linear: the
keyed array (8 B per position) and the per-position depth counters
(int32 below 2**31 - 1 references, int64 beyond) are the only O(M)
state across levels, and each level works in slabs of :data:`_SLAB`
positions, so per-level temporaries are O(slab).  ``tracemalloc``
measures about 14.3 bytes of temporaries per reference on a uniform
2**20-reference trace (20.8 at 2**18, where the slab weighs more); the
unit tests bound it at 48.

:func:`reuse_depths` is the library's one per-position depth routine,
used by the sharded merge and the sampled kernel: it runs
:func:`_depths` when numpy imports and the baseline module's
pure-Python pass when it does not.

Results are bit-identical to the baseline kernel.  The module always
imports — :data:`HAVE_NUMPY` reports availability — but the kernel class
raises :class:`~repro.errors.KernelError` at construction when numpy is
missing, and :mod:`repro.buffer.kernels` only registers it when numpy
imports, keeping the package zero-dependency.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, List, Sequence

from repro.buffer.kernels.base import KernelStream, StackDistanceKernel
from repro.buffer.kernels.baseline import python_depths
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


def _grouping(pages, shift: int, idx):
    """Positions sorted by ``(page, position)``, and where pages repeat.

    Returns ``(order, same)``: ``order`` (of dtype ``idx``) holds every
    position, grouped by page and in trace order within a group;
    ``same[i]`` is true when ``order[i]`` and ``order[i + 1]`` reference
    the same page.  One unstable sort of the int64 keys
    ``page << shift | position`` does the grouping: the keys are unique,
    so no stable sort is needed, and ``shift`` bits hold any position.
    Page ids that do not fit the key's high bits (negative ids, or ids
    of more than ``63 - shift`` bits) are first remapped to dense ids,
    which keeps their order.
    """
    np = _np
    n = int(pages.size)
    if int(pages.min()) < 0 or int(pages.max()) >> (63 - shift):
        pages = np.unique(pages, return_inverse=True)[1]
    key = np.empty(n, dtype=np.int64)
    np.left_shift(pages, shift, out=key, dtype=np.int64, casting="unsafe")
    for lo in range(0, n, _SLAB):
        key[lo:lo + _SLAB] |= np.arange(lo, min(lo + _SLAB, n))
    key.sort()
    order = np.empty(n, dtype=idx)
    np.bitwise_and(key, (1 << shift) - 1, out=order, casting="unsafe")
    key >>= shift
    same = key[1:] == key[:-1]
    return order, same


def _depths(pages, ends: bool = False) -> tuple:
    """Return ``(depths,)``: the stack depth at every position.

    ``depths[t]`` is the LRU stack depth of the reuse at position ``t``
    and 0 where ``pages[t]`` occurs for the first time.  With ``ends``,
    two more arrays follow: the position of each page's first occurrence
    and of its last, both in the grouping sort's page order.  ``pages``
    (a non-empty integer array) is not modified.
    """
    np = _np
    n = int(pages.size)
    # Positions and depths (and -n - 1, below) fit int32 up to here.
    idx = np.int32 if n < 2**31 - 1 else np.int64
    shift = (n - 1).bit_length()
    # prev[t] = position of the previous occurrence of pages[t]: the
    # grouping puts each page's positions next to each other.
    order, same = _grouping(pages, shift, idx)
    reuse = order[1:][same]  # positions with an earlier occurrence
    prev = order[:-1][same]  # ... and that occurrence
    extra = ()
    if ends:
        extra = (
            order[np.concatenate(([True], ~same))],
            order[np.concatenate((~same, [True]))],
        )
    del order, same
    if not reuse.size:
        return (np.zeros(n, dtype=idx),) + extra

    # ``acc`` starts at -prev and gains the window's distinct pages
    # level by level, so it ends as the depth; positions without an
    # earlier occurrence start below -n and stay negative.
    acc = np.full(n, -n - 1, dtype=idx)
    acc[reuse] = -prev
    del reuse, prev
    # level[j] = (prev(j) + 1) << shift | j, with prev(j) = -1 when j
    # has no earlier occurrence: keys order by prev, then position.
    # Read off ``acc`` slab by slab: 1 - acc is prev + 1, or n + 2
    # (which the modulus sends to 0) when j has no earlier occurrence.
    level = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _SLAB):
        key = level[lo:lo + _SLAB]
        np.subtract(1, acc[lo:lo + _SLAB], out=key, dtype=np.int64)
        key %= n + 2
        key <<= shift
        key |= np.arange(lo, lo + key.size)
    mask = (1 << shift) - 1
    ranks = np.arange(min(n, _SLAB))
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
        # The k-th right-half position of a slab, at slab index i, has
        # i - k left-half positions before it in the slab.
        if span <= _SLAB:
            # The slab holds whole blocks, each with ``width`` right-
            # half positions: drop the left halves of the blocks before.
            skip = ranks + (ranks & -width)
        else:
            skip = ranks
        carry = 0
        for lo in range(0, n, _SLAB):
            blk = level[lo:lo + _SLAB]
            right = np.flatnonzero((blk & width) != 0)
            gained = np.subtract(right, skip[:right.size], dtype=idx)
            if span > _SLAB:
                # The slab lies inside one block, after ``carry`` of
                # its left-half positions.
                gained += carry
                carry += blk.size - right.size
                if (lo + _SLAB) % span == 0:
                    carry = 0
            pos = blk[right]
            pos &= mask
            np.add.at(acc, pos, gained)
        width = span
    del level, key, blk  # the slab views would keep ``level`` alive
    np.maximum(acc, 0, out=acc)
    return (acc,) + extra


def _vectorized_distances(pages, ends: bool = False) -> tuple:
    """Return ``(counts, cold_misses)`` for a non-empty page array.

    ``counts[d]`` is the number of reuses at stack depth ``d`` (int64).
    ``ends`` appends :func:`_depths`' two arrays.
    """
    np = _np
    depths, *extra = _depths(pages, ends)
    counts = np.zeros(int(depths.max()) + 1, dtype=np.int64)
    np.add.at(counts, depths, 1)
    cold = int(counts[0])
    counts[0] = 0
    return (counts, cold, *extra)


def reuse_depths(pages: Sequence[int], keep=None) -> List[int]:
    """Exact LRU stack depths at the positions of ``pages`` marked in ``keep``.

    ``keep`` holds one boolean per position, or is None to mark them
    all; depths always come from the whole of ``pages``, and 0 marks a
    position where its page occurs for the first time.  This is the
    library's one per-position depth routine, which the sharded merge
    and the sampled kernel share: the numpy pass of :func:`_depths` when
    numpy imports, else
    :func:`~repro.buffer.kernels.baseline.python_depths`.
    """
    if not HAVE_NUMPY:
        depths = python_depths(pages)
        return depths if keep is None else list(compress(depths, keep))
    if not len(pages):
        return []
    (depths,) = _depths(_np.asarray(pages, dtype=_np.int64))
    if keep is not None:
        depths = depths[_np.asarray(keep, dtype=bool)]
    return depths.tolist()


def _histogram(counts) -> dict:
    """A depth-count array as the ``{depth: count}`` of its nonzeros."""
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

        The kernel's grouping sort already puts each page's positions
        next to each other in trace order; the first and last position
        of every group, re-sorted, give the first- and last-occurrence
        orders — no second sort of the trace, no Python loop over
        references.
        """
        self._close_for_summary()
        np = _np
        if not self._chunks:
            return ExactShardSummary({}, (), (), 0)
        pages = self._pages()
        counts, _cold, firsts, lasts = _vectorized_distances(
            pages, ends=True
        )
        return ExactShardSummary(
            histogram=_histogram(counts),
            first_seen=tuple(pages[np.sort(firsts)].tolist()),
            recency=tuple(pages[np.sort(lasts)].tolist()),
            references=int(pages.size),
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
