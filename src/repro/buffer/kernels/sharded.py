"""Sharded stack-distance passes: partition, analyze in parallel, merge.

This is the orchestrator over the mergeable-summary API: it splits one
reference trace into N *contiguous* shards, runs an independent kernel
pass per shard (serially, or on a fork-based process pool shaped like
:func:`repro.eval.ground_truth.ground_truth_tables`), and merges the
shard summaries into the one :class:`~repro.buffer.stack.FetchCurve` a
single uninterrupted pass would have produced — bit-identical for the
exact kernels (:func:`merge_exact_summaries`, which resolves the seams
between the :mod:`.mergeable` summaries with one exact stack pass) and
for the sampled kernel (state summation under the shared hash seed,
:func:`repro.buffer.kernels.sampled.merge_sampled_summaries`).

Inputs are *shard sources*: anything with ``total_refs`` and a
``chunks(start, stop)`` range generator (sized sequences are wrapped
automatically).  Range-addressable sources let each pool worker generate
its own shard locally — zero reference shipping, which is what makes the
``--paper-scale`` traces (10⁷+ references, never materialized) shardable.
One-shot chunk iterators without random access go through
:func:`sharded_chunked_curve`, which cuts shards while draining the
iterator.

Checkpointing composes naturally: a shard boundary is a consistent
cut, so the checkpoint payload is just the completed shard summaries
(wrapped in :class:`_ShardProgress`), protected by a chained per-shard
trace digest that resume re-verifies against the source before trusting
any cached summary.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.buffer.kernels.base import (
    KernelStream,
    StackDistanceKernel,
    _record_kernel_pass,
)
from repro.buffer.kernels.mergeable import ExactShardSummary, SeamStats
from repro.buffer.kernels.registry import resolve_kernel
from repro.buffer.kernels.sampled import (
    SampledKernel,
    SampledShardSummary,
    merge_sampled_summaries,
)
from repro.buffer.kernels.vectorized import reuse_depths
from repro.buffer.stack import FetchCurve
from repro.errors import CheckpointError, KernelError
from repro.obs import instruments
from repro.obs.metrics import global_registry
from repro.resilience.checkpoint import (
    Checkpointer,
    hash_pages,
    resolve_checkpointer,
)

#: Chunk size used when iterating ranges of a wrapped sequence.
SHARD_CHUNK_REFS = 65_536


class SequenceShardSource:
    """Range-addressable shard source over an in-memory sequence."""

    def __init__(self, pages: Sequence[int]) -> None:
        self._pages = pages
        self.total_refs = len(pages)

    def chunks(
        self, start: int, stop: int
    ) -> Iterator[Sequence[int]]:
        """Yield ``pages[start:stop]`` in bounded-size chunks."""
        pages = self._pages
        for lo in range(start, stop, SHARD_CHUNK_REFS):
            yield pages[lo:min(lo + SHARD_CHUNK_REFS, stop)]


def as_shard_source(source):
    """Coerce ``source`` to a shard source.

    Accepts anything already exposing ``total_refs``/``chunks`` (e.g.
    :class:`repro.trace.paper_scale.PaperScaleTrace`) or any sized
    sequence.  One-shot iterators cannot be sharded by range — use
    :func:`sharded_chunked_curve` for those.
    """
    if hasattr(source, "total_refs") and hasattr(source, "chunks"):
        return source
    if hasattr(source, "__len__") and hasattr(source, "__getitem__"):
        return SequenceShardSource(source)
    raise KernelError(
        f"cannot shard a {type(source).__name__}: need a sized sequence "
        f"or an object with total_refs/chunks(start, stop); for one-shot "
        f"chunk iterators use sharded_chunked_curve with total_refs"
    )


def shard_bounds(
    total_refs: int, shards: int
) -> List[Tuple[int, int]]:
    """Contiguous near-equal ``[lo, hi)`` ranges covering the trace.

    The shard count is capped at the reference count (asking for more
    shards than references degrades gracefully instead of producing
    empty shards); a zero-length trace yields one empty shard so the
    merge raises the same empty-trace error a single pass would.
    """
    if shards < 1:
        raise KernelError(f"shard count must be >= 1, got {shards}")
    shards = max(1, min(shards, total_refs))
    base, rem = divmod(total_refs, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


@dataclass(frozen=True)
class ShardRunResult:
    """One sharded pass: the merged curve plus its cost profile."""

    curve: object
    shards: int
    workers: int
    #: Wall-clock nanoseconds each shard spent feeding its stream
    #: (includes local reference generation for generator sources).
    per_shard_feed_ns: Tuple[int, ...]
    #: Wall-clock nanoseconds of the summary merge.
    merge_ns: int
    #: Seam-correction stats (exact kernels; None for sampled merges).
    seam: Optional[SeamStats]


class _ShardProgress(KernelStream):
    """Checkpoint vehicle: completed shard summaries, mid-orchestration.

    Rides the existing :class:`~repro.resilience.checkpoint.Checkpointer`
    stream-snapshot machinery; it is not a feedable stream.
    """

    def __init__(
        self,
        bounds: Sequence[Tuple[int, int]],
        summaries: Sequence,
        completed: int,
    ) -> None:
        self.bounds = [tuple(b) for b in bounds]
        self.summaries = list(summaries)
        self.completed = completed

    def _consume(self, pages: Iterable[int]) -> None:
        raise KernelError("shard-progress snapshots are not feedable")

    def _result(self):
        raise KernelError("shard-progress snapshots have no curve")


def _shard_digest(source, lo: int, hi: int) -> str:
    """Digest of one shard's references (resume verification)."""
    hasher = hashlib.sha256()
    for chunk in source.chunks(lo, hi):
        hash_pages(hasher, chunk)
    return hasher.hexdigest()


def _chain(previous: str, shard_digest: str) -> str:
    """Fold one shard digest into the running chained digest."""
    return hashlib.sha256(
        (previous + shard_digest).encode("ascii")
    ).hexdigest()


def _summarize_shard(
    kernel: StackDistanceKernel,
    source,
    lo: int,
    hi: int,
    want_digest: bool,
) -> Tuple[object, int, Optional[str]]:
    """Run one shard's kernel pass; returns (summary, feed_ns, digest)."""
    hasher = hashlib.sha256() if want_digest else None
    stream = kernel.stream()
    started = time.perf_counter_ns()
    for chunk in source.chunks(lo, hi):
        if hasher is not None:
            hash_pages(hasher, chunk)
        stream._consume(chunk)
    summary = stream.shard_summary()
    feed_ns = time.perf_counter_ns() - started
    return summary, feed_ns, hasher.hexdigest() if hasher else None


def _summarize_pages(
    kernel: StackDistanceKernel, pages: Sequence[int]
) -> Tuple[object, int]:
    """Shard pass over already-materialized pages (chunked path)."""
    stream = kernel.stream()
    started = time.perf_counter_ns()
    stream._consume(pages)
    summary = stream.shard_summary()
    return summary, time.perf_counter_ns() - started


# Fork-inherited worker state, the ground_truth.py pool shape: set just
# before the pool starts, cleared after; child processes see a copy-on-
# write snapshot, nothing is pickled per task except the results.
_WORKER_STATE = None


def _worker_shard(ordinal: int):
    """Pool entry point: analyze shard ``ordinal`` from forked state."""
    source, bounds, kernel, want_digest = _WORKER_STATE
    lo, hi = bounds[ordinal]
    return _summarize_shard(kernel, source, lo, hi, want_digest)


def _worker_pages(pages: Sequence[int]):
    """Pool entry point for the chunked path: pages ship with the task."""
    (kernel,) = _WORKER_STATE
    return _summarize_pages(kernel, pages)


def _use_fork(workers: int, tasks: int) -> bool:
    """Whether a fork pool is worth starting for this run."""
    return (
        workers >= 2
        and tasks >= 2
        and "fork" in multiprocessing.get_all_start_methods()
    )


def _fork_pool(workers: int, tasks: int):
    """A fork-context pool sized for ``tasks``.

    Must be called *after* ``_WORKER_STATE`` is set: children snapshot
    the parent's memory at construction (fork) time.
    """
    return multiprocessing.get_context("fork").Pool(
        min(workers, tasks)
    )


def _resolve_workers(workers: int) -> int:
    """``workers <= 0`` means one worker per available core."""
    return workers if workers > 0 else (os.cpu_count() or 1)


def _resume_progress(
    checkpointer: Checkpointer,
    kernel_name: str,
    bounds: Sequence[Tuple[int, int]],
) -> Tuple[List, int, str]:
    """Load and validate shard progress; returns (summaries, next, chain).

    The chained digest is *not* verified here — callers re-hash the
    completed ranges against their source (range sources verify up
    front; the chunked path verifies while draining the iterator).
    """
    state = checkpointer.load()
    progress = state.stream
    if not isinstance(progress, _ShardProgress):
        raise CheckpointError(
            "checkpoint does not hold sharded-pass progress; it was "
            "written by a non-sharded run (resume it with shards=1)"
        )
    if state.kernel != kernel_name:
        raise CheckpointError(
            f"checkpoint was written by kernel {state.kernel!r}, "
            f"cannot resume with {kernel_name!r}"
        )
    if progress.bounds != [tuple(b) for b in bounds]:
        raise CheckpointError(
            f"checkpoint shard plan {len(progress.bounds)} shards over "
            f"{progress.bounds[-1][1] if progress.bounds else 0} refs "
            f"does not match the requested plan; rerun with the same "
            f"trace and shard count or clear the checkpoint"
        )
    if progress.completed != len(progress.summaries):
        raise CheckpointError(
            "checkpoint shard progress is internally inconsistent"
        )
    return progress.summaries, progress.completed, state.trace_digest


def merge_exact_summaries(
    summaries: Sequence[ExactShardSummary],
) -> Tuple[FetchCurve, SeamStats]:
    """Fold shard summaries (in trace order) into the single-pass curve.

    The seams reduce to one exact stack pass over a synthetic stream:
    each shard's ``first_seen`` pages, then its ``recency`` pages, shard
    after shard — at most twice the summed distinct pages.  A
    ``first_seen`` position whose page occurred earlier in the stream
    is a seam reuse, and its depth there is its true depth: between the
    page's last touch in an earlier shard (its place in that shard's
    ``recency``) and its first touch in this one, the stream holds
    exactly the distinct pages the single pass saw in that window —
    the later pages of that ``recency``, every page of the shards in
    between, and this shard's earlier first touches.  A ``first_seen``
    position with no earlier occurrence is a cold miss; depths at
    ``recency`` positions are discarded.  The first shard's first
    touches are all cold and precede every such window, and the last
    shard's ``recency`` follows them all, so the pass leaves both out:
    one shard needs no pass at all.  Adding the intra-shard histograms
    makes the curve **bit-identical** to analyzing the concatenated
    trace with any exact kernel.  Depths come from
    :func:`~repro.buffer.kernels.vectorized.reuse_depths`, so memory is
    linear in the stream.

    Raises :class:`~repro.errors.KernelError` when given no summaries
    and :class:`~repro.errors.TraceError` when the summaries cover zero
    references (matching an empty-trace single pass).
    """
    if not summaries:
        raise KernelError("cannot merge zero shard summaries")
    histogram: Counter = Counter()
    for summary in summaries:
        histogram.update(summary.histogram)
    stream: List[int] = []
    keep: List[bool] = []
    for before, summary in zip(summaries, summaries[1:]):
        stream += before.recency
        stream += summary.first_seen
        keep += [False] * len(before.recency)
        keep += [True] * len(summary.first_seen)
    seam = reuse_depths(stream, keep)
    histogram.update(seam)
    # Intra-shard depths are all >= 1: the 0s are the seams' cold misses.
    new = histogram.pop(0, 0)
    cold = len(summaries[0].first_seen) + new
    curve = FetchCurve.from_histogram(histogram, cold)
    return curve, SeamStats(
        seam_reuses=len(seam) - new,
        cold_misses=cold,
        shards=len(summaries),
    )


def _merge_summaries(
    summaries: Sequence, kernel: StackDistanceKernel
) -> Tuple[object, Optional[SeamStats]]:
    """Dispatch to the kernel-appropriate merge."""
    if isinstance(summaries[0], SampledShardSummary):
        if not isinstance(kernel, SampledKernel):
            raise KernelError(
                f"sampled shard summaries cannot be merged under "
                f"kernel {kernel.name!r}"
            )
        return merge_sampled_summaries(summaries, kernel), None
    if not all(
        isinstance(s, ExactShardSummary) for s in summaries
    ):
        raise KernelError("cannot merge mixed shard summary types")
    return merge_exact_summaries(summaries)


def _complete(
    summaries: List,
    feed_ns: List[int],
    shard: Tuple[object, int, Optional[str]],
    chain: str,
    checkpointer: Optional[Checkpointer],
    bounds: Sequence[Tuple[int, int]],
    kernel_name: str,
) -> str:
    """Record the next shard in trace order; returns the chained digest.

    ``shard`` is ``(summary, feed_ns, digest)``.  With a checkpointer,
    the digest joins the chain and the completed prefix is saved when
    the checkpointer's policy says it is due.
    """
    summary, ns, digest = shard
    summaries.append(summary)
    feed_ns.append(ns)
    if checkpointer is None:
        return chain
    chain = _chain(chain, digest)
    completed = len(summaries)
    position = bounds[completed - 1][1]
    if checkpointer.due(position):
        checkpointer.save(
            _ShardProgress(bounds, summaries, completed),
            position,
            chain,
            kernel_name,
        )
    return chain


def _finish(
    kernel: StackDistanceKernel,
    summaries: Sequence,
    feed_ns: Sequence[int],
    checkpointer: Optional[Checkpointer],
) -> Tuple[object, Optional[SeamStats], int]:
    """Merge the shards, clear the checkpoint, publish the profile.

    Returns ``(curve, seam, merge_ns)``.
    """
    name = kernel.name
    started = time.perf_counter_ns()
    curve, seam = _merge_summaries(summaries, kernel)
    merge_ns = time.perf_counter_ns() - started
    if checkpointer is not None:
        checkpointer.clear()
    if global_registry().enabled:
        for ordinal, ns in enumerate(feed_ns):
            instruments.shard_feed_seconds().labels(
                kernel=name, shard=str(ordinal)
            ).inc(ns)
        instruments.shard_merge_seconds().labels(kernel=name).inc(merge_ns)
        if seam is not None:
            instruments.shard_seam_reuses().labels(kernel=name).inc(
                seam.seam_reuses
            )
        # Pool workers record into forked registries the parent never
        # sees, so the parent publishes the kernel-level pass profile
        # itself.
        _record_kernel_pass(
            name, getattr(curve, "accesses", 0), sum(feed_ns) + merge_ns
        )
    return curve, seam, merge_ns


def run_sharded_pass(
    source,
    shards: int,
    workers: int = 1,
    kernel: Union[StackDistanceKernel, str, None] = None,
    checkpoint: Union[Checkpointer, str, None] = None,
    resume: bool = False,
) -> ShardRunResult:
    """Sharded analysis of a range-addressable source, with profile.

    ``workers=1`` runs shards serially in-process (still exercising the
    exact summary/merge path); ``workers>1`` uses a fork pool when the
    platform provides one, falling back to serial otherwise.
    ``workers<=0`` means one worker per core.  With ``checkpoint`` set,
    progress is snapshotted at shard boundaries per the checkpointer's
    policy; ``resume=True`` re-verifies completed shards' chained trace
    digest against ``source`` and skips their kernel work.
    """
    src = as_shard_source(source)
    kern = resolve_kernel(kernel)
    bounds = shard_bounds(src.total_refs, shards)
    checkpointer = resolve_checkpointer(checkpoint)
    want_digest = checkpointer is not None
    workers = _resolve_workers(workers)

    summaries: List = []
    start = 0
    chain = ""
    if resume and checkpointer is not None and checkpointer.exists():
        summaries, start, chain = _resume_progress(
            checkpointer, kern.name, bounds
        )
        verify = ""
        for i in range(start):
            lo, hi = bounds[i]
            verify = _chain(verify, _shard_digest(src, lo, hi))
        if verify != chain:
            raise CheckpointError(
                "resumed trace does not match the checkpointed shards "
                "(chained digest mismatch); refusing to merge foreign "
                "summaries"
            )
    feed_ns = [0] * start  # cached shards cost no feed time now

    remaining = range(start, len(bounds))
    if not _use_fork(workers, len(remaining)):
        for i in remaining:
            lo, hi = bounds[i]
            chain = _complete(
                summaries, feed_ns,
                _summarize_shard(kern, src, lo, hi, want_digest),
                chain, checkpointer, bounds, kern.name,
            )
    else:
        global _WORKER_STATE
        _WORKER_STATE = (src, bounds, kern, want_digest)
        try:
            # State must be in place before the pool forks.
            with _fork_pool(workers, len(remaining)) as pool:
                # imap preserves shard order, so checkpoints only ever
                # cover a contiguous completed prefix.
                for shard in pool.imap(_worker_shard, remaining):
                    chain = _complete(
                        summaries, feed_ns, shard,
                        chain, checkpointer, bounds, kern.name,
                    )
        finally:
            _WORKER_STATE = None
    curve, seam, merge_ns = _finish(kern, summaries, feed_ns, checkpointer)
    return ShardRunResult(
        curve=curve,
        shards=len(bounds),
        workers=workers,
        per_shard_feed_ns=tuple(feed_ns),
        merge_ns=merge_ns,
        seam=seam,
    )


def sharded_fetch_curve(
    source,
    shards: int,
    workers: int = 1,
    kernel: Union[StackDistanceKernel, str, None] = None,
    checkpoint: Union[Checkpointer, str, None] = None,
    resume: bool = False,
):
    """The merged fetch curve of a sharded pass (see
    :func:`run_sharded_pass` for the knobs and the profile variant)."""
    return run_sharded_pass(
        source, shards, workers, kernel, checkpoint, resume
    ).curve


def _iter_shard_pages(
    chunks: Iterable[Sequence[int]],
    bounds: Sequence[Tuple[int, int]],
    start: int,
) -> Iterator[Tuple[int, List[int]]]:
    """Cut a chunk iterator at shard boundaries, yielding whole shards.

    Chunks spanning a boundary are split; shards before ``start`` are
    still yielded (resume needs to verify their digests) — callers skip
    their kernel work.  Raises when the iterator is shorter or longer
    than the bounds promise.
    """
    total = bounds[-1][1]
    if total == 0:
        for chunk in chunks:
            pages = (
                chunk if hasattr(chunk, "__len__") else list(chunk)
            )
            if len(pages):
                raise KernelError(
                    "chunk stream is longer than the declared "
                    "total_refs=0"
                )
        yield 0, []
        return
    ordinal = 0
    buffer: List[int] = []
    position = 0
    for chunk in chunks:
        pages = (
            chunk
            if isinstance(chunk, (list, tuple))
            else list(chunk)
        )
        position += len(pages)
        if position > total:
            raise KernelError(
                f"chunk stream is longer than the declared total_refs="
                f"{total}; sharding needs an exact length up front"
            )
        buffer.extend(pages)
        while ordinal < len(bounds) and (
            len(buffer) >= bounds[ordinal][1] - bounds[ordinal][0]
        ):
            size = bounds[ordinal][1] - bounds[ordinal][0]
            yield ordinal, buffer[:size]
            buffer = buffer[size:]
            ordinal += 1
    if position != total or buffer:
        raise KernelError(
            f"chunk stream ended at {position} references but "
            f"total_refs={total} was declared"
        )


def sharded_chunked_curve(
    chunks: Iterable[Sequence[int]],
    total_refs: int,
    shards: int,
    workers: int = 1,
    kernel: Union[StackDistanceKernel, str, None] = None,
    checkpoint: Union[Checkpointer, str, None] = None,
    resume: bool = False,
):
    """Sharded analysis of a one-shot chunk iterator of known length.

    The iterator is drained once, shard by shard; at most one shard's
    references (plus the pool's in-flight shards when ``workers>1``)
    are in memory at a time.  ``workers>1`` ships each cut shard to a
    fork-pool worker and harvests results in submission order, so
    checkpoints still cover a contiguous prefix.
    """
    if total_refs < 0:
        raise KernelError(
            f"total_refs must be >= 0, got {total_refs}"
        )
    kern = resolve_kernel(kernel)
    bounds = shard_bounds(total_refs, shards)
    checkpointer = resolve_checkpointer(checkpoint)
    workers = _resolve_workers(workers)

    summaries: List = []
    start = 0
    chain = ""
    resumed_chain: Optional[str] = None
    if resume and checkpointer is not None and checkpointer.exists():
        summaries, start, resumed_chain = _resume_progress(
            checkpointer, kern.name, bounds
        )
        chain = resumed_chain
    feed_ns = [0] * start  # cached shards cost no feed time now
    verify = ""

    def page_digest(pages: Sequence[int]) -> Optional[str]:
        if checkpointer is None:
            return None
        hasher = hashlib.sha256()
        hash_pages(hasher, pages)
        return hasher.hexdigest()

    def check_prefix() -> None:
        """Completed shards must come from this very trace: the digest
        chain re-hashed while draining the prefix has to match the
        checkpointed chain before any cached summary is trusted."""
        if resumed_chain is not None and verify != resumed_chain:
            raise CheckpointError(
                "resumed chunk stream does not match the checkpointed "
                "shards (chained digest mismatch); refusing to merge "
                "foreign summaries"
            )

    pending: List[Tuple[Optional[str], object]] = []

    def harvest_oldest() -> None:
        nonlocal chain
        digest, handle = pending.pop(0)
        chain = _complete(
            summaries, feed_ns, (*handle.get(), digest),
            chain, checkpointer, bounds, kern.name,
        )

    global _WORKER_STATE
    pool = None
    if _use_fork(workers, len(bounds) - start):
        # State must be in place before the pool forks.
        _WORKER_STATE = (kern,)
        pool = _fork_pool(workers, len(bounds) - start)
    try:
        for ordinal, pages in _iter_shard_pages(chunks, bounds, start):
            if ordinal < start:
                # Resumed prefix: re-hash to verify the trace is the
                # one the cached summaries came from; skip kernel work.
                hasher = hashlib.sha256()
                hash_pages(hasher, pages)
                verify = _chain(verify, hasher.hexdigest())
                continue
            check_prefix()
            digest = page_digest(pages)
            if pool is None:
                chain = _complete(
                    summaries, feed_ns,
                    (*_summarize_pages(kern, pages), digest),
                    chain, checkpointer, bounds, kern.name,
                )
            else:
                pending.append((
                    digest,
                    pool.apply_async(_worker_pages, (pages,)),
                ))
                if len(pending) >= workers:
                    harvest_oldest()
        while pending:
            harvest_oldest()
    finally:
        if pool is not None:
            _WORKER_STATE = None
            pool.terminate()
            pool.join()
    check_prefix()
    return _finish(kern, summaries, feed_ns, checkpointer)[0]
