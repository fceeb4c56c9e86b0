"""Unit tests for the sharded, mergeable stack-distance pass."""

import hashlib
import random
import tracemalloc
from dataclasses import astuple
from fractions import Fraction

import pytest

from repro.buffer.kernels import (
    ExactShardSummary,
    available_kernels,
    as_shard_source,
    get_kernel,
    merge_exact_summaries,
    run_sharded_pass,
    shard_bounds,
    sharded_chunked_curve,
    sharded_fetch_curve,
)
from repro.buffer.kernels import baseline, vectorized
from repro.buffer.kernels.sharded import SequenceShardSource
from repro.buffer.stack import FetchCurve
from repro.errors import (
    CheckpointError,
    EstimationError,
    KernelError,
    TraceError,
)
from repro.estimators.epfis import LRUFit, LRUFitConfig
from repro.resilience.checkpoint import Checkpointer, CheckpointPolicy
from repro.trace import paper_scale as paper_scale_mod
from repro.trace.paper_scale import (
    PaperScaleSpec,
    PaperScaleTrace,
    paper_scale_source,
)
from repro.verify.traces import corpus_cases

EXACT_KERNELS = [n for n in available_kernels() if get_kernel(n).exact]


def _random_trace(seed, max_len=300, max_pages=40):
    rng = random.Random(seed)
    return [
        rng.randrange(rng.randint(1, max_pages))
        for _ in range(rng.randint(1, max_len))
    ]


class TestShardBounds:
    def test_contiguous_and_near_equal(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_single_shard(self):
        assert shard_bounds(7, 1) == [(0, 7)]

    def test_more_shards_than_refs(self):
        bounds = shard_bounds(3, 10)
        assert bounds == [(0, 1), (1, 2), (2, 3)]

    def test_empty_trace_keeps_one_shard(self):
        assert shard_bounds(0, 4) == [(0, 0)]

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(KernelError, match="shard count"):
            shard_bounds(10, 0)


class TestShardSource:
    def test_sequence_wrapped(self):
        src = as_shard_source([1, 2, 3, 1])
        assert isinstance(src, SequenceShardSource)
        assert src.total_refs == 4
        assert [list(c) for c in src.chunks(1, 3)] == [[2, 3]]

    def test_shard_source_passes_through(self):
        trace = PaperScaleTrace(PaperScaleSpec(refs=100, pages=10))
        assert as_shard_source(trace) is trace

    def test_generator_rejected(self):
        with pytest.raises(KernelError, match="sized sequence"):
            as_shard_source(iter([1, 2, 3]))


class TestExactMerge:
    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    def test_merge_matches_single_pass(self, kernel):
        for seed in range(25):
            trace = _random_trace(seed)
            expected = FetchCurve.from_trace(trace)
            for shards in (1, 2, 3, 7, len(trace), len(trace) + 5):
                merged = sharded_fetch_curve(trace, shards, kernel=kernel)
                assert merged == expected, (seed, shards)

    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    def test_corpus_subset_matches_single_pass(self, kernel):
        # The full-corpus sweep runs under repro verify (and CI's shard
        # stage); tier-1 pins one small case per family.
        for case in corpus_cases(
            names=["uniform-small", "sequential-scan", "loop-tight"]
        ):
            expected = get_kernel(kernel).analyze(case.pages)
            for shards in (2, 5):
                merged = sharded_fetch_curve(
                    case.pages, shards, kernel=kernel
                )
                assert merged == expected, (case.name, shards)

    def test_seam_reuses_counted(self):
        # Pages 0..9 twice: with 2 shards every second-pass reuse
        # crosses the seam.
        trace = list(range(10)) * 2
        result = run_sharded_pass(trace, 2)
        assert result.curve == FetchCurve.from_trace(trace)
        assert result.seam is not None
        assert result.seam.seam_reuses == 10
        assert result.seam.shards == 2

    def test_parallel_matches_serial(self):
        trace = _random_trace(77, max_len=2_000, max_pages=200)
        serial = run_sharded_pass(trace, 4, workers=1)
        forked = run_sharded_pass(trace, 4, workers=4)
        assert forked.curve == serial.curve
        assert forked.shards == serial.shards == 4

    def test_empty_trace_raises_like_single_pass(self):
        with pytest.raises(TraceError):
            sharded_fetch_curve([], 3)

    def test_merge_rejects_empty_summary_list(self):
        with pytest.raises(KernelError, match="zero shard summaries"):
            merge_exact_summaries([])

    def test_summary_validates_consistency(self):
        with pytest.raises(KernelError):
            ExactShardSummary(
                histogram={1: 1}, first_seen=(3,), recency=(4,),
                references=2,
            )


class TestSampledMerge:
    def test_merge_bit_identical_to_single_pass(self):
        rng = random.Random(5)
        trace = [rng.randrange(2_000) for _ in range(40_000)]
        kernel = get_kernel("sampled")
        single = kernel.analyze(trace)
        for shards in (2, 6):
            assert sharded_fetch_curve(
                trace, shards, kernel="sampled"
            ) == single

    def test_escape_hatch_universe_still_exact(self):
        trace = _random_trace(9, max_pages=12)
        single = get_kernel("sampled").analyze(trace)
        assert sharded_fetch_curve(trace, 3, kernel="sampled") == single

    def test_mismatched_seeds_rejected(self):
        from repro.buffer.kernels.sampled import (
            SampledKernel,
            merge_sampled_summaries,
        )

        trace = [i % 50 for i in range(400)]
        summaries = []
        for seed, (lo, hi) in zip((1, 2), shard_bounds(len(trace), 2)):
            stream = SampledKernel(seed=seed).stream()
            stream.feed(trace[lo:hi])
            summaries.append(stream.shard_summary())
        with pytest.raises(KernelError, match="share one hash seed"):
            merge_sampled_summaries(summaries, SampledKernel(seed=1))


class TestMergeAtScale:
    """The exact merge at the scale where a quadratic seam loop broke.

    The merge's traced peak is bounded per position of its synthetic
    stream (each shard's first-seen pages, then its recency pages), for
    each depth routine; a recency loop holding O(D**2) bits exceeds the
    bound many times over.
    """

    MAX_BYTES_PER_POSITION = 128

    def _check(self, kernel, refs, pages):
        source = paper_scale_source(refs=refs, pages=pages, seed=0)
        summaries = []
        for lo, hi in shard_bounds(refs, 2):
            stream = get_kernel(kernel).stream()
            for chunk in source.chunks(lo, hi):
                stream.feed(chunk)
            summaries.append(stream.shard_summary())
        positions = sum(
            len(s.first_seen) + len(s.recency) for s in summaries
        )
        tracemalloc.start()
        try:
            curve, seam = merge_exact_summaries(summaries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / positions <= self.MAX_BYTES_PER_POSITION
        assert seam.seam_reuses > 0
        stream = get_kernel(kernel).stream()
        for chunk in source:
            stream.feed(chunk)
        assert curve == stream.finish()

    @pytest.mark.skipif(
        not vectorized.HAVE_NUMPY, reason="numpy not installed"
    )
    def test_numpy_routine_at_paper_pages(self):
        self._check("numpy", 1_000_000, 200_000)

    def test_list_routine(self, monkeypatch):
        monkeypatch.setattr(vectorized, "HAVE_NUMPY", False)
        self._check("baseline", 40_000, 8_000)

    def test_fenwick_routine(self, monkeypatch):
        monkeypatch.setattr(vectorized, "HAVE_NUMPY", False)
        monkeypatch.setattr(baseline, "_LIST_PAGES", 0)
        self._check("baseline", 40_000, 8_000)


def _curve_digest(curve):
    """SHA-256 of a curve's complete state."""
    if isinstance(curve, FetchCurve):
        state = astuple(curve)
    else:
        state = tuple(
            getattr(curve, slot) for slot in type(curve).__slots__
        )
    return hashlib.sha256(repr(state).encode()).hexdigest()


def _sampled_trace(pattern, refs, pages):
    if pattern == "uniform":
        rng = random.Random(refs ^ pages)
        return [rng.randrange(pages) for _ in range(refs)]
    source = paper_scale_source(refs=refs, pages=pages, seed=7)
    return [p for chunk in source for p in chunk]


class TestSampledCurveDigests:
    """Sampled curves, pinned by digest, under each depth routine.

    The digests were taken while the sampled kernel still ran its own
    exact depth pass; the shared per-position routine must reproduce
    every curve bit for bit.  Large D samples at the target rate; at
    2,500 pages the ``min_pages`` guard keeps about 10% of the refs;
    at 200 pages the escape hatch returns an exact curve.
    """

    DIGESTS = {
        ("uniform", 200_000, 50_000):
            "869e18e56ae7a84f0592faead988c0d6337a2b62b41e7b0d9624d65c931959d7",
        ("zipf", 200_000, 50_000):
            "5c9d3e56b2ac07a44bf47faaf1cf5f18865f8e016d03c31c61da6d73836058d6",
        ("uniform", 100_000, 2_500):
            "2e41df6bf8d7551d9ef62b5c1f46171868d9b6459e1c6548c1db8ea6ee905d8d",
        ("zipf", 100_000, 2_500):
            "279dba84928a28324585d38e89945e9c597fe071080c5820526e5f0d229f1175",
        ("uniform", 20_000, 200):
            "6b9dd03e53b5dce8a5449f75c78d23f387766099ba59a36b1a423be8eaa5d47a",
        ("zipf", 20_000, 200):
            "7890bd1d1525062c62b7ec28a498252ac2cf331f94a9972e35ce63afd8f6a7e6",
    }

    @pytest.fixture(autouse=True, params=["numpy", "list", "fenwick"])
    def routine(self, request, monkeypatch):
        if request.param == "numpy":
            if not vectorized.HAVE_NUMPY:
                pytest.skip("numpy not installed")
            return
        monkeypatch.setattr(vectorized, "HAVE_NUMPY", False)
        if request.param == "fenwick":
            monkeypatch.setattr(baseline, "_LIST_PAGES", 0)

    @pytest.mark.parametrize(
        "case", DIGESTS, ids=lambda case: "-".join(map(str, case))
    )
    def test_single_pass_digest(self, case):
        curve = get_kernel("sampled").analyze(_sampled_trace(*case))
        assert _curve_digest(curve) == self.DIGESTS[case]

    def test_sharded_merge_digest(self):
        merged = sharded_fetch_curve(
            _sampled_trace("zipf", 100_000, 2_500), 3, kernel="sampled"
        )
        assert _curve_digest(merged) == (
            self.DIGESTS["zipf", 100_000, 2_500]
        )


class TestChunkedPath:
    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    def test_chunked_matches_single_pass(self, kernel):
        trace = _random_trace(13, max_len=1_200, max_pages=120)
        expected = get_kernel(kernel).analyze(trace)
        for chunk in (1, 97, 4096):
            chunks = (
                trace[i:i + chunk] for i in range(0, len(trace), chunk)
            )
            merged = sharded_chunked_curve(
                chunks, len(trace), 4, kernel=kernel
            )
            assert merged == expected, chunk

    def test_chunked_parallel_matches(self):
        trace = _random_trace(14, max_len=2_000, max_pages=150)
        expected = FetchCurve.from_trace(trace)
        chunks = (trace[i:i + 64] for i in range(0, len(trace), 64))
        assert sharded_chunked_curve(
            chunks, len(trace), 3, workers=3
        ) == expected

    def test_length_mismatch_raises(self):
        with pytest.raises(KernelError, match="ended at"):
            sharded_chunked_curve(iter([[1, 2]]), 5, 2)
        with pytest.raises(KernelError, match="longer than the declared"):
            sharded_chunked_curve(iter([[1, 2, 3]]), 2, 2)


class TestCheckpointedShardedPass:
    def _kill_then_resume(self, tmp_path, trace, fail_at, monkeypatch):
        import repro.buffer.kernels.sharded as sharded_mod

        checkpointer = Checkpointer(
            tmp_path, CheckpointPolicy(every_refs=1)
        )
        real = sharded_mod._summarize_shard
        calls = []

        def dying(kernel, source, lo, hi, want_digest):
            calls.append((lo, hi))
            if len(calls) == fail_at + 1:
                raise RuntimeError("injected shard crash")
            return real(kernel, source, lo, hi, want_digest)

        monkeypatch.setattr(sharded_mod, "_summarize_shard", dying)
        with pytest.raises(RuntimeError, match="injected"):
            run_sharded_pass(trace, 4, checkpoint=checkpointer)
        monkeypatch.setattr(sharded_mod, "_summarize_shard", real)
        assert checkpointer.exists()
        return checkpointer

    def test_kill_one_shard_and_resume(self, tmp_path, monkeypatch):
        trace = _random_trace(21, max_len=1_000, max_pages=90)
        checkpointer = self._kill_then_resume(
            tmp_path, trace, fail_at=2, monkeypatch=monkeypatch
        )
        resumed = run_sharded_pass(
            trace, 4, checkpoint=checkpointer, resume=True
        )
        assert resumed.curve == FetchCurve.from_trace(trace)
        # Cached shards cost no feed time on resume; only the killed
        # shard and its successors ran.
        assert list(resumed.per_shard_feed_ns[:2]) == [0, 0]
        assert all(ns > 0 for ns in resumed.per_shard_feed_ns[2:])
        assert not checkpointer.exists()  # cleared on completion

    def test_tampered_trace_fails_closed(self, tmp_path, monkeypatch):
        trace = _random_trace(22, max_len=1_000, max_pages=90)
        checkpointer = self._kill_then_resume(
            tmp_path, trace, fail_at=2, monkeypatch=monkeypatch
        )
        tampered = list(trace)
        tampered[0] = tampered[0] + 1
        with pytest.raises(CheckpointError, match="chained digest"):
            run_sharded_pass(
                tampered, 4, checkpoint=checkpointer, resume=True
            )

    def test_shard_count_change_fails_closed(self, tmp_path, monkeypatch):
        trace = _random_trace(23, max_len=1_000, max_pages=90)
        checkpointer = self._kill_then_resume(
            tmp_path, trace, fail_at=2, monkeypatch=monkeypatch
        )
        with pytest.raises(CheckpointError, match="shard plan"):
            run_sharded_pass(
                trace, 5, checkpoint=checkpointer, resume=True
            )

    def test_chunked_resume_round_trip(self, tmp_path, monkeypatch):
        import repro.buffer.kernels.sharded as sharded_mod

        trace = _random_trace(24, max_len=1_500, max_pages=120)
        checkpointer = Checkpointer(
            tmp_path, CheckpointPolicy(every_refs=1)
        )
        real = sharded_mod._summarize_pages
        calls = []

        def dying(kernel, pages):
            calls.append(len(pages))
            if len(calls) == 3:
                raise RuntimeError("injected shard crash")
            return real(kernel, pages)

        monkeypatch.setattr(sharded_mod, "_summarize_pages", dying)
        chunks = (trace[i:i + 50] for i in range(0, len(trace), 50))
        with pytest.raises(RuntimeError, match="injected"):
            sharded_chunked_curve(
                chunks, len(trace), 4, checkpoint=checkpointer
            )
        monkeypatch.setattr(sharded_mod, "_summarize_pages", real)
        chunks = (trace[i:i + 50] for i in range(0, len(trace), 50))
        resumed = sharded_chunked_curve(
            chunks, len(trace), 4,
            checkpoint=checkpointer, resume=True,
        )
        assert resumed == FetchCurve.from_trace(trace)
        assert not checkpointer.exists()


class TestPaperScaleTrace:
    @pytest.mark.parametrize("pattern", ["zipf", "clustered"])
    def test_range_addressable(self, pattern):
        source = paper_scale_source(
            pattern=pattern, refs=12_000, pages=500, seed=3
        )
        full = [p for chunk in source for p in chunk]
        assert len(full) == 12_000
        for lo, hi in ((0, 1), (4_095, 4_097), (5_000, 9_999)):
            window = [p for c in source.chunks(lo, hi) for p in c]
            assert window == full[lo:hi], (lo, hi)

    def test_zipf_is_skewed(self):
        from collections import Counter

        source = paper_scale_source(refs=20_000, pages=400, seed=1)
        counts = Counter(p for chunk in source for p in chunk)
        top = sum(c for _p, c in counts.most_common(len(counts) // 5))
        assert top > 0.5 * 20_000

    @pytest.mark.parametrize("pattern", ["zipf", "clustered"])
    def test_sharded_pass_over_source(self, pattern):
        source = paper_scale_source(
            pattern=pattern, refs=9_000, pages=300, seed=7
        )
        stream = get_kernel("baseline").stream()
        for chunk in source:
            stream.feed(chunk)
        assert sharded_fetch_curve(source, 4) == stream.finish()

    def test_spec_validation(self):
        with pytest.raises(TraceError, match="pattern"):
            PaperScaleSpec(pattern="bursty")
        with pytest.raises(TraceError, match="refs"):
            PaperScaleSpec(refs=-1)
        with pytest.raises(TraceError, match="theta"):
            PaperScaleSpec(theta=1.0)

    def test_out_of_range_chunks_rejected(self):
        source = paper_scale_source(refs=100, pages=10)
        with pytest.raises(TraceError, match="outside"):
            list(source.chunks(0, 101))

    def test_zipf_values_pinned(self):
        source = paper_scale_source(refs=20_000, pages=1_000, seed=3)
        flat = [p for chunk in source for p in chunk]
        assert flat[:8] == [739, 739, 68, 324, 643, 312, 424, 640]
        assert flat[-3:] == [457, 485, 548]
        digest = hashlib.sha256(",".join(map(str, flat)).encode())
        assert digest.hexdigest() == (
            "320f6d91285a0506ef5ace1b47b8a977"
            "312084ef6e5e77c0f6bccdb5c2df194e"
        )


def _scalar_chunks(monkeypatch, source, lo, hi):
    """``source.chunks(lo, hi)`` on the pure-Python path."""
    with monkeypatch.context() as patch:
        patch.setattr(paper_scale_mod, "_np", None)
        return list(source.chunks(lo, hi))


def _unmix64(z):
    """Invert the SplitMix64 finalizer of ``paper_scale._mix64``."""
    mask = (1 << 64) - 1

    def unshift(y, shift):
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    z = unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    return unshift(z, 30)


@pytest.mark.skipif(
    paper_scale_mod._np is None, reason="numpy not installed"
)
class TestNumpyZipfGenerator:
    """The numpy zipf path yields exactly the pure-Python trace."""

    @pytest.mark.parametrize("theta", [0.5, 0.86, 0.99])
    @pytest.mark.parametrize("pages", [1_000, 200_000])
    def test_matches_scalar_path(self, monkeypatch, theta, pages):
        # (4_097, 75_000) starts unaligned and crosses a numpy batch.
        for seed in (0, 1, 2**64 + 11):
            source = paper_scale_source(
                refs=80_000, pages=pages, theta=theta, seed=seed
            )
            for lo, hi in ((4_097, 75_000), (65_535, 65_537), (0, 1)):
                fast = list(source.chunks(lo, hi))
                slow = _scalar_chunks(monkeypatch, source, lo, hi)
                assert [len(c) for c in fast] == [len(c) for c in slow]
                assert fast == slow, (seed, lo, hi)
                assert {type(p) for c in fast for p in c} == {int}

    def test_fixup_recomputes_boundary_draws(self, monkeypatch):
        # Pick the seed so that position 1_234 hashes to the draw that
        # lands on a bucket boundary: there numpy's u may round to the
        # other bucket, so the scalar path must decide it.
        pages, position = 1_000, 1_234
        table = paper_scale_source(refs=1, pages=pages)
        boundary = Fraction(table._cumulative[pages // 2])
        z = int(boundary / Fraction(table._total_weight) * ((1 << 64) - 1))
        golden = 0x9E3779B97F4A7C15
        seed = (_unmix64(z) - position * golden) % (1 << 64)
        assert paper_scale_mod._mix64(seed, position) == z
        source = paper_scale_source(refs=5_000, pages=pages, seed=seed)

        fixed = []
        draws = PaperScaleTrace._zipf_draws

        def spy(self, lo, hi):
            fixed.append((lo, hi))
            return draws(self, lo, hi)

        with monkeypatch.context() as patch:
            patch.setattr(PaperScaleTrace, "_zipf_draws", spy)
            fast = list(source.chunks(1_000, 3_001))
        assert fixed == [(position, position + 1)]
        assert fast == _scalar_chunks(monkeypatch, source, 1_000, 3_001)

    def test_one_search_flags_the_two_search_draws(self):
        # A draw is undecided when the buckets of u * (1 - 2**-48) and
        # u * (1 + 2**-48) differ; one search plus a look at the found
        # bucket's two edges must flag exactly those draws.
        import numpy as np

        table = paper_scale_source(refs=1, pages=1_000)
        edges, _labels = table._numpy_tables()
        cumulative = np.asarray(table._cumulative)
        first, last = cumulative[0], cumulative[-1]
        interior = cumulative[[1, 17, 499, 998]]
        near = np.concatenate([
            interior * (1 + k * 2.0**-52) for k in range(-40, 41)
        ])
        u = np.concatenate([
            # below the first edge
            [0.0, first / 2, first * (1 - 2.0**-40),
             np.nextafter(first, 0)],
            # in the last bucket, from its lower edge to the total weight
            [(cumulative[-2] + last) / 2, np.nextafter(last, 0), last,
             cumulative[-2]],
            # within 2**-48 of an interior edge, and well clear of it
            near, interior * (1 - 2.0**-40), interior * (1 + 2.0**-40),
            np.random.default_rng(4).random(2_000) * last,
        ])
        below = np.searchsorted(
            cumulative, u * (1 - 2.0**-48), side="right"
        )
        above = np.searchsorted(
            cumulative, u * (1 + 2.0**-48), side="right"
        )
        at, undecided = paper_scale_mod._zipf_buckets(edges, u)
        assert undecided.tolist() == (below != above).tolist()
        assert at[~undecided].tolist() == below[~undecided].tolist()
        # Both kinds occur at both ends of the table and inside it.
        assert undecided[:8].tolist() == [
            False, False, False, True, False, True, True, True
        ]
        assert undecided[8:8 + near.size].any()
        assert not undecided[8:8 + near.size].all()


class TestLRUFitSharding:
    def test_config_validates_shards(self):
        with pytest.raises(EstimationError, match="shards"):
            LRUFitConfig(shards=0)

    def test_sharded_run_on_trace_matches(self):
        rng = random.Random(31)
        trace = [rng.randrange(60) for _ in range(2_000)]
        base = LRUFit().run_on_trace(trace, 60, 30)
        sharded = LRUFit(
            LRUFitConfig(shards=4, shard_workers=2)
        ).run_on_trace(trace, 60, 30)
        assert sharded == base

    def test_sharded_needs_sized_trace(self):
        with pytest.raises(EstimationError, match="range-addressable"):
            LRUFit(LRUFitConfig(shards=2)).run_on_trace(
                iter([1, 2, 3]), 5, 5
            )

    def test_streaming_needs_total_refs(self):
        with pytest.raises(EstimationError, match="total_refs"):
            LRUFit(LRUFitConfig(shards=2)).run_streaming(
                iter([[1, 2]]), 5, 5
            )

    def test_sharded_streaming_matches(self):
        rng = random.Random(32)
        trace = [rng.randrange(60) for _ in range(2_000)]
        base = LRUFit().run_on_trace(trace, 60, 30)
        chunks = (trace[i:i + 97] for i in range(0, len(trace), 97))
        sharded = LRUFit(
            LRUFitConfig(shards=3, shard_workers=2)
        ).run_streaming(chunks, 60, 30, total_refs=len(trace))
        assert sharded == base
