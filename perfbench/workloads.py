"""The four benchmark workloads: set-up, measurement and output checks.

Each ``run_*`` function runs one workload in the calling process and
returns a :class:`Result`.  ``perfbench/run.py`` calls them in a fresh
child process per workload, so set-up time and peak RSS belong to that
workload alone.  Inputs come from the seed only.  Every output is
checked: a wrong, failed or refused answer counts as failed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import checks
from perfbench.ledger import Ledger, Tracer, export, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = (
    "serve-tcp-closed",
    "serve-open-churn",
    "fit-paper-zipf",
    "fit-gwl-catalog",
)

#: The five estimators of the paper's comparison.
PAPER_ESTIMATORS = ("epfis", "ml", "dc", "sd", "ot")
SIGMAS = (0.02, 0.05, 0.1, 0.2)
BUFFERS = (8, 16, 32, 64, 128)

#: Set-ups per run; ``setup_s`` is their median.  Short set-ups are
#: repeated more, so each median rests on a few seconds of set-up work:
#: a tenant set-up takes about 0.4 s, a zipf trace source 0.2 s and the
#: GWL build about nine seconds.
TCP_SETUPS = 9
CHURN_SETUPS = 5
ZIPF_SETUPS = 21
GWL_SETUPS = 2

#: Closed-loop connections (the host has two cores).
CONNECTIONS = 2
#: Requests pre-encoded per closed-loop run (cycled).
TCP_POOL = 16_384
#: Open-loop rates (req/s) of the ``lo`` and ``hi`` phases.
LO_RATE = 1_000
HI_RATE = 1_500
#: The tenant whose catalog is republished, and the seconds between
#: its republishes in ``serve-open-churn``.
CHURN_TENANT = "tenant-0"
PUBLISH_EVERY_S = 0.5
#: Requests ``serve-tcp-closed`` sends after its closing publish.
AFTER_PUBLISH = 256
#: A ``hi`` answer counts as goodput when it lands within this limit.
GOODPUT_LIMIT_MS = 5.0


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes; :data:`FULL` is the benchmark, :data:`SMOKE` tests."""

    tenant_records: int
    catalog_breadth: int
    zipf_refs: int
    zipf_pages: int
    gwl_scale: float
    warmup_s: float


FULL = Sizes(
    tenant_records=3_000, catalog_breadth=96,
    zipf_refs=1_000_000, zipf_pages=200_000,
    gwl_scale=0.3, warmup_s=1.0,
)
SMOKE = Sizes(
    tenant_records=1_500, catalog_breadth=8,
    zipf_refs=20_000, zipf_pages=2_000,
    gwl_scale=0.02, warmup_s=0.2,
)


@dataclasses.dataclass
class Result:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    #: The benchmark's end-to-end metrics (see BENCHMARK.json).
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: The same run's figures under their workload-specific names.
    named: Dict[str, Tuple[float, str]] = dataclasses.field(
        default_factory=dict
    )
    #: Per-layer metrics (traced runs only).
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    facts: Dict[str, object] = dataclasses.field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Count one failed output; keep the first messages."""
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def to_dict(self) -> dict:
        """JSON-ready form (the child process's output line)."""
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def host_facts() -> Dict[str, object]:
    """Facts a result depends on beyond the code: cores and versions."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..1) of ``values``; 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the middle two); 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _setup_median(
    result: Result, setups: int, once: Callable[[int], object],
    release: Optional[Callable[[object], None]] = None,
):
    """Run ``once(k)`` ``setups`` times; record the median time.

    Returns the last set-up's result.  Each earlier one is dropped, and
    passed to ``release`` (untimed) if given, before the next starts, so
    set-ups never overlap: no earlier server runs while one is timed.
    """
    times, made = [], None
    for k in range(setups):
        if made is not None and release is not None:
            release(made)
        made = None
        started = time.perf_counter()
        made = once(k)
        times.append(time.perf_counter() - started)
    result.metrics["setup_s"] = median(times)
    result.facts["setup_s_each"] = times
    return made


def _work_dir(workload: str) -> Path:
    path = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _traced_layers(result: Result, rows: Sequence, **kwargs) -> None:
    result.facts["spans"] = len(rows)
    result.layers = layer_metrics(
        Ledger(rows), traced_e2e=result.metrics, **kwargs
    )


def _request_pool(
    rng: random.Random, pools: Dict[str, Sequence[str]], count: int
) -> List[dict]:
    """``count`` estimate requests over ``pools`` (tenant -> indexes).

    Index ``k`` of a tenant's pool is drawn with weight ``1 / (k + 1)``
    (Zipf, theta 1): every index is asked for, the first ones most.
    """
    tenants = sorted(pools)
    weights = {
        tenant: [1.0 / (k + 1) for k in range(len(pools[tenant]))]
        for tenant in tenants
    }
    requests = []
    for i in range(count):
        tenant = rng.choice(tenants)
        requests.append({
            "id": i,
            "tenant": tenant,
            "index": rng.choices(pools[tenant], weights[tenant])[0],
            "estimator": rng.choice(PAPER_ESTIMATORS),
            "sigma": rng.choice(SIGMAS),
            "buffers": rng.choice(BUFFERS),
        })
    return requests


def encode_request(request: dict) -> bytes:
    """One NDJSON request line, as the benchmark client sends it."""
    return (
        json.dumps(request, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def stream_digest(requests: Sequence[dict]) -> str:
    """SHA-256 over the encoded request stream."""
    digest = hashlib.sha256()
    for request in requests:
        digest.update(encode_request(request))
    return digest.hexdigest()


def serve_tcp_requests(
    seed: int, pools: Dict[str, Sequence[str]]
) -> List[dict]:
    """The closed-loop request pool for ``seed``."""
    return _request_pool(random.Random(f"tcp:{seed}"), pools, TCP_POOL)


def churn_requests(
    seed: int, pools: Dict[str, Sequence[str]], count: int
) -> List[dict]:
    """The first ``count`` open-loop requests for ``seed``."""
    return _request_pool(random.Random(f"churn:{seed}"), pools, count)


def _provision(root: Path, sizes: Sizes, seed: int):
    from repro.perf.serving import provision_tenants

    return provision_tenants(
        root, 2, sizes.tenant_records, seed=seed,
        catalog_breadth=sizes.catalog_breadth,
    )


def _index_pools(tenants) -> Dict[str, List[str]]:
    from repro.catalog.catalog import SystemCatalog

    return {
        name: sorted(SystemCatalog.load(tenants.catalog_path(name)))
        for name in tenants.tenant_names()
    }


# ----------------------------------------------------------------------
# serve-tcp-closed
# ----------------------------------------------------------------------
_LISTEN = re.compile(r" on ([0-9.]+):([0-9]+) ")


class _ServerProcess:
    """A ``repro serve`` process on a free port, plus its connections."""

    def __init__(
        self, tenant_root: Path, spans_out: Optional[Path]
    ) -> None:
        args = [
            "serve", "--tenant-root", str(tenant_root),
            "--host", "127.0.0.1", "--port", "0",
        ]
        if spans_out is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [
                sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
                "--spans-out", str(spans_out), "--",
            ] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=env,
            cwd=str(ROOT),
        )
        self.conns: List[Tuple[socket.socket, object]] = []
        try:
            port = self._wait_for_port()
            for _ in range(CONNECTIONS):
                sock = socket.create_connection(("127.0.0.1", port), 30)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.conns.append((sock, sock.makefile("rb")))
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _LISTEN.search(line)
            if match:
                return int(match.group(2))
        raise RuntimeError("repro serve did not report its port")

    def stop(self) -> str:
        """Close connections, SIGTERM the server, wait; its summary."""
        for sock, reader in self.conns:
            reader.close()
            sock.close()
        self.conns = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out or ""


def _closed_loop(
    conn, lines: Sequence[bytes], start: int, warm_end: int,
    end: int, out: list,
) -> None:
    sock, reader = conn
    send, readline, clock = sock.sendall, reader.readline, time.perf_counter_ns
    count = len(lines)
    i = start
    while True:
        t0 = clock()
        if t0 >= end:
            return
        send(lines[i % count])
        reply = readline()
        t1 = clock()
        if t0 >= warm_end:
            out.append((i % count, t0, t1, reply))
        i += 2


def _check_after_publish(
    result: Result, server: _ServerProcess, tenants, before,
    requests: Sequence[dict], sizes: Sizes, seed: int,
) -> int:
    """Publish a second version of :data:`CHURN_TENANT`; check answers.

    ``before`` is the serial reference for the catalogs served so far.
    The new version goes out through ``TenantCatalogs.save``; every
    request sent after that returns must be answered from it.  Returns
    how many checked answers differ between the two versions, so a
    result shows that the check could fail.
    """
    _, second = _second_version(tenants, CHURN_TENANT, sizes, seed)
    catalogs = {
        name: tenants.catalog_path(name) for name in tenants.tenant_names()
    }
    after = checks.SerialReference({**catalogs, CHURN_TENANT: second})
    tenants.save(CHURN_TENANT, second)
    changed = 0
    for i, request in enumerate(requests[:AFTER_PUBLISH]):
        sock, reader = server.conns[i % CONNECTIONS]
        sock.sendall(encode_request(request))
        expected = after.expected(request)
        result.attempted += 1
        problem = checks.check_reply(reader.readline(), expected)
        if problem:
            result.fail(f"request {request['id']} after publish: {problem}")
        changed += expected != before.expected(request)
    return changed


def run_serve_tcp_closed(
    seed: int, seconds: float, traced: bool, sizes: Sizes = FULL
) -> Result:
    """Two closed-loop NDJSON/TCP connections to ``repro serve``."""
    result = Result("serve-tcp-closed", seed, traced)
    work = _work_dir(result.workload)
    servers: List[_ServerProcess] = []
    # Client and server share one CPU.  On a small virtual machine,
    # waking an idle second CPU for every request hand-off costs host
    # scheduling latency that swung this rate by 2x from one minute to
    # the next; on one CPU a hand-off is a plain context switch.
    affinity = os.sched_getaffinity(0)
    result.facts["cpu"] = max(affinity)
    os.sched_setaffinity(0, {max(affinity)})
    try:
        def once(k: int):
            tenants = _provision(work / f"tenants-{k}", sizes, seed)
            spans = work / f"spans-{k}.json" if traced else None
            servers.append(_ServerProcess(tenants.root, spans))
            return tenants, servers[-1]

        tenants, server = _setup_median(
            result, TCP_SETUPS, once, lambda made: made[1].stop()
        )
        hot = {
            name: [i for i in indexes if ".cold" not in i]
            for name, indexes in _index_pools(tenants).items()
        }
        requests = serve_tcp_requests(seed, hot)
        lines = [encode_request(r) for r in requests]
        result.facts["request_digest"] = stream_digest(requests)
        result.facts["catalog_bytes"] = {
            name: tenants.catalog_path(name).stat().st_size for name in hot
        }

        outs: List[list] = [[] for _ in range(CONNECTIONS)]
        begin = time.perf_counter_ns() + 20_000_000
        warm_end = begin + int(sizes.warmup_s * 1e9)
        end = warm_end + int(seconds * 1e9)
        threads = [
            threading.Thread(
                target=_closed_loop,
                args=(server.conns[c], lines, c, warm_end, end, outs[c]),
            )
            for c in range(CONNECTIONS)
        ]
        # The client is the benchmark's own code; its collections
        # would only delay sends.
        gc.disable()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            gc.enable()

        reference = checks.SerialReference(
            {name: tenants.catalog_path(name) for name in hot}
        )
        correct, latencies, last = 0, [], warm_end
        for out in outs:
            for index, sent, answered, reply in out:
                result.attempted += 1
                problem = checks.check_reply(
                    reply, reference.expected(requests[index])
                )
                if problem:
                    result.fail(f"request {index}: {problem}")
                correct += not problem
                latencies.append((answered - sent) / 1e6)
                last = max(last, answered)
        # Correct answers over the measured span: from its start to the
        # last answer.
        qps = correct * 1e9 / (last - warm_end)
        p50, p99 = percentile(latencies, 0.5), percentile(latencies, 0.99)
        result.metrics.update(ops_per_s=qps, p50_ms=p50)
        result.named.update({
            "serve_qps": (qps, "req/s"),
            "p50_ms": (p50, "ms"),
            "p99_ms": (p99, "ms"),
        })
        result.facts["after_publish_changed"] = _check_after_publish(
            result, server, tenants, reference, requests, sizes, seed
        )
        summary = server.stop()
        result.facts["server_summary"] = summary.strip().splitlines()[-1:]
        result.metrics["peak_rss_mb"] = peak_rss_mb(
            resource.RUSAGE_CHILDREN
        )
        if traced:
            rows = json.loads(
                (work / f"spans-{TCP_SETUPS - 1}.json").read_text()
            )
            _traced_layers(result, rows)
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.stop()
        shutil.rmtree(work, ignore_errors=True)
        os.sched_setaffinity(0, affinity)
    return result


# ----------------------------------------------------------------------
# serve-open-churn
# ----------------------------------------------------------------------
def _second_version(tenants, tenant: str, sizes: Sizes, seed: int):
    """Another fitted catalog with the same index names as ``tenant``'s.

    Built from a differently seeded, more tightly clustered dataset, so
    most estimates differ between the two versions.
    """
    from repro.catalog.catalog import SystemCatalog
    from repro.datagen.synthetic import SyntheticSpec, build_synthetic_dataset
    from repro.estimators.epfis import LRUFit, LRUFitConfig

    first = SystemCatalog.load(tenants.catalog_path(tenant))
    records = sizes.tenant_records
    dataset = build_synthetic_dataset(SyntheticSpec(
        records=records, distinct_values=max(50, records // 20),
        records_per_page=20, theta=0.86, window=0.05, seed=seed + 7919,
    ))
    stats = LRUFit(LRUFitConfig(segments=6)).run(dataset.index)
    second = SystemCatalog()
    for name in first:
        second.put(dataclasses.replace(stats, index_name=name))
    return first, second


def _open_loop_schedule(seconds: float, warmup: float):
    """Request offsets (ns), their phases, and the publish count."""
    half = seconds / 2.0
    plan = (("warm", LO_RATE, warmup), ("lo", LO_RATE, half),
            ("hi", HI_RATE, half))
    offsets, phases, begin = [], [], 0.0
    for phase, rate, duration in plan:
        for i in range(int(rate * duration)):
            offsets.append(int((begin + i / rate) * 1e9))
            phases.append(phase)
        begin += duration
    return offsets, phases, int(begin / PUBLISH_EVERY_S) - 1


class _Publisher:
    """``perfbench/publisher.py`` in its own process, ready to start."""

    def __init__(
        self, work: Path, tenants, versions, count: int,
        spans_out: Optional[Path],
    ) -> None:
        paths = []
        for k, version in enumerate(versions):
            path = work / f"version-{k}.json"
            version.save(path)
            paths.append(str(path))
        command = [
            sys.executable, str(ROOT / "perfbench" / "publisher.py"),
            "--root", str(tenants.root), "--count", str(count),
        ] + paths
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=str(ROOT),
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("publisher did not start")

    def start(self, origin_ns: int) -> None:
        """Publish on the schedule that starts at ``origin_ns``."""
        self.proc.stdin.write(f"{origin_ns}\n")
        self.proc.stdin.flush()

    def finish(self) -> List[Tuple[int, int, int]]:
        """Wait for the last publish; ``(start, end, version)`` each."""
        out, _ = self.proc.communicate(timeout=60)
        return [
            tuple(int(field) for field in line.split())
            for line in out.splitlines() if line.strip()
        ]

    def stop(self) -> None:
        """End the process if it still runs, and wait for it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def _allowed_versions(tenant, submitted, done, publishes) -> set:
    """Catalog versions an answer may come from.

    The version of the last publish that returned before the submit,
    plus any publish that overlapped the request's life.
    """
    if tenant != CHURN_TENANT:
        return {0}
    live = 0
    allowed = set()
    for started, ended, version in publishes:
        if ended < submitted:
            live = version
        elif started < done:
            allowed.add(version)
    allowed.add(live)
    return allowed


def run_serve_open_churn(
    seed: int, seconds: float, traced: bool, sizes: Sizes = FULL
) -> Result:
    """Open-loop arrivals in-process, with a tenant republished twice a
    second."""
    from repro.errors import ServingError
    from repro.serving.protocol import EstimateRequest
    from repro.serving.server import EstimationServer, ServingConfig

    result = Result("serve-open-churn", seed, traced)
    work = _work_dir(result.workload)
    servers: List[EstimationServer] = []
    publishers: List[_Publisher] = []
    tracer = Tracer().install() if traced else None
    try:
        offsets, phases, publish_count = _open_loop_schedule(
            seconds, sizes.warmup_s
        )

        def once(k: int):
            tenants = _provision(work / f"tenants-{k}", sizes, seed)
            versions = _second_version(tenants, CHURN_TENANT, sizes, seed)
            server = EstimationServer(tenants.root, ServingConfig())
            servers.append(server.start())
            publishers.append(_Publisher(
                work, tenants, versions, publish_count,
                work / "publisher-spans.json" if traced else None,
            ))
            return tenants, versions, servers[-1], publishers[-1]

        def release(made) -> None:
            made[2].close(timeout=30)
            made[3].stop()

        tenants, versions, server, publisher = _setup_median(
            result, CHURN_SETUPS, once, release
        )
        pools = _index_pools(tenants)
        raw = churn_requests(seed, pools, len(offsets))
        result.facts["request_digest"] = stream_digest(raw)
        # Requests are built as they are sent and answers are kept in
        # flat lists: the harness must not grow the heap that the
        # in-process server's garbage collections walk.
        n = len(raw)
        submitted = [0] * n
        done = [0] * n
        values: List[Optional[float]] = [None] * n
        errors: Dict[int, str] = {}
        clock = time.perf_counter_ns

        def finished(i: int):
            def callback(future) -> None:
                exc = future.exception()
                if exc is None:
                    values[i] = future.result()
                else:
                    errors[i] = str(exc)
                done[i] = clock()
            return callback

        first_measured = phases.index("lo")
        begin = clock() + 20_000_000
        publisher.start(begin)
        for i, r in enumerate(raw):
            if i == first_measured and tracer is not None:
                tracer.enabled = True
            request = EstimateRequest(
                tenant=r["tenant"], index=r["index"],
                estimator=r["estimator"], sigma=r["sigma"],
                buffer_pages=r["buffers"], request_id=r["id"],
            )
            wait = begin + offsets[i] - clock()
            if wait > 0:
                time.sleep(wait / 1e9)
            submitted[i] = clock()
            try:
                future = server.submit(request)
            except ServingError as exc:
                errors[i] = f"refused: {exc}"
                done[i] = -1
                continue
            future.add_done_callback(finished(i))
        publishes = publisher.finish()
        deadline = time.monotonic() + 60.0
        while 0 in done and time.monotonic() < deadline:
            time.sleep(0.01)
        if tracer is not None:
            tracer.enabled = False
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        result.facts["publishes"] = len(publishes)

        references = [
            checks.SerialReference({
                CHURN_TENANT: version,
                "tenant-1": tenants.catalog_path("tenant-1"),
            })
            for version in versions
        ]
        latencies: Dict[str, List[float]] = {"lo": [], "hi": []}
        goodput = 0
        for i in range(n):
            result.attempted += 1
            if i in errors or done[i] <= 0:
                result.fail(f"request {i}: {errors.get(i, 'no answer')}")
                continue
            due = begin + offsets[i]
            latency = (done[i] - due) / 1e6
            allowed = _allowed_versions(
                raw[i]["tenant"], submitted[i], done[i], publishes
            )
            expected = [references[v].expected(raw[i]) for v in allowed]
            correct = values[i] in expected
            if not correct:
                result.fail(
                    f"request {i}: got {values[i]!r}, expected one of "
                    f"{expected!r} (versions {sorted(allowed)})"
                )
            if phases[i] in latencies:
                latencies[phases[i]].append(latency)
                good = correct and latency <= GOODPUT_LIMIT_MS
                goodput += good and phases[i] == "hi"
        lag_p99 = percentile([
            (submitted[i] - (begin + offsets[i])) / 1e6
            for i in range(first_measured, n)
        ], 0.99)
        named = {
            f"{phase}.{name}_ms": percentile(latencies[phase], q)
            for phase in ("lo", "hi")
            for name, q in (("p50", 0.5), ("p99", 0.99))
        }
        result.named.update(
            {name: (value, "ms") for name, value in named.items()}
        )
        result.named["hi.goodput_share"] = (
            goodput / phases.count("hi"), "ratio"
        )
        result.named["loadgen.lag_p99_ms"] = (lag_p99, "ms")
        # Good answers per second from the first ``hi`` due time to the
        # last ``hi`` answer: a measured span, not the schedule's.
        hi_start = begin + offsets[phases.index("hi")]
        hi_end = max(
            done[i] for i in range(n) if phases[i] == "hi"
        )
        result.metrics.update(
            ops_per_s=goodput * 1e9 / (hi_end - hi_start),
            p50_ms=named["lo.p50_ms"],
        )
        metrics = server.metrics()
        result.facts["server"] = {
            "batches": metrics["batches"],
            "mean_batch_size": metrics["mean_batch_size"],
            "rejected": metrics["rejected"],
        }
        result.facts["catalog_bytes"] = {
            name: tenants.catalog_path(name).stat().st_size
            for name in pools
        }
        if tracer is not None:
            rows = export(tracer.spans)
            published = json.loads(
                (work / "publisher-spans.json").read_text()
            )
            for row in published:
                if row[3] >= 0:
                    row[3] += len(rows)
            _traced_layers(result, rows + published, lag_p99_ms=lag_p99)
    finally:
        if tracer is not None:
            tracer.uninstall()
        for server in servers:
            server.close(timeout=30)
        for publisher in publishers:
            publisher.stop()
        shutil.rmtree(work, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# fit-* workloads
# ----------------------------------------------------------------------
def _timed_passes(
    result: Result, seconds: float, one_pass: Callable[[], int]
) -> List[float]:
    """Repeat ``one_pass`` (returns references) while another fits."""
    times: List[float] = []
    refs = 0
    measured = time.perf_counter()
    while True:
        started = time.perf_counter()
        refs = one_pass()
        times.append(time.perf_counter() - started)
        elapsed = time.perf_counter() - measured
        if elapsed + median(times) > seconds:
            break
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    pass_s = median(times)
    result.metrics.update(ops_per_s=refs / pass_s, p50_ms=pass_s * 1e3)
    result.named["fit_refs_per_s"] = (refs / pass_s, "refs/s")
    result.facts["pass_s"] = times
    result.facts["refs_per_pass"] = refs
    return times


def _check_records(
    result: Result, path: Path, expected: Dict[str, str]
) -> None:
    """Compare the written catalog's records with reference digests."""
    got = checks.record_digests(path)
    for name in sorted(set(got) | set(expected)):
        result.attempted += 1
        if got.get(name) != expected.get(name):
            result.fail(
                f"record {name}: digest {got.get(name)} != reference "
                f"{expected.get(name)}"
            )


def zipf_source(seed: int, sizes: Sizes = FULL):
    """The paper-scale zipf trace source for ``seed``."""
    from repro.trace.paper_scale import PaperScaleSpec, PaperScaleTrace

    return PaperScaleTrace(PaperScaleSpec(
        refs=sizes.zipf_refs, pages=sizes.zipf_pages, pattern="zipf",
        seed=seed,
    ))


def fit_zipf(source, kernel: Optional[str] = None) -> list:
    """LRU-Fit streamed over ``source``: its one record, in a list."""
    from repro.estimators.epfis import LRUFit, LRUFitConfig

    config = LRUFitConfig() if kernel is None else LRUFitConfig(
        kernel=kernel
    )
    pages = source.spec.pages
    return [LRUFit(config).run_streaming(
        source.chunks(0, source.total_refs), table_pages=pages,
        distinct_keys=pages, index_name="paper-zipf",
    )]


def save_records(records: Sequence, path: Path) -> int:
    """Write ``records`` as one catalog at ``path``; references fitted."""
    from repro.catalog.catalog import SystemCatalog

    catalog = SystemCatalog()
    for stats in records:
        catalog.put(stats)
    catalog.save(path)
    return sum(stats.table_records for stats in records)


def run_fit_paper_zipf(
    seed: int, seconds: float, traced: bool, sizes: Sizes = FULL
) -> Result:
    """LRU-Fit streamed over a paper-scale zipf trace, then saved."""
    from repro.estimators.epfis import LRUFitConfig

    result = Result("fit-paper-zipf", seed, traced)
    work = _work_dir(result.workload)
    tracer = Tracer().install() if traced else None
    try:
        source = _setup_median(
            result, ZIPF_SETUPS, lambda k: zipf_source(seed, sizes)
        )
        path = work / "catalog.json"
        if tracer is not None:
            tracer.enabled = True
        times = _timed_passes(
            result, seconds, lambda: save_records(fit_zipf(source), path)
        )
        if tracer is not None:
            tracer.enabled = False
        kernel = LRUFitConfig().kernel
        result.facts.update(
            kernels=[kernel], catalog_bytes=path.stat().st_size,
            traces=[{"name": "paper-zipf", "M": source.total_refs,
                     "D": source.spec.pages}],
        )
        shape = checks.zipf_shape(sizes)
        expected = checks.pinned(result.workload, shape, seed)
        if expected is None:
            second = checks.second_kernel(kernel, source.spec.pages)
            result.facts["reference"] = f"kernel {second}"
            expected = checks.stats_digests(
                fit_zipf(zipf_source(seed, sizes), second)
            )
        else:
            result.facts["reference"] = "pinned"
        _check_records(result, path, expected)
        if tracer is not None:
            _traced_layers(
                result, export(tracer.spans), passes=len(times)
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return result


def gwl_database(seed: int, sizes: Sizes = FULL):
    """The simulated GWL database for ``seed``."""
    from repro.datagen.gwl import build_gwl_database

    return build_gwl_database(scale=sizes.gwl_scale, seed=seed)


def fit_gwl(db, kernel: Optional[str] = None) -> list:
    """LRU-Fit over every GWL index, in name order: their records."""
    from repro.estimators.epfis import LRUFit, LRUFitConfig

    config = LRUFitConfig(b_sml=db.b_sml)
    if kernel is not None:
        config = dataclasses.replace(config, kernel=kernel)
    return [
        LRUFit(config).run(db.index(name)) for name in sorted(db.columns)
    ]


def run_fit_gwl_catalog(
    seed: int, seconds: float, traced: bool, sizes: Sizes = FULL
) -> Result:
    """LRU-Fit over all eight simulated GWL indexes into one catalog."""
    from repro.estimators.epfis import LRUFitConfig

    result = Result("fit-gwl-catalog", seed, traced)
    work = _work_dir(result.workload)
    tracer = Tracer().install() if traced else None
    try:
        db = _setup_median(
            result, GWL_SETUPS, lambda k: gwl_database(seed, sizes)
        )
        path = work / "catalog.json"
        if tracer is not None:
            tracer.enabled = True
        times = _timed_passes(
            result, seconds, lambda: save_records(fit_gwl(db), path)
        )
        if tracer is not None:
            tracer.enabled = False
        kernel = LRUFitConfig().kernel
        result.facts.update(
            kernels=[kernel] * len(db.columns),
            catalog_bytes=path.stat().st_size,
            traces=[
                {"name": name, "M": db.index(name).entry_count,
                 "D": db.index(name).table.page_count}
                for name in sorted(db.columns)
            ],
        )
        shape = checks.gwl_shape(sizes)
        expected = checks.pinned(result.workload, shape, seed)
        if expected is None:
            largest = max(trace["D"] for trace in result.facts["traces"])
            second = checks.second_kernel(kernel, largest)
            result.facts["reference"] = f"kernel {second}"
            expected = checks.stats_digests(fit_gwl(db, second))
        else:
            result.facts["reference"] = "pinned"
        _check_records(result, path, expected)
        if tracer is not None:
            _traced_layers(
                result, export(tracer.spans), passes=len(times)
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    return result


RUNNERS = {
    "serve-tcp-closed": run_serve_tcp_closed,
    "serve-open-churn": run_serve_open_churn,
    "fit-paper-zipf": run_fit_paper_zipf,
    "fit-gwl-catalog": run_fit_gwl_catalog,
}


def run(
    workload: str, seed: int, seconds: float, traced: bool,
    smoke: bool = False,
) -> Result:
    """Run one workload; host facts are added to its result."""
    result = RUNNERS[workload](
        seed, seconds, traced, SMOKE if smoke else FULL
    )
    result.facts["host"] = host_facts()
    result.facts["smoke"] = smoke
    return result
