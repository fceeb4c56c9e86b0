"""Unit tests for the open-loop load generator's latency accounting."""

from __future__ import annotations

import time
from concurrent.futures import Future

import pytest

from repro.serving.loadgen import run_open_loop
from repro.serving.protocol import EstimateRequest

pytestmark = pytest.mark.serving

QPS = 1000.0
STALL_NS = 50_000_000


class _StallingServer:
    """Answers every request at once, but its first ``submit`` blocks."""

    def __init__(self) -> None:
        self.submitted_ns = []

    def submit(self, request):
        self.submitted_ns.append(time.perf_counter_ns())
        if len(self.submitted_ns) == 1:
            time.sleep(STALL_NS / 1e9)
        future = Future()
        future.set_result(0.0)
        return future

    def metrics(self):
        return {}


def test_stall_is_charged_to_requests_scheduled_behind_it():
    requests = [
        EstimateRequest(
            tenant="tenant-0", index="idx", estimator="epfis",
            sigma=0.1, buffer_pages=8, request_id=i,
        )
        for i in range(80)
    ]
    server = _StallingServer()
    result = run_open_loop(server, requests, qps=QPS)

    assert result.completed == len(requests)
    submitted = server.submitted_ns
    assert submitted[1] - submitted[0] >= STALL_NS
    # Arrival i is due at start + i/qps with start <= submitted[0], so
    # submitted[i] - submitted[0] - i/qps is a floor on its lateness.
    # Futures complete at once, so latencies arrive in request order.
    period_ns = 1e9 / QPS
    stalled = range(1, int(STALL_NS / period_ns))
    for i in stalled:
        lateness = submitted[i] - submitted[0] - i * period_ns
        assert lateness > 0
        assert result.latencies_ns[i] >= lateness
