"""The benchmark's own tests: smoke runs, fault injection, arithmetic.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, ledger, run, workloads

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def _command(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(cwd), timeout=170,
    )


def _last_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _facts(proc) -> dict:
    detail = [
        line for line in proc.stdout.splitlines()
        if line.startswith("  facts: ")
    ]
    return json.loads(detail[-1][len("  facts: "):])


# ----------------------------------------------------------------------
# The contract with BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in workloads.WORKLOADS if name != "serve-open-churn"
    ]
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]
    } == ledger.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.25 for bound in bounds.values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _command("fit-paper-zipf", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# Smoke-size runs pass their checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_its_checks(workload):
    proc = _command(workload, 1, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    final = _last_line(proc)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    assert set(final["metrics"]) == set(run.END_TO_END)
    for name, metric in final["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name][0]
        assert metric["value"] > 0
    if workload == "serve-tcp-closed":
        # The closing publish changes answers, so its check can fail.
        assert _facts(proc)["after_publish_changed"] > 0
        assert final["attempted"] > workloads.AFTER_PUBLISH


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_layer(workload):
    proc = _command(workload, 1, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    layers = {
        name: metric["value"]
        for name, metric in _last_line(proc)["metrics"].items()
    }
    assert set(layers) == set(ledger.PER_LAYER)
    kernels = [v for k, v in layers.items() if k.startswith("kernels.")]
    if workload.startswith("serve-"):
        assert kernels == [0.0] * len(kernels)
        assert layers["catalog.reads_per_call"] > 0
    else:
        assert layers["catalog.read_us"] == 0.0
        assert layers["kernels.refs"] == sum(
            trace["M"] for trace in _facts(proc)["traces"]
        )
    if workload == "serve-tcp-closed":
        assert layers["catalog.reads_per_call"] == 2.0
        assert layers["protocol.decode_us"] > 0
    assert layers["traced.ops_per_s"] > 0


# ----------------------------------------------------------------------
# Injected faults raise failed_share and fail the exit status
# ----------------------------------------------------------------------
def test_wrong_estimate_is_counted_and_fails(monkeypatch):
    from repro.estimators.epfis import EPFISEstimator

    served = EPFISEstimator.estimate_many

    def off_by_one(self, pairs):
        return [value + 1.0 for value in served(self, pairs)]

    monkeypatch.setattr(EPFISEstimator, "estimate_many", off_by_one)
    result = workloads.run(
        "serve-open-churn", 1, 1.0, False, smoke=True
    ).to_dict()
    assert result["failed"] > 0
    assert result["failed"] < result["attempted"]
    final = run.summarize([result], {})
    assert final["correct"] is False


@pytest.mark.parametrize("seed", [1, 2])
def test_wrong_fit_record_is_counted_and_fails(monkeypatch, seed):
    from repro.catalog.catalog import SystemCatalog

    saved = SystemCatalog.save

    def tampered(self, path):
        saved(self, path)
        payload = json.loads(Path(path).read_text())
        record = payload["indexes"][sorted(payload["indexes"])[0]]
        record["f_min"] += 1
        Path(path).write_text(json.dumps(payload))

    monkeypatch.setattr(SystemCatalog, "save", tampered)
    result = workloads.run(
        "fit-gwl-catalog", seed, 0.1, False, smoke=True
    ).to_dict()
    assert result["failed"] == 1 and result["attempted"] == 8
    assert run.summarize([result], {})["correct"] is False


def test_pinned_and_second_kernel_references_agree():
    db = workloads.gwl_database(1, workloads.SMOKE)
    shape = checks.gwl_shape(workloads.SMOKE)
    pinned = checks.pinned("fit-gwl-catalog", shape, 1)
    assert pinned is not None
    second = checks.second_kernel("baseline", 100)
    assert checks.stats_digests(workloads.fit_gwl(db, second)) == pinned


def test_file_and_record_digests_agree(tmp_path):
    source = workloads.zipf_source(3, workloads.SMOKE)
    records = workloads.fit_zipf(source)
    workloads.save_records(records, tmp_path / "c.json")
    assert checks.record_digests(tmp_path / "c.json") == (
        checks.stats_digests(records)
    )


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_times_on_a_hand_built_tree():
    rows = [
        # name, start, end, parent, ctx, count, value
        ["engine.call", 0, 100, -1, "batch:1", 0, 0],
        ["engine.bind", 10, 40, 0, "batch:1", 0, 0],
        ["catalog.read", 15, 20, 1, "batch:1", 0, 0],
        ["catalog.io", 16, 18, 2, "batch:1", 13, 0],
        # Overlaps its sibling: the union is subtracted once.
        ["estimators.compute", 30, 60, 0, "batch:1", 4, 0],
        # Runs past its parent's end: only the inside part counts.
        ["obs.record", 90, 120, 0, "batch:1", 0, 0],
    ]
    assert ledger.self_times(rows) == [40, 25, 3, 2, 30, 30]
    book = ledger.Ledger(rows)
    assert book.self_ns["engine.call"] == 40
    assert book.self_ns["catalog.read"] == 5
    assert book.counts["catalog.io"] == 13
    metrics = ledger.layer_metrics(book)
    assert metrics["catalog.reads_per_call"] == 1.0
    assert metrics["catalog.bytes_hashed_per_call"] == 13.0
    assert metrics["catalog.read_us"] == pytest.approx(0.005)
    assert metrics["estimators.estimates"] == 4.0


def test_tracer_nests_spans_and_collapses_same_name_calls():
    class Layer:
        def outer(self, n):
            return self.inner(n) + self.outer2(n)

        def inner(self, n):
            return n if n == 0 else self.inner(n - 1)

        def outer2(self, n):
            return 1

    original = Layer.outer
    tracer = ledger.Tracer()
    tracer.wrap(Layer, "outer", "engine.call")
    tracer.wrap(Layer, "inner", "engine.bind")
    try:
        Layer().outer(3)
        assert tracer.spans == []
        tracer.enabled = True
        Layer().outer(3)
    finally:
        tracer.uninstall()
    rows = ledger.export(tracer.spans)
    assert [(row[0], row[3]) for row in rows] == [
        ("engine.call", -1), ("engine.bind", 0),
    ]
    assert Layer.outer is original


# ----------------------------------------------------------------------
# The same seed gives the same inputs
# ----------------------------------------------------------------------
POOLS = {"tenant-0": ["a", "a.cold0"], "tenant-1": ["b", "b.cold0"]}


def test_request_streams_repeat_per_seed():
    tcp = workloads.stream_digest(workloads.serve_tcp_requests(5, POOLS))
    assert tcp == workloads.stream_digest(
        workloads.serve_tcp_requests(5, POOLS)
    )
    assert tcp != workloads.stream_digest(
        workloads.serve_tcp_requests(6, POOLS)
    )
    churn = workloads.stream_digest(workloads.churn_requests(5, POOLS, 500))
    assert churn == workloads.stream_digest(
        workloads.churn_requests(5, POOLS, 500)
    )
    assert churn != workloads.stream_digest(
        workloads.churn_requests(6, POOLS, 500)
    )


def _trace_digest(seed: int) -> str:
    digest = hashlib.sha256()
    for chunk in workloads.zipf_source(seed, workloads.SMOKE):
        digest.update(json.dumps(chunk).encode())
    db = workloads.gwl_database(seed, workloads.SMOKE)
    for name in sorted(db.columns):
        digest.update(json.dumps(db.index(name).page_sequence()).encode())
    return digest.hexdigest()


def test_traces_repeat_per_seed():
    assert _trace_digest(4) == _trace_digest(4)
    assert _trace_digest(4) != _trace_digest(5)
