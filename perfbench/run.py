"""Run the benchmark: one workload, or all of them, each in a fresh process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-tcp-closed --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
measured with span wrappers installed (see ``perfbench/ledger.py``).
The lines before it name every figure with its unit.  The exit status
is 0 only when every output of the program was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: End-to-end metrics: name -> (unit, better).  Bounds live in
#: BENCHMARK.json; ``perfbench/README.md`` gives each one's meaning
#: per workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
}

#: A workload child must finish well inside the command's own limit.
CHILD_TIMEOUT_S = 170


def _check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(
            f"error: {ROOT} holds no repro sources (src/repro); run the "
            f"benchmark from the root of a repository checkout"
        )
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def _child(args: argparse.Namespace) -> int:
    from perfbench.workloads import run

    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke,
    )
    print(json.dumps(result.to_dict()))
    return 0


def run_child(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool
) -> dict:
    """Run one workload in a fresh interpreter; its result dict."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    # Its own process group, so a timeout or a signal to this process
    # also ends the servers and publishers the workload started.
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            shutil.rmtree(
                ROOT / ".perfbench-work" / f"{workload}-{proc.pid}",
                ignore_errors=True,
            )
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"workload {workload} exited {proc.returncode} without a "
            f"result"
        )
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(result: dict) -> dict:
    """Print ``result`` by name with units; return its gated metrics."""
    name = result["workload"]
    attempted, failed = result["attempted"], result["failed"]
    share = failed / attempted if attempted else 1.0
    print(f"== {name} (seed {result['seed']}, "
          f"{'traced' if result['traced'] else 'untraced'})")
    print(f"  failed_share = {share:.6g} ratio "
          f"({failed} of {attempted})")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    if result["traced"]:
        from perfbench.ledger import PER_LAYER

        metrics = {
            key: _metric(result["layers"].get(key, 0.0), unit)
            for key, (unit, _better) in PER_LAYER.items()
        }
    else:
        metrics = {
            key: _metric(result["metrics"][key], unit)
            for key, (unit, _better) in END_TO_END.items()
        }
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    for key, (value, unit) in result["named"].items():
        if key not in metrics:
            print(f"  {key} = {value:.6g} {unit}")
    print("  facts: " + json.dumps(result["facts"], sort_keys=True))
    return metrics


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description="Run the fit and serve benchmark workloads."
    )
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per run (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a "
                             "traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="test-size inputs (for the benchmark's "
                             "own tests)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, metrics = [], {}
    for name in names:
        if args.workload == "all" and args.trace:
            base = run_child(name, args.seed, args.seconds, 0, args.smoke)
            report(base)
            results.append(base)
        result = run_child(
            name, args.seed, args.seconds, args.trace, args.smoke
        )
        shown = report(result)
        if args.workload == "all":
            metrics.update(
                {f"{name}.{key}": value for key, value in shown.items()}
            )
            if args.trace:
                _print_overhead(base, result)
        else:
            metrics = shown
        results.append(result)
    final = summarize(results, metrics)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def summarize(results, metrics: dict) -> dict:
    """The machine-read last line for ``results``.

    ``correct`` holds only when every checked output was right.
    """
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _print_overhead(untraced: dict, traced: dict) -> None:
    for key in ("ops_per_s", "p50_ms"):
        base = untraced["metrics"][key]
        with_spans = traced["metrics"][key]
        change = (with_spans - base) / base if base else 0.0
        print(f"  tracing overhead {key}: {base:.6g} -> "
              f"{with_spans:.6g} ({change:+.1%})")


if __name__ == "__main__":
    _check_checkout()
    sys.exit(main())
