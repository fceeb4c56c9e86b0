"""Pin the fitted-record digests the fit workloads are checked against.

Usage (from the repository root)::

    python3 perfbench/pin_digests.py --seeds 0 1 2 [--smoke]

For each seed and each fit workload, this fits the workload's records
with the default kernel and checks every record once against the
``LRUBufferPool`` oracle: the recorded ``f_min``, ``fetches_b1`` and
``fetches_b3``, and the kernel's curve at the smallest, middle and
largest modeled buffer sizes, must equal the fetches of a simulated
LRU pool of that size.  Only then are the records' canonical digests
written to ``perfbench/pins.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _oracle_check(name: str, trace, record: dict, kernel: str) -> None:
    from repro.buffer.kernels import get_kernel
    from repro.verify.oracle import oracle_fetches

    curve = get_kernel(kernel).analyze(trace)
    b_min, b_max = record["b_min"], record["b_max"]
    expected = {
        b_min: record["f_min"],
        1: record["fetches_b1"],
        3: record["fetches_b3"],
    }
    for size in (b_min, (b_min + b_max) // 2, b_max):
        expected.setdefault(size, curve.fetches(size))
    for size, fetches in sorted(expected.items()):
        truth = oracle_fetches(trace, size)
        if fetches != truth or curve.fetches(size) != truth:
            raise SystemExit(
                f"{name}: B={size}: record/kernel {fetches}/"
                f"{curve.fetches(size)} != LRU pool {truth}"
            )


def pin_zipf(seed: int, sizes) -> dict:
    """Oracle-checked digests of the zipf workload's record."""
    from perfbench import checks, workloads
    from repro.estimators.epfis import LRUFitConfig

    source = workloads.zipf_source(seed, sizes)
    records = workloads.fit_zipf(source)
    trace = [page for chunk in source for page in chunk]
    for stats in records:
        _oracle_check(
            stats.index_name, trace, stats.to_dict(), LRUFitConfig().kernel
        )
    return checks.stats_digests(records)


def pin_gwl(seed: int, sizes) -> dict:
    """Oracle-checked digests of the GWL workload's records."""
    from perfbench import checks, workloads
    from repro.estimators.epfis import LRUFitConfig

    db = workloads.gwl_database(seed, sizes)
    records = workloads.fit_gwl(db)
    for stats in records:
        _oracle_check(
            stats.index_name, db.index(stats.index_name).page_sequence(),
            stats.to_dict(), LRUFitConfig().kernel,
        )
    return checks.stats_digests(records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="pin the test-size inputs instead")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import checks, workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    pins = checks.load_pins()
    for workload, shape, pin in (
        ("fit-paper-zipf", checks.zipf_shape(sizes), pin_zipf),
        ("fit-gwl-catalog", checks.gwl_shape(sizes), pin_gwl),
    ):
        for seed in args.seeds:
            digests = pin(seed, sizes)
            pins.setdefault(workload, {}).setdefault(shape, {})[
                str(seed)
            ] = digests
            print(f"{workload} {shape} seed {seed}: "
                  f"{len(digests)} record(s) pinned", flush=True)
    checks.PINS.write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
