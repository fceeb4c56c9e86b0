"""Republish the churned tenant's catalog on a schedule, in its own process.

Statistics collection rewrites a catalog from outside the serving
process, so the churn workload republishes from here.  Usage::

    python3 perfbench/publisher.py --root DIR --count N \\
        VERSION0.json VERSION1.json

Once ready it prints ``ready`` and reads one line from standard input:
the ``time.perf_counter_ns()`` origin (a clock all processes on the
host share).  At ``origin + k * PUBLISH_EVERY_S`` seconds, for ``k`` in
``1..N``, it saves version ``k % 2`` of ``CHURN_TENANT`` (both from
``perfbench.workloads``) through ``TenantCatalogs.save`` and then
prints ``start end version`` in nanoseconds.  With
``--spans-out`` the saves are traced (see ``perfbench/ledger.py``) and
the spans written there at exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("versions", nargs="+")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.ledger import Tracer, export
    from perfbench.workloads import CHURN_TENANT, PUBLISH_EVERY_S
    from repro.catalog.catalog import SystemCatalog
    from repro.serving.tenants import TenantCatalogs

    tenants = TenantCatalogs(args.root)
    versions = [SystemCatalog.load(path) for path in args.versions]
    tracer = Tracer().install() if args.spans_out else None
    print("ready", flush=True)
    origin = int(sys.stdin.readline())
    if tracer is not None:
        tracer.enabled = True
    for k in range(1, args.count + 1):
        due = origin + int(k * PUBLISH_EVERY_S * 1e9)
        wait = due - time.perf_counter_ns()
        if wait > 0:
            time.sleep(wait / 1e9)
        version = k % len(versions)
        started = time.perf_counter_ns()
        tenants.save(CHURN_TENANT, versions[version])
        print(started, time.perf_counter_ns(), version, flush=True)
    if tracer is not None:
        tracer.enabled = False
        args.spans_out.write_text(json.dumps(export(tracer.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
