"""Run ``repro`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py --spans-out FILE -- serve
...``.  Everything after ``--`` goes to the public ``repro`` command
line unchanged.  When the command returns (``repro serve`` returns
after SIGTERM drains it), the recorded spans are written to ``FILE``
as JSON rows (see :func:`perfbench.ledger.export`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else (
        args.command
    )
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.ledger import Tracer, export
    from repro.cli import main as repro_main

    tracer = Tracer().install()
    tracer.enabled = True
    try:
        status = repro_main(command)
    finally:
        tracer.enabled = False
        args.spans_out.write_text(
            json.dumps(export(tracer.spans), separators=(",", ":")),
            encoding="utf-8",
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
