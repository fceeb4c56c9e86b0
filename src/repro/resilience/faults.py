"""Deterministic, seeded fault injection for catalog I/O.

The chaos suite's workhorse: a :class:`FaultInjector` is a drop-in
:class:`~repro.catalog.store.CatalogIO` that perturbs exactly the
operations the store performs, according to an explicit list of
:class:`FaultRule`\\ s.  Every probabilistic decision comes from one
``random.Random(seed)``, so a given (rules, seed, call sequence) triple
replays the identical fault schedule — a failing chaos run is a
reproducible bug report, not a flake.

Fault kinds (each valid for specific operations):

``transient``
    Raise :class:`OSError` before touching the file — the retryable
    class (EINTR, brief NFS outage).  Valid on ``read`` and ``write``.
``corrupt``
    Return a truncated prefix of the real bytes from ``read`` — what a
    reader racing a non-atomic writer, or a half-written file after a
    crash, observes.  The result is valid UTF-8 but broken JSON, so
    parsing fails loudly downstream.
``torn-write``
    Persist only a prefix of the text on ``write`` — the crash-mid-write
    outcome the atomic save discipline normally prevents; injected to
    prove the reader side survives it anyway.
``mtime-collision``
    Perform the write, pad the new content to the old file's size when
    possible, and restore the old mtime — the same-size-within-mtime-
    granularity rewrite that made stat-stamp staleness checks lie (the
    content check must still detect it).
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from repro.catalog.store import CatalogIO
from repro.errors import FaultInjectionError

#: Operations a rule may target.
OPERATIONS: Tuple[str, ...] = ("read", "write")

#: Fault kind -> operations it applies to.
FAULT_KINDS = {
    "transient": ("read", "write"),
    "corrupt": ("read",),
    "torn-write": ("write",),
    "mtime-collision": ("write",),
}


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: fire ``kind`` on ``operation`` with ``rate``.

    ``limit`` bounds how many times the rule fires in total (``None`` =
    unlimited) — "fail the next two reads, then recover" is
    ``FaultRule("read", "transient", limit=2)``.
    """

    operation: str
    kind: str
    rate: float = 1.0
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(sorted(FAULT_KINDS))}"
            )
        if self.operation not in OPERATIONS:
            raise FaultInjectionError(
                f"unknown operation {self.operation!r}; known: "
                f"{', '.join(OPERATIONS)}"
            )
        if self.operation not in FAULT_KINDS[self.kind]:
            raise FaultInjectionError(
                f"fault kind {self.kind!r} does not apply to "
                f"{self.operation!r} (valid: "
                f"{', '.join(FAULT_KINDS[self.kind])})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultInjectionError(
                f"rate must be in [0, 1], got {self.rate}"
            )
        if self.limit is not None and self.limit < 1:
            raise FaultInjectionError(
                f"limit must be >= 1 or None, got {self.limit}"
            )


class FaultInjector(CatalogIO):
    """A :class:`CatalogIO` that injects faults per an explicit plan.

    Wraps a real ``io`` (default: the plain filesystem one).  Each call
    draws one uniform variate per configured rule *in rule order*, so
    the schedule is a pure function of (rules, seed, call sequence).
    Counters expose what actually fired: ``calls[op]`` and
    ``injected[(op, kind)]``.
    """

    def __init__(
        self,
        rules: Iterable[FaultRule],
        seed: int = 0,
        io: Optional[CatalogIO] = None,
    ) -> None:
        self._rules = tuple(rules)
        self._remaining = [rule.limit for rule in self._rules]
        self._rng = random.Random(seed)
        self._io = io or CatalogIO()
        self.calls: Counter = Counter()
        self.injected: Counter = Counter()

    def _fired(self, operation: str) -> Tuple[str, ...]:
        """Kinds firing on this call, in rule order (deterministic)."""
        kinds = []
        for i, rule in enumerate(self._rules):
            if rule.operation != operation:
                continue
            if self._remaining[i] == 0:
                continue
            if self._rng.random() < rule.rate:
                if self._remaining[i] is not None:
                    self._remaining[i] -= 1
                self.injected[(operation, rule.kind)] += 1
                kinds.append(rule.kind)
        return tuple(kinds)

    def read_bytes(self, path: Union[str, Path]) -> bytes:
        self.calls["read"] += 1
        fired = self._fired("read")
        if "transient" in fired:
            raise OSError(
                f"injected transient read fault on {str(path)!r}"
            )
        data = self._io.read_bytes(path)
        if "corrupt" in fired:
            return data[: max(1, len(data) // 2)]
        return data

    def save_text(self, path: Union[str, Path], text: str) -> None:
        self.calls["write"] += 1
        fired = self._fired("write")
        if "transient" in fired:
            raise OSError(
                f"injected transient write fault on {str(path)!r}"
            )
        if "torn-write" in fired:
            self._io.save_text(path, text[: max(1, len(text) // 2)])
            return
        if "mtime-collision" in fired and Path(path).exists():
            info = os.stat(path)
            encoded = len(text.encode("utf-8"))
            if encoded < info.st_size:
                # Trailing whitespace is JSON-legal padding.
                text = text + " " * (info.st_size - encoded)
            self._io.save_text(path, text)
            os.utime(
                path, ns=(info.st_atime_ns, info.st_mtime_ns)
            )
            return
        self._io.save_text(path, text)

    def replace(
        self, src: Union[str, Path], dst: Union[str, Path]
    ) -> None:
        # Quarantine renames pass through unperturbed: the resilience
        # layer's own recovery actions are not chaos targets here.
        self._io.replace(src, dst)

    def __repr__(self) -> str:
        return (
            f"FaultInjector(rules={len(self._rules)}, "
            f"injected={sum(self.injected.values())})"
        )
