"""Reference values the benchmark checks the program's outputs against.

* Served estimates must equal, exactly, what a serial in-memory
  :class:`~repro.catalog.catalog.SystemCatalog` engine answers for the
  catalog version that was live (:class:`SerialReference`).
* Fitted records must have the same canonical bytes as a reference:
  a digest pinned in ``pins.json`` for shipped seeds (made by
  ``pin_digests.py``, which checks each record once against the
  ``LRUBufferPool`` oracle), or, for any other seed, a pass with a
  second exact kernel (:func:`second_kernel`).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

PINS = Path(__file__).with_name("pins.json")


def canonical(record: dict) -> bytes:
    """A catalog record's canonical bytes: sorted keys, no spaces."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def record_digests(path: Union[str, Path]) -> Dict[str, str]:
    """SHA-256 of each record's canonical bytes in a catalog file.

    An unreadable or malformed file yields no records, so every
    expected record then counts as wrong.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        indexes = payload["indexes"]
        return {
            name: hashlib.sha256(canonical(record)).hexdigest()
            for name, record in indexes.items()
        }
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return {}


def stats_digests(records) -> Dict[str, str]:
    """SHA-256 of each fitted record's canonical bytes, by index name."""
    return {
        stats.index_name: hashlib.sha256(
            canonical(stats.to_dict())
        ).hexdigest()
        for stats in records
    }


def zipf_shape(sizes) -> str:
    """Pin key for a paper-scale zipf trace shape."""
    return f"refs={sizes.zipf_refs},pages={sizes.zipf_pages}"


def gwl_shape(sizes) -> str:
    """Pin key for a GWL database scale."""
    return f"scale={sizes.gwl_scale}"


def load_pins() -> dict:
    """``{workload: {shape: {seed: {record: digest}}}}``."""
    try:
        return json.loads(PINS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def pinned(
    workload: str, shape: str, seed: int
) -> Optional[Dict[str, str]]:
    """Pinned record digests for ``seed``, or ``None`` if not shipped."""
    return load_pins().get(workload, {}).get(shape, {}).get(str(seed))


#: Above this many pages the ``compact`` kernel's memory (quadratic in
#: distinct pages) rules it out as a reference.
COMPACT_MAX_PAGES = 20_000


def second_kernel(first: str, pages: int) -> str:
    """An exact kernel other than ``first`` that suits ``pages``."""
    from repro.buffer.kernels import available_kernels, get_kernel

    for name in ("numpy", "baseline", "compact"):
        if name == first or name not in available_kernels():
            continue
        if not get_kernel(name).exact:
            continue
        if name == "compact" and pages > COMPACT_MAX_PAGES:
            continue
        return name
    raise RuntimeError(
        f"no second exact kernel besides {first!r} for {pages} pages"
    )


class SerialReference:
    """Serial in-memory engines, one per tenant; answers memoized.

    ``catalogs`` maps each tenant to a catalog object or file path.
    """

    def __init__(self, catalogs: Mapping[str, object]) -> None:
        from repro.catalog.catalog import SystemCatalog
        from repro.engine import EstimationEngine

        self._engines = {}
        for tenant, catalog in catalogs.items():
            if not isinstance(catalog, SystemCatalog):
                catalog = SystemCatalog.load(catalog)
            self._engines[tenant] = EstimationEngine(catalog)
        self._memo: Dict[tuple, float] = {}

    def expected(self, request: dict) -> float:
        """The serial answer to one request (wire-dict form)."""
        from repro.types import ScanSelectivity

        key = (
            request["tenant"], request["index"], request["estimator"],
            request["sigma"], request["buffers"],
        )
        value = self._memo.get(key)
        if value is None:
            value = self._engines[request["tenant"]].estimate(
                request["index"], request["estimator"],
                ScanSelectivity(request["sigma"]), request["buffers"],
            )
            self._memo[key] = value
        return value


def check_reply(reply: bytes, expected: float) -> Optional[str]:
    """``None`` if ``reply`` is an ok answer equal to ``expected``."""
    try:
        doc = json.loads(reply)
    except ValueError:
        return f"unparsable reply {reply[:80]!r}"
    if not isinstance(doc, dict) or doc.get("ok") is not True:
        return f"failed reply {reply[:160]!r}"
    if doc.get("estimate") != expected:
        return f"estimate {doc.get('estimate')!r} != {expected!r}"
    return None
