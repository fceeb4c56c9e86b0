"""Table-aware index wrapper: the object every estimator consumes.

An :class:`Index` ties a :class:`~repro.storage.btree.BTreeIndex` to the
table and column it indexes.  Its central product is the *index-order page
reference sequence* — "A full scan of all the index entries produces the
sequence of page numbers as stored in the index" (Section 4.1) — which
LRU-Fit, the cluster-ratio baselines, and the ground-truth simulator all
work from.

Duplicate-key entry order
-------------------------
Within one key value, entries are kept in the order they were added to the
index (see :mod:`repro.storage.btree`).  Generators that control clustering
add entries at record-creation time via :meth:`Index.add`;
:meth:`Index.build` bulk-builds from an existing table in physical order,
which yields the "sorted RIDs per key" variant the paper defers to future
work — useful as an ablation, so both paths are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import BTreeError
from repro.storage.btree import BTreeIndex, KeyBound
from repro.storage.table import Table
from repro.types import RID


@dataclass(frozen=True)
class IndexEntry:
    """One leaf entry: a key value and the RID of a record holding it."""

    key: Any
    rid: RID


class Index:
    """A named B-tree index over one column of a table."""

    def __init__(
        self,
        name: str,
        table: Table,
        column: str,
        fanout: int = 64,
    ) -> None:
        table.column_index(column)  # validates the column exists
        self._name = name
        self._table = table
        self._column = column
        self._btree = BTreeIndex(fanout=fanout)

    @classmethod
    def build(
        cls,
        table: Table,
        column: str,
        name: Optional[str] = None,
        fanout: int = 64,
    ) -> "Index":
        """Bulk-build from ``table`` in physical scan order.

        Note: this orders duplicate-key RIDs by page (ascending), i.e. the
        sorted-RID variant.  Use incremental :meth:`add` during data
        generation to preserve creation order instead.
        """
        index = cls(name or f"{table.name}.{column}", table, column, fanout)
        col = table.column_index(column)
        for rid, row in table.scan():
            index.add(row[col], rid)
        return index

    @property
    def name(self) -> str:
        """The index's display name."""
        return self._name

    @property
    def table(self) -> Table:
        """The table this index covers."""
        return self._table

    @property
    def column(self) -> str:
        """The indexed column name."""
        return self._column

    @property
    def btree(self) -> BTreeIndex:
        """The underlying B+-tree."""
        return self._btree

    @property
    def entry_count(self) -> int:
        """Number of index entries (equals N when complete)."""
        return len(self._btree)

    def add(self, key: Any, rid: RID) -> None:
        """Add one entry (called while records are being created)."""
        self._btree.insert(key, rid)

    def remove(self, key: Any, rid: RID) -> None:
        """Remove the entry for ``(key, rid)``.

        Index maintenance only — the heap record itself is untouched
        (real systems mark slots dead and reclaim lazily; page-fetch
        estimation cares only about which entries a scan visits).
        """
        self._btree.delete(key, rid)

    def check_complete(self) -> None:
        """Verify the index covers every record of its table exactly once."""
        if len(self._btree) != self._table.record_count:
            raise BTreeError(
                f"index {self._name!r} has {len(self._btree)} entries but "
                f"table {self._table.name!r} has "
                f"{self._table.record_count} records"
            )

    # ------------------------------------------------------------------
    # Entry iteration
    # ------------------------------------------------------------------
    def entries(
        self,
        start: Optional[KeyBound] = None,
        stop: Optional[KeyBound] = None,
    ) -> Iterator[IndexEntry]:
        """Entries in key order, optionally restricted to a key range."""
        for key, rid in self._btree.range(start, stop):
            yield IndexEntry(key, rid)

    def page_sequence(
        self,
        start: Optional[KeyBound] = None,
        stop: Optional[KeyBound] = None,
    ) -> List[int]:
        """Data-page numbers in index order — the scan's reference string.

        The full scan (no bounds) walks the leaves directly, one list
        extension per leaf.
        """
        if start is None and stop is None:
            pages: List[int] = []
            for _order_keys, rids in self._btree.leaves():
                pages.extend([rid.page for rid in rids])
            return pages
        return [rid.page for _key, rid in self._btree.range(start, stop)]

    # ------------------------------------------------------------------
    # Statistics (the paper's I, per-key counts, range cardinalities)
    # ------------------------------------------------------------------
    def distinct_key_count(self) -> int:
        """The paper's ``I``."""
        return self._btree.distinct_key_count()

    def key_counts(self) -> Dict[Any, int]:
        """Map each distinct key to its number of records (duplicates)."""
        counts: Dict[Any, int] = {}
        for key, _rid in self._btree.items():
            counts[key] = counts.get(key, 0) + 1
        return counts

    def sorted_keys(self) -> List[Any]:
        """Distinct keys in ascending order."""
        return list(self._btree.keys())

    def count_in_range(
        self,
        start: Optional[KeyBound] = None,
        stop: Optional[KeyBound] = None,
    ) -> int:
        """Number of entries with keys in the range (exact cardinality)."""
        return sum(1 for _ in self._btree.range(start, stop))

    def __repr__(self) -> str:
        return (
            f"Index({self._name!r}, table={self._table.name!r}, "
            f"column={self._column!r}, entries={self.entry_count})"
        )
