"""A B+-tree index over ``(key, RID)`` entries.

This is a real tree — splitting leaves and interior nodes, uniform depth,
linked leaves — not a sorted-list stand-in.  Entries with equal keys are
kept in insertion order (the paper's "indexes with sorted RIDs for a given
key value" is explicitly future work in Section 6, so insertion order is the
faithful behaviour), implemented by tagging each entry with a monotonically
increasing sequence number and ordering on ``(key, seq)``.

Keys may be any mutually comparable Python values (ints, floats, strings,
tuples).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import BTreeError
from repro.types import RID

#: Internal ordering key: (user key, insertion sequence number).
_OrderKey = Tuple[Any, int]


class _LeafNode:
    __slots__ = ("order_keys", "rids", "next_leaf")

    def __init__(self) -> None:
        self.order_keys: List[_OrderKey] = []
        self.rids: List[RID] = []
        self.next_leaf: Optional["_LeafNode"] = None


class _InteriorNode:
    __slots__ = ("separators", "children")

    def __init__(self) -> None:
        # children[i] holds entries with order key < separators[i];
        # children[-1] holds the rest.  len(children) == len(separators) + 1.
        self.separators: List[_OrderKey] = []
        self.children: List[Any] = []


@dataclass(frozen=True)
class KeyBound:
    """One end of a key range: a value plus inclusivity."""

    value: Any
    inclusive: bool = True


class BTreeIndex:
    """A B+-tree mapping keys to RIDs with ordered and range iteration."""

    def __init__(self, fanout: int = 64) -> None:
        if fanout < 4:
            raise BTreeError(f"fanout must be >= 4, got {fanout}")
        self._fanout = fanout
        self._root: Any = _LeafNode()
        self._height = 1
        self._size = 0
        self._next_seq = 0

    @property
    def fanout(self) -> int:
        """Maximum entries (leaf) / children (interior) per node."""
        return self._fanout

    @property
    def height(self) -> int:
        """Number of levels including the leaf level."""
        return self._height

    def __len__(self) -> int:
        """Number of stored entries."""
        return self._size

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, key: Any, rid: RID) -> None:
        """Insert an entry; duplicates of ``key`` keep insertion order."""
        order_key = (key, self._next_seq)
        self._next_seq += 1
        split = self._insert_into(self._root, order_key, rid)
        if split is not None:
            separator, new_child = split
            new_root = _InteriorNode()
            new_root.separators = [separator]
            new_root.children = [self._root, new_child]
            self._root = new_root
            self._height += 1
        self._size += 1

    def _insert_into(
        self, node: Any, order_key: _OrderKey, rid: RID
    ) -> Optional[Tuple[_OrderKey, Any]]:
        """Insert recursively; return ``(separator, right_sibling)`` on split."""
        if isinstance(node, _LeafNode):
            pos = bisect_right(node.order_keys, order_key)
            node.order_keys.insert(pos, order_key)
            node.rids.insert(pos, rid)
            if len(node.order_keys) > self._fanout:
                return self._split_leaf(node)
            return None

        child_pos = bisect_right(node.separators, order_key)
        split = self._insert_into(node.children[child_pos], order_key, rid)
        if split is None:
            return None
        separator, new_child = split
        node.separators.insert(child_pos, separator)
        node.children.insert(child_pos + 1, new_child)
        if len(node.children) > self._fanout:
            return self._split_interior(node)
        return None

    def _split_leaf(self, leaf: _LeafNode) -> Tuple[_OrderKey, _LeafNode]:
        mid = len(leaf.order_keys) // 2
        right = _LeafNode()
        right.order_keys = leaf.order_keys[mid:]
        right.rids = leaf.rids[mid:]
        del leaf.order_keys[mid:]
        del leaf.rids[mid:]
        right.next_leaf = leaf.next_leaf
        leaf.next_leaf = right
        return right.order_keys[0], right

    def _split_interior(
        self, node: _InteriorNode
    ) -> Tuple[_OrderKey, _InteriorNode]:
        mid = len(node.separators) // 2
        separator = node.separators[mid]
        right = _InteriorNode()
        right.separators = node.separators[mid + 1:]
        right.children = node.children[mid + 1:]
        del node.separators[mid:]
        del node.children[mid + 1:]
        return separator, right

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    @property
    def _min_fill(self) -> int:
        """Minimum entries (leaf) / children (interior) in non-root nodes."""
        return self._fanout // 2

    def delete(self, key: Any, rid: RID) -> None:
        """Remove one entry matching ``(key, rid)``.

        With duplicate keys pointing at the same RID, the earliest-inserted
        match is removed.  Raises :class:`BTreeError` when no entry
        matches.  Underflowing nodes borrow from or merge with siblings,
        keeping the tree balanced (uniform depth, minimum fill).
        """
        if not self._delete_from(self._root, key, rid):
            raise BTreeError(f"no entry ({key!r}, {rid}) in the index")
        # Collapse a root that lost all separators.
        while (
            isinstance(self._root, _InteriorNode)
            and len(self._root.children) == 1
        ):
            self._root = self._root.children[0]
            self._height -= 1
        self._size -= 1

    def _key_child_span(self, node: _InteriorNode, key: Any):
        """Child indexes that may hold entries with ``key``."""
        lo = bisect_right(node.separators, (key, -1))
        hi = bisect_right(node.separators, (key, self._next_seq))
        return range(lo, hi + 1)

    def _delete_from(self, node: Any, key: Any, rid: RID) -> bool:
        if isinstance(node, _LeafNode):
            lo = bisect_left(node.order_keys, (key, -1))
            hi = bisect_right(node.order_keys, (key, self._next_seq))
            for i in range(lo, hi):
                if node.rids[i] == rid:
                    del node.order_keys[i]
                    del node.rids[i]
                    return True
            return False

        for child_index in self._key_child_span(node, key):
            child = node.children[child_index]
            if self._delete_from(child, key, rid):
                self._rebalance(node, child_index)
                return True
        return False

    def _node_size(self, node: Any) -> int:
        if isinstance(node, _LeafNode):
            return len(node.order_keys)
        return len(node.children)

    def _rebalance(self, parent: _InteriorNode, index: int) -> None:
        """Fix a possibly underflowing ``parent.children[index]``."""
        child = parent.children[index]
        if self._node_size(child) >= self._min_fill:
            return
        if index > 0 and self._node_size(
            parent.children[index - 1]
        ) > self._min_fill:
            self._borrow_from_left(parent, index)
        elif index + 1 < len(parent.children) and self._node_size(
            parent.children[index + 1]
        ) > self._min_fill:
            self._borrow_from_right(parent, index)
        elif index > 0:
            self._merge_children(parent, index - 1)
        elif index + 1 < len(parent.children):
            self._merge_children(parent, index)
        # A root with a single child is collapsed by delete().

    def _borrow_from_left(self, parent: _InteriorNode, index: int) -> None:
        left = parent.children[index - 1]
        child = parent.children[index]
        if isinstance(child, _LeafNode):
            child.order_keys.insert(0, left.order_keys.pop())
            child.rids.insert(0, left.rids.pop())
            parent.separators[index - 1] = child.order_keys[0]
        else:
            # Rotate through the separator.
            child.separators.insert(0, parent.separators[index - 1])
            child.children.insert(0, left.children.pop())
            parent.separators[index - 1] = left.separators.pop()

    def _borrow_from_right(self, parent: _InteriorNode, index: int) -> None:
        right = parent.children[index + 1]
        child = parent.children[index]
        if isinstance(child, _LeafNode):
            child.order_keys.append(right.order_keys.pop(0))
            child.rids.append(right.rids.pop(0))
            parent.separators[index] = right.order_keys[0]
        else:
            child.separators.append(parent.separators[index])
            child.children.append(right.children.pop(0))
            parent.separators[index] = right.separators.pop(0)

    def _merge_children(self, parent: _InteriorNode, left_index: int) -> None:
        """Merge ``children[left_index + 1]`` into ``children[left_index]``."""
        left = parent.children[left_index]
        right = parent.children[left_index + 1]
        if isinstance(left, _LeafNode):
            left.order_keys.extend(right.order_keys)
            left.rids.extend(right.rids)
            left.next_leaf = right.next_leaf
        else:
            left.separators.append(parent.separators[left_index])
            left.separators.extend(right.separators)
            left.children.extend(right.children)
        del parent.separators[left_index]
        del parent.children[left_index + 1]

    # ------------------------------------------------------------------
    # Search and iteration
    # ------------------------------------------------------------------
    def _leftmost_leaf(self) -> _LeafNode:
        node = self._root
        while isinstance(node, _InteriorNode):
            node = node.children[0]
        return node

    def _find_leaf(self, order_key: _OrderKey) -> _LeafNode:
        node = self._root
        while isinstance(node, _InteriorNode):
            node = node.children[bisect_right(node.separators, order_key)]
        return node

    def items(self) -> Iterator[Tuple[Any, RID]]:
        """All ``(key, rid)`` entries in key order (full index scan)."""
        leaf: Optional[_LeafNode] = self._leftmost_leaf()
        while leaf is not None:
            for (key, _seq), rid in zip(leaf.order_keys, leaf.rids):
                yield key, rid
            leaf = leaf.next_leaf

    def range(
        self,
        start: Optional[KeyBound] = None,
        stop: Optional[KeyBound] = None,
    ) -> Iterator[Tuple[Any, RID]]:
        """Entries with keys in the given range, in key order.

        ``start``/``stop`` of ``None`` mean unbounded on that side, so
        ``range()`` is a full index scan.
        """
        if start is None:
            leaf: Optional[_LeafNode] = self._leftmost_leaf()
            pos = 0
        else:
            # Inclusive start: seek the first entry with key >= value, i.e.
            # order key >= (value, -1).  Exclusive: first key > value, i.e.
            # order key > (value, max_seq).
            if start.inclusive:
                probe: _OrderKey = (start.value, -1)
                leaf = self._find_leaf(probe)
                pos = bisect_left(leaf.order_keys, probe)
            else:
                probe = (start.value, self._next_seq)
                leaf = self._find_leaf(probe)
                pos = bisect_right(leaf.order_keys, probe)
            if pos >= len(leaf.order_keys):
                leaf = leaf.next_leaf
                pos = 0

        while leaf is not None:
            order_keys = leaf.order_keys
            rids = leaf.rids
            for i in range(pos, len(order_keys)):
                key = order_keys[i][0]
                if stop is not None:
                    if stop.inclusive:
                        if key > stop.value:
                            return
                    elif key >= stop.value:
                        return
                yield key, rids[i]
            leaf = leaf.next_leaf
            pos = 0

    def search(self, key: Any) -> List[RID]:
        """All RIDs stored under exactly ``key`` (insertion order)."""
        return [
            rid
            for _key, rid in self.range(KeyBound(key, True), KeyBound(key, True))
        ]

    def leaf_count(self) -> int:
        """Number of leaf nodes (index 'pages' at the leaf level)."""
        return sum(1 for _ in self._iter_leaves())

    def range_with_leaves(
        self,
        start: Optional[KeyBound] = None,
        stop: Optional[KeyBound] = None,
    ) -> Iterator[Tuple[int, Any, RID]]:
        """Like :meth:`range`, but also yields a leaf ordinal per entry.

        The ordinal identifies which leaf node (index page) the entry lives
        on, numbering leaves left to right.  Used by the executor to charge
        index-page I/O: a range scan touches one run of consecutive leaves.
        Ordinals are recomputed per call (O(height) amortized via the leaf
        chain), so they stay correct across inserts.
        """
        ordinals: dict = {}
        for i, leaf in enumerate(self._iter_leaves()):
            ordinals[id(leaf)] = i

        if start is None:
            leaf: Optional[_LeafNode] = self._leftmost_leaf()
            pos = 0
        else:
            if start.inclusive:
                probe: _OrderKey = (start.value, -1)
                leaf = self._find_leaf(probe)
                pos = bisect_left(leaf.order_keys, probe)
            else:
                probe = (start.value, self._next_seq)
                leaf = self._find_leaf(probe)
                pos = bisect_right(leaf.order_keys, probe)
            if pos >= len(leaf.order_keys):
                leaf = leaf.next_leaf
                pos = 0

        while leaf is not None:
            ordinal = ordinals[id(leaf)]
            order_keys = leaf.order_keys
            rids = leaf.rids
            for i in range(pos, len(order_keys)):
                key = order_keys[i][0]
                if stop is not None:
                    if stop.inclusive:
                        if key > stop.value:
                            return
                    elif key >= stop.value:
                        return
                yield ordinal, key, rids[i]
            leaf = leaf.next_leaf
            pos = 0

    def keys(self) -> Iterator[Any]:
        """Distinct keys in ascending order."""
        previous_set = False
        previous: Any = None
        for key, _rid in self.items():
            if not previous_set or key != previous:
                yield key
                previous = key
                previous_set = True

    def leaves(self) -> Iterator[Tuple[List[_OrderKey], List[RID]]]:
        """Each leaf's ``(order_keys, rids)`` lists, left to right.

        ``order_keys[i]`` is the ``(key, seq)`` of ``rids[i]``.  The lists
        are the tree's own, not copies: read them, never change them.
        Whole-index statistics walk these instead of :meth:`items`, so
        they make no per-entry objects and step no per-entry generator.
        """
        for leaf in self._iter_leaves():
            yield leaf.order_keys, leaf.rids

    def distinct_key_count(self) -> int:
        """The paper's ``I``: number of distinct key values in the index.

        One walk over the leaves, counting key changes as :meth:`keys`
        yields them.
        """
        count = 0
        previous: Any = object()  # unequal to every key
        for order_keys, _rids in self.leaves():
            for key, _seq in order_keys:
                if key != previous:
                    count += 1
                    previous = key
        return count

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by the property tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`BTreeError` if any structural invariant is broken."""
        leaf_depths: List[int] = []
        self._validate_node(self._root, None, None, 1, leaf_depths)
        if len(set(leaf_depths)) > 1:
            raise BTreeError(f"leaves at differing depths: {set(leaf_depths)}")
        if leaf_depths and leaf_depths[0] != self._height:
            raise BTreeError(
                f"height {self._height} does not match leaf depth "
                f"{leaf_depths[0]}"
            )
        # Leaf chain must visit exactly the sorted entries.
        chained = [ok for leaf in self._iter_leaves() for ok in leaf.order_keys]
        if chained != sorted(chained):
            raise BTreeError("leaf chain is not globally sorted")
        if len(chained) != self._size:
            raise BTreeError(
                f"size {self._size} != entries reachable via leaf chain "
                f"{len(chained)}"
            )

    def _iter_leaves(self) -> Iterator[_LeafNode]:
        leaf: Optional[_LeafNode] = self._leftmost_leaf()
        while leaf is not None:
            yield leaf
            leaf = leaf.next_leaf

    def _validate_node(
        self,
        node: Any,
        lo: Optional[_OrderKey],
        hi: Optional[_OrderKey],
        depth: int,
        leaf_depths: List[int],
    ) -> None:
        if isinstance(node, _LeafNode):
            if node.order_keys != sorted(node.order_keys):
                raise BTreeError("leaf entries out of order")
            for order_key in node.order_keys:
                if lo is not None and order_key < lo:
                    raise BTreeError(f"leaf entry {order_key} below bound {lo}")
                if hi is not None and order_key >= hi:
                    raise BTreeError(f"leaf entry {order_key} >= bound {hi}")
            leaf_depths.append(depth)
            return
        if len(node.children) != len(node.separators) + 1:
            raise BTreeError("interior child/separator arity mismatch")
        if node.separators != sorted(node.separators):
            raise BTreeError("interior separators out of order")
        bounds = [lo, *node.separators, hi]
        for child, (child_lo, child_hi) in zip(
            node.children, zip(bounds[:-1], bounds[1:])
        ):
            self._validate_node(child, child_lo, child_hi, depth + 1, leaf_depths)
