"""Unit tests for leaf-aware B-tree iteration (index-page accounting)."""

import pytest

from repro.storage.btree import BTreeIndex, KeyBound
from repro.types import RID


def _tree(entries=200, fanout=8):
    tree = BTreeIndex(fanout=fanout)
    for i in range(entries):
        tree.insert(i, RID(i, 0))
    return tree


class TestLeafCount:
    def test_single_leaf(self):
        tree = _tree(entries=3)
        assert tree.leaf_count() == 1

    def test_leaf_count_grows_with_entries(self):
        small = _tree(entries=10)
        large = _tree(entries=500)
        assert large.leaf_count() > small.leaf_count()

    def test_leaf_count_bounded_by_fill(self):
        tree = _tree(entries=200, fanout=8)
        leaves = tree.leaf_count()
        # Every leaf holds between fanout/2 and fanout entries (roots and
        # freshly split nodes can dip below, hence the slack).
        assert 200 / 8 <= leaves <= 200 / 2


class TestLeaves:
    def test_leaves_concatenate_to_items(self):
        tree = BTreeIndex(fanout=4)
        for i in range(60):
            tree.insert(i % 7, RID(i, 0))
        walked = [
            (key, rid)
            for order_keys, rids in tree.leaves()
            for (key, _seq), rid in zip(order_keys, rids)
        ]
        assert walked == list(tree.items())
        assert len(list(tree.leaves())) == tree.leaf_count()

    def test_empty_tree_has_one_empty_leaf(self):
        assert list(BTreeIndex(fanout=4).leaves()) == [([], [])]


class TestRangeWithLeaves:
    def test_agrees_with_plain_range(self):
        tree = _tree(entries=120)
        plain = list(tree.range(KeyBound(20, True), KeyBound(60, True)))
        with_leaves = list(
            tree.range_with_leaves(KeyBound(20, True), KeyBound(60, True))
        )
        assert [(k, r) for _leaf, k, r in with_leaves] == plain

    def test_leaf_ordinals_are_consecutive(self):
        tree = _tree(entries=300)
        ordinals = [
            leaf for leaf, _k, _r in tree.range_with_leaves()
        ]
        distinct = sorted(set(ordinals))
        assert distinct == list(range(distinct[0], distinct[-1] + 1))
        # Non-decreasing along the scan.
        assert ordinals == sorted(ordinals)

    def test_partial_scan_touches_leaf_run(self):
        tree = _tree(entries=400)
        ordinals = {
            leaf
            for leaf, _k, _r in tree.range_with_leaves(
                KeyBound(100, True), KeyBound(140, True)
            )
        }
        assert len(ordinals) < tree.leaf_count()
        assert sorted(ordinals) == list(
            range(min(ordinals), max(ordinals) + 1)
        )

    def test_exclusive_start(self):
        tree = _tree(entries=50)
        got = [
            k for _leaf, k, _r in tree.range_with_leaves(
                KeyBound(10, False), KeyBound(12, True)
            )
        ]
        assert got == [11, 12]

    def test_empty_tree(self):
        tree = BTreeIndex(fanout=4)
        assert list(tree.range_with_leaves()) == []
        assert tree.leaf_count() == 1  # the (empty) root leaf
