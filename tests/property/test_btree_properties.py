"""Property-based tests for the B+-tree: it must behave exactly like a
sorted multiset of (key, insertion-order) pairs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.btree import BTreeIndex, KeyBound
from repro.storage.index import Index
from repro.storage.table import Table
from repro.trace.stats import dc_cluster_count, key_page_spans
from repro.types import RID

keys = st.integers(min_value=0, max_value=30)
key_lists = st.lists(keys, min_size=0, max_size=200)


def _build(key_list, fanout=4):
    tree = BTreeIndex(fanout=fanout)
    for i, key in enumerate(key_list):
        tree.insert(key, RID(i, 0))
    return tree


@given(key_list=key_lists, fanout=st.integers(4, 16))
@settings(max_examples=200)
def test_structure_valid_after_any_insertion_sequence(key_list, fanout):
    tree = _build(key_list, fanout)
    tree.validate()
    assert len(tree) == len(key_list)


@given(key_list=key_lists)
def test_items_sorted_and_stable_within_key(key_list):
    tree = _build(key_list)
    got = [(k, r.page) for k, r in tree.items()]
    # Python's sort is stable, so sorting (key, arrival) models the spec.
    expected = sorted(
        ((k, i) for i, k in enumerate(key_list)), key=lambda kv: kv[0]
    )
    assert got == expected


@given(key_list=key_lists, lo=keys, hi=keys,
       lo_inc=st.booleans(), hi_inc=st.booleans())
@settings(max_examples=200)
def test_range_scan_matches_filter(key_list, lo, hi, lo_inc, hi_inc):
    if hi < lo:
        lo, hi = hi, lo
    tree = _build(key_list)
    got = [k for k, _r in tree.range(KeyBound(lo, lo_inc), KeyBound(hi, hi_inc))]

    def keep(k):
        above = k >= lo if lo_inc else k > lo
        below = k <= hi if hi_inc else k < hi
        return above and below

    expected = sorted(k for k in key_list if keep(k))
    assert got == expected


@given(key_list=key_lists, probe=keys)
def test_search_finds_all_duplicates_in_arrival_order(key_list, probe):
    tree = _build(key_list)
    expected = [i for i, k in enumerate(key_list) if k == probe]
    assert [r.page for r in tree.search(probe)] == expected


@given(key_list=key_lists)
def test_distinct_key_count(key_list):
    tree = _build(key_list)
    assert tree.distinct_key_count() == len(set(key_list))


operations = st.lists(
    st.tuples(st.booleans(), keys), min_size=1, max_size=300
)


@given(ops=operations, fanout=st.integers(4, 8))
@settings(max_examples=150)
def test_insert_delete_fuzz_matches_multiset_model(ops, fanout):
    """Random insert/delete interleaving == a sorted multiset, always."""
    tree = BTreeIndex(fanout=fanout)
    model = {}  # (key, unique page) -> None, modelling live entries
    counter = 0
    for is_delete, key in ops:
        if is_delete and model:
            # Delete some live entry (deterministic pick: smallest).
            victim_key, victim_page = min(model)
            tree.delete(victim_key, RID(victim_page, 0))
            del model[(victim_key, victim_page)]
        else:
            tree.insert(key, RID(counter, 0))
            model[(key, counter)] = None
            counter += 1
    tree.validate()
    assert len(tree) == len(model)
    got = [(k, r.page) for k, r in tree.items()]
    assert sorted(got) == sorted(model)
    # Keys come out sorted regardless of the operation interleaving.
    got_keys = [k for k, _p in got]
    assert got_keys == sorted(got_keys)


# ---------------------------------------------------------------------------
# Leaf-walk statistics against their entry-level definitions
# ---------------------------------------------------------------------------

# Runs of one key, long enough to straddle leaves at every fanout tested.
key_runs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=40),
    ),
    min_size=0,
    max_size=12,
)
walk_ops = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=12)),
    min_size=0,
    max_size=80,
)


def _empty_index(fanout):
    return Index("t.k", Table("t", ("k",), records_per_page=10), "k", fanout)


def _walked_index(runs, ops, fanout, pages):
    """An index built from key runs, then random inserts and deletes."""
    index = _empty_index(fanout)
    live = []
    draws = iter(pages)

    def add(key):
        rid = RID(next(draws, len(live) % 7), len(live) + len(ops))
        index.add(key, rid)
        live.append((key, rid))

    for key, length in runs:
        for _ in range(length):
            add(key)
    for position, (is_delete, key) in enumerate(ops):
        if is_delete and live:
            victim = live.pop(position * 7919 % len(live))
            index.remove(*victim)
        else:
            add(key)
    index.btree.validate()
    return index


def _reference_dc(index, count_first_key):
    spans = key_page_spans(index)
    if not spans:
        return 0
    cc = 1 if count_first_key else 0
    for (_k1, _f1, last_prev), (_k2, first_next, _l2) in zip(
        spans, spans[1:]
    ):
        if first_next >= last_prev:
            cc += 1
    return cc


def _assert_walks_match_definitions(index):
    entries = list(index.entries())
    assert index.page_sequence() == [e.rid.page for e in entries]
    assert all(type(page) is int for page in index.page_sequence())
    assert index.distinct_key_count() == len(key_page_spans(index))
    assert index.distinct_key_count() == len({e.key for e in entries})
    for count_first_key in (True, False):
        assert dc_cluster_count(index, count_first_key) == _reference_dc(
            index, count_first_key
        )


@given(
    runs=key_runs,
    ops=walk_ops,
    fanout=st.integers(4, 16),
    pages=st.lists(st.integers(0, 9), max_size=300),
)
@settings(max_examples=150)
def test_leaf_walks_match_entry_definitions(runs, ops, fanout, pages):
    _assert_walks_match_definitions(
        _walked_index(runs, ops, fanout, pages)
    )


def test_leaf_walks_on_empty_and_single_entry_trees():
    empty = _empty_index(4)
    assert empty.page_sequence() == []
    assert empty.distinct_key_count() == 0
    assert dc_cluster_count(empty) == 0
    assert dc_cluster_count(empty, count_first_key=False) == 0
    _assert_walks_match_definitions(empty)

    single = _empty_index(4)
    single.add("only", RID(3, 0))
    assert single.page_sequence() == [3]
    assert single.distinct_key_count() == 1
    assert dc_cluster_count(single) == 1
    assert dc_cluster_count(single, count_first_key=False) == 0
    _assert_walks_match_definitions(single)


def test_leaf_walks_after_deleting_everything():
    index = _walked_index([(5, 30)], [(True, 0)] * 30, 4, [])
    assert len(index.btree) == 0
    _assert_walks_match_definitions(index)
