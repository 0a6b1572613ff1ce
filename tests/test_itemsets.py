import pytest
from hypothesis import given, strategies as st

from oracles import index_list, mask_of, selection_key, text_of
from proxyauction.itemsets import bundle_text, items, submasks

masks = st.integers(min_value=0, max_value=(1 << 12) - 1)


def test_basics():
    assert items(0b101) == (0, 2)
    assert items(0) == ()
    assert bundle_text(0b101) == "{0,2}"
    assert bundle_text(0) == "{}"
    for edge in (items, bundle_text):
        with pytest.raises(ValueError, match="nonnegative"):
            edge(-1)


@given(masks)
def test_items_are_ascending_and_rebuild_the_mask(mask):
    got = items(mask)
    assert list(got) == sorted(set(got))
    assert mask_of(got) == mask
    assert list(got) == index_list(mask)


@given(masks)
def test_bundle_text_lists_the_items(mask):
    assert bundle_text(mask) == text_of(mask)


@given(masks, masks)
def test_set_algebra_matches_python_sets(a, b):
    assert set(items(a | b)) == set(items(a)) | set(items(b))
    assert set(items(a & b)) == set(items(a)) & set(items(b))


@given(masks)
def test_submasks_are_exactly_the_subsets(mask):
    subs = list(submasks(mask))
    assert len(subs) == 1 << bin(mask).count("1")
    assert all(sub & mask == sub for sub in subs)
    assert len(set(subs)) == len(subs)


def test_selection_key_orders_by_size_then_lex():
    keys = sorted(selection_key(mask) for mask in range(1 << 3))
    assert keys[0] == (0, ())
    assert keys[1] == (1, (0,))
    # {0,1} sorts before {0,2} sorts before {1,2}
    pairs = [k for k in keys if k[0] == 2]
    assert pairs == [(2, (0, 1)), (2, (0, 2)), (2, (1, 2))]

