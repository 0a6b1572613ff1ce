from hypothesis import given, strategies as st

from oracles import selection_key
from proxyauction.itemsets import EMPTY_SET, ItemSet, submasks

masks = st.integers(min_value=0, max_value=(1 << 12) - 1)


def test_basics():
    s = ItemSet.from_indices([0, 2])
    assert len(s) == 2
    assert 0 in s and 2 in s and 1 not in s
    assert s.indices() == (0, 2)
    assert repr(s) == "{0,2}"
    assert not EMPTY_SET


def test_equality_is_by_membership():
    assert ItemSet.from_indices([1, 3]) == ItemSet(0b1010)
    assert hash(ItemSet(5)) == hash(ItemSet.from_indices([0, 2]))
    assert ItemSet(5) != ItemSet(6)


@given(masks, masks)
def test_set_algebra_matches_python_sets(a, b):
    sa, sb = ItemSet(a), ItemSet(b)
    assert set(sa | sb) == set(sa) | set(sb)


@given(masks)
def test_submasks_are_exactly_the_subsets(mask):
    subs = list(submasks(mask))
    assert len(subs) == 1 << bin(mask).count("1")
    assert all(sub & mask == sub for sub in subs)
    assert len(set(subs)) == len(subs)


def test_selection_key_orders_by_size_then_lex():
    keys = sorted(selection_key(ItemSet(mask)) for mask in range(1 << 3))
    assert keys[0] == (0, ())
    assert keys[1] == (1, (0,))
    # {0,1} sorts before {0,2} sorts before {1,2}
    pairs = [k for k in keys if k[0] == 2]
    assert pairs == [(2, (0, 1)), (2, (0, 2)), (2, (1, 2))]


def test_immutability():
    s = ItemSet(3)
    try:
        s.mask = 5
        raised = False
    except AttributeError:
        raised = True
    assert raised
