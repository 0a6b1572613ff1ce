import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import any_kind_valuations
from oracles import (
    demand_by_scan,
    index_list,
    is_monotone_normalized,
    is_subadditive,
    proxy_by_enumeration,
    selection_key,
    value_by_definition,
)
from proxyauction.errors import CapacityError, MalformedValuationError, ParameterError
from proxyauction.valuations import (
    TABLE_CAP,
    AdditiveValuation,
    CoverageValuation,
    ExplicitValuation,
    Instance,
    ProxyValuation,
    UnitDemandValuation,
    XOSValuation,
)

S01 = 0b11

weights_st = st.lists(
    st.fractions(min_value=0, max_value=10, max_denominator=4), min_size=1, max_size=6
)


# -- value queries ----------------------------------------------------------


def test_additive_value():
    v = AdditiveValuation([3, 5])
    assert v.value(S01) == 8
    assert v.value(0) == 0


def test_unit_demand_value():
    v = UnitDemandValuation([2, 1])
    assert v.value(S01) == 2
    assert v.value(0) == 0


def test_xos_value_is_best_clause():
    v = XOSValuation(3, [[1, 0, 2], [0, 3, 0]])
    assert v.value(0b101) == 3
    assert v.value(0b110) == 3  # clause 2 gives 3, clause 1 gives 2
    assert v.value(0) == 0


def test_coverage_value_counts_each_element_once():
    v = CoverageValuation([2, 5], covers=[[0], [0, 1], [1]])
    assert v.value(0b11) == 7
    assert v.value(0b1) == 2
    assert v.value(0b111) == 7


@pytest.mark.parametrize("mask", [-1, 1 << 3])
def test_value_queries_refuse_a_mask_outside_the_universe(mask):
    base = AdditiveValuation([1, 2, 3])
    for v in (base, ProxyValuation(base, F(1, 2))):
        with pytest.raises(MalformedValuationError, match="outside the 3-item universe"):
            v.value(mask)
    assert base.counter.value_queries == base.counter.proxy_value_queries == 0


def test_explicit_requires_full_table():
    with pytest.raises(MalformedValuationError):
        ExplicitValuation(2, {0: 0, 1: 1, 2: 1})  # missing {0,1}
    with pytest.raises(MalformedValuationError):
        AdditiveValuation([-1])


@given(any_kind_valuations())
@settings(max_examples=200, deadline=None)
def test_value_table_matches_the_definition(v):
    values, den = v.value_table
    for mask in range(1 << v.m):
        expected = value_by_definition(v, mask)
        assert v._value(mask) == expected
        assert F(values[mask], den) == expected


# -- proxies ----------------------------------------------------------------


def test_proxy_additive_is_linear():
    pv = ProxyValuation(AdditiveValuation([3, 5]), F(1, 2))
    assert pv.value(S01) == 4
    assert pv.value(0) == 0


def test_proxy_unit_demand_survival_formula():
    # enumerating the four survivor sets of {0,1}: (0 + 2 + 1 + 2) / 4
    pv = ProxyValuation(UnitDemandValuation([2, 1]), F(1, 2))
    assert pv.value(S01) == F(5, 4)


@given(weights_st, st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_proxy_closed_forms_match_enumeration(weights, inv_c):
    c = F(1, inv_c)
    m = len(weights)
    for base in (AdditiveValuation(weights), UnitDemandValuation(weights)):
        pv = ProxyValuation(base, c)
        for mask in range(1 << m):
            assert pv._value(mask) == proxy_by_enumeration(base, mask, c)


def test_proxy_of_xos_and_coverage_matches_enumeration():
    rng = random.Random(5)
    xos = XOSValuation(4, [[rng.randint(0, 6) for _ in range(4)] for _ in range(3)])
    cov = CoverageValuation(
        [rng.randint(0, 5) for _ in range(5)],
        [[e for e in range(5) if rng.random() < 0.5] for _ in range(4)],
    )
    for v in (xos, cov):
        pv = ProxyValuation(v, F(1, 3))
        for mask in range(1 << 4):
            assert pv._value(mask) == proxy_by_enumeration(v, mask, F(1, 3))


def test_proxy_with_c_one_is_identity():
    rng = random.Random(9)
    table = {mask: rng.randint(0, 9) for mask in range(8)}
    table[0] = 0
    v = ExplicitValuation(3, table)
    pv = ProxyValuation(v, 1)
    for mask in range(8):
        assert pv._value(mask) == v._value(mask)


def test_proxy_requires_reciprocal_integer():
    with pytest.raises(ParameterError):
        ProxyValuation(AdditiveValuation([1]), F(2, 3))
    with pytest.raises(ParameterError):
        ProxyValuation(AdditiveValuation([1]), 0)


def test_proxy_enumeration_cap():
    v = XOSValuation(25, [[1] * 25])
    pv = ProxyValuation(v, F(1, 2))
    with pytest.raises(CapacityError) as info:
        pv.value((1 << 25) - 1)
    assert (info.value.what, info.value.required, info.value.cap) == (
        "value table over all bundles", 1 << 25, 1 << TABLE_CAP,
    )


def test_proxy_table_cap_bounds_the_universe_not_the_bundle():
    # the table covers all 2^m bundles, so even a one-item bundle needs m <= TABLE_CAP
    m = TABLE_CAP + 1
    pv = ProxyValuation(XOSValuation(m, [[1] * m]), F(1, 2))
    with pytest.raises(CapacityError) as info:
        pv.value(1)
    assert (info.value.required, info.value.cap) == (1 << m, 1 << TABLE_CAP)
    with pytest.raises(CapacityError):
        pv.demand([0] * m)
    # every kind reads the same table, so additive and unit-demand bases are capped too
    for base in (AdditiveValuation([1] * m), UnitDemandValuation([1] * m)):
        with pytest.raises(CapacityError):
            ProxyValuation(base, F(1, 2)).value(0b11111)


fractions_st = st.fractions(min_value=0, max_value=10, max_denominator=6)
keep_st = st.sampled_from([F(1), F(1, 2), F(1, 3), F(1, 190)])


@st.composite
def table_valuations(draw):
    """An XOS, coverage or explicit valuation over m <= 6 items.

    Explicit tables are arbitrary, so v(empty) may be nonzero and the table
    need not be monotone.
    """
    m = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["xos", "coverage", "explicit"]))
    if kind == "xos":
        clause = st.lists(fractions_st, min_size=m, max_size=m)
        return XOSValuation(m, draw(st.lists(clause, min_size=1, max_size=3)))
    if kind == "coverage":
        elements = draw(st.lists(fractions_st, min_size=1, max_size=5))
        covers = draw(
            st.lists(
                st.lists(st.integers(0, len(elements) - 1), max_size=len(elements)),
                min_size=m,
                max_size=m,
            )
        )
        return CoverageValuation(elements, covers)
    values = draw(st.lists(fractions_st, min_size=1 << m, max_size=1 << m))
    return ExplicitValuation(m, dict(enumerate(values)))


@given(table_valuations(), keep_st)
@settings(max_examples=150, deadline=None)
def test_proxy_table_matches_enumeration(v, c):
    pv = ProxyValuation(v, c)
    for mask in range(1 << v.m):
        assert pv._value(mask) == proxy_by_enumeration(v, mask, c)


def test_proxy_table_keeps_a_nonzero_empty_value():
    v = ExplicitValuation(2, {0: 3, 1: 1, 2: 0, 3: 5})
    pv = ProxyValuation(v, F(1, 2))
    assert pv.value(0) == 3
    assert pv.value(S01) == F(3 + 1 + 0 + 5, 4)


def test_proxy_dominates_scaled_value_exhaustive_small():
    rng = random.Random(3)
    table = {mask: rng.randint(0, 8) for mask in range(1 << 4)}
    table[0] = 0
    from proxyauction.generators import repair_monotone_subadditive

    v = ExplicitValuation(4, repair_monotone_subadditive({k: F(x) for k, x in table.items()}, 4))
    for inv_c in (1, 2, 3, 4):
        c = F(1, inv_c)
        pv = ProxyValuation(v, c)
        for mask in range(1 << 4):
            assert pv._value(mask) >= c * v._value(mask)


# -- demand queries ---------------------------------------------------------


def test_additive_demand_keeps_positive_margins():
    v = AdditiveValuation([3, 5])
    assert v.demand([4, 1]) == 0b10
    assert v.demand([3, 5]) == 0  # zero margins are dropped


def test_zero_prices_take_everything_when_strictly_monotone():
    v = AdditiveValuation([3, 5])
    assert v.demand([0, 0]) == 0b11


def test_unit_demand_demand_frozen_example():
    # profits: {} 0, {0} 1/2, {1} 4/5, {0,1} 3/10 -> {1}
    v = UnitDemandValuation([2, 1])
    assert v.demand([F(3, 2), F(1, 5)]) == 0b10


@given(weights_st, st.data())
@settings(max_examples=40, deadline=None)
def test_demand_matches_full_scan(weights, data):
    m = len(weights)
    prices = data.draw(
        st.lists(
            st.fractions(min_value=0, max_value=10, max_denominator=4),
            min_size=m,
            max_size=m,
        )
    )
    for v in (AdditiveValuation(weights), UnitDemandValuation(weights)):
        assert v.demand(prices) == demand_by_scan(v, prices)


def test_proxy_demand_matches_scan():
    rng = random.Random(11)
    xos = XOSValuation(4, [[rng.randint(0, 6) for _ in range(4)] for _ in range(2)])
    pv = ProxyValuation(xos, F(1, 2))
    prices = [F(rng.randint(0, 3), 2) for _ in range(4)]
    assert pv.demand(prices) == demand_by_scan(pv, prices)
    pa = ProxyValuation(AdditiveValuation([3, 5, 1, 0]), F(1, 2))
    assert pa.demand(prices) == demand_by_scan(pa, prices)


@st.composite
def tie_prices(draw, v):
    """Prices for v's items, mixing zeros, small rationals and item values.

    Zero prices and prices equal to singleton values make many bundles tie,
    including with the empty bundle, so the tie-break decides the answer.
    """
    pool = st.sampled_from([F(0), *(v._value(1 << j) for j in range(v.m))])
    other = st.fractions(min_value=0, max_value=4, max_denominator=3)
    return [draw(st.one_of(pool, other)) for _ in range(v.m)]


@given(table_valuations(), keep_st, st.data())
@settings(max_examples=150, deadline=None)
def test_demand_matches_scan_oracle_with_ties(v, c, data):
    pv = ProxyValuation(v, c)
    for w in (v, pv):
        prices = data.draw(tie_prices(w))
        assert w.demand(prices) == demand_by_scan(w, prices)


@st.composite
def tied_demands(draw):
    """A valuation and prices drawn from few distinct values, so profits tie.

    Weights are zero or equal, explicit tables repeat a handful of values,
    and every price is zero or one shared level.
    """
    m = draw(st.integers(min_value=2, max_value=5))
    level = st.sampled_from([F(0), F(1), F(2)])
    kind = draw(st.sampled_from(["additive", "unit-demand", "xos", "explicit"]))
    if kind == "additive":
        v = AdditiveValuation(draw(st.lists(level, min_size=m, max_size=m)))
    elif kind == "unit-demand":
        v = UnitDemandValuation(draw(st.lists(level, min_size=m, max_size=m)))
    elif kind == "xos":
        clause = st.lists(level, min_size=m, max_size=m)
        v = XOSValuation(m, draw(st.lists(clause, min_size=1, max_size=3)))
    else:
        values = draw(st.lists(st.sampled_from([F(0), F(1), F(2), F(3)]), min_size=1 << m,
                               max_size=1 << m))
        v = ExplicitValuation(m, dict(enumerate(values)))
    price = draw(st.sampled_from([F(0), F(1), F(1, 2)]))
    prices = [draw(st.sampled_from([F(0), price])) for _ in range(m)]
    return v, prices


@given(tied_demands())
@settings(max_examples=200, deadline=None)
def test_demand_returns_the_tied_bundle_with_the_least_selection_key(drawn):
    v, prices = drawn
    profits = {0: F(0)}  # the empty bundle earns zero, whatever v(empty)
    for mask in range(1, 1 << v.m):
        profits[mask] = v._value(mask) - sum((prices[j] for j in index_list(mask)), F(0))
    best = max(profits.values())
    tied = [mask for mask, profit in profits.items() if profit == best]
    assert v.demand(prices) == min(tied, key=selection_key)


@given(weights_st, keep_st, st.data())
@settings(max_examples=60, deadline=None)
def test_closed_form_proxy_demand_matches_scan_oracle(weights, c, data):
    for base in (AdditiveValuation(weights), UnitDemandValuation(weights)):
        pv = ProxyValuation(base, c)
        prices = data.draw(tie_prices(pv))
        assert pv.demand(prices) == demand_by_scan(pv, prices)


def test_demand_ties_go_to_fewest_items_then_lexicographic():
    def table(values):
        return ExplicitValuation(4, {mask: values.get(mask, 0) for mask in range(16)})

    prices = [1, 1, 1, 1]
    # {0,1} (mask 3), {2} and {3} each earn 2: fewest items, then {2} before {3}
    v = table({0b0011: 4, 0b0100: 3, 0b1000: 3})
    assert v.demand(prices) == 0b100
    # {1,2} (mask 6) and {0,3} (mask 9) each earn 2: (0, 3) < (1, 2)
    v = table({0b0110: 4, 0b1001: 4})
    assert v.demand(prices) == 0b1001
    # nothing beats the empty bundle's zero profit, even with v(empty) > 0
    v = table({0: 5, 0b0001: 1})
    assert v.demand(prices) == 0


def test_demand_scan_cap():
    v = XOSValuation(22, [[1] * 22])
    with pytest.raises(CapacityError):
        v.demand([0] * 22)


def test_demand_validates_prices():
    v = AdditiveValuation([1, 2])
    with pytest.raises(ParameterError):
        v.demand([1])
    for negative in (-1, F(-1, 3), "-1/3"):
        with pytest.raises(ParameterError):
            v.demand([1, negative])
    assert v.demand([0, F(0)]) == 0b11  # zero is not negative


def test_demand_reads_fraction_int_and_str_prices_alike():
    v = XOSValuation(3, [[3, 1, 2], [1, 4, 1]])
    answers = []
    for prices in ([F(2), F(1), F(1, 2)], [2, 1, F(1, 2)], ["2", "1", "1/2"]):
        before = (v.counter.demand_queries, v.counter.value_queries)
        answers.append(v.demand(prices))
        assert (v.counter.demand_queries, v.counter.value_queries) == (before[0] + 1, before[1])
    assert answers == [0b110] * 3


# -- structural checks -------------------------------------------------------


def test_builtin_kinds_are_subadditive_monotone_normalized():
    rng = random.Random(7)
    vals = [
        AdditiveValuation([rng.randint(0, 9) for _ in range(5)]),
        UnitDemandValuation([rng.randint(0, 9) for _ in range(5)]),
        XOSValuation(5, [[rng.randint(0, 9) for _ in range(5)] for _ in range(3)]),
        CoverageValuation(
            [rng.randint(0, 9) for _ in range(6)],
            [[e for e in range(6) if rng.random() < 0.5] for _ in range(5)],
        ),
    ]
    for v in vals:
        ok, witness = is_subadditive(v)
        assert ok, witness
        ok, witness = is_monotone_normalized(v)
        assert ok, witness


def test_builtin_kinds_pass_checks_at_the_ten_item_bound():
    rng = random.Random(17)
    vals = [
        AdditiveValuation([rng.randint(0, 9) for _ in range(10)]),
        CoverageValuation(
            [rng.randint(0, 9) for _ in range(12)],
            [[e for e in range(12) if rng.random() < 0.4] for _ in range(10)],
        ),
    ]
    for v in vals:
        assert is_subadditive(v)[0]
        assert is_monotone_normalized(v)[0]


def test_subadditivity_counterexample():
    v = ExplicitValuation(2, {0: 0, 1: 1, 2: 1, 3: 3})
    ok, witness = is_subadditive(v)
    assert not ok
    assert witness == (1, 2)


def test_monotone_normalized_counterexamples():
    bad_empty = ExplicitValuation(2, {0: 1, 1: 1, 2: 1, 3: 1})
    ok, why = is_monotone_normalized(bad_empty)
    assert not ok and "empty" in why
    drops = ExplicitValuation(2, {0: 0, 1: 5, 2: 1, 3: 2})
    ok, why = is_monotone_normalized(drops)
    assert not ok


def test_check_caps():
    v = AdditiveValuation([1] * 12)
    with pytest.raises(CapacityError):
        is_subadditive(v, cap=10)


# -- counters and instances ---------------------------------------------------


def test_query_counters():
    v = AdditiveValuation([3, 5])
    v.value(S01)
    v.value(0)
    v.demand([1, 1])
    pv = ProxyValuation(v, F(1, 2))
    pv.value(S01)
    pv.demand([1, 1])
    assert v.counter.value_queries == 2
    assert v.counter.demand_queries == 2  # raw + proxy demand share the bidder's tally
    assert v.counter.proxy_value_queries == 1


def test_instance_validation_and_totals():
    v1, v2 = AdditiveValuation([1, 2]), UnitDemandValuation([2, 2])
    inst = Instance(2, (v1, v2))
    assert inst.n == 2
    v1.value(S01)
    totals = inst.query_totals()
    assert totals["value_queries"] == 1
    with pytest.raises(ParameterError):
        Instance(3, (v1,))
    with pytest.raises(ParameterError):
        Instance(2, ())
