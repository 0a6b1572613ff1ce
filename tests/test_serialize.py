import gc
import json
import math
import time
import weakref
from collections import OrderedDict
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from oracles import canonical_dumps_by_json, outcome_from_dict, solution_from_dict
from proxyauction import serialize
from proxyauction.errors import AuctionError, CapacityError, FormatError
from proxyauction.generators import generate
from proxyauction.lp import FractionalSolution, build_full_lp, solve_exact
from proxyauction.mechanism import MechanismConfig, run
from proxyauction.serialize import (
    VALUE_LENGTH_CAP,
    Filled,
    canonical_dumps,
    config_from_dict,
    config_to_dict,
    format_value,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_json,
    outcome_to_dict,
    parse_value,
    solution_to_dict,
    valuation_from_dict,
    valuation_to_dict,
)
from proxyauction.valuations import (
    INSTANCE_ITEM_CAP,
    ExplicitValuation,
    Instance,
    ProxyValuation,
    UnitDemandValuation,
)


def test_value_strings_are_exact():
    assert format_value(F(5, 2)) == "5/2"
    assert format_value(F(3)) == "3"
    assert parse_value("5/2") == F(5, 2)
    assert parse_value("7") == F(7)
    with pytest.raises(FormatError):
        parse_value("1/0")


@pytest.mark.parametrize("kind", ["additive", "unit-demand", "xos", "coverage", "explicit-subadditive", "mixed"])
def test_instance_round_trip(kind):
    inst = generate(kind, 2, 3, 11)
    data = instance_to_dict(inst)
    back = instance_from_dict(json.loads(canonical_dumps(data)))
    assert instance_to_dict(back) == data
    for v, w in zip(inst.valuations, back.valuations):
        assert all(v._value(mask) == w._value(mask) for mask in range(1 << inst.m))


def test_abnormal_explicit_table_round_trips():
    v = ExplicitValuation(1, {0: F(1, 3), 1: F(1, 7)})  # non-normalized on purpose
    back = valuation_from_dict(valuation_to_dict(v), 1)
    assert back._value(0) == F(1, 3) and back._value(1) == F(1, 7)


def test_a_proxy_is_not_written_to_an_instance_file():
    proxy = ProxyValuation(UnitDemandValuation([1, 2]), F(1, 2))
    with pytest.raises(AuctionError, match="'proxy' valuations are derived"):
        valuation_to_dict(proxy)


def test_explicit_missing_entry_rejected():
    with pytest.raises(FormatError):
        valuation_from_dict({"kind": "explicit", "values": {"0": "1"}}, 2)


def test_doubled_bundle_keys_are_the_key_of_each_mask():
    for m in range(11):
        assert serialize._bundle_keys(m) == [serialize._bundle_key(mask) for mask in range(1 << m)]


def test_a_large_explicit_stub_names_its_first_missing_bundle_at_once():
    # 2^40 - 1 bundles: building every key first would not finish
    stub = {"kind": "explicit", "values": {"0": "1", "1": "1", "0,1": "2"}}
    start = time.perf_counter()
    with pytest.raises(FormatError, match=r"explicit table missing bundle \{2\}"):
        valuation_from_dict(stub, 40)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("stray", ["1,0", "2", "0,0", "banana", "00", " 0", "0,1,", ","])
def test_an_explicit_key_that_names_no_bundle_is_refused(stray):
    # "1,0" names {0,1} out of order: read as before, its 50 was silently lost
    values = {"": "0", "0": "1", "1": "1", "0,1": "2"}
    assert valuation_from_dict({"kind": "explicit", "values": values}, 2)._value(0b11) == 2
    with pytest.raises(FormatError, match=f"explicit table key {stray!r} names no bundle"):
        valuation_from_dict({"kind": "explicit", "values": {**values, stray: "50"}}, 2)


def test_a_key_repeated_in_one_object_is_refused(tmp_path):
    # json keeps a repeated key's last value: the first "0,1" would be silently lost
    good = '{"schema": "auction-instance/1", "m": 2, "bidders": [{"kind": "explicit", '
    path = tmp_path / "repeated.json"
    path.write_text(good + '"values": {"0": "1", "1": "1", "0,1": "2"}}]}')
    assert load_instance(path).valuations[0]._value(0b11) == 2
    path.write_text(good + '"values": {"0": "1", "1": "1", "0,1": "2", "0,1": "50"}}]}')
    with pytest.raises(FormatError, match="key '0,1' repeated in one object"):
        load_instance(path)
    # at any depth, the top level included
    path.write_text('{"m": 2, "schema": "auction-instance/1", "m": 3}')
    with pytest.raises(FormatError, match="key 'm' repeated in one object"):
        load_json(path)


def test_instance_schema_enforced():
    with pytest.raises(FormatError):
        instance_from_dict({"schema": "something-else", "m": 1, "bidders": []})


@pytest.mark.parametrize("m", [True, 1.0, "1", None, 0])
def test_item_count_must_be_a_positive_json_integer(m):
    bidders = [{"kind": "additive", "weights": ["1"]}]
    data = {"schema": "auction-instance/1", "m": 1, "bidders": bidders}
    assert instance_from_dict(data).m == 1
    with pytest.raises(FormatError, match="bad item count"):
        instance_from_dict({**data, "m": m})


def test_an_item_count_past_the_cap_is_refused_before_any_valuation():
    # 15,000 items: 2^m has more digits than an int may print, so the value
    # table's cap could not word its error; the item cap comes first
    for m in (INSTANCE_ITEM_CAP + 1, 15_000):
        data = {"schema": "auction-instance/1", "m": m,
                "bidders": [{"kind": "additive", "weights": ["1"] * m}]}
        with pytest.raises(CapacityError) as caught:
            instance_from_dict(data)
        assert str(caught.value) == f"items of one instance: {m} exceeds the cap of 1000"
    with pytest.raises(CapacityError):
        generate("additive", 1, INSTANCE_ITEM_CAP + 1, 0)
    assert generate("additive", 1, INSTANCE_ITEM_CAP, 0).m == INSTANCE_ITEM_CAP


def test_exact_values_are_json_strings_or_integers():
    weights = {"kind": "additive", "weights": ["1/10", 2]}
    assert valuation_from_dict(weights, 2)._value(0b11) == F(21, 10)
    for bad in ([0.1, True], ["1", True], ["1", 0.5], ["1", None], ["1", "x"]):
        with pytest.raises(FormatError, match="bad exact value"):
            valuation_from_dict({**weights, "weights": bad}, 2)
    with pytest.raises(FormatError, match="bad exact value"):
        valuation_from_dict({"kind": "xos", "clauses": [["1", 1.0]]}, 2)
    with pytest.raises(FormatError, match="bad exact value"):
        valuation_from_dict({"kind": "explicit", "values": {"0": "1", "1": 1.5, "0,1": "2"}}, 2)
    with pytest.raises(FormatError, match="bad exact value"):
        parse_value(False)


@pytest.mark.parametrize(
    "raw, error",
    [
        ("1e5", FormatError),
        ("2E-3", FormatError),
        ("3/1e2", FormatError),
        ("1" * (VALUE_LENGTH_CAP + 1), CapacityError),
        (int("9" * (VALUE_LENGTH_CAP + 1)), CapacityError),
    ],
    ids=["exponent", "upper-exponent", "exponent-denominator", "long-string", "long-integer"],
)
def test_a_refused_value_never_reaches_fraction(raw, error, monkeypatch):
    calls = []
    monkeypatch.setattr(serialize, "Fraction", lambda *args: calls.append(args))
    with pytest.raises(error):
        parse_value(raw)
    assert calls == []


def test_a_value_at_the_length_cap_is_read():
    assert parse_value("1" * VALUE_LENGTH_CAP) == int("1" * VALUE_LENGTH_CAP)
    assert parse_value(-int("9" * (VALUE_LENGTH_CAP - 1))) == -int("9" * (VALUE_LENGTH_CAP - 1))


def test_coverage_covers_list_json_integers():
    coverage = {"kind": "coverage", "element_weights": ["1", "2"], "covers": [[0, 1], []]}
    assert valuation_from_dict(coverage, 2)._value(0b01) == 3
    for covers in ([[True], []], [[0], [1.0]], [[0], ["1"]], [[0], 1]):
        with pytest.raises(FormatError, match="coverage cover"):
            valuation_from_dict({**coverage, "covers": covers}, 2)
    with pytest.raises(FormatError, match="bad exact value"):
        valuation_from_dict({**coverage, "element_weights": ["1", True]}, 2)


def test_an_instance_with_float_or_bool_values_is_refused():
    # the example instance solved before: weights [0.1, true] and a cover [true]
    data = {
        "schema": "auction-instance/1",
        "m": 2,
        "bidders": [
            {"kind": "additive", "weights": [0.1, True]},
            {"kind": "coverage", "element_weights": ["1"], "covers": [[True], []]},
        ],
    }
    with pytest.raises(FormatError):
        instance_from_dict(data)
    data["bidders"][0]["weights"] = ["1/10", 1]
    with pytest.raises(FormatError, match="coverage cover"):
        instance_from_dict(data)
    data["bidders"][1]["covers"] = [[0], []]
    assert instance_from_dict(data).m == 2


@pytest.mark.parametrize("seed", [1.9, True, "12", None])
def test_config_seed_must_be_a_json_integer(seed):
    config = {"c": "1/2", "p": "1/20"}
    assert config_from_dict(config).seed == 0
    assert config_from_dict({**config, "seed": 12}).seed == 12
    with pytest.raises(FormatError, match="seed"):
        config_from_dict({**config, "seed": seed})


def test_solution_round_trip():
    inst = generate("xos", 2, 3, 3)
    sol = solve_exact(build_full_lp(inst))
    back = solution_from_dict(json.loads(canonical_dumps(solution_to_dict(sol))))
    assert back == sol


def test_hand_built_solution_round_trip():
    sol = FractionalSolution(
        n=2, m=2,
        entries={(0, 0b11): F(2, 7), (1, 1): F(1, 3)},
        objective=F(22, 21),
    )
    assert solution_from_dict(solution_to_dict(sol)) == sol


def test_outcome_round_trip():
    inst = Instance(2, (UnitDemandValuation([2, 3]), UnitDemandValuation([1, 1])))
    config = MechanismConfig(c=F(1, 2), p=F(1, 20), seed=4)
    outcome = run(inst, config, with_payments=True)
    back = outcome_from_dict(outcome_to_dict(outcome))
    assert back == outcome


def test_config_round_trip():
    config = MechanismConfig(c=F(1, 3), p=F(1, 8), q_variant="own-items", seed=99)
    assert config_from_dict(config_to_dict(config)) == config
    for malformed in (
        {"c": "0", "p": "1/2"},
        {"c": None, "p": "1/2"},
        "c=1/2",
        {"c": "1e-5000", "p": "1/2"},  # the exponent, not its 5,000 digits, is refused
        {"c": "1/2", "p": 0.5},  # a float is not exact as written
    ):
        with pytest.raises(FormatError):
            config_from_dict(malformed)


def test_canonical_dumps_is_stable():
    a = canonical_dumps({"b": 1, "a": [2, 3]})
    b = canonical_dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")


class Tagged(dict):
    """A dict subclass: encoded as a dict, in sorted-key indented form."""


class Row(list):
    """A list subclass: encoded as a list."""


# text json must escape: quotes, backslashes, control characters, U+2028 and
# U+2029, next to non-ASCII text that ensure_ascii=False writes as is
TRICKY_TEXT = st.text(
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029",
                     "\u00e9", "\u4e2d", "\U0001f600", "a", "/"])
) | st.text()
SCALARS = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, -1, 2**64, -(2**64) - 1, 10**30, True, False])
    | st.integers()
    | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf, 0.1])
    | st.floats()
    | TRICKY_TEXT
)


def _containers(children):
    lists = st.lists(children, max_size=4)
    dicts = st.dictionaries(TRICKY_TEXT, children, max_size=4)
    return (
        lists | lists.map(tuple) | lists.map(Row)
        | dicts | dicts.map(OrderedDict) | dicts.map(Tagged)
    )


JSON_TREES = st.recursive(SCALARS, _containers, max_leaves=20)


@st.composite
def trees_with_shared_parts(draw):
    """A tree holding one list or dict object twice at one depth and again deeper.

    ``pair``, which holds ``shared`` at two depths, is itself met twice, so a
    shared object is written at several indents and none of them is a cycle.
    """
    shared = draw(_containers(JSON_TREES))
    other = draw(JSON_TREES)
    pair = [shared, {"deeper": shared, "other": other}]
    return draw(st.permutations([shared, other, pair, pair, (shared,), Tagged(x=shared)]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(JSON_TREES, trees_with_shared_parts()))
def test_canonical_dumps_matches_json(tree):
    assert canonical_dumps(tree) == canonical_dumps_by_json(tree)


def test_canonical_dumps_writes_a_dict_subclass_as_a_dict():
    tree = OrderedDict([("b", [1, True, 0, False]), ("a", Tagged(z=None, y=()))])
    text = canonical_dumps(tree)
    assert text == canonical_dumps_by_json(tree)
    assert text.startswith('{\n  "a": {\n    "y": [],\n    "z": null\n  },')


def test_canonical_dumps_frees_what_it_held_on_return():
    # its state goes with the call, not at the next garbage collection, so a
    # replications run does not hold every earlier report's text and tree
    tree = Tagged(a=[1, 2])
    held = weakref.ref(tree)
    gc.disable()
    try:
        canonical_dumps([tree, tree, tree])
        del tree
        assert held() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "tree",
    [{"x": F(1, 2)}, [[F(1, 2)]], F(1, 2), object()],
    ids=["fraction-in-dict", "fraction-in-list", "fraction", "object"],
)
def test_canonical_dumps_rejects_what_json_rejects(tree):
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_dumps_by_json(tree)
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_dumps(tree)


def test_canonical_dumps_rejects_a_cycle():
    looped = [1, [2]]
    looped[1].append(looped)
    knotted = {"a": {}}
    knotted["a"]["b"] = knotted
    for tree in (looped, knotted, {"k": [knotted]}):
        with pytest.raises(ValueError, match="Circular reference"):
            canonical_dumps_by_json(tree)
        with pytest.raises(ValueError, match="Circular reference"):
            canonical_dumps(tree)


@st.composite
def trees_with_filled_entries(draw):
    """A list of ``Filled`` entries over a few shared bases, as run's outcomes are.

    A base may be empty, may already hold the filled-in key, and is also met
    as a plain dict; an entry is met at the list's indent, one deeper inside a
    list, and twice as two values of one dict.
    """
    small_trees = st.recursive(SCALARS, _containers, max_leaves=4)
    bases = draw(st.lists(st.dictionaries(TRICKY_TEXT, small_trees, max_size=4),
                          min_size=1, max_size=3))
    keys = draw(st.lists(TRICKY_TEXT, min_size=1, max_size=2))
    tree = []
    for _ in range(draw(st.integers(1, 8))):
        base = draw(st.sampled_from(bases))
        keys_here = [*keys, *base][:3]
        entry = Filled(base, draw(st.sampled_from(keys_here)), draw(small_trees))
        tree.append(draw(st.sampled_from([base, entry, [entry], {"a": entry, "b": entry}])))
    return tree


@settings(max_examples=120, deadline=None)
@given(trees_with_filled_entries())
def test_canonical_dumps_writes_filled_entries_as_json_does(tree):
    assert canonical_dumps(tree) == canonical_dumps_by_json(tree)


def test_filled_entries_of_one_base_at_two_indents():
    base = {"kept": [[0, 1]], "welfare": "5/2"}
    empty = {}
    slots = [None, True, False, 7, -(2**70), 0.5, "seed \u2028", [1, [2]], {"k": []}, (), {}]
    tree = [
        base,
        *(Filled(base, "sample_seed", x) for x in slots),
        [Filled(base, "sample_seed", x) for x in slots],
        {"deeper": [Filled(empty, "s", x) for x in slots], "flat": Filled(empty, "s", 1)},
        Filled(empty, "s", 2),
    ]
    assert canonical_dumps(tree) == canonical_dumps_by_json(tree)
    assert dict(Filled(base, "welfare", "1")) == {"kept": [[0, 1]], "welfare": "1"}


def test_a_filled_entry_that_holds_itself_is_a_cycle():
    base = {"a": 1}
    first, looped = Filled(base, "k", 1), Filled(base, "k", [])
    looped["k"].append(looped)
    # met first it is written as a dict; met after first, from the template
    for tree in ([looped], [first, looped]):
        with pytest.raises(ValueError, match="Circular reference"):
            canonical_dumps_by_json(tree)
        with pytest.raises(ValueError, match="Circular reference"):
            canonical_dumps(tree)


@pytest.mark.parametrize("key", [1, 2.5, None, True, (1, 2)])
def test_canonical_dumps_rejects_a_key_that_is_not_a_string(key):
    # json would write the first four keys as strings; no report has such a key
    with pytest.raises(TypeError, match="keys must be str"):
        canonical_dumps({key: "value"})
