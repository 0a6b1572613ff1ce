import json
from fractions import Fraction as F

import pytest

from proxyauction.errors import FormatError
from proxyauction.generators import generate
from proxyauction.itemsets import ItemSet
from proxyauction.lp import FractionalSolution, build_full_lp, solve_exact
from proxyauction.mechanism import MechanismConfig, run
from proxyauction.serialize import (
    canonical_dumps,
    config_from_dict,
    config_to_dict,
    format_value,
    instance_from_dict,
    instance_to_dict,
    outcome_from_dict,
    outcome_to_dict,
    parse_value,
    solution_from_dict,
    solution_to_dict,
    valuation_from_dict,
    valuation_to_dict,
)
from proxyauction.valuations import ExplicitValuation, Instance, UnitDemandValuation


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


def test_explicit_missing_entry_rejected():
    with pytest.raises(FormatError):
        valuation_from_dict({"kind": "explicit", "values": {"0": "1"}}, 2)


def test_instance_schema_enforced():
    with pytest.raises(FormatError):
        instance_from_dict({"schema": "something-else", "m": 1, "bidders": []})


def test_solution_round_trip():
    inst = generate("xos", 2, 3, 3)
    sol = solve_exact(build_full_lp(inst))
    back = solution_from_dict(json.loads(canonical_dumps(solution_to_dict(sol))))
    assert back == sol


def test_hand_built_solution_round_trip():
    sol = FractionalSolution(
        n=2, m=2,
        entries={(0, ItemSet.from_indices([0, 1])): F(2, 7), (1, ItemSet(1)): F(1, 3)},
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
    for malformed in ({"c": "0", "p": "1/2"}, {"c": None, "p": "1/2"}, "c=1/2"):
        with pytest.raises(FormatError):
            config_from_dict(malformed)


def test_canonical_dumps_is_stable():
    a = canonical_dumps({"b": 1, "a": [2, 3]})
    b = canonical_dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
