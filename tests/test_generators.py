import random
from fractions import Fraction as F

import pytest

from fixtures import overlap_demo, random_feasible_solution
from oracles import feasibility_violations, is_monotone_normalized, is_subadditive
from proxyauction import generators
from proxyauction.errors import CapacityError, ParameterError
from proxyauction.generators import (
    GENERATED_COUNT_CAP,
    generate,
    repair_monotone_subadditive,
    standard_corpus,
    truthfulness_corpus,
)
from proxyauction.serialize import instance_to_dict
from proxyauction.valuations import ExplicitValuation


def test_generation_is_deterministic():
    a = generate("additive", 2, 3, 7)
    b = generate("additive", 2, 3, 7)
    assert instance_to_dict(a) == instance_to_dict(b)
    c = generate("additive", 2, 3, 8)
    assert instance_to_dict(a) != instance_to_dict(c)


@pytest.mark.parametrize("kind", ["additive", "unit-demand", "xos", "coverage", "explicit-subadditive", "mixed"])
def test_generated_valuations_are_well_behaved(kind):
    for seed in range(4):
        inst = generate(kind, 2, 4, seed)
        for v in inst.valuations:
            ok, witness = is_subadditive(v)
            assert ok, (kind, seed, witness)
            ok, witness = is_monotone_normalized(v)
            assert ok, (kind, seed, witness)


def test_explicit_generator_cap():
    with pytest.raises(CapacityError):
        generate("explicit-subadditive", 1, 10, 0)


@pytest.mark.parametrize(
    "kind, n, params, what",
    [
        ("additive", 1001, {}, "generated bidders"),
    ],
)
def test_counts_past_the_cap_are_refused_before_any_valuation(kind, n, params, what, monkeypatch):
    # a count at the cap is generated
    generate(kind, min(n, GENERATED_COUNT_CAP), 2, 0, **{key: 1000 for key in params})

    def no_valuation(*args):
        raise AssertionError("a refused count built a valuation")

    monkeypatch.setattr(generators.random, "Random", no_valuation)
    with pytest.raises(CapacityError) as info:
        generate(kind, n, 2, 0, **params)
    assert (info.value.what, info.value.required, info.value.cap) == (what, 1001, 1000)


def test_unknown_kind():
    with pytest.raises(ParameterError):
        generate("submodular", 1, 2, 0)


# -- the monotone subadditive repair -----------------------------------------


def table_is_monotone_subadditive(table, m):
    v = ExplicitValuation(m, table)
    return is_subadditive(v)[0] and is_monotone_normalized(v)[0]


def test_repair_produces_valid_tables():
    rng = random.Random(2)
    for _ in range(10):
        m = rng.randint(2, 4)
        raw = {mask: F(rng.randint(0, 12)) for mask in range(1 << m)}
        raw[0] = F(0)
        fixed = repair_monotone_subadditive(raw, m)
        assert table_is_monotone_subadditive(fixed, m)
        assert all(fixed[mask] <= raw[mask] for mask in raw)  # a minorant
        assert all(val >= 0 for val in fixed.values())


def test_repair_is_idempotent_and_preserves_good_tables():
    good = {0: F(0), 1: F(2), 2: F(3), 3: F(4)}  # monotone, subadditive
    assert repair_monotone_subadditive(good, 2) == good
    repaired = repair_monotone_subadditive({0: F(0), 1: F(1), 2: F(1), 3: F(5)}, 2)
    assert repaired == {0: F(0), 1: F(1), 2: F(1), 3: F(2)}
    assert repair_monotone_subadditive(repaired, 2) == repaired


def test_repair_caps_against_larger_partitions():
    # {0,1,2} must not exceed the three singletons combined
    raw = {mask: F(10) for mask in range(8)}
    raw[0] = F(0)
    raw[1] = raw[2] = raw[4] = F(1)
    fixed = repair_monotone_subadditive(raw, 3)
    assert fixed[7] == 3
    assert fixed[3] == 2


# -- corpora -------------------------------------------------------------------


def test_standard_corpus_shape(corpus):
    assert len(corpus) >= 20
    labels = [c.label for c in corpus]
    assert len(set(labels)) == len(labels)
    for item in corpus:
        assert 1 <= item.instance.n <= 3
        assert 1 <= item.instance.m <= 5
        assert item.config.q_variant == "halt"


def test_truthfulness_corpus_shape(truthful_corpus):
    assert len(truthful_corpus) >= 10
    for item in truthful_corpus:
        for v in item.instance.valuations:
            assert v.kind == "explicit"


def test_corpus_is_reproducible():
    first = [instance_to_dict(c.instance) for c in standard_corpus(1)]
    second = [instance_to_dict(c.instance) for c in standard_corpus(1)]
    assert first == second
    assert [c.label for c in truthfulness_corpus(1)] == [c.label for c in truthfulness_corpus(1)]


# -- hand-built solutions --------------------------------------------------------


def test_random_feasible_solutions_are_feasible():
    for seed in range(8):
        sol = random_feasible_solution(6, 10, seed)
        assert feasibility_violations(sol, 6, 10) == []
        assert sol.entries


def test_overlap_demo_consistency():
    inst, sol = overlap_demo()
    assert feasibility_violations(sol, inst.n, inst.m) == []
    proxies = inst.proxies(F(1))
    recomputed = sum((x * proxies[i]._value(b) for (i, b), x in sol.entries.items()), F(0))
    assert recomputed == sol.objective
