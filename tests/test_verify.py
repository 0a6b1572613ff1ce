import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import overlap_demo, prepared
from oracles import integral_welfare_by_products, vertex_optimum_by_combinations
from proxyauction.errors import CapacityError
from proxyauction.generators import generate
from proxyauction.itemsets import EMPTY_SET, ItemSet
from proxyauction.lp import Column, ConfigLP, FractionalSolution, build_full_lp, solve_exact
from proxyauction.mechanism import MechanismConfig, Pipeline, Q_HALT, Q_OWN_ITEMS
from proxyauction.valuations import AdditiveValuation, ExplicitValuation, Instance
from proxyauction.verify import (
    VERTEX_ENUM_CAP,
    check_approximation,
    check_halt_frequency,
    check_keep_marginals,
    check_lp_agreement,
    check_monte_carlo,
    check_proxy_bound,
    check_truthfulness,
    check_welfare_identity,
    enumerate_vertex_optimum,
    exact_distribution,
    expected_true_value,
    misreport_family,
    optimal_integral_welfare,
)


def overlap_configs():
    halt = MechanismConfig(c=F(1), p=F(1, 20), q_variant=Q_HALT)
    own = MechanismConfig(c=F(1), p=F(1, 20), q_variant=Q_OWN_ITEMS)
    return halt, own


# -- the exact law -------------------------------------------------------------


def test_single_bidder_distribution():
    inst = Instance(2, (AdditiveValuation([3, 5]),))
    config = MechanismConfig(c=F(1), p=F(1, 2))
    dist = exact_distribution(Pipeline(inst, config))
    assert dist.expected_welfare == F(8, 2)
    assert len(dist.atoms) == 1 and not dist.atoms[0].halted


def test_empty_solution_distribution():
    inst = Instance(2, (AdditiveValuation([0, 0]),))
    config = MechanismConfig(c=F(1, 2), p=F(1, 20))
    dist = exact_distribution(Pipeline(inst, config))
    assert dist.expected_welfare == 0
    assert dist.entries == ()


def test_overlap_demo_hand_enumerated_law():
    """Full eight-atom law for the three-bidder overlap construction.

    Supports: bidder 0 holds {0} w.p. 1/2, bidders 1 and 2 hold {1} w.p. 1/2
    each. At c = 1 a run halts exactly when bidders 1 and 2 collide on item 1,
    so two of the eight equiprobable atoms halt.
    """
    inst, sol = overlap_demo()
    halt_cfg, own_cfg = overlap_configs()
    p = halt_cfg.p

    dist = exact_distribution(Pipeline(inst, halt_cfg, solution=sol))
    assert len(dist.atoms) == 8
    assert all(atom.probability == F(1, 8) for atom in dist.atoms)
    assert sum(a.probability for a in dist.atoms if a.halted) == F(1, 4)
    for atom in dist.atoms:
        should_halt = atom.bundles[1] == ItemSet(2) and atom.bundles[2] == ItemSet(2)
        assert atom.halted == should_halt

    by_key = {(e.bidder, e.bundle.mask): e for e in dist.entries}
    e0 = by_key[(0, 1)]
    assert (e0.q, e0.survival, e0.marginal) == (F(1, 4), p / F(3, 4), p / 2)
    e1 = by_key[(1, 2)]
    assert (e1.q, e1.survival, e1.marginal) == (F(1, 2), 2 * p, p / 2)
    e2 = by_key[(2, 2)]
    assert (e2.q, e2.survival, e2.marginal) == (F(1, 2), 2 * p, p / 2)
    # welfare: p/2 * (v0({0}) + v1({1}) + v2({1})) = p/2 * (2 + 4 + 5)
    assert dist.expected_welfare == F(11, 40)
    assert dist.expected_welfare == p * sol.objective

    own = exact_distribution(Pipeline(inst, own_cfg, solution=sol))
    assert own.expected_welfare == F(21, 80)
    o0 = {(e.bidder, e.bundle.mask): e for e in own.entries}[(0, 1)]
    assert o0.q == 0 and o0.marginal == F(3, 8) * p
    assert p * o0.x - o0.marginal == F(1, 160)  # the exact own-items deficit


def test_identities_on_corpus_spot(corpus):
    for item in (corpus[5], corpus[13], corpus[22]):
        assert check_welfare_identity(*prepared(item.instance, item.config)).passed
        assert check_keep_marginals(*prepared(item.instance, item.config)).passed


def test_own_items_variant_reports_without_asserting():
    inst, sol = overlap_demo()
    _, own_cfg = overlap_configs()
    w = check_welfare_identity(*prepared(inst, own_cfg, solution=sol))
    assert w.passed  # informational under own-items
    assert F(w.details["gap"]) == F(11, 40) - F(21, 80)
    m = check_keep_marginals(*prepared(inst, own_cfg, solution=sol))
    assert m.passed
    assert len(m.details["deficits"]) == 1
    assert F(m.details["deficits"][0]["deficit"]) == F(1, 160)


# -- integral optimum and the approximation bound --------------------------------


def test_integral_optimum_examples():
    single = Instance(2, (AdditiveValuation([3, 5]),))
    assert optimal_integral_welfare(single) == 8
    two = Instance(2, (AdditiveValuation([3, 1]), AdditiveValuation([1, 5])))
    assert optimal_integral_welfare(two) == 8
    lp_opt = solve_exact(build_full_lp(two)).objective
    assert optimal_integral_welfare(two) == lp_opt  # additive LP is integral


def test_integral_optimum_matches_oracle():
    for seed in (0, 3, 8):
        inst = generate("mixed", 2, 3, seed)
        assert optimal_integral_welfare(inst) == integral_welfare_by_products(inst)


def test_integral_optimum_cap():
    from proxyauction.errors import CapacityError

    inst = generate("additive", 3, 4, 0)
    with pytest.raises(CapacityError):
        optimal_integral_welfare(inst, cap=10)


def test_approximation_equality_for_single_bidder_extreme_params():
    inst = Instance(2, (AdditiveValuation([3, 5]),))
    config = MechanismConfig(c=F(1), p=F(1))
    res = check_approximation(*prepared(inst, config))
    assert res.passed
    assert res.details["expected_welfare"] == res.details["c_p_opt"] == "8"


def test_approximation_tight_for_additive_without_halts():
    inst = Instance(3, (AdditiveValuation([3, 0, 2]), AdditiveValuation([0, 4, 1])))
    config = MechanismConfig(c=F(1, 2), p=F(1, 20))
    res = check_approximation(*prepared(inst, config))
    assert res.passed
    assert res.details["expected_welfare"] == res.details["c_p_opt"]


def test_approximation_on_corpus_spot(corpus):
    for item in corpus[:4]:
        assert check_approximation(*prepared(item.instance, item.config)).passed


# -- proxy bound ------------------------------------------------------------------


def test_proxy_bound_check(corpus):
    res = check_proxy_bound(corpus[13].instance)
    assert res.passed


def test_proxy_bound_flags_subadditivity_violations():
    # a complement-style table: the bound needs subadditivity and fails here
    v = ExplicitValuation(2, {0: 0, 1: 0, 2: 0, 3: 10})
    res = check_proxy_bound(Instance(2, (v,)), cs=(F(1, 2),))
    assert not res.passed
    assert res.witness["bundle"] == [0, 1]


# -- halting frequency ---------------------------------------------------------------


def test_halt_frequency_zero_for_disjoint_supports():
    inst = Instance(2, (AdditiveValuation([3, 0]), AdditiveValuation([0, 5])))
    config = MechanismConfig(c=F(1, 2), p=F(1, 20))
    res = check_halt_frequency(Pipeline(inst, config), trials=400)
    assert res.passed and res.details["halts"] == 0


def test_halt_frequency_impossible_when_inv_c_at_least_n():
    inst = generate("xos", 3, 4, 1)
    config = MechanismConfig(c=F(1, 3), p=F(1, 20))  # 1/c = 3 = n
    res = check_halt_frequency(Pipeline(inst, config), trials=400)
    assert res.details["halts"] == 0


def test_halt_frequency_matches_exact_probability():
    inst, sol = overlap_demo()
    halt_cfg, _ = overlap_configs()
    trials = 10_000
    res = check_halt_frequency(Pipeline(inst, replace(halt_cfg, seed=17), solution=sol), trials)
    freq = res.details["halts"] / trials
    assert abs(freq - 0.25) <= 3 * (0.25 * 0.75 / trials) ** 0.5


# -- truthfulness ----------------------------------------------------------------------


def test_misreport_family_shapes():
    v = ExplicitValuation(2, {0: 0, 1: 2, 2: 3, 3: 4})
    labels = [label for label, _ in misreport_family(v)]
    assert "scale-1/2" in labels and "scale-2" in labels
    assert "swap-additive" in labels and "swap-unit-demand" in labels
    assert sum(1 for l in labels if l.startswith("bump+")) == 3
    add = AdditiveValuation([1, 2])
    add_labels = [label for label, _ in misreport_family(add)]
    assert "swap-additive" not in add_labels and "swap-unit-demand" in add_labels


def test_single_bidder_truthfulness():
    inst = Instance(2, (AdditiveValuation([3, 5]),))
    config = MechanismConfig(c=F(1, 2), p=F(1, 20))
    res = check_truthfulness(Pipeline(inst, config))
    assert res.passed


def test_expected_value_marginal_consistency(corpus):
    item = corpus[22]
    pipe = Pipeline(item.instance, item.config)
    dist = exact_distribution(pipe)
    total = sum(
        (expected_true_value(dist, i, pipe.proxies[i]) for i in range(item.instance.n)),
        F(0),
    )
    assert total == dist.expected_welfare


def test_truthfulness_on_explicit_instance(truthful_corpus):
    item = truthful_corpus[0]
    res = check_truthfulness(Pipeline(item.instance, item.config))
    assert res.passed, res.witness
    assert res.details["misreports_checked"] > 0


def test_truthfulness_under_own_items_is_recorded_not_asserted():
    inst = generate("explicit-subadditive", 2, 2, 5)
    config = MechanismConfig(c=F(1, 2), p=F(1, 20), q_variant=Q_OWN_ITEMS)
    res = check_truthfulness(Pipeline(inst, config))
    assert isinstance(res.passed, bool)  # outcome recorded either way


# -- composite checks ---------------------------------------------------------------------


def test_lp_agreement_small():
    inst = generate("unit-demand", 2, 3, 4)
    config = MechanismConfig(c=F(1, 2), p=F(1, 20))
    res = check_lp_agreement(Pipeline(inst, config))
    assert res.passed
    assert "vertex_enumeration_objective" in res.details


def bases(lp):
    rows = lp.n + lp.m
    return math.comb(len(lp.columns) + rows, rows)


def test_vertex_enumeration_matches_combinations_oracle(corpus, truthful_corpus):
    """Every full proxy LP of both corpora under the cap, with its zeroed-bidder LPs."""
    checked = 0
    for item in [*corpus, *truthful_corpus]:
        lp = build_full_lp(item.instance, item.instance.proxies(item.config.c))
        if bases(lp) > VERTEX_ENUM_CAP:
            continue
        for variant in [lp] + [lp.zero_bidder(i) for i in range(lp.n)]:
            assert enumerate_vertex_optimum(variant) == vertex_optimum_by_combinations(variant)
            checked += 1
    assert checked == 62  # 19 LPs under the cap and their 43 zeroed-bidder variants


coefs = st.fractions(min_value=0, max_value=5, max_denominator=6) | st.just(F(0))


@st.composite
def small_config_lps(draw):
    """ConfigLPs with n, m <= 3, distinct columns and few enough bases to enumerate.

    On a coin flip the columns also include sets that force dependent
    prefixes: bidder 0's {0}, {1} and {0, 1}, whose signed sum is bidder 0's
    slack, and the full bundle for every bidder, where two bidders' copies
    differ by their two slacks.
    """
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    keys = [(i, mask) for i in range(n) for mask in range(1, 1 << m)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=8))
    if draw(st.booleans()):
        forced = [(0, 1), (0, 2), (0, 3)] if m >= 2 else [(0, 1)]
        forced += [(i, (1 << m) - 1) for i in range(n)]
        chosen = list(dict.fromkeys(forced + chosen))
    columns = tuple(Column(i, ItemSet(mask), draw(coefs)) for i, mask in chosen)
    lp = ConfigLP(n, m, columns)
    while bases(lp) > 3000:  # keep the oracle quick
        lp = ConfigLP(n, m, lp.columns[:-1])
    return lp


@settings(max_examples=120, deadline=None)
@given(small_config_lps())
def test_vertex_enumeration_matches_combinations_oracle_on_small_lps(lp):
    assert enumerate_vertex_optimum(lp) == vertex_optimum_by_combinations(lp)


def test_vertex_enumeration_cap_matches_combinations_oracle(corpus):
    def capacity(fn, lp, **kwargs):
        with pytest.raises(CapacityError) as info:
            fn(lp, **kwargs)
        return info.value.what, info.value.required, info.value.cap

    over = build_full_lp(corpus[7].instance)  # n = 3, m = 3: 296,010 bases
    assert bases(over) > VERTEX_ENUM_CAP
    want = ("basic-solution enumeration", bases(over), VERTEX_ENUM_CAP)
    assert capacity(enumerate_vertex_optimum, over) == want
    assert capacity(vertex_optimum_by_combinations, over) == want

    small = build_full_lp(corpus[12].instance)  # n = 2, m = 2: 210 bases
    assert bases(small) == 210
    for fn in (enumerate_vertex_optimum, vertex_optimum_by_combinations):
        assert capacity(fn, small, cap=209) == ("basic-solution enumeration", 210, 209)
    assert enumerate_vertex_optimum(small, cap=210) == vertex_optimum_by_combinations(
        small, cap=210
    )


def test_monte_carlo_check(corpus):
    item = corpus[12]
    res = check_monte_carlo(*prepared(item.instance, item.config), trials=2_000)
    assert res.passed


def test_identities_hold_under_column_generation_solver(corpus):
    for item in (corpus[1], corpus[13], corpus[22]):
        cfg = replace(item.config, solver="column-generation")
        assert check_welfare_identity(*prepared(item.instance, cfg)).passed, item.label
        assert check_keep_marginals(*prepared(item.instance, cfg)).passed, item.label


def test_truthfulness_holds_under_column_generation_solver(truthful_corpus):
    item = truthful_corpus[0]
    cfg = replace(item.config, solver="column-generation")
    res = check_truthfulness(Pipeline(item.instance, cfg))
    assert res.passed, res.witness
