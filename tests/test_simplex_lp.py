import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from oracles import additive_lp_optimum, integral_welfare_by_products
from proxyauction.errors import (
    CapacityError,
    InfeasibleSolutionError,
    IterationLimitError,
    ParameterError,
)
from proxyauction.generators import generate
from proxyauction.itemsets import EMPTY_SET, ItemSet
from proxyauction.lp import (
    Column,
    ConfigLP,
    FractionalSolution,
    build_full_lp,
    certify_optimal,
    check_feasibility,
    solve_column_generation,
    solve_exact,
)
from proxyauction.valuations import (
    AdditiveValuation,
    Instance,
    UnitDemandValuation,
)
from proxyauction.verify import enumerate_vertex_optimum


def test_full_lp_column_counts():
    one = Instance(2, (AdditiveValuation([1, 1]),))
    assert len(build_full_lp(one).columns) == 3
    three = Instance(3, (AdditiveValuation([1, 1, 1]),) * 3)
    assert len(build_full_lp(three).columns) == 21


def test_full_lp_coefficients_for_additive_bidder():
    inst = Instance(2, (AdditiveValuation([3, 5]),))
    lp = build_full_lp(inst)
    coefs = {col.bundle.indices(): col.coef for col in lp.columns}
    assert coefs == {(0,): 3, (1,): 5, (0, 1): 8}


def test_single_bidder_takes_everything():
    inst = Instance(3, (AdditiveValuation([2, 1, 4]),))
    sol = solve_exact(build_full_lp(inst))
    assert sol.objective == 7
    assert sol.entries == {(0, ItemSet(0b111)): 1}


def test_two_additive_bidders_integral_split():
    inst = Instance(2, (AdditiveValuation([3, 1]), AdditiveValuation([1, 5])))
    sol = solve_exact(build_full_lp(inst))
    assert sol.objective == 8
    assert sol.entries == {
        (0, ItemSet.from_indices([0])): 1,
        (1, ItemSet.from_indices([1])): 1,
    }


def test_two_unit_demand_bidders():
    inst = Instance(2, (UnitDemandValuation([1, 1]), UnitDemandValuation([1, 1])))
    sol = solve_exact(build_full_lp(inst))
    assert sol.objective == 2


def test_zero_valuations_give_empty_solution():
    inst = Instance(2, (AdditiveValuation([0, 0]), AdditiveValuation([0, 0])))
    sol = solve_exact(build_full_lp(inst))
    assert sol.objective == 0
    assert sol.entries == {}
    cg = solve_column_generation(inst, inst.valuations)
    assert cg.objective == 0 and cg.entries == {}


def test_simplex_matches_vertex_enumeration_small():
    for seed in range(6):
        for kind in ("additive", "unit-demand", "xos"):
            inst = generate(kind, 2, 3, seed)
            lp = build_full_lp(inst)
            assert solve_exact(lp).objective == enumerate_vertex_optimum(lp), (kind, seed)


def test_column_generation_matches_exact_on_random_instances():
    for seed in range(20):
        kind = ("additive", "unit-demand", "xos", "coverage", "mixed")[seed % 5]
        n, m = 1 + seed % 3, 3 + seed % 4
        inst = generate(kind, n, m, seed)
        proxies = inst.proxies(F(1, 2))
        full = solve_exact(build_full_lp(inst, proxies))
        cg = solve_column_generation(inst, proxies)
        assert cg.objective == full.objective, (kind, n, m, seed)
        assert len(cg.entries) <= n + m


def test_column_generation_single_additive_bidder_two_rounds():
    inst = Instance(3, (AdditiveValuation([2, 3, 4]),))
    # one pricing round adds the full bundle, the second certifies optimality
    sol = solve_column_generation(inst, inst.valuations, max_rounds=2)
    assert sol.objective == 9


def test_column_generation_round_cap_raises():
    inst = Instance(3, (AdditiveValuation([2, 3, 4]),))
    # the second round needs to run, so a one-round budget stops with the master's state
    with pytest.raises(IterationLimitError) as err:
        solve_column_generation(inst, inst.valuations, max_rounds=1)
    assert (err.value.rounds, err.value.columns, err.value.objective) == (2, 1, 9)


def test_basic_support_bound(corpus):
    for item in corpus:
        proxies = item.instance.proxies(item.config.c)
        sol = solve_exact(build_full_lp(item.instance, proxies))
        assert len(sol.entries) <= item.instance.n + item.instance.m, item.label


def test_deterministic_resolve(corpus):
    item = corpus[17]
    proxies = item.instance.proxies(item.config.c)
    lp = build_full_lp(item.instance, proxies)
    a, b = solve_exact(lp), solve_exact(lp)
    assert a.entries == b.entries and a.objective == b.objective
    assert a.item_duals == b.item_duals and a.bidder_duals == b.bidder_duals


def test_adding_a_bidder_never_decreases_the_optimum():
    rng = random.Random(13)
    for trial in range(8):
        m = rng.randint(2, 4)
        base = generate("mixed", 2, m, trial)
        extra = generate("mixed", 1, m, 100 + trial)
        bigger = Instance(m, base.valuations + extra.valuations)
        small = solve_exact(build_full_lp(base)).objective
        big = solve_exact(build_full_lp(bigger)).objective
        assert big >= small


def test_proxy_lp_dominates_scaled_integral_optimum():
    for seed in (1, 4, 9):
        inst = generate("mixed", 2, 4, seed)
        c = F(1, 2)
        lp_opt = solve_exact(build_full_lp(inst, inst.proxies(c))).objective
        assert lp_opt >= c * integral_welfare_by_products(inst)


def test_additive_lp_equals_per_item_max():
    rows = [[3, 1, 2], [1, 5, 2], [0, 4, 4]]
    inst = Instance(3, tuple(AdditiveValuation(r) for r in rows))
    assert solve_exact(build_full_lp(inst)).objective == additive_lp_optimum(rows)


def test_check_feasibility_reports_violations():
    ok = FractionalSolution(
        n=2, m=1, entries={(0, ItemSet(1)): F(3, 5), (1, ItemSet(1)): F(3, 5)},
        objective=F(0),
    )
    report = check_feasibility(ok, 2, 1)
    assert not report.ok
    assert any("item 0" in v for v in report.violations)
    empty = FractionalSolution(n=2, m=1, entries={}, objective=F(0))
    assert check_feasibility(empty, 2, 1).ok


def test_solver_output_is_feasible(corpus):
    item = corpus[7]
    proxies = item.instance.proxies(item.config.c)
    lp = build_full_lp(item.instance, proxies)
    sol = solve_exact(lp)
    assert check_feasibility(sol, lp.n, lp.m).ok
    certify_optimal(lp, sol)


def two_additive_bidders():
    inst = Instance(2, (AdditiveValuation([3, 1]), AdditiveValuation([1, 5])))
    lp = build_full_lp(inst)
    return lp, solve_exact(lp)


def test_certify_rejects_corrupted_duals():
    lp, sol = two_additive_bidders()
    bad = replace(sol, item_duals=tuple(d + 1 for d in sol.item_duals))
    with pytest.raises(InfeasibleSolutionError):
        certify_optimal(lp, bad)


def test_certify_rejects_a_wrong_objective():
    lp, sol = two_additive_bidders()
    with pytest.raises(InfeasibleSolutionError, match="entry sum"):
        certify_optimal(lp, replace(sol, objective=sol.objective + F(1, 7)))


def test_certify_rejects_an_entry_without_a_column():
    lp, sol = two_additive_bidders()
    dropped = (0, ItemSet.from_indices([0]))
    assert sol.entries[dropped] == 1
    rest = ConfigLP(lp.n, lp.m, tuple(c for c in lp.columns if (c.bidder, c.bundle) != dropped))
    with pytest.raises(InfeasibleSolutionError, match="no LP column"):
        certify_optimal(rest, sol)


def test_certify_rejects_a_support_column_that_is_not_tight():
    lp, sol = two_additive_bidders()
    # the swapped assignment is feasible and its objective is its entry sum, 1 + 1
    swapped = {(0, ItemSet.from_indices([1])): F(1), (1, ItemSet.from_indices([0])): F(1)}
    with pytest.raises(InfeasibleSolutionError, match="not tight"):
        certify_optimal(lp, replace(sol, entries=swapped, objective=F(2)))


def test_certify_rejects_a_positive_dual_on_a_slack_item():
    # one unit-demand bidder takes one of two items; the other stays unallocated
    inst = Instance(2, (UnitDemandValuation([1, 1]),))
    lp = build_full_lp(inst)
    sol = solve_exact(lp)
    (slack,) = [j for j in range(2) if sol.item_load(j) == 0]
    duals = tuple(d + (j == slack) for j, d in enumerate(sol.item_duals))
    with pytest.raises(InfeasibleSolutionError, match=f"item {slack} dual positive"):
        certify_optimal(lp, replace(sol, item_duals=duals))


def test_configlp_validation():
    with pytest.raises(ParameterError):
        ConfigLP(1, 2, (Column(0, EMPTY_SET, F(1)),))
    with pytest.raises(ParameterError):
        ConfigLP(1, 2, (Column(0, ItemSet(1), F(-1)),))
    with pytest.raises(ParameterError):
        ConfigLP(1, 2, (Column(0, ItemSet(1), F(1)), Column(0, ItemSet(1), F(2))))


def test_full_lp_item_cap():
    inst = Instance(13, (AdditiveValuation([1] * 13),))
    with pytest.raises(CapacityError):
        build_full_lp(inst)


def test_zero_bidder_equals_a_validated_rebuild(corpus):
    for item in corpus:
        lp = build_full_lp(item.instance)
        for i in range(lp.n):
            zeroed = lp.zero_bidder(i)
            rebuilt = ConfigLP(
                lp.n,
                lp.m,
                tuple(Column(c.bidder, c.bundle, F(0) if c.bidder == i else c.coef)
                      for c in reversed(lp.columns)),
            )
            assert zeroed == rebuilt
        assert lp == build_full_lp(item.instance)  # the original keeps its objective
