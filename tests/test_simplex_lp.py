import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import any_kind_instances
from oracles import (
    additive_lp_optimum,
    certify_by_columns,
    column_generation_by_cold_rounds,
    feasibility_violations,
    index_list,
    integral_welfare_by_products,
)
from proxyauction.errors import (
    CapacityError,
    ContractViolationError,
    InfeasibleSolutionError,
    ParameterError,
)
from proxyauction.generators import GENERATOR_KINDS, generate
from proxyauction.lp import (
    Column,
    ConfigLP,
    FractionalSolution,
    _solve_columns,
    _split_pass,
    build_full_lp,
    certify_optimal,
    solve_column_generation,
    solve_exact,
    zero_objective,
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
    coefs = {col.bundle: col.coef for col in lp.columns}
    assert coefs == {0b01: 3, 0b10: 5, 0b11: 8}


def test_single_bidder_takes_everything():
    inst = Instance(3, (AdditiveValuation([2, 1, 4]),))
    sol = solve_exact(build_full_lp(inst))
    assert sol.objective == 7
    assert sol.entries == {(0, 0b111): 1}


def test_two_additive_bidders_integral_split():
    inst = Instance(2, (AdditiveValuation([3, 1]), AdditiveValuation([1, 5])))
    sol = solve_exact(build_full_lp(inst))
    assert sol.objective == 8
    assert sol.entries == {
        (0, 0b1): 1,
        (1, 0b10): 1,
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


def replays_the_cold_rounds(instance, c) -> tuple:
    """The package's column generation against the cold-round oracle; returns both pivot counts."""
    proxies = instance.proxies(c)
    sol = solve_column_generation(instance, proxies)
    cold = column_generation_by_cold_rounds(instance, proxies)
    assert (sol.entries, sol.item_duals, sol.bidder_duals, sol.basis.keys, sol.objective) == (
        cold["entries"], cold["item_duals"], cold["bidder_duals"], cold["basis"], cold["objective"]
    )
    # each round performs only the pivots off the previous round's path
    assert sol.pivots == cold["unshared_pivots"] <= cold["pivots"]
    return sol.pivots, cold["pivots"]


def test_column_generation_replays_the_cold_rounds_on_both_corpora(corpus, truthful_corpus):
    fewer = 0
    for item in [*corpus, *truthful_corpus]:
        for c in sorted({item.config.c, F(1), F(1, 2), F(1, 3)}):
            pivots, cold = replays_the_cold_rounds(item.instance, c)
            fewer += pivots < cold
    assert fewer > 0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(GENERATOR_KINDS),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(0, 2**16),
    st.sampled_from([F(1), F(1, 2), F(1, 3)]),
)
def test_column_generation_replays_the_cold_rounds_on_generated_instances(kind, n, m, seed, c):
    replays_the_cold_rounds(generate(kind, n, m, seed), c)


def test_a_split_needs_an_added_column_that_prices_positive():
    # one bidder, two items: the master {0} at 2 ends with bidder dual 2, so
    # {1} at 1 prices positive only before {0} entered, where it comes after it
    record = []
    _solve_columns([Column(0, 0b01, F(2))], 1, 2, record=record)
    assert [step.entering for step in record] == [0, None]
    with pytest.raises(ContractViolationError):
        _split_pass(record, [Column(0, 0b10, F(1))], 1)
    assert _split_pass(record, [Column(0, 0b10, F(3))], 1) == 1


def test_column_generation_single_additive_bidder_two_rounds():
    inst = Instance(3, (AdditiveValuation([2, 3, 4]),))
    # one pricing round adds the full bundle, the second certifies optimality:
    # each round asks the one bidder for one demand
    sol = solve_column_generation(inst, inst.valuations)
    assert sol.objective == 9
    assert inst.valuations[0].counter.demand_queries == 2


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


def test_solver_output_is_feasible(corpus):
    item = corpus[7]
    proxies = item.instance.proxies(item.config.c)
    lp = build_full_lp(item.instance, proxies)
    sol = solve_exact(lp)
    assert feasibility_violations(sol, lp.n, lp.m) == []
    certify_optimal(sol, lp.objectives)
    certify_by_columns(lp, sol)


def verdict(certify, *args) -> bool:
    try:
        certify(*args)
    except InfeasibleSolutionError:
        return False
    return True


def perturbed(sol):
    """The solution with its objective moved and each dual raised, lowered and negated.

    Last come the shifts of an item's dual to the bidder dual of a support
    entry holding it, which keep that entry tight and the dual objective.
    """
    out = [replace(sol, objective=sol.objective + F(1, 7))]
    for field in ("item_duals", "bidder_duals"):
        duals = getattr(sol, field)
        for k in range(len(duals)):
            for change in (lambda d: d + F(1, 3), lambda d: d - F(1, 3), lambda d: -d - 1):
                moved = tuple(change(d) if j == k else d for j, d in enumerate(duals))
                out.append(replace(sol, **{field: moved}))
    for i, bundle, _ in sol.support():
        for j in index_list(bundle):
            shift = sol.item_duals[j]
            y = tuple(d - shift if k == j else d for k, d in enumerate(sol.item_duals))
            u = tuple(d + shift if k == i else d for k, d in enumerate(sol.bidder_duals))
            out.append(replace(sol, item_duals=y, bidder_duals=u))
    return out


def certified_solves(instance, proxies):
    """(LP, solution) for both solvers' main solves and every zeroed-bidder payment solve."""
    lp = build_full_lp(instance, proxies)
    full, colgen = solve_exact(lp), solve_column_generation(instance, proxies)
    out = [(lp, full), (lp, colgen)]
    for i in range(instance.n):
        zeroed = lp.zero_bidder(i)
        oracles = zero_objective(proxies, i)
        out.append((zeroed, solve_exact(zeroed, start_basis=full.basis)))
        out.append((zeroed, solve_column_generation(instance, oracles, start_basis=colgen.basis)))
    return out


def test_certificate_agrees_with_the_per_column_oracle_on_both_corpora(corpus, truthful_corpus):
    verdicts = Counter()
    for item in [*corpus, *truthful_corpus]:
        proxies = item.instance.proxies(item.config.c)
        for lp, sol in certified_solves(item.instance, proxies):
            certify_optimal(sol, lp.objectives)
            certify_by_columns(lp, sol)
            for bad in perturbed(sol):
                ok = verdict(certify_optimal, bad, lp.objectives)
                assert ok == verdict(certify_by_columns, lp, bad), (item.label, bad)
                verdicts[ok] += 1
    # degenerate optima have other optimal duals, so some shifts are accepted
    assert verdicts[True] > 0 and verdicts[False] > 0


@settings(max_examples=60, deadline=None)
@given(any_kind_instances(), st.sampled_from([F(1), F(1, 2), F(1, 3)]))
def test_certificate_accepts_both_solvers_on_any_kind_instances(instance, c):
    proxies = instance.proxies(c)
    for lp, sol in certified_solves(instance, proxies):
        certify_optimal(sol, lp.objectives)
        certify_by_columns(lp, sol)
        for bad in perturbed(sol)[:4]:
            ok = verdict(certify_optimal, bad, lp.objectives)
            assert ok == verdict(certify_by_columns, lp, bad)


def two_additive_bidders():
    # the optimum gives item 0 to bidder 0 and item 1 to bidder 1, with
    # duals y = (1, 5) and u = (2, 0)
    inst = Instance(2, (AdditiveValuation([3, 1]), AdditiveValuation([1, 5])))
    lp = build_full_lp(inst)
    return lp, solve_exact(lp)


def test_certify_rejects_corrupted_duals():
    lp, sol = two_additive_bidders()
    raised = replace(sol, item_duals=tuple(d + 1 for d in sol.item_duals))
    with pytest.raises(InfeasibleSolutionError, match="not tight"):
        certify_optimal(raised, lp.objectives)
    lowered = replace(sol, bidder_duals=(sol.bidder_duals[0] - 1, sol.bidder_duals[1]))
    with pytest.raises(InfeasibleSolutionError, match="not tight"):
        certify_optimal(lowered, lp.objectives)
    negative = replace(sol, bidder_duals=(sol.bidder_duals[0], F(-1)))
    with pytest.raises(InfeasibleSolutionError, match="negative dual"):
        certify_optimal(negative, lp.objectives)


def test_certify_rejects_a_lowered_dual_that_keeps_the_support_tight():
    lp, sol = two_additive_bidders()
    # moving 1 from y_0 to u_0 keeps both support columns tight and the dual
    # objective at 8, but bidder 1 now gains 1 - y_0 - u_1 = 1 from item 0
    (y0, y1), (u0, u1) = sol.item_duals, sol.bidder_duals
    shifted = replace(sol, item_duals=(y0 - 1, y1), bidder_duals=(u0 + 1, u1))
    with pytest.raises(InfeasibleSolutionError, match=r"bidder 1, \{0\}\) has positive reduced cost"):
        certify_optimal(shifted, lp.objectives)


def test_certify_rejects_a_corrupted_column_generation_dual():
    inst = Instance(2, (AdditiveValuation([3, 1]), AdditiveValuation([1, 5])))
    sol = solve_column_generation(inst, inst.valuations)
    certify_optimal(sol, inst.valuations)
    bad = replace(sol, item_duals=(sol.item_duals[0] + F(1, 2), sol.item_duals[1]))
    with pytest.raises(InfeasibleSolutionError):
        certify_optimal(bad, inst.valuations)


def test_certify_rejects_a_wrong_objective():
    lp, sol = two_additive_bidders()
    with pytest.raises(InfeasibleSolutionError, match="entry sum"):
        certify_optimal(replace(sol, objective=sol.objective + F(1, 7)), lp.objectives)


def test_certify_rejects_an_entry_outside_the_lp():
    lp, sol = two_additive_bidders()
    for key, x in [
        ((0, 0b100), F(1, 2)),  # outside the 2-item universe
        ((0, 0), F(1, 2)),
        ((2, 1), F(1, 2)),  # no bidder 2
        ((0, 0b10), F(0)),
    ]:
        with pytest.raises(InfeasibleSolutionError, match="no positive LP variable"):
            certify_optimal(replace(sol, entries={**sol.entries, key: x}), lp.objectives)
    with pytest.raises(InfeasibleSolutionError, match="no duals"):
        certify_optimal(replace(sol, item_duals=None), lp.objectives)


def test_certify_rejects_a_support_column_that_is_not_tight():
    lp, sol = two_additive_bidders()
    # the swapped assignment is feasible and its objective is its entry sum, 1 + 1
    swapped = {(0, 0b10): F(1), (1, 0b1): F(1)}
    with pytest.raises(InfeasibleSolutionError, match="not tight"):
        certify_optimal(replace(sol, entries=swapped, objective=F(2)), lp.objectives)


def test_certify_rejects_a_positive_dual_on_a_slack_item():
    # one unit-demand bidder takes one of two items; the other stays unallocated
    inst = Instance(2, (UnitDemandValuation([1, 1]),))
    lp = build_full_lp(inst)
    sol = solve_exact(lp)
    (slack,) = [j for j in range(2) if not any((bundle >> j) & 1 for _, bundle in sol.entries)]
    duals = tuple(d + (j == slack) for j, d in enumerate(sol.item_duals))
    with pytest.raises(InfeasibleSolutionError, match=f"item {slack} dual positive"):
        certify_optimal(replace(sol, item_duals=duals), lp.objectives)


def test_certify_rejects_a_positive_dual_on_a_slack_bidder():
    # bidder 1 loses the one item to bidder 0 and holds no mass
    inst = Instance(1, (AdditiveValuation([2]), AdditiveValuation([1])))
    lp = build_full_lp(inst)
    sol = solve_exact(lp)
    assert sol.entries == {(0, 1): 1}
    bad = replace(sol, bidder_duals=(sol.bidder_duals[0], sol.bidder_duals[1] + 1))
    with pytest.raises(InfeasibleSolutionError, match="bidder 1 dual positive"):
        certify_optimal(bad, lp.objectives)


def test_certify_rejects_over_allocation():
    # every entry below is tight at its duals, so only the constraint fails
    both = Instance(1, (AdditiveValuation([1]), AdditiveValuation([1])))
    shared = FractionalSolution(
        n=2, m=1, entries={(0, 1): F(3, 5), (1, 1): F(3, 5)},
        objective=F(6, 5), item_duals=(F(1),), bidder_duals=(F(0), F(0)),
    )
    with pytest.raises(InfeasibleSolutionError, match="item 0 over-allocated: total mass 6/5"):
        certify_optimal(shared, both.valuations)
    assert feasibility_violations(shared, 2, 1) == ["item 0 over-allocated: total mass 6/5"]
    one = Instance(2, (AdditiveValuation([1, 1]),))
    twice = FractionalSolution(
        n=1, m=2, entries={(0, 1): F(1), (0, 2): F(1)},
        objective=F(2), item_duals=(F(1), F(1)), bidder_duals=(F(0),),
    )
    with pytest.raises(InfeasibleSolutionError, match="bidder 0 over-allocated: total mass 2"):
        certify_optimal(twice, one.valuations)
    empty = FractionalSolution(n=2, m=1, entries={}, objective=F(0))
    assert feasibility_violations(empty, 2, 1) == []


def test_configlp_validation():
    with pytest.raises(ParameterError):
        ConfigLP(1, 2, (Column(0, 0, F(1)),), ())
    for mask in (-1, 0b100):  # outside the masks of 2 items
        with pytest.raises(ParameterError, match="empty or outside 2 items"):
            ConfigLP(1, 2, (Column(0, mask, F(1)),), ())
    with pytest.raises(ParameterError):
        ConfigLP(1, 2, (Column(0, 1, F(-1)),), ())
    with pytest.raises(ParameterError):
        ConfigLP(1, 2, (Column(0, 1, F(1)), Column(0, 1, F(2))), ())


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
                (),
            )
            assert zeroed == rebuilt
            # the zeroed objectives price exactly the zeroed columns
            for col in zeroed.columns:
                assert zeroed.objectives[col.bidder]._value(col.bundle) == col.coef
        assert lp == build_full_lp(item.instance)  # the original keeps its objective
