import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (
    affine_plane,
    any_kind_instances,
    config_lp,
    feasible_solutions,
    overlap_demo,
    prepared,
    rows_against_columns,
)
from oracles import (
    additive_lp_optimum,
    index_list,
    integral_welfare_by_products,
    proxy_bound_violations_by_fractions,
    text_of,
    vertex_optima_by_combinations,
    vertex_optimum_by_combinations,
)
from proxyauction import verify as ver
from proxyauction.errors import CapacityError, ParameterError
from proxyauction.generators import GENERATOR_KINDS, generate
from proxyauction.lp import Column, FractionalSolution, build_full_lp, solve_exact
from proxyauction.mechanism import MechanismConfig, Pipeline, Q_HALT, Q_OWN_ITEMS
from proxyauction.valuations import AdditiveValuation, ExplicitValuation, Instance
from proxyauction.verify import (
    INTEGRAL_CAP,
    MISREPORT_PERTURBATION,
    VERTEX_ENUM_CAP,
    _feasible_points,
    basic_feasible_points,
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
        should_halt = atom.bundles[1] == 2 and atom.bundles[2] == 2
        assert atom.halted == should_halt

    by_key = {(e.bidder, e.bundle): e for e in dist.entries}
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
    o0 = {(e.bidder, e.bundle): e for e in own.entries}[(0, 1)]
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
    assert not w.passed and not w.asserted  # informational under own-items
    assert F(w.details["gap"]) == F(11, 40) - F(21, 80)
    m = check_keep_marginals(*prepared(inst, own_cfg, solution=sol))
    assert not m.passed and not m.asserted
    assert m.details["deficits"] == [m.witness]
    assert F(m.details["deficits"][0]["deficit"]) == F(1, 160)


# -- integral optimum and the approximation bound --------------------------------


def test_integral_optimum_examples():
    single = Instance(2, (AdditiveValuation([3, 5]),))
    assert optimal_integral_welfare(single) == 8
    two = Instance(2, (AdditiveValuation([3, 1]), AdditiveValuation([1, 5])))
    assert optimal_integral_welfare(two) == 8
    lp_opt = solve_exact(build_full_lp(two)).objective
    assert optimal_integral_welfare(two) == lp_opt  # additive LP is integral


def test_integral_optimum_matches_oracle(corpus, truthful_corpus):
    for inst in [generate("mixed", 2, 3, seed) for seed in (0, 3, 8)] + [
        item.instance for item in corpus + truthful_corpus
    ]:
        assert optimal_integral_welfare(inst) == integral_welfare_by_products(inst)


@given(any_kind_instances())
@settings(max_examples=150, deadline=None)
def test_integral_optimum_matches_oracle_on_every_kind(inst):
    assert optimal_integral_welfare(inst) == integral_welfare_by_products(inst)


def test_integral_optimum_counts_the_empty_bundle_of_an_abnormal_table():
    # v(empty) = 3 > v({0,1}) = 2: bidder 0 is best left with nothing
    abnormal = ExplicitValuation(2, {0: 3, 1: 1, 2: 0, 3: 2})
    inst = Instance(2, (abnormal, AdditiveValuation([1, 1])))
    assert optimal_integral_welfare(inst) == integral_welfare_by_products(inst) == 5
    single = Instance(1, (ExplicitValuation(1, {0: F(7, 2), 1: 1}),))
    assert optimal_integral_welfare(single) == integral_welfare_by_products(single) == F(7, 2)


def test_integral_optimum_past_the_old_enumeration_cap():
    # (n+1)^m = 6^10 assignments were beyond the enumeration's cap; the DP
    # takes 5 * 3^10 steps, and additive bidders give each item to its best
    inst = generate("additive", 5, 10, 4)
    assert 6**10 > INTEGRAL_CAP >= 5 * 3**10
    rows = [v.weights for v in inst.valuations]
    assert optimal_integral_welfare(inst) == additive_lp_optimum(rows)


def assert_reads_no_lp_or_mechanism(*functions):
    # an independent route: every global name the functions read, nested code
    # included, comes from outside the lp, simplex and mechanism modules
    import proxyauction.verify as verify_module

    names, codes = set(), [fn.__code__ for fn in functions]
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_names"))
    modules = {
        getattr(getattr(verify_module, name), "__module__", None) or name
        for name in names & set(vars(verify_module))
    }
    assert not modules & {"proxyauction.lp", "proxyauction.simplex", "proxyauction.mechanism"}
    assert not names & {"lp", "simplex", "mechanism"}


def test_integral_optimum_reads_no_lp_or_mechanism():
    assert_reads_no_lp_or_mechanism(optimal_integral_welfare)


def test_integral_optimum_cap(monkeypatch):
    inst = generate("additive", 3, 4, 0)
    required = 3 * 3**4
    monkeypatch.setattr(ver, "INTEGRAL_CAP", required)
    assert optimal_integral_welfare(inst) == integral_welfare_by_products(inst)
    monkeypatch.setattr(ver, "INTEGRAL_CAP", required - 1)
    with pytest.raises(CapacityError) as info:
        optimal_integral_welfare(inst)
    assert info.value.required == required
    assert info.value.cap == required - 1
    assert "subset DP" in info.value.what


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


def test_proxy_bound_matches_the_fraction_oracle(corpus, truthful_corpus):
    for item in corpus + truthful_corpus:
        res = check_proxy_bound(item.instance)
        assert res.details["violations"] == proxy_bound_violations_by_fractions(item.instance)


def test_proxy_bound_flags_subadditivity_violations():
    # a complement-style table: the bound needs subadditivity and fails here
    v = ExplicitValuation(2, {0: 0, 1: 0, 2: 0, 3: 10})
    res = check_proxy_bound(Instance(2, (v,)), cs=(F(1, 2),))
    assert not res.passed
    assert res.witness["bundle"] == [0, 1]


def test_proxy_bound_violation_bytes_match_the_fraction_oracle():
    # a non-subadditive explicit table with a fractional, abnormal empty value
    v = ExplicitValuation(3, {0: F(1, 3), 1: 1, 2: 0, 3: 5, 4: F(1, 2), 5: 1, 6: 1, 7: F(27, 4)})
    inst = Instance(3, (AdditiveValuation([1, 2, 3]), v))
    res = check_proxy_bound(inst)
    assert res.details["violations"] == proxy_bound_violations_by_fractions(inst)
    assert res.witness == {
        "bidder": 1, "c": "1/2", "bundle": [0, 1], "proxy": "19/12", "scaled_value": "5/2"
    }
    assert len(res.details["violations"]) == 7


# -- halting frequency ---------------------------------------------------------------


def test_halt_frequency_zero_for_disjoint_supports():
    inst = Instance(2, (AdditiveValuation([3, 0]), AdditiveValuation([0, 5])))
    config = MechanismConfig(c=F(1, 2), p=F(1, 20))
    res = check_halt_frequency(Pipeline(inst, config))
    assert res.passed and res.details["halt_probability"] == "0"


def test_halt_frequency_impossible_when_inv_c_at_least_n():
    inst = generate("xos", 3, 4, 1)
    config = MechanismConfig(c=F(1, 3), p=F(1, 20))  # 1/c = 3 = n
    res = check_halt_frequency(Pipeline(inst, config))
    assert res.details == {"halt_probability": "0", "bound": "1/4", "inv_c": 3}


def test_halt_frequency_matches_exact_probability():
    # bidders 1 and 2 collide on item 1 with probability 1/2 * 1/2, whichever
    # q variant the pipeline cancels by
    inst, sol = overlap_demo()
    for config in overlap_configs():
        res = check_halt_frequency(Pipeline(inst, config, solution=sol))
        assert res.details == {"halt_probability": "1/4", "bound": "1/2", "inv_c": 1}
        assert res.passed


@pytest.mark.parametrize("solver", ["full", "column-generation"])
@pytest.mark.parametrize("n, objective, halt", [(3, "131/30", "1/3"), (4, "71/15", "7/54")])
def test_halt_frequency_on_the_affine_plane(n, objective, halt, solver):
    # lines of n slopes over 9 points at c = 1/2: the exact halt probability
    # exceeds 1/9 at both sizes, and m = 9 with 1/c = 2 is outside the paper's regime
    config = MechanismConfig(c=F(1, 2), p=F(1, 20), solver=solver)
    pipeline = Pipeline(affine_plane(n), config)
    assert str(pipeline.solution.objective) == objective
    res = check_halt_frequency(pipeline)
    assert res.details == {"halt_probability": halt, "bound": "1/9", "inv_c": 2}
    assert (res.passed, res.asserted) == (False, False)


def test_halt_frequency_is_the_laws_halted_mass(corpus, truthful_corpus):
    # the exact outcome law as the oracle, wherever it builds (it raises
    # where some q_i > 1 - p)
    compared = halting = 0
    for item in (*corpus, *truthful_corpus):
        for c in sorted({item.config.c, F(1), F(1, 2), F(1, 3)}):
            for solver in ("full", "column-generation"):
                config = replace(item.config, c=c, solver=solver)
                pipeline = Pipeline(item.instance, config)
                try:
                    law = exact_distribution(pipeline)
                except ParameterError:
                    continue
                halted = sum((a.probability for a in law.atoms if a.halted), F(0))
                res = check_halt_frequency(pipeline)
                assert res.details["halt_probability"] == str(halted), (item.label, c, solver)
                assert res.passed == (halted <= F(1, item.instance.m))
                compared += 1
                halting += halted > 0
    # 4 of the 216 cases raise, and 4 of the rest halt with positive probability
    assert (compared, halting) == (212, 4)


@given(sol=feasible_solutions(), c=st.sampled_from([F(1), F(1, 2), F(1, 3)]))
@settings(max_examples=100, deadline=None)
def test_halt_frequency_is_the_laws_halted_mass_on_hand_built_solutions(sol, c):
    inst = Instance(sol.m, tuple(AdditiveValuation([1] * sol.m) for _ in range(sol.n)))
    pipeline = Pipeline(inst, MechanismConfig(c=c, p=F(1, 20)), solution=sol)
    try:
        law = exact_distribution(pipeline)
    except ParameterError:
        return
    halted = sum((a.probability for a in law.atoms if a.halted), F(0))
    assert check_halt_frequency(pipeline).details["halt_probability"] == str(halted)


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


def exact_table(v) -> list:
    """v's value table as exact values indexed by mask."""
    nums, den = v.value_table
    return [F(x, den) for x in nums]


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_misreport_tables_scale_or_perturb_the_true_table(kind, m):
    delta = MISREPORT_PERTURBATION
    for v in generate(kind, 3, m, 11).valuations:
        truth = exact_table(v)
        family = misreport_family(v)
        reports = dict(family)
        assert len(reports) == len(family)  # labels are distinct
        for label, f in (("scale-1/2", F(1, 2)), ("scale-2", F(2))):
            assert exact_table(reports[label]) == [f * x for x in truth], label
        perturbed = 0
        for label, report in family:
            sign, _, text = label.partition("{")
            if sign not in ("bump+", "cut-"):
                continue
            perturbed += 1
            table = exact_table(report)
            [mask] = [mask for mask, (x, y) in enumerate(zip(truth, table)) if x != y]
            assert text_of(mask) == "{" + text
            want = truth[mask] + delta if sign == "bump+" else max(F(0), truth[mask] - delta)
            assert table[mask] == want, label
        bumps = (1 << m) - 1 if isinstance(v, ExplicitValuation) else 0
        cuts = sum(x > 0 for x in truth[1:]) if bumps else 0
        assert perturbed == bumps + cuts


def test_single_bidder_truthfulness():
    inst = Instance(2, (AdditiveValuation([3, 5]),))
    config = MechanismConfig(c=F(1, 2), p=F(1, 20))
    res = check_truthfulness(*prepared(inst, config))
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
    res = check_truthfulness(*prepared(item.instance, item.config))
    assert res.passed, res.witness
    assert res.details["misreports_checked"] > 0


def test_truthfulness_under_own_items_is_recorded_not_asserted():
    inst = generate("explicit-subadditive", 2, 2, 5)
    config = MechanismConfig(c=F(1, 2), p=F(1, 20), q_variant=Q_OWN_ITEMS)
    res = check_truthfulness(*prepared(inst, config))
    assert isinstance(res.passed, bool)  # outcome recorded either way
    assert not res.asserted


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
    """Every full proxy LP of both corpora under the cap, with its zeroed-bidder LPs.

    After the cache is cleared, the LP walks its constraints once (a miss);
    its zeroed-bidder LPs and the LP itself again score the cached points.
    The oracle walks each constraint matrix once and scores every LP over it.
    """
    lps = {}
    for item in [*corpus, *truthful_corpus]:
        lp = build_full_lp(item.instance, item.instance.proxies(item.config.c))
        if bases(lp) <= VERTEX_ENUM_CAP:
            lps[item.label] = [lp] + [lp.zero_bidder(i) for i in range(lp.n)]
    by_matrix = {}
    for label, variants in lps.items():
        for k, variant in enumerate(variants):
            columns = tuple((col.bidder, col.bundle) for col in variant.columns)
            by_matrix.setdefault(columns, []).append((label, k, variant))
    optimum = {}
    for group in by_matrix.values():
        values = vertex_optima_by_combinations([variant for _, _, variant in group])
        for (label, k, _), value in zip(group, values):
            optimum[label, k] = value
    checked = 0
    for label, variants in lps.items():
        _feasible_points.cache_clear()
        for k, variant in enumerate(variants):
            assert enumerate_vertex_optimum(variant) == optimum[label, k], label
            info = _feasible_points.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, k, 1), label
            checked += 1
        assert enumerate_vertex_optimum(variants[0]) == optimum[label, 0]
        assert _feasible_points.cache_info().misses == 1
    assert (len(lps), len(by_matrix)) == (19, 4)  # (n, m) = (1, 4), (2, 3), (3, 2), (2, 2)
    assert checked == 62  # 19 LPs under the cap and their 43 zeroed-bidder variants


def test_vertex_points_are_cached_per_constraint_matrix():
    # equal (n, m) but different columns: two walks and two entries; equal
    # columns under other coefficients: one entry, scored again
    keys = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)]
    first = config_lp(2, 2, [Column(i, mask, F(1 + mask, 2)) for i, mask in keys])
    second = config_lp(2, 2, [Column(i, mask, F(1 + mask, 2)) for i, mask in keys[:4]])
    recosted = config_lp(2, 2, [Column(i, mask, F(3 - i)) for i, mask in keys])
    _feasible_points.cache_clear()
    for lp, misses in ((first, 1), (second, 2), (recosted, 2)):
        assert enumerate_vertex_optimum(lp) == vertex_optimum_by_combinations(lp)
        assert _feasible_points.cache_info().misses == misses
    assert _feasible_points.cache_info().currsize == 2
    assert len(basic_feasible_points(first)) == 11
    assert basic_feasible_points(recosted) is basic_feasible_points(first)
    for den, support in basic_feasible_points(first):
        assert den > 0 and all(num > 0 for _, num in support)
        assert math.gcd(den, *(num for _, num in support)) == 1
        assert [j for j, _ in support] == sorted({j for j, _ in support})


def test_vertex_enumeration_reads_no_lp_or_mechanism():
    assert_reads_no_lp_or_mechanism(
        enumerate_vertex_optimum, basic_feasible_points, _feasible_points.__wrapped__
    )


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
    columns = tuple(Column(i, mask, draw(coefs)) for i, mask in chosen)
    lp = config_lp(n, m, columns)
    while bases(lp) > 3000:  # keep the oracle quick
        lp = config_lp(n, m, lp.columns[:-1])
    return lp


@settings(max_examples=120, deadline=None)
@given(small_config_lps())
def test_vertex_enumeration_matches_combinations_oracle_on_small_lps(lp):
    assert enumerate_vertex_optimum(lp) == vertex_optimum_by_combinations(lp)


def test_vertex_enumeration_cap_matches_combinations_oracle(corpus, monkeypatch):
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
    want = ("basic-solution enumeration", 210, 209)
    monkeypatch.setattr(ver, "VERTEX_ENUM_CAP", 209)
    assert capacity(enumerate_vertex_optimum, small) == want
    assert capacity(vertex_optimum_by_combinations, small, cap=209) == want
    monkeypatch.setattr(ver, "VERTEX_ENUM_CAP", 210)
    assert enumerate_vertex_optimum(small) == vertex_optimum_by_combinations(small, cap=210)
    # small's points are cached now; the cap is still checked, before the lookup
    hits = _feasible_points.cache_info().hits
    monkeypatch.setattr(ver, "VERTEX_ENUM_CAP", 209)
    assert capacity(enumerate_vertex_optimum, small) == want
    assert _feasible_points.cache_info().hits == hits


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
    res = check_truthfulness(*prepared(item.instance, cfg))
    assert res.passed, res.witness


# -- each check fails on a broken input ---------------------------------------------
# The input is broken and the check runs as written: a law shifted with
# dataclasses.replace, a pipeline given a non-optimal solution or another LP,
# a mechanism that charges nothing, a mechanism that always halts.


def contended_law(corpus):
    item = corpus[22]  # xos n3 m4 at c = 1/2: halts, and every q is live
    return prepared(item.instance, item.config)


def test_welfare_identity_fails_on_a_shifted_expected_welfare(corpus):
    pipeline, law = contended_law(corpus)
    res = check_welfare_identity(pipeline, replace(law, expected_welfare=law.expected_welfare + 1))
    assert res.passed is False
    assert res.details["gap"] == "-1"
    assert res.details["p_times_objective"] == str(pipeline.config.p * law.objective)


def test_keep_marginals_fails_on_one_shifted_marginal(corpus):
    pipeline, law = contended_law(corpus)
    first, *rest = law.entries
    shifted = replace(first, marginal=first.marginal + F(1, 100))
    res = check_keep_marginals(pipeline, replace(law, entries=(shifted, *rest)))
    assert res.passed is False
    assert res.details["deficits"] == [res.witness]
    assert res.witness == {
        "bidder": first.bidder,
        "bundle": index_list(first.bundle),
        "x": str(first.x),
        "target": str(pipeline.config.p * first.x),
        "marginal": str(shifted.marginal),
        "deficit": "-1/100",
    }


def test_approximation_fails_on_a_law_of_zero_welfare(corpus):
    pipeline, law = contended_law(corpus)
    res = check_approximation(pipeline, replace(law, expected_welfare=F(0)))
    assert res.passed is False
    # c * p * OPT = 1/2 * 1/20 * 24
    assert (res.details["integral_opt"], res.details["c_p_opt"]) == ("24", "3/5")


def test_monte_carlo_fails_on_a_shifted_exact_mean(corpus):
    pipeline, law = contended_law(corpus)
    res = check_monte_carlo(pipeline, replace(law, expected_welfare=law.expected_welfare + 1), 200)
    assert res.passed is False
    assert res.details["exact_mean"] == str(law.expected_welfare + 1)
    assert check_monte_carlo(pipeline, law, 200).passed


def half_of(solution: FractionalSolution) -> FractionalSolution:
    """A feasible, non-optimal point: every entry and the objective halved."""
    entries = {key: x / 2 for key, x in solution.entries.items()}
    return replace(solution, entries=entries, objective=solution.objective / 2)


@pytest.mark.parametrize(
    "index, reported, optimum, vertex",
    [(8, "15/2", "15", "skipped (beyond cap)"), (12, "3/8", "3/4", "3/4")],
    ids=["08-beyond-the-vertex-cap", "12-under-the-vertex-cap"],
)
def test_lp_agreement_fails_on_a_non_optimal_solution(corpus, index, reported, optimum, vertex):
    item = corpus[index]
    solution = half_of(Pipeline(item.instance, item.config).solution)
    res = check_lp_agreement(Pipeline(item.instance, item.config, solution=solution))
    assert res.passed is False
    assert res.details == {
        "simplex_objective": reported,
        "column_generation_objective": optimum,
        "vertex_enumeration_objective": vertex,
    }


def test_lp_agreement_fails_when_only_vertex_enumeration_disagrees(corpus):
    # column generation prices the pipeline's proxies and agrees with its
    # solution; the LP the pipeline lends scores bidder 0 at zero
    item = corpus[12]
    pipeline = Pipeline(item.instance, item.config)
    pipeline._lp = pipeline.lp.zero_bidder(0)
    res = check_lp_agreement(pipeline)
    assert res.passed is False
    assert res.details == {
        "simplex_objective": "3/4",
        "column_generation_objective": "3/4",
        "vertex_enumeration_objective": "3/8",
    }


def test_truthfulness_fails_when_nobody_is_charged(truthful_corpus, monkeypatch):
    # with no charge, reporting twice the true table wins more of the LP
    monkeypatch.setattr(Pipeline, "payments", lambda self: [F(0)] * self.instance.n)
    failing = {}
    for item in truthful_corpus:
        res = check_truthfulness(*prepared(item.instance, item.config))
        if not res.passed:
            assert res.witness == res.details["violations"][0]
            failing[item.label[:3]] = res.witness["misreport"]
    assert failing == dict.fromkeys(["T01", "T06", "T09", "T11", "T12"], "scale-2")


def test_halt_frequency_fails_when_every_run_halts():
    # rows against columns at c = 1: every tentative assignment halts
    pipeline = Pipeline(rows_against_columns(), MechanismConfig(c=F(1), p=F(1, 20)))
    res = check_halt_frequency(pipeline)
    assert res.passed is False
    assert res.details == {"halt_probability": "1", "bound": "1/4", "inv_c": 1}
    # c = 1 lies outside the paper's regime, c <= default_params(4)'s 1/200
    assert res.asserted is False


def test_halt_frequency_fails_asserted_in_the_papers_regime():
    # at m = 4 and c = 1/200 = default_params(4)'s c, 201 bidders each
    # holding item 0 with mass 1 overfill it on every run
    n = 201
    inst = Instance(4, tuple(AdditiveValuation([1, 0, 0, 0]) for _ in range(n)))
    sol = FractionalSolution(n=n, m=4, entries={(i, 0b0001): F(1) for i in range(n)},
                             objective=F(n, 200))
    pipeline = Pipeline(inst, MechanismConfig(c=F(1, 200), p=F(1, 20)), solution=sol)
    res = check_halt_frequency(pipeline)
    assert res.asserted and res.passed is False
    assert res.details == {"halt_probability": "1", "bound": "1/4", "inv_c": 200}
