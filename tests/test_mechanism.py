import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import oracles
import pytest
from fixtures import (
    AUCTION_SHAPES,
    any_kind_instances,
    feasible_solutions,
    overlap_demo,
    random_feasible_solution,
    rows_against_columns,
)
from hypothesis import given, settings, strategies as st
from oracles import (
    charges_by_cold_solves,
    item_lottery,
    personal_cancel,
    q_by_assignments,
    sample_by_definition,
    sample_by_steps,
    tentative_bundles,
)

from proxyauction import mechanism
from proxyauction import rng as rngmod
from proxyauction.errors import (
    CapacityError,
    ContractViolationError,
    InfeasibleSolutionError,
    ParameterError,
)
from proxyauction.generators import generate
from proxyauction.lp import FractionalSolution, build_full_lp, solve_exact
from proxyauction.mechanism import (
    SOLVER_COLGEN,
    SOLVER_FULL,
    MechanismConfig,
    Outcome,
    Pipeline,
    Q_HALT,
    Q_OWN_ITEMS,
    compute_q,
    default_params,
    draw_tables,
    halt_check,
    realized_welfare,
    run,
    survival_probability,
    tentative_indices,
    tentative_law,
)
from proxyauction.rng import derive_seed, derive_seeds
from proxyauction.serialize import config_from_dict, load_instance, load_json
from proxyauction.valuations import AdditiveValuation, Instance, UnitDemandValuation
from proxyauction.verify import exact_distribution


def within_3_sigma(freq, prob, trials):
    return abs(freq - float(prob)) <= 3 * math.sqrt(float(prob) * (1 - float(prob)) / trials)


def one_bidder_solution(mass, bundle=1, n=1, m=1, bidder=0):
    return FractionalSolution(n=n, m=m, entries={(bidder, bundle): F(mass)}, objective=F(0))


# -- parameters ---------------------------------------------------------------


def test_default_params_frozen_values():
    assert default_params(256) == (F(1, 267), F(1, 20))
    assert default_params(16) == (F(1, 200), F(1, 20))
    assert default_params(64) == (F(1, 233), F(1, 20))
    assert default_params(1024) == (F(1, 302), F(1, 20))  # 1000/log2(10) -> ceil


def test_default_params_rejects_tiny_universes():
    for m in (1, 2, 3):
        with pytest.raises(ParameterError):
            default_params(m)


def test_config_validation():
    MechanismConfig(c=F(1), p=F(1))  # boundary values are legal
    with pytest.raises(ParameterError):
        MechanismConfig(c=F(2, 3), p=F(1, 2))
    with pytest.raises(ParameterError):
        MechanismConfig(c=F(1, 2), p=F(0))
    with pytest.raises(ParameterError):
        MechanismConfig(c=F(1, 2), p=F(1, 2), q_variant="sometimes")
    with pytest.raises(ParameterError):
        MechanismConfig(c=F(1, 2), p=F(1, 2), seed=-1)
    with pytest.raises(ParameterError):
        MechanismConfig(c=F(1, 2), p=F(1, 2), seed=1 << 64)
    MechanismConfig(c=F(1, 2), p=F(1, 2), seed=(1 << 64) - 1)


@pytest.mark.parametrize(
    "c, p",
    [(F(1, 2), 0.05), (True, F(1, 20)), (0.5, F(1, 20)), ("1/2", F(1, 20))],
    ids=["p-0.05", "c-true", "c-0.5", "c-text"],
)
def test_config_refuses_c_and_p_that_are_not_exact_numbers(c, p):
    # a float would be taken as its binary value (0.05 is not 1/20) and True as 1
    with pytest.raises(ParameterError, match="must be a Fraction or an int"):
        MechanismConfig(c=c, p=p)
    assert MechanismConfig(c=1, p=F(1, 20)).c == 1


@pytest.mark.parametrize("seed", [True, 7.0, 7.9, F(7)], ids=["true", "7.0", "7.9", "fraction-7"])
def test_config_refuses_a_seed_that_is_not_an_int(seed):
    # each converts by int(), but the written config would not read back (a bool
    # or float), would draw as another seed (7.9 as 7), or would not encode (Fraction)
    with pytest.raises(ParameterError, match="seed must be an int"):
        MechanismConfig(c=F(1, 2), p=F(1, 2), seed=seed)


# -- tentative draw -----------------------------------------------------------


def drawn_bundles(tables, seeds):
    """Step 3's bundles for each seed: the table entries ``tentative_indices`` picks."""
    return [
        tuple(bundles[k] for (bundles, _, _), k in zip(tables, picks))
        for picks in tentative_indices(tables, [rngmod.stream(seed) for seed in seeds])
    ]


def test_tentative_draw_deterministic_mass_one():
    sol = one_bidder_solution(1)
    assert drawn_bundles(draw_tables(sol), range(25)) == [(1,)] * 25


def test_tentative_draw_empty_solution():
    sol = FractionalSolution(n=3, m=2, entries={}, objective=F(0))
    assert drawn_bundles(draw_tables(sol), [7]) == [(0,) * 3]


def test_tentative_draw_frequency():
    sol = one_bidder_solution(F(1, 2))
    tables = draw_tables(sol)
    trials = 10_000
    seeds = [derive_seed(3, "t", k) for k in range(trials)]
    hits = sum(bundles[0] == 1 for bundles in drawn_bundles(tables, seeds))
    assert within_3_sigma(hits / trials, F(1, 2), trials)


def test_tentative_draw_rejects_overweight_bidder():
    sol = FractionalSolution(
        n=1, m=2, entries={(0, 1): F(3, 4), (0, 2): F(1, 2)},
        objective=F(0),
    )
    with pytest.raises(InfeasibleSolutionError):
        draw_tables(sol)


def test_tentative_law_is_the_support_then_a_positive_residual():
    sol = FractionalSolution(
        n=2, m=2,
        entries={(0, 2): F(1, 3), (0, 1): F(1, 6), (1, 3): F(1)},
        objective=F(0),
    )
    assert tentative_law(sol, 0) == [(1, F(1, 6)), (2, F(1, 3)), (0, F(1, 2))]
    assert tentative_law(sol, 1) == [(3, F(1))]
    # the draw tables follow the laws: no empty bundle after a full mass
    assert [table[0] for table in draw_tables(sol)] == [[1, 2, 0], [3]]


@pytest.mark.parametrize("stage", ["tentative_law", "draw_tables", "compute_q", "exact"])
def test_an_overfull_bidder_raises_a_typed_error(stage):
    # bidder 0's masses sum to 5/4 while every item constraint holds
    sol = FractionalSolution(
        n=2, m=2,
        entries={(0, 1): F(3, 4), (0, 2): F(1, 2), (1, 1): F(1, 4)},
        objective=F(0),
    )
    instance = Instance(2, (AdditiveValuation([1, 1]), AdditiveValuation([1, 1])))
    calls = {
        "tentative_law": lambda: tentative_law(sol, 0),
        "draw_tables": lambda: draw_tables(sol),
        # bidder 1's q reads bidder 0's law
        "compute_q": lambda: compute_q(sol, 1, 1, F(1)),
        "exact": lambda: exact_distribution(
            Pipeline(instance, MechanismConfig(c=F(1), p=F(1, 20)), solution=sol)
        ),
    }
    with pytest.raises(InfeasibleSolutionError):
        calls[stage]()


# -- halt check ----------------------------------------------------------------


def test_halt_is_strictly_more_than_inv_c():
    bundles = (1, 1)
    assert not halt_check(bundles, F(1, 2))  # two holders, 1/c = 2: not more than 1/c
    assert halt_check(bundles, F(1))


def test_halt_disjoint_never():
    assert not halt_check((1, 2), F(1))


@given(
    m=st.integers(1, 6),
    masks=st.lists(st.integers(0, 63), min_size=1, max_size=5),
    c=st.sampled_from([F(1), F(1, 2), F(1, 3)]),
)
@settings(max_examples=300, deadline=None)
def test_halt_check_counts_holders_per_item(m, masks, c):
    bundles = tuple(mask % (1 << m) for mask in masks)
    counted = any(
        sum((bundle >> j) & 1 for bundle in bundles) > c.denominator for j in range(m)
    )
    assert halt_check(bundles, c) == counted


# -- q computation --------------------------------------------------------------


def overlap_two_bidder_solution():
    # bidder 1 splits between {0} and {1}; bidder 0's bundle is supplied per test
    return FractionalSolution(
        n=2,
        m=2,
        entries={(1, 1): F(1, 2), (1, 2): F(1, 2)},
        objective=F(0),
    )


def test_q_half_when_other_bidder_splits():
    sol = overlap_two_bidder_solution()
    for variant in (Q_HALT, Q_OWN_ITEMS):
        assert compute_q(sol, 0, 1, F(1), variant) == F(1, 2)


def test_q_zero_without_other_bidders():
    sol = one_bidder_solution(1)
    assert compute_q(sol, 0, 1, F(1), Q_HALT) == 0


def test_q_zero_when_no_overlap_possible():
    sol = FractionalSolution(
        n=2, m=2, entries={(1, 2): F(1)}, objective=F(0)
    )
    assert compute_q(sol, 0, 1, F(1), Q_HALT) == 0
    assert compute_q(sol, 0, 1, F(1), Q_OWN_ITEMS) == 0


def test_q_variants_differ_on_outside_items():
    # halts caused by items outside the bidder's bundle are invisible to own-items
    _, sol = overlap_demo()
    assert compute_q(sol, 0, 1, F(1), Q_HALT) == F(1, 4)
    assert compute_q(sol, 0, 1, F(1), Q_OWN_ITEMS) == 0


def test_q_for_empty_bundle():
    _, sol = overlap_demo()
    assert compute_q(sol, 0, 0, F(1), Q_HALT) == F(1, 4)
    assert compute_q(sol, 0, 0, F(1), Q_OWN_ITEMS) == 0


def test_q_atom_cap(monkeypatch):
    sol = overlap_two_bidder_solution()
    size = len(tentative_law(sol, 1))  # the other bidder's draws
    monkeypatch.setattr(mechanism, "ATOM_CAP", size - 1)
    with pytest.raises(CapacityError) as info:
        compute_q(sol, 0, 1, F(1), Q_HALT)
    assert (info.value.what, info.value.required, info.value.cap) == (
        "q enumeration over joint draws", size, size - 1,
    )
    monkeypatch.setattr(mechanism, "ATOM_CAP", size)
    assert compute_q(sol, 0, 1, F(1), Q_HALT) == F(1, 2)


def test_q_is_zero_without_an_enumeration_when_n_is_at_most_inv_c():
    # twelve bidders, each with mass 1/12 on every singleton of four items:
    # the other bidders' joint draws number 5^11, past the cap
    entries = {(i, 1 << j): F(1, 12) for i in range(12) for j in range(4)}
    sol = FractionalSolution(n=12, m=4, entries=entries, objective=F(0))
    assert 5**11 > mechanism.ATOM_CAP
    for variant in (Q_HALT, Q_OWN_ITEMS):
        assert compute_q(sol, 0, 1, F(1, 12), variant) == 0
    # n = 1/c + 1: the enumeration runs, and meets its cap
    with pytest.raises(CapacityError) as info:
        compute_q(sol, 0, 1, F(1, 11))
    assert info.value.required == 5**11
    # bidder 5's mass is 13/12: its law raises before the shortcut
    overfull = FractionalSolution(
        n=12, m=4, entries={**entries, (5, 0b1111): F(3, 4)}, objective=F(0)
    )
    with pytest.raises(InfeasibleSolutionError):
        compute_q(overfull, 0, 1, F(1, 12))
    # n = 1/c + 1 on the overlap demo: bidders 1 and 2 join bidder 0 on item 1
    _, demo = overlap_demo()
    assert compute_q(demo, 0, 0b10, F(1, 2)) == F(1, 4)


def test_q_equals_the_assignment_oracle_on_both_corpora():
    live = 0
    for label, instance, config in corpus_cases():
        sol = Pipeline(instance, config).solution
        for c in (F(1), F(1, 2), F(1, 3)):
            for variant in (Q_HALT, Q_OWN_ITEMS):
                for i, bundle, _ in sol.support():
                    q = compute_q(sol, i, bundle, c, variant)
                    assert q == q_by_assignments(sol, i, bundle, c, variant), (label, c, i)
                    live += q > 0
    assert live > 0


@given(
    sol=feasible_solutions(),
    c=st.sampled_from([F(1), F(1, 2), F(1, 3)]),
    mask=st.integers(0, 15),
)
@settings(max_examples=100, deadline=None)
def test_q_equals_the_assignment_oracle_on_hand_built_solutions(sol, c, mask):
    # every support entry, and per bidder one bundle drawn from all of them
    bundles = [(i, bundle) for i, bundle, _ in sol.support()]
    bundles += [(i, mask % (1 << sol.m)) for i in range(sol.n)]
    for variant in (Q_HALT, Q_OWN_ITEMS):
        for i, bundle in bundles:
            assert compute_q(sol, i, bundle, c, variant) == q_by_assignments(
                sol, i, bundle, c, variant
            )


# -- item lottery ----------------------------------------------------------------
# item_lottery and personal_cancel are the per-step oracle of Pipeline.sample
# (tests/oracles.py); the tests below fix their law, and the sample tests
# further down compare the pipeline with them seed for seed.


def test_lottery_saturated_item_always_assigned():
    for seed in range(40):
        kept = item_lottery((1, 1), F(1, 2), seed)
        assert sum(bin(k).count("1") for k in kept) == 1  # probabilities sum to exactly 1


def test_lottery_unheld_item_goes_nowhere():
    assert item_lottery((0,), F(1, 2), 0) == (0,)


def test_lottery_keep_frequency():
    trials = 10_000
    hits = sum(
        bool(item_lottery((1,), F(1, 2), derive_seed(1, "l", k))[0]) for k in range(trials)
    )
    assert within_3_sigma(hits / trials, F(1, 2), trials)


def test_lottery_at_c_one_builds_no_stream(monkeypatch):
    def no_stream(*labels):
        raise AssertionError("a certain lottery built a stream")

    monkeypatch.setattr(oracles, "stream_by_definition", no_stream)
    bundles = (0b01, 0b10)
    assert item_lottery(bundles, F(1), 3) == bundles


def test_lottery_requires_halt_check():
    with pytest.raises(ContractViolationError):
        item_lottery((1, 1), F(1), 0)


def test_lottery_joint_law_is_independent_per_item():
    # bidder 0 holds {0,1}, bidder 1 holds {1}: P(bidder 0 keeps both) = c * c,
    # and item decisions are independent across items
    bundles = (0b11, 2)
    c = F(1, 2)
    trials = 10_000
    counts = {}
    for k in range(trials):
        kept = item_lottery(bundles, c, derive_seed(8, "joint", k))
        counts[kept[0]] = counts.get(kept[0], 0) + 1
    # per-item keep probability for bidder 0 is c for item 0 and c for item 1
    expect = {0b11: c * c, 0b01: c * (1 - c), 0b10: (1 - c) * c, 0b00: (1 - c) ** 2}
    for mask, prob in expect.items():
        assert within_3_sigma(counts.get(mask, 0) / trials, prob, trials), (mask, counts)


def test_q_bound_under_default_parameters():
    # with the m-derived keep probability, measured q values stay below 1/m
    from proxyauction.valuations import AdditiveValuation as Add

    m = 64
    c, p = default_params(m)
    inst = Instance(m, tuple(Add([1] * m) for _ in range(5)))
    config = MechanismConfig(c=c, p=p)
    for seed in range(3):
        sol = random_feasible_solution(5, m, seed, bundles_per_bidder=3, max_bundle_items=5)
        for i, bundle, _ in sol.support():
            q = compute_q(sol, i, bundle, c, Q_HALT)
            assert q <= F(1, m)


# -- personal cancel ---------------------------------------------------------------


def test_cancel_keep_probability_exact_cases():
    kept = (1,)
    survival = [survival_probability(F(0), F(1, 20), 0)]
    trials = 10_000
    hits = sum(
        bool(personal_cancel(kept, survival, derive_seed(2, "c", k))[0])
        for k in range(trials)
    )
    assert within_3_sigma(hits / trials, F(1, 20), trials)
    # q = 1 - p keeps with probability one
    survival = [survival_probability(F(19, 20), F(1, 20), 0)]
    for seed in range(30):
        assert personal_cancel(kept, survival, seed)[0] == 1


def test_cancel_half_when_q_half_p_quarter():
    kept = (1,)
    survival = [survival_probability(F(1, 2), F(1, 4), 0)]
    trials = 10_000
    hits = sum(
        bool(personal_cancel(kept, survival, derive_seed(4, "c", k))[0])
        for k in range(trials)
    )
    assert within_3_sigma(hits / trials, F(1, 2), trials)


def test_cancel_rejects_infeasible_q():
    with pytest.raises(ParameterError) as err:
        survival_probability(F(1, 2), F(9, 10), 0)
    assert "q_i" in str(err.value)


# -- full runs ---------------------------------------------------------------------


def test_single_bidder_run_law():
    inst = Instance(2, (AdditiveValuation([3, 5]),))
    config = MechanismConfig(c=F(1), p=F(1, 2), seed=0)
    pipe = Pipeline(inst, config)
    trials = 10_000
    full = 0
    for out in pipe.sample([derive_seed(0, "r", k) for k in range(trials)]):
        assert out.final[0] in (0, 0b11)
        full += out.final[0] == 0b11
    assert within_3_sigma(full / trials, F(1, 2), trials)


def test_zero_valuations_run():
    inst = Instance(2, (AdditiveValuation([0, 0]), AdditiveValuation([0, 0])))
    config = MechanismConfig(c=F(1, 2), p=F(1, 20), seed=3)
    out = run(inst, config)
    assert out.final == (0, 0)
    assert realized_welfare(inst, out) == 0


def test_run_is_deterministic():
    inst = Instance(3, (AdditiveValuation([2, 0, 1]), UnitDemandValuation([1, 3, 1])))
    config = MechanismConfig(c=F(1, 2), p=F(1, 20), seed=123456789)
    assert run(inst, config, with_payments=True) == run(inst, config, with_payments=True)


def test_run_monte_carlo_tracks_exact_expectation():
    # two bidders demanding disjoint items: welfare averages to p * LP objective
    inst = Instance(2, (AdditiveValuation([3, 0]), AdditiveValuation([0, 5])))
    config = MechanismConfig(c=F(1, 2), p=F(1, 4), seed=9)
    pipe = Pipeline(inst, config)
    target = config.p * pipe.solution.objective
    trials = 10_000
    total = F(0)
    values = []
    for out in pipe.sample([derive_seed(9, "mc", k) for k in range(trials)]):
        w = realized_welfare(inst, out)
        total += w
        values.append(w)
    mean = total / trials
    var = sum(((w - mean) ** 2 for w in values), F(0)) / (trials - 1)
    assert abs(float(mean - target)) <= 3 * math.sqrt(float(var) / trials)


def corpus_cases():
    """(file, instance, manifest config) for every instance of both corpora."""
    corpus_root = Path(__file__).parent.parent / "corpus"
    for name in ("standard", "truthfulness"):
        for entry in load_json(corpus_root / name / "manifest.json")["instances"]:
            instance = load_instance(corpus_root / name / entry["file"])
            yield entry["file"], instance, config_from_dict(entry["config"])


def test_sample_matches_definition_on_both_corpora():
    # Pipeline.sample against the step-3..7 definitions, seed for seed; the
    # contended instances make some outcomes halt
    halts = 0
    for label, instance, config in corpus_cases():
        pipe = Pipeline(instance, config)
        seeds = [derive_seed(config.seed, "equivalence", k) for k in range(200)]
        for k, (seed, out) in enumerate(zip(seeds, pipe.sample(seeds))):
            assert out == sample_by_definition(pipe, seed), (label, k)
            halts += out.halted
    assert halts > 0


def assert_sample_matches_steps(pipe, seeds, label=""):
    """Pipeline.sample == sample_by_steps over the seeds where the steps do not raise
    ParameterError; every seed where they do raises alone and in the whole list. The outcomes.
    """
    expected, raising = {}, []
    for seed in seeds:
        try:
            expected[seed] = sample_by_steps(pipe, seed)
        except ParameterError:
            raising.append(seed)
    for seed in raising:
        with pytest.raises(ParameterError):
            pipe.sample([seed])
    if raising:
        with pytest.raises(ParameterError):
            pipe.sample(seeds)
    outcomes = pipe.sample([seed for seed in seeds if seed in expected])
    assert outcomes == list(expected.values()), label
    return outcomes


def hashes_by_stage(monkeypatch) -> Counter:
    """Count SHAKE blocks by the stage label read from each hashed key."""
    real = rngmod.shake_256
    hashed = Counter()

    def counting(data):
        # data is repr(seed)|repr(stage)|repr(index) and an 8-byte block counter
        hashed[data[:-8].decode("utf-8").split("|")[1]] += 1
        return real(data)

    monkeypatch.setattr(rngmod, "shake_256", counting)
    return hashed


def test_sample_matches_the_step_functions_on_both_corpora():
    halts = 0
    for label, instance, config in corpus_cases():
        pipe = Pipeline(instance, config)
        outcomes = assert_sample_matches_steps(
            pipe, derive_seeds(config.seed, "steps", 2000), label
        )
        assert len(outcomes) == 2000, label
        halts += sum(out.halted for out in outcomes)
    assert halts > 0


CONTENDED = (
    "corpus/standard/22-xos-n3-m4-contended.json",
    "corpus/truthfulness/T12-explicit-n3-m4-contended.json",
)


@pytest.mark.parametrize("q_variant", [Q_HALT, Q_OWN_ITEMS])
@pytest.mark.parametrize("solver", [SOLVER_FULL, SOLVER_COLGEN])
def test_sample_matches_the_step_functions_for_each_variant_and_solver(q_variant, solver):
    root = Path(__file__).parent.parent
    for path in CONTENDED:
        config = MechanismConfig(c=F(1, 2), p=F(1, 20), q_variant=q_variant, solver=solver)
        pipe = Pipeline(load_instance(root / path), config)
        outcomes = assert_sample_matches_steps(pipe, derive_seeds(27, "variants", 2000), path)
        assert len(outcomes) == 2000
        assert any(out.halted for out in outcomes)
        assert any(any(out.final) for out in outcomes)


def test_sample_matches_the_step_functions_at_c_one(monkeypatch):
    # at c = 1 every kept item comes from the plan's base masks: no lottery site.
    # The generated mixed instance has a fractional LP there, so step 3 and the
    # halt are live; every corpus instance is integral at c = 1, or raises
    instance = generate("mixed", 3, 4, 8)
    config = MechanismConfig(c=F(1), p=F(1, 20), q_variant=Q_OWN_ITEMS)
    pipe = Pipeline(instance, config)
    hashed = hashes_by_stage(monkeypatch)
    outcomes = pipe.sample(derive_seeds(1, "c1", 2000))
    assert hashed["'lottery'"] == 0 and hashed["'tentative'"] > 0 and hashed["'cancel'"] > 0
    assert all(plan.lottery == () for plan in pipe.plans.values())
    assert outcomes == assert_sample_matches_steps(pipe, derive_seeds(1, "c1", 2000))
    assert any(out.halted for out in outcomes)
    raising = []
    for label, instance, config in corpus_cases():
        pipe = Pipeline(instance, replace(config, c=F(1)))
        if len(assert_sample_matches_steps(pipe, derive_seeds(2, "c1", 200), label)) < 200:
            raising.append(label)
    # some bundles of the two contended instances have q_i = 1 at c = 1
    assert sorted(raising) == ["22-xos-n3-m4-contended.json", "T12-explicit-n3-m4-contended.json"]


@given(
    instance=any_kind_instances(),
    c=st.sampled_from([F(1), F(1, 2), F(1, 3)]),
    p=st.sampled_from([F(1, 20), F(1, 4), F(1)]),
    q_variant=st.sampled_from([Q_HALT, Q_OWN_ITEMS]),
    solver=st.sampled_from([SOLVER_FULL, SOLVER_COLGEN]),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_sample_matches_the_step_functions_on_generated_instances(
    instance, c, p, q_variant, solver, seed
):
    pipe = Pipeline(instance, MechanismConfig(c=c, p=p, q_variant=q_variant, solver=solver))
    assert_sample_matches_steps(pipe, derive_seeds(seed, "generated", 100))


def test_sample_matches_the_step_functions_when_a_first_block_is_rejected(monkeypatch):
    # every stream's first block reads as all ones, in the package and in the
    # reference streams of tests/oracles.py: past the last whole multiple of any
    # denominator that is not a power of two, so those draws move to block 1
    real = rngmod.shake_256
    firsts = Counter()

    class AllOnesFirst:
        def __init__(self, data):
            self.data = data

        def digest(self, size):
            first = self.data.endswith(bytes(8))
            firsts[first] += 1
            return b"\xff" * size if first else real(self.data).digest(size)

    monkeypatch.setattr(rngmod, "shake_256", AllOnesFirst)
    monkeypatch.setattr(oracles, "shake_256", AllOnesFirst)
    root = Path(__file__).parent.parent
    for path in CONTENDED:
        for c in (F(1, 2), F(1, 3)):
            pipe = Pipeline(load_instance(root / path), MechanismConfig(c=c, p=F(1, 20)))
            seeds = derive_seeds(5, "reject", 300)
            assert len(assert_sample_matches_steps(pipe, seeds, path)) == len(seeds)
            for seed, out in zip(seeds[:50], pipe.sample(seeds[:50])):
                assert out == sample_by_definition(pipe, seed)
    assert firsts[True] > 0 and firsts[False] > 0  # some draws read a second block


def test_a_certain_tentative_choice_builds_no_stream(monkeypatch):
    # the LP of 08-xos-n3-m4 at c = 1/2 is integral: every bidder's bundle is certain
    instance = load_instance(Path(__file__).parent.parent / "corpus/standard/08-xos-n3-m4.json")
    pipe = Pipeline(instance, MechanismConfig(c=F(1, 2), p=F(1, 20), seed=4))
    assert all(x == 1 for _, _, x in pipe.solution.support())
    roots = Counter()
    real = mechanism.rngmod.stream

    def counting(seed, *labels):
        roots[labels] += 1
        return real(seed, *labels)

    monkeypatch.setattr(mechanism.rngmod, "stream", counting)
    hashed = hashes_by_stage(monkeypatch)
    outcomes = pipe.sample(derive_seeds(4, "certain", 1000))
    assert roots == {(): 1000}  # one root stream per sample, every site a child of it
    assert hashed["'tentative'"] == 0
    # one lottery per held item, one cancel draw per bidder that kept an item
    assert hashed["'lottery'"] == 1000 * instance.m
    assert hashed["'cancel'"] == sum(sum(map(bool, out.kept)) for out in outcomes)
    assert set(hashed) == {"'lottery'", "'cancel'"}
    assert len(pipe.plans) == 1


def test_a_repeated_outcome_is_one_object(corpus):
    item = corpus[22]
    pipe = Pipeline(item.instance, item.config)
    first = {}
    for out in pipe.sample(derive_seeds(6, "shared", 2000)):
        # tentative bundles name the plan; kept and final masks its outcome
        assert first.setdefault((out.tentative, out.kept, out.final), out) is out
    assert len(first) < 500  # 2,000 samples, about 200 distinct outcomes
    drawn = sum(len(plan.outcomes) for plan in pipe.plans.values())
    assert drawn + sum(plan.halted is not None for plan in pipe.plans.values()) == len(first)


def test_a_plan_that_raises_is_not_kept(corpus):
    # at p = 9/10 some bundles of the contended instance have q_i = 1/9 > 1 - p
    item = corpus[22]
    pipe = Pipeline(item.instance, replace(item.config, p=F(9, 10)))
    raised = set()
    for seed in derive_seeds(8, "raises", 300):
        [picks] = tentative_indices(pipe.tables, [rngmod.stream(seed)])
        try:
            pipe.sample([seed])
        except ParameterError:
            raised.add(picks)
        assert (picks in raised) != (picks in pipe.plans)
    assert raised and pipe.plans


@pytest.mark.parametrize("feasible_first", [0, 3, 12])
def test_a_run_raises_as_its_seeds_one_by_one_would(corpus, feasible_first):
    # at p = 9/10 some plans of the contended instance raise: a run whose seeds
    # mix feasible and infeasible plans raises the message the first raising
    # seed gives alone, and keeps the plans made before it, in the same order
    item = corpus[22]
    config = replace(item.config, p=F(9, 10))
    pool = derive_seeds(8, "raises", 300)
    probe = Pipeline(item.instance, config)
    feasible = [
        seed for seed, bundles in zip(pool, tentative_bundles(probe, pool))
        if all(probe.q(i, bundle) <= 1 - config.p for i, bundle in enumerate(bundles))
    ]
    seeds = feasible[:feasible_first] + pool
    one_by_one = Pipeline(item.instance, config)
    with pytest.raises(ParameterError) as first:
        for seed in seeds:
            one_by_one.sample([seed])
    run = Pipeline(item.instance, config)
    with pytest.raises(ParameterError) as got:
        run.sample(seeds)
    assert str(got.value) == str(first.value)
    assert list(run.plans) == list(one_by_one.plans)
    assert len(run.plans) >= min(feasible_first, 2)  # the feasible plans drawn first are kept


def test_every_sample_of_an_infeasible_q_plan_raises(corpus):
    # at p = 9/10 cancellation needs q_i <= 1/10, but the contended instance
    # has q_i = 1/9 for some bundles: exactly the samples drawing them raise,
    # halted or not
    item = corpus[22]
    config = replace(item.config, p=F(9, 10))
    pipe = Pipeline(item.instance, config)
    raised = 0
    for k in range(300):
        seed = derive_seed(7, "infeasible-q", k)
        [bundles] = tentative_bundles(pipe, [seed])
        infeasible = any(
            pipe.q(i, bundle) > 1 - config.p for i, bundle in enumerate(bundles)
        )
        for _ in range(2):  # a plan that raised is not kept
            if infeasible:
                with pytest.raises(ParameterError):
                    pipe.sample([seed])
            else:
                assert pipe.sample([seed]) == [sample_by_definition(pipe, seed)]
        raised += infeasible
    assert 0 < raised < 300


def test_the_cancellation_bound_holds_when_every_draw_halts():
    instance = rows_against_columns()
    pipe = Pipeline(instance, MechanismConfig(c=F(1), p=F(1, 20)))
    assert pipe.solution.objective == 4
    assert all(x == F(1, 2) for _, _, x in pipe.solution.support())
    for k in range(20):
        seed = derive_seed(3, "always-halts", k)
        [bundles] = tentative_bundles(pipe, [seed])
        assert halt_check(bundles, F(1))
        with pytest.raises(ParameterError, match="q_i = 1 >"):
            pipe.sample([seed])
    assert pipe.plans == {}
    with pytest.raises(ParameterError, match="q_i = 1 >"):
        exact_distribution(pipe)


def test_outcome_invariants_on_samples(corpus):
    item = corpus[22]
    pipe = Pipeline(item.instance, item.config)
    for out in pipe.sample([derive_seed(5, "inv", k) for k in range(200)]):
        taken = 0
        for tent, kept, final in zip(out.tentative, out.kept, out.final):
            assert kept & ~tent == 0 and final & ~kept == 0
            assert not (taken & final)
            taken |= final
        if out.halted:
            assert all(not b for b in out.final)


def test_outcome_rejects_overlapping_finals():
    from proxyauction.errors import InfeasibleSolutionError

    with pytest.raises(InfeasibleSolutionError):
        Outcome(
            halted=False,
            tentative=(1, 1),
            kept=(1, 1),
            final=(1, 1),
        )


# -- payments ------------------------------------------------------------------------


def test_single_bidder_pays_nothing():
    inst = Instance(2, (AdditiveValuation([3, 5]),))
    config = MechanismConfig(c=F(1, 2), p=F(1, 20))
    assert Pipeline(inst, config).payments() == (F(0),)


def test_disjoint_additive_bidders_pay_nothing():
    inst = Instance(2, (AdditiveValuation([3, 0]), AdditiveValuation([0, 5])))
    config = MechanismConfig(c=F(1, 2), p=F(1, 20))
    assert Pipeline(inst, config).payments() == (F(0), F(0))


def test_identical_unit_demand_bidders_single_item():
    # the bidder holding the LP mass pays p, the other pays nothing
    inst = Instance(1, (UnitDemandValuation([1]), UnitDemandValuation([1])))
    config = MechanismConfig(c=F(1), p=F(1, 20))
    pipe = Pipeline(inst, config)
    assert pipe.solution.entries == {(0, 1): 1}
    assert pipe.payments() == (F(1, 20), F(0))


def test_contested_additive_charges_frozen():
    # derived by solving the two reduced LPs by hand:
    # opt without 0 = (1+5)/2 = 3, others' share = 5/2 -> charge p/2
    inst = Instance(2, (AdditiveValuation([3, 1]), AdditiveValuation([1, 5])))
    config = MechanismConfig(c=F(1, 2), p=F(1, 4), seed=99)
    assert Pipeline(inst, config).payments() == (F(1, 8), F(1, 8))


def test_payments_nonnegative_and_bounded(corpus):
    for item in corpus[:6]:
        pipe = Pipeline(item.instance, item.config)
        charges = pipe.payments()
        for i, charge in enumerate(charges):
            assert charge >= 0
            assert charge <= item.config.p * pipe._optimum_without(i)


def payment_cases(corpus, truthful_corpus):
    for item in [*corpus, *truthful_corpus]:
        yield item.label, item.instance, item.config
    for kind, n, m in AUCTION_SHAPES:
        yield f"{kind}-n{n}-m{m}", generate(kind, n, m, 1), MechanismConfig(*default_params(m))


def basis_state(basis):
    """An optimum pass's keys and basis inverse state as plain values, copied."""
    return basis.keys, list(basis.basis), [list(row) for row in basis.M], list(basis.beta), basis.d


@pytest.mark.parametrize("solver", [SOLVER_FULL, SOLVER_COLGEN])
def test_warm_charges_equal_cold_charges(solver, corpus, truthful_corpus, monkeypatch):
    starts = []

    def recording(solve):
        def wrapped(*args, start_basis=None, **kwargs):
            starts.append(start_basis)
            return solve(*args, start_basis=start_basis, **kwargs)

        return wrapped

    for label, instance, config in payment_cases(corpus, truthful_corpus):
        pipeline = Pipeline(instance, replace(config, solver=solver))
        before = basis_state(pipeline.solution.basis)
        with monkeypatch.context() as patch:
            patch.setattr(mechanism, "solve_exact", recording(mechanism.solve_exact))
            patch.setattr(
                mechanism, "solve_column_generation", recording(mechanism.solve_column_generation)
            )
            charges = pipeline.payments()
        # a bidder without mass pays 0 unsolved; every other bidder's zeroed LP
        # resumed from the main solve's basis and left it as it was
        holders = {i for i, _, _ in pipeline.solution.support()}
        assert starts == [pipeline.solution.basis] * len(holders), label
        assert pipeline.solution.basis is not None, label
        assert basis_state(pipeline.solution.basis) == before, label
        starts.clear()
        assert charges == charges_by_cold_solves(pipeline), label


@pytest.mark.parametrize("solver", [SOLVER_FULL, SOLVER_COLGEN])
def test_a_given_solution_solves_every_zeroed_lp(solver, corpus):
    # the empty allocation is feasible but not optimal: nobody holds mass in
    # it, yet OPT without a bidder is positive, and so is the charge
    item = corpus[7]
    pipeline = Pipeline(
        item.instance, replace(item.config, solver=solver), solution=FractionalSolution(
            n=item.instance.n, m=item.instance.m, entries={}, objective=F(0)
        )
    )
    charges = pipeline.payments()
    assert all(charge > 0 for charge in charges)
    assert charges == charges_by_cold_solves(pipeline)


def test_a_solution_without_a_basis_pays_from_cold_solves(corpus):
    item = corpus[7]
    solved = Pipeline(item.instance, item.config).solution
    given = FractionalSolution(
        n=solved.n, m=solved.m, entries=solved.entries, objective=solved.objective
    )
    pipeline = Pipeline(item.instance, item.config, solution=given)
    assert pipeline.payments() == charges_by_cold_solves(pipeline)
