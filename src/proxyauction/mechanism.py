"""The randomized allocation mechanism and its payment rule.

Pipeline for one run, given an instance and a configuration (c, p, seed),
where every bundle is an int item mask and 0 is the empty bundle:

  1. wrap each valuation in its keep-probability proxy (ProxyValuation),
  2. solve the configuration LP over the proxy objectives,
  3. draw one tentative bundle per bidder (bundle S with probability x[i,S],
     the empty bundle with the residual mass),
  4. halt if any item is tentatively held by more than 1/c bidders; a halted
     run allocates nothing,
  5. per bidder, compute q_i: the probability that the halting event would
     fire given the bidder's own tentative bundle, under a fresh independent
     draw of everybody else (see the two variants below),
  6. per item, at most one tentative holder receives it, each with
     probability exactly c,
  7. per bidder, the received items survive with probability p/(1 - q_i),
     otherwise the bidder gets nothing.

q variants. "halt" (the default) lets q_i be the probability that the step-4
halt test fires anywhere, given bidder i's bundle; with it the probability
that bidder i draws S and survives through step 7 is exactly p * x[i,S],
which is what the welfare identity and truthfulness rest on. "own-items"
restricts the event to over-allocation among the items of the bidder's own
bundle; it ignores halts caused elsewhere, so survival falls short of
p * x[i,S] on overlapping instances. The verifier quantifies the gap.

Cancellation requires q_i <= 1 - p for every bundle a bidder can draw, even
one whose every draw halts. Violations raise ParameterError rather than
clamping, since clamping would silently void the survival identity.

Payments are the deterministic expected externality over the LP range:
charge_i = p * (opt of the LP with bidder i's objective zeroed, minus the
other bidders' share of the chosen solution). Together with step 7's exact
survival law this prices the mechanism so that truthful reporting maximizes
every bidder's expected utility.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate, product, repeat
from typing import Optional, Sequence

from . import rng as rngmod
from .errors import (
    CapacityError,
    ContractViolationError,
    InfeasibleSolutionError,
    ParameterError,
)
from .lp import (
    ConfigLP,
    FractionalSolution,
    build_full_lp,
    solve_column_generation,
    solve_exact,
    zero_objective,
)
from .valuations import Instance

Q_HALT = "halt"
Q_OWN_ITEMS = "own-items"
Q_VARIANTS = (Q_HALT, Q_OWN_ITEMS)

SOLVER_FULL = "full"
SOLVER_COLGEN = "column-generation"

ATOM_CAP = 10**7


@dataclass(frozen=True)
class MechanismConfig:
    """Parameters of one mechanism execution.

    c: per-item keep probability, a reciprocal integer in (0, 1].
    p: survival probability of step 7, a rational in (0, 1].
    Both are given exactly, as a Fraction or an int.
    q_variant: "halt" or "own-items" (see module docstring).
    seed: master seed, an int in [0, 2^64); every stage stream is derived from it.
    solver: "full" or "column-generation" for the LP step.
    """

    c: Fraction
    p: Fraction
    q_variant: str = Q_HALT
    seed: int = 0
    solver: str = SOLVER_FULL

    def __post_init__(self):
        # a float is its binary value, not the rational it was written as
        for name, value in (("c", self.c), ("p", self.p)):
            if type(value) not in (Fraction, int):
                raise ParameterError(f"{name} must be a Fraction or an int, got {value!r}")
        c, p = Fraction(self.c), Fraction(self.p)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "p", p)
        if not (0 < c <= 1) or c.numerator != 1:
            raise ParameterError(f"c must be a reciprocal integer in (0, 1], got {c}")
        if not (0 < p <= 1):
            raise ParameterError(f"p must lie in (0, 1], got {p}")
        if self.q_variant not in Q_VARIANTS:
            raise ParameterError(f"unknown q variant {self.q_variant!r}")
        if self.solver not in (SOLVER_FULL, SOLVER_COLGEN):
            raise ParameterError(f"unknown solver {self.solver!r}")
        # an int itself: a bool, float or Fraction seed could not be written back as one
        if type(self.seed) is not int or not 0 <= self.seed < (1 << 64):
            raise ParameterError(f"seed must be an int in 64 unsigned bits, got {self.seed!r}")

    @property
    def inv_c(self) -> int:
        return self.c.denominator

    def semantics(self) -> dict:
        """The interpretation choices active in this configuration."""
        return {
            "empty_outcome_probability": "1-p (p is the survival probability)",
            "q_event_scope": "all items" if self.q_variant == Q_HALT else "own bundle only",
            "cancellation_bound": "q_i <= 1-p enforced, violations raise",
            "c_formula": "log2(log2 m) / (100 log2 m), rounded down to a reciprocal integer",
        }


def default_params(m: int) -> tuple[Fraction, Fraction]:
    """Default (c, p) for an m-item auction: c ~ loglog(m)/(100 log m), p = 1/20.

    c is rounded down to the nearest reciprocal integer so that 1/c is
    integral; values within 1e-9 of an integer reciprocal are treated as
    exact to absorb float noise at powers of two.
    """
    if m < 4:
        raise ParameterError(f"default parameters need m >= 4, got m={m}")
    inv = 100.0 * math.log2(m) / math.log2(math.log2(m))
    nearest = round(inv)
    k = nearest if abs(inv - nearest) < 1e-9 else math.ceil(inv)
    return Fraction(1, k), Fraction(1, 20)


@dataclass(frozen=True)
class Outcome:
    """Realized result of one mechanism run."""

    halted: bool
    tentative: tuple[int, ...]
    kept: tuple[int, ...]
    final: tuple[int, ...]
    q_values: Optional[tuple] = None
    payments: Optional[tuple] = None

    def __post_init__(self):
        taken = 0
        for bundle in self.final:
            if taken & bundle:
                raise InfeasibleSolutionError("final bundles overlap")
            taken |= bundle


@dataclass(eq=False)
class Plan:
    """What every sample with one tentative assignment shares.

    ``tentative`` is the assignment's bundles, one per bidder. A halted
    assignment keeps its one ``Outcome``. Any other keeps its q values
    and its draw sites, each listed once:

    - the base masks: at c = 1 every item has at most one holder, who keeps it
      for certain, so the bundles themselves; below c = 1 no item is certain;
    - one lottery ``rng.draw_site`` below 1/c per held item with a draw to
      make, with the item's bit and its holders;
    - one cancel ``rng.draw_site`` below b per bidder whose step-7 survival
      a/b is not certain, with a (a bidder that keeps nothing draws nothing);
    - the outcomes drawn so far, one per (kept masks, final masks).
    """

    tentative: tuple[int, ...]
    halted: Optional[Outcome]
    q_values: Optional[tuple] = None
    base: tuple = ()
    lottery: tuple = ()
    cancel: tuple = ()
    outcomes: dict = field(default_factory=dict, repr=False)

    def draw(self, keys: Sequence[bytes]) -> list[Outcome]:
        """Steps 6 and 7 of the samples whose root stream keys are ``keys``, in order.

        Each site is one ``rng.draw`` under a sample's key, the first draw of
        ``rng.stream(seed, stage, index)``: item j's lottery holder is the
        u-th for a uniform u below 1/c (nobody when u is past the last), and
        bidder i survives when a uniform integer below b is less than a.
        Each lottery site is drawn over all the keys (``rng.draws``) and the
        samples are grouped by their lottery draws; within a group, which
        shares its kept masks, each cancel site of a bidder that kept items
        is drawn over the group's keys.
        """
        draws = rngmod.draws
        lotteries: dict[tuple, list[int]] = defaultdict(list)
        columns = [draws(keys, at) for at, _, _ in self.lottery]
        for row, drawn in enumerate(_rows(columns, len(keys))):
            lotteries[drawn].append(row)
        outcomes = [None] * len(keys)
        for drawn, rows in lotteries.items():
            kept = list(self.base)
            for (_, bit, holders), k in zip(self.lottery, drawn):
                if k < len(holders):
                    kept[holders[k]] |= bit
            cancel = [(i, at, a) for i, at, a in self.cancel if kept[i]]
            group = [keys[row] for row in rows]
            losses = _rows([[u >= a for u in draws(group, at)] for _, at, a in cancel], len(rows))
            by_lost: dict[tuple, Outcome] = {}
            for row, lost in zip(rows, losses):
                got = by_lost.get(lost)
                if got is None:
                    final = kept.copy()
                    for (i, _, _), gone in zip(cancel, lost):
                        if gone:
                            final[i] = 0
                    got = by_lost[lost] = self._outcome(kept, final)
                outcomes[row] = got
        return outcomes

    def _outcome(self, kept: list, final: list) -> Outcome:
        """The plan's one ``Outcome`` with these kept and final masks."""
        masks = (*kept, *final)
        got = self.outcomes.get(masks)
        if got is None:
            got = self.outcomes[masks] = Outcome(
                halted=False,
                tentative=self.tentative,
                kept=tuple(kept),
                final=tuple(final),
                q_values=self.q_values,
            )
        return got


def _rows(columns: list, count: int):
    """The rows of equal-length ``columns``, or ``count`` empty rows when there are none."""
    return zip(*columns) if columns else repeat((), count)


def tentative_law(solution: FractionalSolution, bidder: int) -> list:
    """Step 3's law for one bidder: (bundle, probability) pairs.

    The bidder's support in ``support()`` order, then the empty bundle with
    the residual mass when that mass is positive. A support whose mass
    exceeds 1 raises ``InfeasibleSolutionError``.
    """
    law = solution.bundles_of(bidder)
    residual = 1 - sum(x for _, x in law)
    if residual < 0:
        raise InfeasibleSolutionError(f"bidder {bidder} bundle mass {1 - residual} exceeds 1")
    if residual > 0:
        law.append((0, residual))
    return law


def draw_tables(solution: FractionalSolution) -> list:
    """Step-3 draw tables: per bidder, (bundles, thresholds, site).

    ``bundles`` is the bidder's ``tentative_law`` in order and the thresholds
    the cumulative integer numerators over the lcm of its probabilities'
    denominators, so a uniform integer below that lcm lands on each bundle
    with exactly its probability. ``site`` is the bidder's tentative-stage
    ``rng.draw_site`` below the lcm, or None when the lcm is 1 and the draw
    is certain.
    """
    tables = []
    for i in range(solution.n):
        law = tentative_law(solution, i)
        den = math.lcm(*(x.denominator for _, x in law))
        thresholds = list(accumulate(x.numerator * (den // x.denominator) for _, x in law))
        at = None if den == 1 else rngmod.draw_site(den, "tentative", i)
        tables.append(([b for b, _ in law], thresholds, at))
    return tables


def tentative_indices(tables: Sequence, keys: Sequence[bytes]) -> list[tuple[int, ...]]:
    """Step 3 for each sample: per bidder, the index of its drawn bundle in its draw table.

    ``keys`` are the samples' root stream keys, ``rng.stream(seed)``. Bidder
    i draws one uniform integer below its common denominator at its own
    tentative-stage site under each key (``rng.draws``, one bidder column at
    a time), so draws do not interact across bidders or with later stages.
    The bundle is the first whose threshold exceeds the draw. A denominator
    of 1 makes the draw certain (it is 0), so that bidder hashes nothing; the
    other bidders' draws are their own either way.
    """
    draws = rngmod.draws
    columns = [
        [bisect_right(thresholds, 0)] * len(keys)
        if at is None
        else [bisect_right(thresholds, u) for u in draws(keys, at)]
        for _, thresholds, at in tables
    ]
    return list(zip(*columns))


def halt_check(bundles: Sequence[int], c: Fraction) -> bool:
    """Step 4 predicate: some item is tentatively held more than 1/c times."""
    return _overfilled(bundles, c.denominator) != 0


def _overfilled(masks: Sequence[int], inv_c: int) -> int:
    """The mask of the items held by more than ``inv_c`` of ``masks``."""
    if len(masks) <= inv_c:
        return 0
    more = [0] * (inv_c + 1)  # more[t]: the items held by more than t masks so far
    for mask in masks:
        for t in range(inv_c, 0, -1):
            more[t] |= more[t - 1] & mask
        more[0] |= mask
    return more[inv_c]


def compute_q(
    solution: FractionalSolution, bidder: int, bundle: int, c: Fraction, variant: str = Q_HALT
) -> Fraction:
    """Exact probability of the q event for one bidder and tentative bundle.

    Enumerates the product of all other bidders' ``tentative_law``s. Under
    "halt" the event is the step-4 halt predicate on the combined assignment
    (others' draws plus this bidder holding ``bundle``) over all items; under
    "own-items" it is restricted to over-allocation of the items inside
    ``bundle``. A bidder whose mass exceeds 1, this one included, raises
    ``InfeasibleSolutionError``. With at most 1/c bidders no item can have
    more than 1/c holders, so q is 0 with no enumeration and no cap.
    """
    if variant not in Q_VARIANTS:
        raise ParameterError(f"unknown q variant {variant!r}")
    laws = [tentative_law(solution, i) for i in range(solution.n)]
    del laws[bidder]
    inv_c = c.denominator
    if len(laws) < inv_c:
        return Fraction(0)
    size = math.prod(map(len, laws))
    if size > ATOM_CAP:
        raise CapacityError("q enumeration over joint draws", size, ATOM_CAP)
    scope = -1 if variant == Q_HALT else bundle
    total = Fraction(0)
    for draw in product(*laws):
        if _overfilled([bundle, *(b for b, _ in draw)], inv_c) & scope:
            total += math.prod(x for _, x in draw)
    return total


def survival_probability(q, p: Fraction, bidder: int) -> Fraction:
    """Step-7 keep probability p / (1 - q_i); raises ParameterError if q_i > 1 - p."""
    q = Fraction(q)
    if q > 1 - p:
        raise ParameterError(
            f"bidder {bidder}: cancellation needs q_i <= 1 - p, got q_i = {q} > {1 - p}; "
            f"with default parameters q_i stays below min(p, 1/m)"
        )
    return p / (1 - q)


class Pipeline:
    """Prepared mechanism state: proxies, LP solution, and cached draw data.

    Preparing once and sampling many times keeps Monte Carlo replications
    cheap; the LP solve and the q values are deterministic functions of the
    instance and configuration, so sharing them does not affect the law.

    ``sample`` takes a run's seeds and draws site by site over all of them:
    every draw is a pure function of its seed's root key,
    ``rng.stream(seed)``, and its site, so the order of the draws changes no
    outcome. It builds each seed's root key, draws step 3 one bidder column
    at a time and groups the samples by their drawn indices, in order of
    first appearance. It keeps one ``Plan`` per tentative assignment, keyed
    by those indices: the bundles, the halt verdict (a halted plan holds its
    shared outcome), the q values and the step-6 and step-7 draw sites. Each
    plan then draws its sites over its own samples only; a repeated outcome
    is the plan's earlier ``Outcome`` object. A plan that raises (q_i > 1 - p,
    halted or not, or a capped q enumeration) is not kept, so every run that
    draws it raises again. Plans are made in order of first appearance, so
    the plan that raises, and the plans kept before it, are those of a
    sample-by-sample loop over the same seeds.
    There are at most as many plans as the product of the bidders' support
    sizes, and never more than samples drawn.
    """

    def __init__(
        self,
        instance: Instance,
        config: MechanismConfig,
        *,
        solution: Optional[FractionalSolution] = None,
    ):
        self.instance = instance
        self.config = config
        self.proxies = instance.proxies(config.c)
        self._lp: Optional[ConfigLP] = None
        # a solution solved here is certified optimal; one passed in need not be
        self._optimal = solution is None
        if solution is None:
            solution = self._solve()
        self.solution = solution
        self._q_cache: dict[tuple[int, int], Fraction] = {}
        self._tables: Optional[list] = None
        self._survival_cache: dict[tuple[int, int], Fraction] = {}
        # one plan per tentative assignment drawn, keyed by the drawn indices
        self.plans: dict[tuple[int, ...], Plan] = {}
        # simplex pivots of the last payments() call: a work counter
        self.payment_pivots = 0

    def _solve(self) -> FractionalSolution:
        if self.config.solver == SOLVER_COLGEN:
            return solve_column_generation(self.instance, self.proxies)
        return solve_exact(self.lp)

    @property
    def lp(self) -> ConfigLP:
        if self._lp is None:
            self._lp = build_full_lp(self.instance, self.proxies)
        return self._lp

    def q(self, bidder: int, bundle: int) -> Fraction:
        key = (bidder, bundle)
        got = self._q_cache.get(key)
        if got is None:
            got = self._q_cache[key] = compute_q(
                self.solution, bidder, bundle, self.config.c, self.config.q_variant
            )
        return got

    @property
    def tables(self) -> list:
        """The step-3 draw tables of the solution, built on first use."""
        if self._tables is None:
            self._tables = draw_tables(self.solution)
        return self._tables

    def survival(self, bidder: int, bundle: int) -> Fraction:
        """Step-7 keep probability of the bidder holding ``bundle`` tentatively."""
        key = (bidder, bundle)
        got = self._survival_cache.get(key)
        if got is None:
            got = self._survival_cache[key] = survival_probability(
                self.q(bidder, bundle), self.config.p, bidder
            )
        return got

    def plan(self, picks: tuple[int, ...]) -> Plan:
        """Steps 4, 5 and the step-6 and step-7 draw sites for the drawn table indices."""
        got = self.plans.get(picks)
        if got is not None:
            return got
        bundles = tuple(table[0][k] for table, k in zip(self.tables, picks))
        # the bound q_i <= 1 - p applies to every drawn bundle, halted or not
        survival = tuple(self.survival(i, bundle) for i, bundle in enumerate(bundles))
        if halt_check(bundles, self.config.c):
            empty = (0,) * len(bundles)
            got = Plan(bundles, Outcome(halted=True, tentative=bundles, kept=empty, final=empty))
        else:
            q_values = tuple(self.q(i, bundle) for i, bundle in enumerate(bundles))
            inv_c = self.config.inv_c
            if inv_c == 1:
                base, lottery = bundles, ()
            else:
                base = (0,) * len(bundles)
                lottery = tuple(
                    (rngmod.draw_site(inv_c, "lottery", j), 1 << j, holders)
                    for j in range(self.solution.m)
                    if (holders := tuple(i for i, b in enumerate(bundles) if b >> j & 1))
                )
            cancel = tuple(
                (i, rngmod.draw_site(keep.denominator, "cancel", i), keep.numerator)
                for i, (bundle, keep) in enumerate(zip(bundles, survival))
                if bundle and keep.denominator != 1
            )
            got = Plan(bundles, None, q_values, base, lottery, cancel)
        self.plans[picks] = got
        return got

    def sample(self, seeds: Sequence[int]) -> list[Outcome]:
        """One rounding pass per seed, in order: step 3, the plans, then their sites' draws.

        A single int seed gives its one ``Outcome``.
        """
        if isinstance(seeds, int):
            return self.sample([seeds])[0]
        keys = [rngmod.stream(seed) for seed in seeds]
        rows_of: dict[tuple, list[int]] = defaultdict(list)
        for row, picks in enumerate(tentative_indices(self.tables, keys)):
            rows_of[picks].append(row)
        # every plan is made before any is drawn: the first to raise is the first seed's to raise
        plans = [(self.plan(picks), rows) for picks, rows in rows_of.items()]
        outcomes = [None] * len(keys)
        for plan, rows in plans:
            drawn = (
                [plan.halted] * len(rows)
                if plan.halted is not None
                else plan.draw([keys[row] for row in rows])
            )
            for row, outcome in zip(rows, drawn):
                outcomes[row] = outcome
        return outcomes

    def payments(self) -> tuple[Fraction, ...]:
        """Expected externality charges over the LP range.

        charge_i = p * (OPT_-i - the other bidders' share of the solution),
        where OPT_-i is the optimum of the LP with bidder i's objective
        zeroed. If this pipeline solved the LP itself, so its solution is
        certified optimal, and bidder i holds no mass in it, OPT_-i is the
        solution's objective and no LP is solved: the solution is feasible
        with i zeroed and keeps its value, and zeroing i's objective, which is
        nonnegative, cannot raise the optimum. Such a bidder pays 0, and its
        zeroed column-generation solve's queries are not asked. A solution
        passed in need not be optimal, so each of its bidders gets a zeroed solve.
        """
        p = self.config.p
        support = self.solution.support()
        holders = {i for i, _, _ in support}
        self.payment_pivots = 0
        charges = []
        for i in range(self.instance.n):
            others_share = sum(
                (x * self.proxies[j].value(bundle) for j, bundle, x in support if j != i),
                Fraction(0),
            )
            if self._optimal and i not in holders:
                opt_without = self.solution.objective
            else:
                opt_without = self._optimum_without(i)
            charge = p * (opt_without - others_share)
            if charge < 0:
                raise ContractViolationError(
                    f"negative charge {charge} for bidder {i}; the zeroed LP cannot "
                    f"be worse than the others' share of the chosen solution"
                )
            charges.append(charge)
        return tuple(charges)

    def _optimum_without(self, bidder: int) -> Fraction:
        # The zeroed LP has the main LP's constraints, so the simplex resumes
        # from the main solve's basis; a charge reads only the optimum, which
        # does not depend on where the simplex starts.
        start = self.solution.basis
        if self.config.solver == SOLVER_COLGEN:
            oracles = zero_objective(self.proxies, bidder)
            zeroed = solve_column_generation(self.instance, oracles, start_basis=start)
        else:
            zeroed = solve_exact(self.lp.zero_bidder(bidder), start_basis=start)
        self.payment_pivots += zeroed.pivots
        return zeroed.objective


def run(
    instance: Instance,
    config: MechanismConfig,
    *,
    solution: Optional[FractionalSolution] = None,
    with_payments: bool = False,
) -> Outcome:
    """Execute the full pipeline once, deterministically in (instance, config)."""
    pipeline = Pipeline(instance, config, solution=solution)
    [outcome] = pipeline.sample([config.seed])
    if with_payments:
        outcome = replace(outcome, payments=pipeline.payments())
    return outcome


def realized_welfare(instance: Instance, outcome: Outcome):
    """Sum of the bidders' true values for their final bundles.

    Evaluated outside the query accounting: this is analysis of a finished
    run, not communication with the bidders.
    """
    return sum(
        (v._value(bundle) for v, bundle in zip(instance.valuations, outcome.final)),
        Fraction(0),
    )
