"""The randomized allocation mechanism and its payment rule.

Pipeline for one run, given an instance and a configuration (c, p, seed):

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

Cancellation requires q_i <= 1 - p. Violations raise ParameterError rather
than clamping, since clamping would silently void the survival identity.

Payments are the deterministic expected externality over the LP range:
charge_i = p * (opt of the LP with bidder i's objective zeroed, minus the
other bidders' share of the chosen solution). Together with step 7's exact
survival law this prices the mechanism so that truthful reporting maximizes
every bidder's expected utility.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from . import rng as rngmod
from .errors import (
    CapacityError,
    ContractViolationError,
    InfeasibleSolutionError,
    ParameterError,
)
from .itemsets import EMPTY_SET, ItemSet
from .lp import (
    LP_ITEM_CAP,
    ConfigLP,
    FractionalSolution,
    build_full_lp,
    solve_column_generation,
    solve_exact,
)
from .valuations import PROXY_SUBSET_CAP, AdditiveValuation, Instance

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
    q_variant: "halt" or "own-items" (see module docstring).
    seed: master seed; every stage stream is derived from it.
    solver: "full" or "column-generation" for the LP step.
    """

    c: Fraction
    p: Fraction
    q_variant: str = Q_HALT
    seed: int = 0
    solver: str = SOLVER_FULL

    def __post_init__(self):
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
        if not 0 <= int(self.seed) < (1 << 64):
            raise ParameterError("seed must fit in 64 unsigned bits")

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
class TentativeAssignment:
    """One bundle per bidder (possibly empty) plus per-item holder counts."""

    bundles: tuple[ItemSet, ...]
    m: int

    def holder_counts(self) -> list[int]:
        counts = [0] * self.m
        for bundle in self.bundles:
            for j in bundle:
                counts[j] += 1
        return counts

    def holders(self, j: int) -> list[int]:
        return [i for i, bundle in enumerate(self.bundles) if j in bundle]


@dataclass(frozen=True)
class Outcome:
    """Realized result of one mechanism run."""

    halted: bool
    tentative: tuple[ItemSet, ...]
    kept: tuple[ItemSet, ...]
    final: tuple[ItemSet, ...]
    q_values: Optional[tuple] = None
    payments: Optional[tuple] = None

    def __post_init__(self):
        taken = 0
        for bundle in self.final:
            if taken & bundle.mask:
                raise InfeasibleSolutionError("final bundles overlap")
            taken |= bundle.mask


def draw_tables(solution: FractionalSolution) -> list:
    """Step-3 draw tables: per bidder, (bundles, denominator, thresholds).

    The denominator is the lcm of the bidder's mass denominators and the
    thresholds are the cumulative integer numerators over it, so a uniform
    integer below the common denominator lands on bundle S with probability
    exactly x[i,S] and past the last threshold with exactly the residual
    mass. ``bundles`` ends with the empty bundle, the residual atom.
    """
    tables = []
    for i in range(solution.n):
        options = solution.bundles_of(i)
        masses = [x for _, x in options]
        mass = sum(masses, Fraction(0))
        if mass > 1:
            raise InfeasibleSolutionError(f"bidder {i} bundle mass {mass} exceeds 1")
        den = math.lcm(*(x.denominator for x in masses))
        acc, thresholds = 0, []
        for x in masses:
            acc += x.numerator * (den // x.denominator)
            thresholds.append(acc)
        tables.append(([b for b, _ in options] + [EMPTY_SET], den, thresholds))
    return tables


def tentative_draw(tables: Sequence, m: int, seed: int) -> TentativeAssignment:
    """Step 3: independent per-bidder draw from the draw tables.

    Bidder i draws one uniform integer below its common denominator from its
    own tentative-stage stream, so draws do not interact across bidders or
    with later stages. The bundle is the first whose threshold exceeds the
    draw.
    """
    bundles = []
    for i, (options, den, thresholds) in enumerate(tables):
        u = rngmod.stream(seed, "tentative", i).randrange(den)
        bundles.append(options[bisect_right(thresholds, u)])
    return TentativeAssignment(bundles=tuple(bundles), m=m)


def halt_check(t: TentativeAssignment, c: Fraction) -> bool:
    """Step 4 predicate: some item is tentatively held more than 1/c times."""
    inv_c = c.denominator
    return any(k > inv_c for k in t.holder_counts())


def compute_q(
    solution: FractionalSolution,
    bidder: int,
    bundle: ItemSet,
    c: Fraction,
    variant: str = Q_HALT,
    *,
    atom_cap: int = ATOM_CAP,
) -> Fraction:
    """Exact probability of the q event for one bidder and tentative bundle.

    Enumerates the product law of all other bidders' tentative draws (each
    support bundle plus the residual empty atom). Under "halt" the event is
    the step-4 halt predicate on the combined assignment (others' draws plus
    this bidder holding ``bundle``) over all items; under "own-items" it is
    restricted to over-allocation of the items inside ``bundle``.
    """
    if variant not in Q_VARIANTS:
        raise ParameterError(f"unknown q variant {variant!r}")
    inv_c = c.denominator

    supports = []
    size = 1
    for i in range(solution.n):
        if i == bidder:
            continue
        options = solution.bundles_of(i)
        residual = 1 - sum(x for _, x in options)
        atoms = [(b.mask, x) for b, x in options]
        if residual > 0:
            atoms.append((0, residual))
        supports.append(atoms)
        size *= len(atoms)
    if size > atom_cap:
        raise CapacityError("q enumeration over joint draws", size, atom_cap)

    own_mask = bundle.mask
    m = solution.m
    total = Fraction(0)

    def fires(counts: list[int]) -> bool:
        for j in range(m):
            k = counts[j]
            if (own_mask >> j) & 1:
                if k + 1 > inv_c:
                    return True
            elif variant == Q_HALT and k > inv_c:
                return True
        return False

    def walk(idx: int, prob, counts: list[int]):
        nonlocal total
        if idx == len(supports):
            if fires(counts):
                total += prob
            return
        for mask, x in supports[idx]:
            rest = mask
            while rest:
                low = rest & -rest
                counts[low.bit_length() - 1] += 1
                rest ^= low
            walk(idx + 1, prob * x, counts)
            rest = mask
            while rest:
                low = rest & -rest
                counts[low.bit_length() - 1] -= 1
                rest ^= low

    walk(0, Fraction(1), [0] * m)
    return total


def item_lottery(t: TentativeAssignment, c: Fraction, seed: int) -> tuple[ItemSet, ...]:
    """Step 6: per item, each tentative holder receives it with probability c.

    Requires every holder count to be at most 1/c (the halt check must have
    passed), so the per-item lottery probabilities sum to at most 1. Item j
    draws from its own lottery-stage stream: a uniform integer u below 1/c,
    and the u-th holder receives the item if there is one, so each holder
    gets it with probability exactly c.
    """
    inv_c = c.denominator
    kept_masks = [0] * len(t.bundles)
    for j in range(t.m):
        holders = t.holders(j)
        if not holders:
            continue
        if len(holders) > inv_c:
            raise ContractViolationError(
                f"item {j} held {len(holders)} > 1/c = {inv_c} times; halt check must run first"
            )
        k = rngmod.stream(seed, "lottery", j).randrange(inv_c)
        if k < len(holders):
            kept_masks[holders[k]] |= 1 << j
    return tuple(ItemSet(mask) for mask in kept_masks)


def personal_cancel(
    kept: Sequence[ItemSet], survival: Sequence, seed: int
) -> tuple[ItemSet, ...]:
    """Step 7: bidder i keeps everything with probability survival[i], else nothing.

    A nonempty bundle draws from bidder i's cancel-stage stream: a survival
    probability a/b keeps the bundle when a uniform integer below b is less
    than a, which happens with probability exactly a/b. An empty bundle, or a
    survival probability of 1, draws nothing, since the outcome is certain.
    """
    final = []
    for i, (bundle, keep) in enumerate(zip(kept, survival)):
        if not bundle:
            final.append(EMPTY_SET)
            continue
        survives = keep == 1 if keep.denominator == 1 else (
            rngmod.stream(seed, "cancel", i).randrange(keep.denominator) < keep.numerator
        )
        final.append(bundle if survives else EMPTY_SET)
    return tuple(final)


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
    """

    def __init__(
        self,
        instance: Instance,
        config: MechanismConfig,
        *,
        solution: Optional[FractionalSolution] = None,
        atom_cap: int = ATOM_CAP,
        proxy_cap: int = PROXY_SUBSET_CAP,
        lp_cap: int = LP_ITEM_CAP,
    ):
        self.instance = instance
        self.config = config
        self.atom_cap = atom_cap
        self.proxy_cap = proxy_cap
        self.lp_cap = lp_cap
        self.proxies = instance.proxies(config.c, subset_cap=proxy_cap)
        self._lp: Optional[ConfigLP] = None
        if solution is None:
            solution = self._solve()
        self.solution = solution
        self._q_cache: dict[tuple[int, int], Fraction] = {}
        self._tables: Optional[list] = None
        self._survival_cache: dict[tuple[int, int], Fraction] = {}

    def _solve(self) -> FractionalSolution:
        if self.config.solver == SOLVER_COLGEN:
            return solve_column_generation(self.instance, self.proxies)
        return solve_exact(self.lp)

    @property
    def lp(self) -> ConfigLP:
        if self._lp is None:
            self._lp = build_full_lp(self.instance, self.proxies, item_cap=self.lp_cap)
        return self._lp

    def q(self, bidder: int, bundle: ItemSet) -> Fraction:
        key = (bidder, bundle.mask)
        got = self._q_cache.get(key)
        if got is None:
            got = self._q_cache[key] = compute_q(
                self.solution,
                bidder,
                bundle,
                self.config.c,
                self.config.q_variant,
                atom_cap=self.atom_cap,
            )
        return got

    def tentative_sample(self, seed: int) -> TentativeAssignment:
        """Step 3 over the cached draw tables."""
        if self._tables is None:
            self._tables = draw_tables(self.solution)
        return tentative_draw(self._tables, self.solution.m, seed)

    def survival(self, bidder: int, bundle: ItemSet) -> Fraction:
        """Step-7 keep probability of the bidder holding ``bundle`` tentatively."""
        key = (bidder, bundle.mask)
        got = self._survival_cache.get(key)
        if got is None:
            got = self._survival_cache[key] = survival_probability(
                self.q(bidder, bundle), self.config.p, bidder
            )
        return got

    def sample(self, seed: int) -> Outcome:
        """One rounding pass: steps 3 to 7 with the cached tables and q values."""
        n = self.instance.n
        t = self.tentative_sample(seed)
        if halt_check(t, self.config.c):
            empty = (EMPTY_SET,) * n
            return Outcome(halted=True, tentative=t.bundles, kept=empty, final=empty)
        q_values = tuple(self.q(i, t.bundles[i]) for i in range(n))
        kept = item_lottery(t, self.config.c, seed)
        # the feasibility bound q_i <= 1 - p applies to every bidder
        survival = [self.survival(i, bundle) for i, bundle in enumerate(t.bundles)]
        return Outcome(
            halted=False,
            tentative=t.bundles,
            kept=kept,
            final=personal_cancel(kept, survival, seed),
            q_values=q_values,
        )

    def payments(self) -> tuple[Fraction, ...]:
        """Expected externality charges over the LP range."""
        p = self.config.p
        support = self.solution.support()
        charges = []
        for i in range(self.instance.n):
            others_share = sum(
                (x * self.proxies[j].value(bundle) for j, bundle, x in support if j != i),
                Fraction(0),
            )
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
        if self.config.solver == SOLVER_COLGEN:
            oracles = list(self.proxies)
            oracles[bidder] = AdditiveValuation([Fraction(0)] * self.instance.m)
            return solve_column_generation(self.instance, oracles).objective
        return solve_exact(self.lp.zero_bidder(bidder)).objective


def run(
    instance: Instance,
    config: MechanismConfig,
    *,
    solution: Optional[FractionalSolution] = None,
    with_payments: bool = False,
) -> Outcome:
    """Execute the full pipeline once, deterministically in (instance, config)."""
    pipeline = Pipeline(instance, config, solution=solution)
    outcome = pipeline.sample(config.seed)
    if with_payments:
        outcome = replace(outcome, payments=pipeline.payments())
    return outcome


def realized_welfare(instance: Instance, outcome: Outcome):
    """Sum of the bidders' true values for their final bundles.

    Evaluated outside the query accounting: this is analysis of a finished
    run, not communication with the bidders.
    """
    return sum(
        (v._value(bundle.mask) for v, bundle in zip(instance.valuations, outcome.final)),
        Fraction(0),
    )
