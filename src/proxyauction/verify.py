"""Independent brute-force verification of the mechanism's outcome law.

``exact_distribution`` enumerates every joint tentative assignment an LP
solution can produce (each bidder's support plus the residual empty atom),
evaluates the halt predicate on each, and aggregates the exact expected
welfare of the thinned, survival-filtered allocation. Everything is exact
rational arithmetic; no sampling is involved.

On top of the law sit the certification checks:

  * welfare identity: expected welfare equals p times the LP objective
    (exact, under the "halt" q variant; the "own-items" variant reports its
    shortfall instead),
  * keep marginals: each support entry survives with probability exactly
    p * x[i,S],
  * approximation: expected welfare is at least c * p times the brute-force
    optimal integral welfare,
  * proxy bound: proxy values dominate c times the base value on every
    bundle (requires subadditivity),
  * halt frequency: Monte Carlo bound on the probability of halting,
  * truthfulness: against finite misreport families, each bidder's exact
    expected utility is maximized by reporting truthfully,
  * LP agreement: the simplex matches an independent enumeration of all
    basic solutions, and column generation matches the full solve.

The checks return CheckResult records rather than raising, so a harness can
collect and serialize them; the acceptance suite asserts on the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from . import rng as rngmod
from .errors import CapacityError, ParameterError
from .itemsets import EMPTY_SET, ItemSet
from .lp import EXACT, ConfigLP, FractionalSolution, solve_column_generation, solve_exact
from .mechanism import (
    ATOM_CAP,
    Q_HALT,
    SOLVER_FULL,
    MechanismConfig,
    Pipeline,
    TentativeAssignment,
    halt_check,
    survival_probability,
)
from .valuations import (
    PROXY_SUBSET_CAP,
    AdditiveValuation,
    ExplicitValuation,
    Instance,
    ProxyValuation,
    UnitDemandValuation,
    Valuation,
)

INTEGRAL_CAP = 10**7
VERTEX_ENUM_CAP = 200_000


@dataclass(frozen=True)
class AtomRecord:
    """One joint tentative assignment with its probability and halt flag."""

    bundles: tuple[ItemSet, ...]
    probability: Fraction
    halted: bool


@dataclass(frozen=True)
class EntryLaw:
    """Exact conditional law of one LP support entry (bidder, bundle)."""

    bidder: int
    bundle: ItemSet
    x: Fraction
    q: Fraction
    survival: Optional[Fraction]  # p / (1 - q); None if the entry always halts
    marginal: Fraction  # P(tentative = bundle and the bidder survives step 7)


@dataclass
class OutcomeDistribution:
    """The mechanism's exact outcome law for one instance and configuration."""

    atoms: tuple[AtomRecord, ...]
    entries: tuple[EntryLaw, ...]
    expected_welfare: Fraction
    objective: Fraction
    c: Fraction
    p: Fraction

    def entry(self, bidder: int, bundle: ItemSet) -> EntryLaw:
        for e in self.entries:
            if e.bidder == bidder and e.bundle == bundle:
                return e
        raise KeyError((bidder, bundle))


@dataclass
class CheckResult:
    check: str
    passed: bool
    details: dict = field(default_factory=dict)
    witness: Optional[dict] = None


def exact_distribution(
    instance: Instance,
    config: MechanismConfig,
    *,
    solution: Optional[FractionalSolution] = None,
    pipeline: Optional[Pipeline] = None,
    atom_cap: int = ATOM_CAP,
) -> OutcomeDistribution:
    """Enumerate the exact outcome law of the configured mechanism.

    A ``solution`` may be injected to study hand-built feasible points;
    otherwise the pipeline's LP solve is used. Exact arithmetic only.
    """
    if config.arithmetic != EXACT:
        raise ParameterError("the exact law is only defined in exact arithmetic")
    if pipeline is None:
        pipeline = Pipeline(instance, config, solution=solution, atom_cap=atom_cap)
    sol = pipeline.solution
    n = instance.n

    supports = []
    size = 1
    for i in range(n):
        options = pipeline.solution.bundles_of(i)
        residual = 1 - sum(x for _, x in options)
        atoms = list(options)
        if residual > 0:
            atoms.append((EMPTY_SET, residual))
        supports.append(atoms)
        size *= len(atoms)
    if size > atom_cap:
        raise CapacityError("joint tentative enumeration", size, atom_cap)

    p = config.p
    survival_cache: dict[tuple[int, int], Fraction] = {}

    def survival(i: int, bundle: ItemSet) -> Fraction:
        key = (i, bundle.mask)
        got = survival_cache.get(key)
        if got is None:
            q = pipeline.q(i, bundle)
            got = survival_cache[key] = survival_probability(q, p, i)
        return got

    atoms: list[AtomRecord] = []
    non_halt_prob: dict[tuple[int, int], Fraction] = {}
    expected = Fraction(0)
    total_prob = Fraction(0)

    chosen = [None] * n

    def walk(idx: int, prob: Fraction):
        nonlocal expected, total_prob
        if idx == n:
            bundles = tuple(b for b, _ in chosen)
            halted = halt_check(TentativeAssignment(bundles=bundles, m=instance.m), config.c)
            atoms.append(AtomRecord(bundles=bundles, probability=prob, halted=halted))
            total_prob += prob
            if not halted:
                for i, (bundle, _) in enumerate(chosen):
                    if bundle:
                        key = (i, bundle.mask)
                        non_halt_prob[key] = non_halt_prob.get(key, Fraction(0)) + prob
                        expected += prob * survival(i, bundle) * pipeline.proxies[i].value(bundle)
            return
        for option in supports[idx]:
            chosen[idx] = option
            walk(idx + 1, prob * option[1])

    walk(0, Fraction(1))
    assert total_prob == 1, "atom probabilities must sum to one"

    entries = []
    for i, bundle, x in sol.support():
        q = pipeline.q(i, bundle)
        nh = non_halt_prob.get((i, bundle.mask), Fraction(0))
        if nh == 0:
            entries.append(EntryLaw(i, bundle, x, q, None, Fraction(0)))
        else:
            s = survival(i, bundle)
            entries.append(EntryLaw(i, bundle, x, q, s, nh * s))

    cross = sum(
        (e.marginal * pipeline.proxies[e.bidder].value(e.bundle) for e in entries),
        Fraction(0),
    )
    assert cross == expected, "entry marginals must reproduce the atom-wise welfare"

    return OutcomeDistribution(
        atoms=tuple(atoms),
        entries=tuple(entries),
        expected_welfare=expected,
        objective=sol.objective,
        c=config.c,
        p=config.p,
    )


# -- identity checks -------------------------------------------------------


def check_welfare_identity(
    instance: Instance,
    config: MechanismConfig,
    *,
    solution: Optional[FractionalSolution] = None,
    atom_cap: int = ATOM_CAP,
    law: Optional[OutcomeDistribution] = None,
) -> CheckResult:
    """Expected welfare == p * LP objective (exact) under the halt variant.

    Under "own-items" the shortfall p * objective - welfare is reported
    without asserting equality. ``law`` is an ``exact_distribution`` result
    for (instance, config) to reuse instead of enumerating the law again.
    """
    dist = law
    if dist is None:
        dist = exact_distribution(instance, config, solution=solution, atom_cap=atom_cap)
    target = config.p * dist.objective
    gap = target - dist.expected_welfare
    details = {
        "expected_welfare": str(dist.expected_welfare),
        "p_times_objective": str(target),
        "gap": str(gap),
        "q_variant": config.q_variant,
    }
    if config.q_variant == Q_HALT:
        return CheckResult("welfare-identity", gap == 0, details)
    return CheckResult("welfare-identity", True, details)


def check_keep_marginals(
    instance: Instance,
    config: MechanismConfig,
    *,
    solution: Optional[FractionalSolution] = None,
    atom_cap: int = ATOM_CAP,
    law: Optional[OutcomeDistribution] = None,
) -> CheckResult:
    """Each support entry's survival marginal equals p * x[i,S] exactly.

    Under "own-items" the per-entry deficits are reported instead of
    asserted; they are always nonnegative. ``law`` is reused as in
    ``check_welfare_identity``.
    """
    dist = law
    if dist is None:
        dist = exact_distribution(instance, config, solution=solution, atom_cap=atom_cap)
    deficits = []
    for e in dist.entries:
        want = config.p * e.x
        if e.marginal != want:
            deficits.append(
                {
                    "bidder": e.bidder,
                    "bundle": list(e.bundle.indices()),
                    "x": str(e.x),
                    "target": str(want),
                    "marginal": str(e.marginal),
                    "deficit": str(want - e.marginal),
                }
            )
    details = {"entries": len(dist.entries), "deficits": deficits, "q_variant": config.q_variant}
    if config.q_variant == Q_HALT:
        return CheckResult("keep-marginals", not deficits, details,
                           witness=deficits[0] if deficits else None)
    return CheckResult("keep-marginals", True, details)


def optimal_integral_welfare(instance: Instance, *, cap: int = INTEGRAL_CAP) -> Fraction:
    """Brute-force welfare optimum over every assignment of items to bidders.

    Each item goes to one bidder or to nobody, giving (n+1)^m assignments.
    """
    n, m = instance.n, instance.m
    total_assignments = (n + 1) ** m
    if total_assignments > cap:
        raise CapacityError("integral allocation enumeration", total_assignments, cap)
    best = Fraction(0)
    masks = [0] * n

    def walk(item: int):
        nonlocal best
        if item == m:
            welfare = sum(
                (v._value(mask) for v, mask in zip(instance.valuations, masks)),
                Fraction(0),
            )
            if welfare > best:
                best = welfare
            return
        walk(item + 1)  # unassigned
        for i in range(n):
            masks[i] |= 1 << item
            walk(item + 1)
            masks[i] &= ~(1 << item)

    walk(0)
    return best


def check_approximation(
    instance: Instance,
    config: MechanismConfig,
    *,
    solution: Optional[FractionalSolution] = None,
    cap: int = INTEGRAL_CAP,
    atom_cap: int = ATOM_CAP,
    law: Optional[OutcomeDistribution] = None,
) -> CheckResult:
    """Expected welfare >= c * p * (optimal integral welfare), exactly.

    ``law`` is reused as in ``check_welfare_identity``.
    """
    dist = law
    if dist is None:
        dist = exact_distribution(instance, config, solution=solution, atom_cap=atom_cap)
    opt = optimal_integral_welfare(instance, cap=cap)
    bound = config.c * config.p * opt
    return CheckResult(
        "approximation",
        dist.expected_welfare >= bound,
        {
            "expected_welfare": str(dist.expected_welfare),
            "c_p_opt": str(bound),
            "integral_opt": str(opt),
        },
    )


def check_proxy_bound(
    instance: Instance,
    *,
    cs: Sequence = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)),
    proxy_cap: int = PROXY_SUBSET_CAP,
) -> CheckResult:
    """proxy_value(S) >= c * value(S) for every bundle, bidder, and c.

    Exhaustive over all 2^m bundles; sound for subadditive valuations.
    """
    violations = []
    for i, v in enumerate(instance.valuations):
        for c in cs:
            proxy = ProxyValuation(v, c, subset_cap=proxy_cap)
            for mask in range(1 << instance.m):
                lhs = proxy._value(mask)
                rhs = Fraction(c) * v._value(mask)
                if lhs < rhs:
                    violations.append(
                        {
                            "bidder": i,
                            "c": str(Fraction(c)),
                            "bundle": list(ItemSet(mask).indices()),
                            "proxy": str(lhs),
                            "scaled_value": str(rhs),
                        }
                    )
    return CheckResult(
        "proxy-bound",
        not violations,
        {"bidders": instance.n, "keep_probabilities": [str(Fraction(c)) for c in cs],
         "violations": violations},
        witness=violations[0] if violations else None,
    )


def check_halt_frequency(
    instance: Instance,
    config: MechanismConfig,
    trials: int,
    *,
    solution: Optional[FractionalSolution] = None,
    seed: Optional[int] = None,
    proxy_cap: int = PROXY_SUBSET_CAP,
) -> CheckResult:
    """Monte Carlo bound on the halt probability of the tentative draw.

    Passes when the observed frequency is at most 1/m plus a three-sigma
    one-sided slack of sqrt(1/(m * trials)).
    """
    pipeline = Pipeline(instance, config, solution=solution, proxy_cap=proxy_cap)
    if seed is None:
        seed = config.seed
    halts = 0
    for t in range(trials):
        draw = pipeline.tentative_sample(rngmod.derive_seed(seed, "halt-trial", t))
        if halt_check(draw, config.c):
            halts += 1
    freq = halts / trials
    bound = 1 / instance.m + 3 * math.sqrt(1 / (instance.m * trials))
    return CheckResult(
        "halt-frequency",
        freq <= bound,
        {"halts": halts, "trials": trials, "frequency": freq, "bound": bound,
         "inv_c": config.inv_c},
    )


def check_monte_carlo(
    instance: Instance,
    config: MechanismConfig,
    trials: int = 10_000,
    *,
    solution: Optional[FractionalSolution] = None,
    sigmas: float = 4.0,
    proxy_cap: int = PROXY_SUBSET_CAP,
) -> CheckResult:
    """Sampled mean welfare lies within ``sigmas`` standard errors of the exact mean."""
    pipeline = Pipeline(instance, config, solution=solution, proxy_cap=proxy_cap)
    dist = exact_distribution(instance, config, pipeline=pipeline)
    welfares = []
    for t in range(trials):
        outcome = pipeline.sample(rngmod.derive_seed(config.seed, "replication", t))
        welfares.append(
            sum(
                (v._value(b.mask) for v, b in zip(instance.valuations, outcome.final)),
                Fraction(0),
            )
        )
    mean = sum(welfares, Fraction(0)) / trials
    var = sum(((w - mean) ** 2 for w in welfares), Fraction(0)) / max(trials - 1, 1)
    stderr = math.sqrt(float(var) / trials)
    diff = abs(float(mean - dist.expected_welfare))
    passed = mean == dist.expected_welfare if stderr == 0 else diff <= sigmas * stderr
    return CheckResult(
        "monte-carlo-welfare",
        passed,
        {
            "trials": trials,
            "sample_mean": str(mean),
            "exact_mean": str(dist.expected_welfare),
            "stderr": stderr,
            "sigmas": sigmas,
        },
    )


# -- LP cross-validation ----------------------------------------------------


def _solve_unit_system(rows: list[list[int]]) -> Optional[list[Fraction]]:
    """Solve M x = all-ones for integer M; None if singular.

    Fraction-free Bareiss elimination keeps every intermediate entry an exact
    integer (a minor determinant of the original matrix), then one rational
    back-substitution recovers x.
    """
    k = len(rows)
    aug = [row[:] + [1] for row in rows]
    prev = 1
    for i in range(k):
        if aug[i][i] == 0:
            swap = next((r for r in range(i + 1, k) if aug[r][i] != 0), None)
            if swap is None:
                return None
            aug[i], aug[swap] = aug[swap], aug[i]
        piv = aug[i][i]
        for r in range(i + 1, k):
            row_r, row_i = aug[r], aug[i]
            fac = row_r[i]
            for c in range(i, k + 1):
                row_r[c] = (row_r[c] * piv - fac * row_i[c]) // prev
        prev = piv
    x = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        acc = Fraction(aug[i][k])
        for c in range(i + 1, k):
            acc -= aug[i][c] * x[c]
        x[i] = acc / aug[i][i]
    return x


def enumerate_vertex_optimum(lp: ConfigLP, *, cap: int = VERTEX_ENUM_CAP) -> Fraction:
    """Optimum by enumerating every basic solution of the slack-extended system.

    Independent of the simplex: for each choice of basis columns the square
    system is solved by exact elimination; feasible solutions (all variables
    nonnegative) are scored directly. Intended for tiny instances.
    """
    n_rows = lp.n + lp.m
    n_struct = len(lp.columns)
    total_cols = n_struct + n_rows
    bases = math.comb(total_cols, n_rows)
    if bases > cap:
        raise CapacityError("basic-solution enumeration", bases, cap)

    dense = []
    for col in lp.columns:
        vec = [0] * n_rows
        for j in col.bundle:
            vec[j] = 1
        vec[lp.m + col.bidder] = 1
        dense.append(vec)
    for s in range(n_rows):
        vec = [0] * n_rows
        vec[s] = 1
        dense.append(vec)

    best = Fraction(0)  # x = 0 is always feasible
    for basis in combinations(range(total_cols), n_rows):
        matrix = [[dense[b][r] for b in basis] for r in range(n_rows)]
        values = _solve_unit_system(matrix)
        if values is None or any(v < 0 for v in values):
            continue
        objective = sum(
            (v * lp.columns[b].coef for b, v in zip(basis, values) if b < n_struct),
            Fraction(0),
        )
        if objective > best:
            best = objective
    return best


def check_lp_agreement(
    instance: Instance,
    config: MechanismConfig,
    *,
    vertex_cap: int = VERTEX_ENUM_CAP,
    pipeline: Optional[Pipeline] = None,
) -> CheckResult:
    """solve_exact vs. independent vertex enumeration and column generation.

    The vertex-enumeration comparison runs when the instance is small enough
    for the combinatorial search; the column-generation comparison always
    runs. Exact equality of objectives is required. A ``pipeline`` prepared
    for (instance, config) lends its LP and, when it solved that LP exactly
    itself, its solution.
    """
    if pipeline is None:
        pipeline = Pipeline(instance, config)
    lp = pipeline.lp
    if config.solver == SOLVER_FULL and config.arithmetic == EXACT:
        exact_obj = pipeline.solution.objective  # the pipeline's own solve_exact(lp)
    else:
        exact_obj = solve_exact(lp).objective
    details = {"simplex_objective": str(exact_obj)}
    passed = True

    colgen = solve_column_generation(instance, pipeline.proxies)
    details["column_generation_objective"] = str(colgen.objective)
    if colgen.objective != exact_obj:
        passed = False

    n_rows = lp.n + lp.m
    if math.comb(len(lp.columns) + n_rows, n_rows) <= vertex_cap:
        vertex_obj = enumerate_vertex_optimum(lp, cap=vertex_cap)
        details["vertex_enumeration_objective"] = str(vertex_obj)
        if vertex_obj != exact_obj:
            passed = False
    else:
        details["vertex_enumeration_objective"] = "skipped (beyond cap)"
    return CheckResult("lp-agreement", passed, details)


# -- truthfulness ------------------------------------------------------------


def misreport_family(v: Valuation, *, perturbation=Fraction(1, 3)) -> list[tuple[str, Valuation]]:
    """Finite, documented family of alternative reports for one bidder.

    Scalings by 1/2 and 2 for every kind; swaps to additive and unit-demand
    valuations built from the singleton values; for explicit tables also a
    +delta and a -delta (floored at zero) perturbation of each nonempty
    bundle. The family is finite by design: the harness certifies
    no-counterexample-in-family, not global optimality of truth-telling.
    """
    out: list[tuple[str, Valuation]] = [
        ("scale-1/2", v.scaled(Fraction(1, 2))),
        ("scale-2", v.scaled(Fraction(2))),
    ]
    singletons = [v._value(1 << j) for j in range(v.m)]
    if v.kind != "additive":
        out.append(("swap-additive", AdditiveValuation(singletons)))
    if v.kind != "unit-demand":
        out.append(("swap-unit-demand", UnitDemandValuation(singletons)))
    if isinstance(v, ExplicitValuation):
        for mask in range(1, 1 << v.m):
            bundle = ItemSet(mask)
            up = v.table[mask] + perturbation
            down = max(Fraction(0), v.table[mask] - perturbation)
            out.append((f"bump+{bundle!r}", v.replace(bundle, up)))
            if down != v.table[mask]:
                out.append((f"cut-{bundle!r}", v.replace(bundle, down)))
    return out


def expected_true_value(
    dist: OutcomeDistribution, bidder: int, true_proxy: ProxyValuation
) -> Fraction:
    """Exact expected value the bidder derives from the mechanism's law.

    Uses the survival marginals of the (possibly misreported) run combined
    with the keep-probability proxy of the bidder's *true* valuation: given
    a surviving tentative bundle S, the bidder's expected value is the
    c-thinned expectation of S under the true valuation.
    """
    return sum(
        (e.marginal * true_proxy._value(e.bundle.mask) for e in dist.entries if e.bidder == bidder),
        Fraction(0),
    )


def check_truthfulness(
    instance: Instance,
    config: MechanismConfig,
    *,
    misreports: Optional[dict[int, Iterable[tuple[str, Valuation]]]] = None,
    proxy_cap: int = PROXY_SUBSET_CAP,
) -> CheckResult:
    """No bidder gains in exact expected utility from any family misreport.

    Utility is p-weighted expected true value minus the deterministic charge,
    both exact; the mechanism (LP, q values, payments) is recomputed from the
    misreported profile exactly as it would be for real reports. Also checks
    that truthful utility is nonnegative.
    """
    if config.arithmetic != EXACT:
        raise ParameterError("truthfulness certification requires exact arithmetic")
    truth_pipeline = Pipeline(instance, config, proxy_cap=proxy_cap)
    truth_dist = exact_distribution(instance, config, pipeline=truth_pipeline)
    truth_charges = truth_pipeline.payments()

    violations = []
    cases = 0
    for i, true_v in enumerate(instance.valuations):
        true_proxy = truth_pipeline.proxies[i]
        truth_utility = expected_true_value(truth_dist, i, true_proxy) - truth_charges[i]
        if truth_utility < 0:
            violations.append(
                {"bidder": i, "misreport": "truth", "truth_utility": str(truth_utility),
                 "reason": "negative truthful utility"}
            )
        family = misreports.get(i, []) if misreports is not None else misreport_family(true_v)
        for label, report in family:
            cases += 1
            reported = Instance(
                instance.m,
                tuple(report if j == i else v for j, v in enumerate(instance.valuations)),
            )
            dev_pipeline = Pipeline(reported, config, proxy_cap=proxy_cap)
            dev_dist = exact_distribution(reported, config, pipeline=dev_pipeline)
            dev_charges = dev_pipeline.payments()
            dev_utility = expected_true_value(dev_dist, i, true_proxy) - dev_charges[i]
            if dev_utility > truth_utility:
                violations.append(
                    {
                        "bidder": i,
                        "misreport": label,
                        "truth_utility": str(truth_utility),
                        "misreport_utility": str(dev_utility),
                        "gain": str(dev_utility - truth_utility),
                    }
                )
    return CheckResult(
        "truthfulness",
        not violations,
        {"bidders": instance.n, "misreports_checked": cases, "violations": violations,
         "q_variant": config.q_variant},
        witness=violations[0] if violations else None,
    )
