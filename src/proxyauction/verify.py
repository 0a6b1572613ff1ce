"""Independent brute-force verification of the mechanism's outcome law.

``exact_distribution`` enumerates every joint tentative assignment an LP
solution can produce (each bidder's support plus the residual empty atom),
evaluates the halt predicate on each, and aggregates the exact expected
welfare of the thinned, survival-filtered allocation. Every quantity is an
exact rational; no sampling is involved.

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

Every check takes the prepared ``Pipeline`` it certifies, and the checks that
read the outcome law also take its ``exact_distribution``, so one mechanism
and one law serve every check of an instance, under that pipeline's caps. The
checks return CheckResult records rather than raising, so a harness can
collect and serialize them; the acceptance suite asserts on the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import rng as rngmod
from .errors import CapacityError
from .itemsets import EMPTY_SET, ItemSet
from .lp import ConfigLP, solve_column_generation, solve_exact
from .mechanism import Q_HALT, SOLVER_FULL, Pipeline, TentativeAssignment, halt_check
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
MONTE_CARLO_SIGMAS = 4.0


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


@dataclass
class CheckResult:
    check: str
    passed: bool
    details: dict = field(default_factory=dict)
    witness: Optional[dict] = None


def exact_distribution(pipeline: Pipeline) -> OutcomeDistribution:
    """Enumerate the exact outcome law of the prepared mechanism.

    The law is that of ``pipeline.solution``, which may be a hand-built
    feasible point (``Pipeline(instance, config, solution=...)``); the joint
    draws are capped by ``pipeline.atom_cap``.
    """
    instance, config, sol = pipeline.instance, pipeline.config, pipeline.solution
    n = instance.n

    supports = []
    size = 1
    for i in range(n):
        options = sol.bundles_of(i)
        residual = 1 - sum(x for _, x in options)
        atoms = list(options)
        if residual > 0:
            atoms.append((EMPTY_SET, residual))
        supports.append(atoms)
        size *= len(atoms)
    if size > pipeline.atom_cap:
        raise CapacityError("joint tentative enumeration", size, pipeline.atom_cap)

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
                        value = pipeline.proxies[i].value(bundle)
                        expected += prob * pipeline.survival(i, bundle) * value
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
            s = pipeline.survival(i, bundle)
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
    )


# -- identity checks -------------------------------------------------------


def check_welfare_identity(pipeline: Pipeline, law: OutcomeDistribution) -> CheckResult:
    """Expected welfare == p * LP objective (exact) under the halt variant.

    Under "own-items" the shortfall p * objective - welfare is reported
    without asserting equality. ``law`` is ``exact_distribution(pipeline)``.
    """
    config = pipeline.config
    target = config.p * law.objective
    gap = target - law.expected_welfare
    details = {
        "expected_welfare": str(law.expected_welfare),
        "p_times_objective": str(target),
        "gap": str(gap),
        "q_variant": config.q_variant,
    }
    if config.q_variant == Q_HALT:
        return CheckResult("welfare-identity", gap == 0, details)
    return CheckResult("welfare-identity", True, details)


def check_keep_marginals(pipeline: Pipeline, law: OutcomeDistribution) -> CheckResult:
    """Each support entry's survival marginal equals p * x[i,S] exactly.

    Under "own-items" the per-entry deficits are reported instead of
    asserted; they are always nonnegative. ``law`` is
    ``exact_distribution(pipeline)``.
    """
    config = pipeline.config
    deficits = []
    for e in law.entries:
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
    details = {"entries": len(law.entries), "deficits": deficits, "q_variant": config.q_variant}
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
    pipeline: Pipeline, law: OutcomeDistribution, *, cap: int = INTEGRAL_CAP
) -> CheckResult:
    """Expected welfare >= c * p * (optimal integral welfare), exactly.

    ``law`` is ``exact_distribution(pipeline)``; ``cap`` bounds the
    brute-force integral optimum.
    """
    config = pipeline.config
    opt = optimal_integral_welfare(pipeline.instance, cap=cap)
    bound = config.c * config.p * opt
    return CheckResult(
        "approximation",
        law.expected_welfare >= bound,
        {
            "expected_welfare": str(law.expected_welfare),
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


def check_halt_frequency(pipeline: Pipeline, trials: int) -> CheckResult:
    """Monte Carlo bound on the halt probability of the tentative draw.

    Passes when the observed frequency is at most 1/m plus a three-sigma
    one-sided slack of sqrt(1/(m * trials)). The trials draw from seeds
    derived from ``pipeline.config.seed``.
    """
    config, m = pipeline.config, pipeline.instance.m
    halts = 0
    for t in range(trials):
        draw = pipeline.tentative_sample(rngmod.derive_seed(config.seed, "halt-trial", t))
        if halt_check(draw, config.c):
            halts += 1
    freq = halts / trials
    bound = 1 / m + 3 * math.sqrt(1 / (m * trials))
    return CheckResult(
        "halt-frequency",
        freq <= bound,
        {"halts": halts, "trials": trials, "frequency": freq, "bound": bound,
         "inv_c": config.inv_c},
    )


def check_monte_carlo(pipeline: Pipeline, law: OutcomeDistribution, trials: int) -> CheckResult:
    """Sampled mean welfare lies within ``MONTE_CARLO_SIGMAS`` standard errors of the exact mean.

    ``law`` is ``exact_distribution(pipeline)``; the samples draw from seeds
    derived from ``pipeline.config.seed``.
    """
    seed, valuations = pipeline.config.seed, pipeline.instance.valuations
    welfares = []
    for t in range(trials):
        outcome = pipeline.sample(rngmod.derive_seed(seed, "replication", t))
        welfares.append(
            sum((v._value(b.mask) for v, b in zip(valuations, outcome.final)), Fraction(0))
        )
    mean = sum(welfares, Fraction(0)) / trials
    var = sum(((w - mean) ** 2 for w in welfares), Fraction(0)) / max(trials - 1, 1)
    stderr = math.sqrt(float(var) / trials)
    diff = abs(float(mean - law.expected_welfare))
    passed = mean == law.expected_welfare if stderr == 0 else diff <= MONTE_CARLO_SIGMAS * stderr
    return CheckResult(
        "monte-carlo-welfare",
        passed,
        {
            "trials": trials,
            "sample_mean": str(mean),
            "exact_mean": str(law.expected_welfare),
            "stderr": stderr,
            "sigmas": MONTE_CARLO_SIGMAS,
        },
    )


# -- LP cross-validation ----------------------------------------------------


def basis_count(lp: ConfigLP) -> int:
    """Column choices that ``enumerate_vertex_optimum`` checks against its cap."""
    n_rows = lp.n + lp.m
    return math.comb(len(lp.columns) + n_rows, n_rows)


def enumerate_vertex_optimum(lp: ConfigLP, *, cap: int = VERTEX_ENUM_CAP) -> Fraction:
    """Optimum by enumerating every basic solution of the slack-extended system.

    Independent of the simplex. The system is [A | I] x = 1 over the 0/1
    item and bidder rows; the choices of n + m basis columns are walked depth
    first, in the order of ``itertools.combinations``:

      * each depth adds one column and takes one fraction-free Bareiss step
        on it, and the same step reduces the right-hand side and every later
        candidate column, so all entries stay exact integers (minors);
      * a candidate that reduces to zero on every unpivoted row lies in the
        span of the chosen prefix, so every basis extending the prefix with
        it is singular and the walk drops it with its whole subtree;
      * at a full basis with last pivot ``det``, Cramer's rule makes
        ``y = |det| * x`` an integer vector, so back-substitution divides
        exactly; the basis is rejected at the first negative ``y_i``. A
        feasible basis scores ``w . y / |det|`` against objective
        coefficients scaled once to integers ``w`` over one denominator;
        scores are compared as integer ratios and one ``Fraction`` is built,
        for the optimum.

    Intended for tiny instances: the number of bases is capped.
    """
    bases = basis_count(lp)
    if bases > cap:
        raise CapacityError("basic-solution enumeration", bases, cap)
    n_rows = lp.n + lp.m

    columns = []
    for col in lp.columns:
        vec = [0] * n_rows
        for j in col.bundle:
            vec[j] = 1
        vec[lp.m + col.bidder] = 1
        columns.append(vec)
    for s in range(n_rows):
        vec = [0] * n_rows
        vec[s] = 1
        columns.append(vec)
    den = math.lcm(*(col.coef.denominator for col in lp.columns))
    weights = [col.coef.numerator * (den // col.coef.denominator) for col in lp.columns]
    weights += [0] * n_rows  # slacks score nothing

    last = n_rows - 1
    # per depth t: the pivot row, the pivot, the reduced right-hand side on
    # the pivot row and the chosen column's weight; upper[t][s] is the entry
    # of the column chosen at depth s > t on t's pivot row, which no later
    # step changes
    pivot_row = [0] * n_rows
    pivot = [0] * n_rows
    upper = [[0] * n_rows for _ in range(n_rows)]
    rhs_at = [0] * n_rows
    weight_at = [0] * n_rows
    best_num, best_den = 0, 1  # x = 0, the all-slack basis, is always feasible

    def full_bases(cands: list, rhs: list[int], row: int) -> None:
        # One unpivoted row is left: each candidate completes a basis whose
        # last pivot is its entry on that row (nonzero, dependents dropped).
        nonlocal best_num, best_den
        b = rhs[row]
        y = [0] * n_rows
        for j, vec in cands:
            det = vec[row]
            y_last = b
            if det < 0:
                det, y_last = -det, -b
            if y_last < 0:
                continue
            score = weights[j] * y_last
            for t in range(last - 1, -1, -1):
                above = upper[t]
                acc = det * rhs_at[t] - vec[pivot_row[t]] * y_last
                for s in range(t + 1, last):
                    acc -= above[s] * y[s]
                acc //= pivot[t]  # exact, by Cramer's rule
                if acc < 0:
                    break
                y[t] = acc
                score += weight_at[t] * acc
            else:
                if score * best_den > best_num * det:
                    best_num, best_den = score, det

    def walk(depth: int, cands: list, rhs: list[int], free: list[int]) -> None:
        if depth == last:
            full_bases(cands, rhs, free[0])
            return
        prev = pivot[depth - 1] if depth else 1
        for i in range(len(cands) - (n_rows - depth) + 1):
            j, vec = cands[i]
            p = next(r for r in free if vec[r])
            piv = vec[p]
            rest = [r for r in free if r != p]
            nxt = []
            for j2, v2 in cands[i + 1:]:
                f = v2[p]
                w = v2[:]
                nonzero = False
                for r in rest:
                    w[r] = (v2[r] * piv - vec[r] * f) // prev
                    nonzero = nonzero or w[r] != 0
                if nonzero:  # else the prefix plus this column is singular
                    nxt.append((j2, w))
            if len(nxt) < n_rows - depth - 1:
                continue
            r2 = rhs[:]
            for r in rest:
                r2[r] = (rhs[r] * piv - vec[r] * rhs[p]) // prev
            pivot_row[depth], pivot[depth] = p, piv
            for t in range(depth):
                upper[t][depth] = vec[pivot_row[t]]
            rhs_at[depth], weight_at[depth] = rhs[p], weights[j]
            walk(depth + 1, nxt, r2, rest)

    walk(0, list(enumerate(columns)), [1] * n_rows, list(range(n_rows)))
    return Fraction(best_num, den * best_den)


def check_lp_agreement(pipeline: Pipeline) -> CheckResult:
    """solve_exact vs. independent vertex enumeration and column generation.

    The vertex-enumeration comparison runs when the LP has at most
    ``VERTEX_ENUM_CAP`` bases; the column-generation comparison always runs.
    Exact equality of objectives is required. The pipeline lends its LP and,
    under the full solver, its solution, so it must have solved that LP
    itself rather than been given a ``solution``.
    """
    lp = pipeline.lp
    if pipeline.config.solver == SOLVER_FULL:
        exact_obj = pipeline.solution.objective  # the pipeline's own solve_exact(lp)
    else:
        exact_obj = solve_exact(lp).objective
    details = {"simplex_objective": str(exact_obj)}
    passed = True

    colgen = solve_column_generation(pipeline.instance, pipeline.proxies)
    details["column_generation_objective"] = str(colgen.objective)
    if colgen.objective != exact_obj:
        passed = False

    if basis_count(lp) <= VERTEX_ENUM_CAP:
        vertex_obj = enumerate_vertex_optimum(lp)
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


def check_truthfulness(pipeline: Pipeline) -> CheckResult:
    """No bidder gains in exact expected utility from any family misreport.

    Utility is p-weighted expected true value minus the deterministic charge,
    both exact. ``pipeline`` is the truthful run; the mechanism (LP, q
    values, payments) is recomputed from each misreported profile exactly as
    it would be for real reports, under the truthful run's caps. Also checks
    that truthful utility is nonnegative.
    """
    instance, config = pipeline.instance, pipeline.config
    caps = dict(atom_cap=pipeline.atom_cap, proxy_cap=pipeline.proxy_cap, lp_cap=pipeline.lp_cap)
    truth_dist = exact_distribution(pipeline)
    truth_charges = pipeline.payments()

    violations = []
    cases = 0
    for i, true_v in enumerate(instance.valuations):
        true_proxy = pipeline.proxies[i]
        truth_utility = expected_true_value(truth_dist, i, true_proxy) - truth_charges[i]
        if truth_utility < 0:
            violations.append(
                {"bidder": i, "misreport": "truth", "truth_utility": str(truth_utility),
                 "reason": "negative truthful utility"}
            )
        for label, report in misreport_family(true_v):
            cases += 1
            reported = Instance(
                instance.m,
                tuple(report if j == i else v for j, v in enumerate(instance.valuations)),
            )
            dev_pipeline = Pipeline(reported, config, **caps)
            dev_dist = exact_distribution(dev_pipeline)
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
