"""Independent brute-force verification of the mechanism's outcome law.

``exact_distribution`` enumerates every joint tentative assignment an LP
solution can produce (the product of the bidders' ``tentative_law``s),
evaluates the halt predicate on each, and aggregates the exact expected
welfare of the thinned, survival-filtered allocation. Every quantity is an
exact rational; no sampling is involved.

On top of the law sit the certification checks:

  * welfare identity: expected welfare equals p times the LP objective
    (exact, under the "halt" q variant; "own-items" falls short of it),
  * keep marginals: each support entry survives with probability exactly
    p * x[i,S],
  * approximation: expected welfare is at least c * p times the optimal
    integral welfare, found by a subset DP over the bidders' value tables
    (n * 3^m integer steps, bounded by ``INTEGRAL_CAP``),
  * proxy bound: proxy values dominate c times the base value on every
    bundle (requires subadditivity), compared as integers over the tables,
  * halt frequency: the exact probability of halting is at most 1/m,
  * monte carlo: the sampled mean welfare lies near the exact one,
  * truthfulness: against finite misreport families, each bidder's exact
    expected utility is maximized by reporting truthfully,
  * LP agreement: the simplex matches an independent enumeration of all
    basic solutions, and column generation matches the full solve.

Every check takes the prepared ``Pipeline`` it certifies, and the checks that
read the outcome law, truthfulness among them, also take its
``exact_distribution``, so one mechanism and one law serve every check of an
instance. Each enumeration is bounded by one module constant, read where it
is checked (``INTEGRAL_CAP`` and ``VERTEX_ENUM_CAP`` here, the others in the
modules that own them), and raises ``CapacityError`` past it. The checks
return CheckResult records rather than raising, so a harness can collect and
serialize them; the acceptance suite asserts on the records. Each check sets
``asserted``: welfare identity, keep marginals and truthfulness only under
the "halt" q variant, halt frequency only in the paper's regime, and the
others always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

from . import mechanism
from . import rng as rngmod
from .errors import CapacityError
from .itemsets import bundle_text, items, submasks
from .lp import ConfigLP, solve_column_generation, solve_exact
from .mechanism import (
    Q_HALT,
    SOLVER_FULL,
    Pipeline,
    compute_q,
    default_params,
    halt_check,
    realized_welfare,
    tentative_law,
)
from .valuations import (
    AdditiveValuation,
    ExplicitValuation,
    Instance,
    ProxyValuation,
    UnitDemandValuation,
    Valuation,
)

INTEGRAL_CAP = 10**7
VERTEX_ENUM_CAP = 200_000
VERTEX_CACHE_SIZE = 16  # constraint matrices whose basic feasible points are kept
MONTE_CARLO_SIGMAS = 4.0
MISREPORT_PERTURBATION = Fraction(1, 3)  # an explicit table's bump and cut


@dataclass(frozen=True)
class AtomRecord:
    """One joint tentative assignment with its probability and halt flag."""

    bundles: tuple[int, ...]  # item masks
    probability: Fraction
    halted: bool


@dataclass(frozen=True)
class EntryLaw:
    """Exact conditional law of one LP support entry (bidder, bundle)."""

    bidder: int
    bundle: int  # item mask
    x: Fraction
    q: Fraction
    survival: Fraction  # p / (1 - q)
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
    """One check's verdict; ``passed`` is required only where ``asserted``."""

    check: str
    passed: bool
    details: dict = field(default_factory=dict)
    witness: Optional[dict] = None
    asserted: bool = True


def exact_distribution(pipeline: Pipeline) -> OutcomeDistribution:
    """Enumerate the exact outcome law of the prepared mechanism.

    The law is that of ``pipeline.solution``, which may be a hand-built
    feasible point (``Pipeline(instance, config, solution=...)``); the joint
    draws are capped by ``mechanism.ATOM_CAP``, the cap of the q enumeration.
    """
    instance, config, sol = pipeline.instance, pipeline.config, pipeline.solution
    laws = [tentative_law(sol, i) for i in range(instance.n)]
    size = math.prod(map(len, laws))
    if size > mechanism.ATOM_CAP:
        raise CapacityError("joint tentative enumeration", size, mechanism.ATOM_CAP)

    atoms: list[AtomRecord] = []
    non_halt_prob: dict[tuple[int, int], Fraction] = {}
    expected = Fraction(0)
    total_prob = Fraction(0)
    for draw in product(*laws):
        bundles = tuple(b for b, _ in draw)
        prob = math.prod(x for _, x in draw)
        halted = halt_check(bundles, config.c)
        atoms.append(AtomRecord(bundles=bundles, probability=prob, halted=halted))
        total_prob += prob
        if not halted:
            for i, bundle in enumerate(bundles):
                if bundle:
                    key = (i, bundle)
                    non_halt_prob[key] = non_halt_prob.get(key, Fraction(0)) + prob
                    value = pipeline.proxies[i].value(bundle)
                    expected += prob * pipeline.survival(i, bundle) * value
    assert total_prob == 1, "atom probabilities must sum to one"

    entries = []
    for i, bundle, x in sol.support():
        # every entry meets the bound q_i <= 1 - p, also one whose every draw halts
        s = pipeline.survival(i, bundle)
        nh = non_halt_prob.get((i, bundle), Fraction(0))
        entries.append(EntryLaw(i, bundle, x, pipeline.q(i, bundle), s, nh * s))

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
    return CheckResult("welfare-identity", gap == 0, details, asserted=config.q_variant == Q_HALT)


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
                    "bundle": list(items(e.bundle)),
                    "x": str(e.x),
                    "target": str(want),
                    "marginal": str(e.marginal),
                    "deficit": str(want - e.marginal),
                }
            )
    details = {"entries": len(law.entries), "deficits": deficits, "q_variant": config.q_variant}
    return CheckResult("keep-marginals", not deficits, details,
                       witness=deficits[0] if deficits else None,
                       asserted=config.q_variant == Q_HALT)


def optimal_integral_welfare(instance: Instance) -> Fraction:
    """Welfare optimum over every assignment of disjoint bundles to bidders.

    Every bidder gets one bundle, possibly empty, and items may stay
    unassigned. A subset DP over the bidders' integer value tables, scaled to
    one denominator: best_k[S] = max over T subset of S of best_{k-1}[S - T]
    + v_k(T), with best_0 = 0, is the best welfare of bidders 1..k within S,
    and the optimum is best_n[all items]. That is n * 3^m integer steps,
    which ``INTEGRAL_CAP`` bounds; the value tables are the only input, so
    the LP and the mechanism play no part.
    """
    n, m = instance.n, instance.m
    required = n * 3**m
    if required > INTEGRAL_CAP:
        raise CapacityError("integral optimum by subset DP", required, INTEGRAL_CAP)
    tables = [v.value_table for v in instance.valuations]
    den = math.lcm(*(d for _, d in tables))
    scaled = [[x * (den // d) for x in values] for values, d in tables]
    full = (1 << m) - 1
    best = [0] * (full + 1)
    for values in scaled[:-1]:
        best = [max([best[s ^ t] + values[t] for t in submasks(s)]) for s in range(full + 1)]
    last = scaled[-1]
    return Fraction(max(best[full ^ t] + last[t] for t in range(full + 1)), den)


def check_approximation(pipeline: Pipeline, law: OutcomeDistribution) -> CheckResult:
    """Expected welfare >= c * p * (optimal integral welfare), exactly.

    ``law`` is ``exact_distribution(pipeline)``; ``INTEGRAL_CAP`` bounds the
    subset DP's n * 3^m steps for the integral optimum.
    """
    config = pipeline.config
    opt = optimal_integral_welfare(pipeline.instance)
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
) -> CheckResult:
    """proxy_value(S) >= c * value(S) for every bundle, bidder, and c.

    Exhaustive over all 2^m bundles; sound for subadditive valuations. With
    k = 1/c, the proxy table P over D_p and the base table V over D_v are
    compared as integers, P[S] * k * D_v >= V[S] * D_p; Fractions are built
    only for a violation's witness.
    """
    violations = []
    for i, v in enumerate(instance.valuations):
        values, d_v = v.value_table
        for c in cs:
            proxy = ProxyValuation(v, c)
            proxies, d_p = proxy.value_table
            lhs_scale = proxy.c.denominator * d_v
            for mask, (pv, bv) in enumerate(zip(proxies, values)):
                if pv * lhs_scale < bv * d_p:
                    violations.append(
                        {
                            "bidder": i,
                            "c": str(proxy.c),
                            "bundle": list(items(mask)),
                            "proxy": str(Fraction(pv, d_p)),
                            "scaled_value": str(proxy.c * Fraction(bv, d_v)),
                        }
                    )
    return CheckResult(
        "proxy-bound",
        not violations,
        {"bidders": instance.n, "keep_probabilities": [str(Fraction(c)) for c in cs],
         "violations": violations},
        witness=violations[0] if violations else None,
    )


def check_halt_frequency(pipeline: Pipeline) -> CheckResult:
    """The exact probability that step 4 halts is at most 1/m.

    Under "halt", q is the probability of a halt given one bidder's bundle,
    so P(halt) is the sum over bidder 0's ``tentative_law`` of x * q(S),
    whatever the pipeline's q variant: no outcome law is built and nothing
    is sampled. The bound is the paper's only in its regime, m >= 4 and c at
    most ``default_params(m)``'s c, so it is asserted only there.
    """
    config, sol, m = pipeline.config, pipeline.solution, pipeline.instance.m
    halt = sum(
        (x * compute_q(sol, 0, bundle, config.c, Q_HALT) for bundle, x in tentative_law(sol, 0)),
        Fraction(0),
    )
    bound = Fraction(1, m)
    return CheckResult(
        "halt-frequency",
        halt <= bound,
        {"halt_probability": str(halt), "bound": str(bound), "inv_c": config.inv_c},
        asserted=m >= 4 and config.c <= default_params(m)[0],
    )


def check_monte_carlo(pipeline: Pipeline, law: OutcomeDistribution, trials: int) -> CheckResult:
    """Sampled mean welfare lies within ``MONTE_CARLO_SIGMAS`` standard errors of the exact mean.

    ``law`` is ``exact_distribution(pipeline)``; the samples draw from seeds
    derived from ``pipeline.config.seed``.
    """
    seed, instance = pipeline.config.seed, pipeline.instance
    welfares = [
        realized_welfare(instance, outcome)
        for outcome in pipeline.sample(rngmod.derive_seeds(seed, "replication", trials))
    ]
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
    """Column choices that ``basic_feasible_points`` checks against its cap."""
    n_rows = lp.n + lp.m
    return math.comb(len(lp.columns) + n_rows, n_rows)


def basic_feasible_points(lp: ConfigLP) -> tuple:
    """The distinct basic feasible points of the LP's constraints.

    Each point is ``(den, ((column, num), ...))``: x = num / den on the
    listed columns (ascending indices into ``lp.columns``) and 0 elsewhere,
    in lowest terms. Every right-hand side is 1, so the columns' (bidder,
    bundle) keys fix the points, which are cached by those keys and shared by
    LPs of any coefficients, such as ``ConfigLP.zero_bidder``'s.
    ``VERTEX_ENUM_CAP`` is checked first, also for cached constraints.
    """
    bases = basis_count(lp)
    if bases > VERTEX_ENUM_CAP:
        raise CapacityError("basic-solution enumeration", bases, VERTEX_ENUM_CAP)
    return _feasible_points(lp.n, lp.m, tuple((col.bidder, col.bundle) for col in lp.columns))


def enumerate_vertex_optimum(lp: ConfigLP) -> Fraction:
    """Optimum over every basic feasible point of the slack-extended system.

    Independent of the simplex: ``basic_feasible_points`` lists the points,
    once per constraint matrix. The objective coefficients are scaled once to
    integers ``w`` over one denominator, each point scores ``w . num / den``,
    scores are compared as integer ratios, and one ``Fraction`` is built, for
    the optimum. Intended for tiny instances: the number of bases is capped.
    """
    points = basic_feasible_points(lp)
    coefs = [col.coef for col in lp.columns]
    den = math.lcm(*(coef.denominator for coef in coefs))
    weights = [coef.numerator * (den // coef.denominator) for coef in coefs]
    best_num, best_den = 0, 1  # x = 0, the all-slack basis, is always feasible
    for point_den, support in points:
        score = sum(weights[j] * num for j, num in support)
        if score * best_den > best_num * point_den:
            best_num, best_den = score, point_den
    return Fraction(best_num, den * best_den)


@lru_cache(maxsize=VERTEX_CACHE_SIZE)
def _feasible_points(n: int, m: int, columns: tuple) -> tuple:
    """Distinct basic feasible points of [A | I] x = 1 over (bidder, mask) columns.

    The rows are the m items, then the n bidders. The choices of n + m basis
    columns are walked depth first, in the order of ``itertools.combinations``:

      * each depth adds one column and takes one fraction-free Bareiss step
        on it, and the same step reduces the right-hand side and every later
        candidate column, so all entries stay exact integers (minors);
      * a candidate that reduces to zero on every unpivoted row lies in the
        span of the chosen prefix, so every basis extending the prefix with
        it is singular and the walk drops it with its whole subtree;
      * at a full basis with last pivot ``det``, Cramer's rule makes
        ``y = |det| * x`` an integer vector, so back-substitution divides
        exactly; the basis is rejected at the first negative ``y_i``, or the
        first zero one on a structural column.

    So a point is recorded only at a basis whose structural values are all
    positive. Every vertex has one: its support plus the slacks of the rows
    outside a set on which the support's columns are nonsingular.
    """
    n_rows = n + m
    n_struct = len(columns)
    vectors = []
    for bidder, mask in columns:
        vec = [(mask >> j) & 1 for j in range(m)] + [0] * n
        vec[m + bidder] = 1
        vectors.append(vec)
    for s in range(n_rows):
        vec = [0] * n_rows
        vec[s] = 1
        vectors.append(vec)
    # a basic column of the LP must be positive, a basic slack nonnegative
    floors = [1] * n_struct + [0] * n_rows

    last = n_rows - 1
    # per depth t: the pivot row, the pivot, the reduced right-hand side on
    # the pivot row, and the chosen column with its floor; upper[t][s] is the
    # entry of the column chosen at depth s > t on t's pivot row, which no
    # later step changes
    pivot_row = [0] * n_rows
    pivot = [0] * n_rows
    upper = [[0] * n_rows for _ in range(n_rows)]
    rhs_at = [0] * n_rows
    column_at = [0] * n_rows
    floor_at = [0] * n_rows
    points: dict = {}

    def full_bases(cands: list, rhs: list[int], row: int) -> None:
        # One unpivoted row is left: each candidate completes a basis whose
        # last pivot is its entry on that row (nonzero, dependents dropped).
        b = rhs[row]
        y = [0] * n_rows
        for j, vec in cands:
            det = vec[row]
            y_last = b
            if det < 0:
                det, y_last = -det, -b
            if y_last < floors[j]:
                continue
            for t in range(last - 1, -1, -1):
                above = upper[t]
                acc = det * rhs_at[t] - vec[pivot_row[t]] * y_last
                for s in range(t + 1, last):
                    acc -= above[s] * y[s]
                acc //= pivot[t]  # exact, by Cramer's rule
                if acc < floor_at[t]:
                    break
                y[t] = acc
            else:
                # columns rise with depth, so the support is in column order
                support = [(column_at[t], y[t]) for t in range(last) if floor_at[t]]
                if j < n_struct:
                    support.append((j, y_last))
                g = math.gcd(det, *(num for _, num in support))
                points[det // g, tuple((c, num // g) for c, num in support)] = None

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
            rhs_at[depth], column_at[depth], floor_at[depth] = rhs[p], j, floors[j]
            walk(depth + 1, nxt, r2, rest)

    walk(0, list(enumerate(vectors)), [1] * n_rows, list(range(n_rows)))
    return tuple(points)


def check_lp_agreement(pipeline: Pipeline) -> CheckResult:
    """solve_exact vs. independent vertex enumeration and column generation.

    The vertex-enumeration comparison runs when the LP has at most
    ``VERTEX_ENUM_CAP`` bases; it walks the bases once per constraint matrix,
    so the instances of one shape score cached points. The column-generation
    comparison always runs.
    Exact equality of objectives is required. The pipeline lends its LP and
    its solution, which stands for whichever solver built it: only the other
    solver runs here. So the pipeline must have solved its LP itself rather
    than been given a ``solution``.
    """
    lp = pipeline.lp
    if pipeline.config.solver == SOLVER_FULL:
        exact_obj = pipeline.solution.objective
        colgen_obj = solve_column_generation(pipeline.instance, pipeline.proxies).objective
    else:
        exact_obj = solve_exact(lp).objective
        colgen_obj = pipeline.solution.objective
    details = {
        "simplex_objective": str(exact_obj),
        "column_generation_objective": str(colgen_obj),
    }
    passed = colgen_obj == exact_obj

    if basis_count(lp) <= VERTEX_ENUM_CAP:
        vertex_obj = enumerate_vertex_optimum(lp)
        details["vertex_enumeration_objective"] = str(vertex_obj)
        if vertex_obj != exact_obj:
            passed = False
    else:
        details["vertex_enumeration_objective"] = "skipped (beyond cap)"
    return CheckResult("lp-agreement", passed, details)


# -- truthfulness ------------------------------------------------------------


def misreport_family(v: Valuation) -> list[tuple[str, Valuation]]:
    """Finite, documented family of alternative reports for one bidder.

    Scalings of the whole table by 1/2 and 2 for every kind; swaps to
    additive and unit-demand valuations built from the singleton values; for
    explicit tables also a +delta and a -delta (floored at zero)
    perturbation of each nonempty bundle, delta = ``MISREPORT_PERTURBATION``.
    Scalings, bumps and cuts are explicit tables. The family is finite by
    design: the harness certifies no-counterexample-in-family, not global
    optimality of truth-telling.
    """
    out: list[tuple[str, Valuation]] = [
        (label, ExplicitValuation(v.m, {mask: f * v._value(mask) for mask in range(1 << v.m)}))
        for label, f in (("scale-1/2", Fraction(1, 2)), ("scale-2", Fraction(2)))
    ]
    singletons = [v._value(1 << j) for j in range(v.m)]
    if v.kind != "additive":
        out.append(("swap-additive", AdditiveValuation(singletons)))
    if v.kind != "unit-demand":
        out.append(("swap-unit-demand", UnitDemandValuation(singletons)))
    if isinstance(v, ExplicitValuation):
        for mask in range(1, 1 << v.m):
            x, text = v.table[mask], bundle_text(mask)
            up = x + MISREPORT_PERTURBATION
            down = max(Fraction(0), x - MISREPORT_PERTURBATION)
            out.append((f"bump+{text}", ExplicitValuation(v.m, {**v.table, mask: up})))
            if down != x:
                out.append((f"cut-{text}", ExplicitValuation(v.m, {**v.table, mask: down})))
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
        (e.marginal * true_proxy._value(e.bundle) for e in dist.entries if e.bidder == bidder),
        Fraction(0),
    )


def check_truthfulness(pipeline: Pipeline, law: OutcomeDistribution) -> CheckResult:
    """No bidder gains in exact expected utility from any family misreport.

    Utility is p-weighted expected true value minus the deterministic charge,
    both exact. ``pipeline`` is the truthful run and ``law`` its
    ``exact_distribution``; the mechanism (LP, q values, payments) is
    recomputed from each misreported profile exactly as it would be for real
    reports. Also checks that truthful utility is nonnegative. Asserted only
    under the halt variant.
    """
    instance, config = pipeline.instance, pipeline.config
    truth_charges = pipeline.payments()

    violations = []
    cases = 0
    for i, true_v in enumerate(instance.valuations):
        true_proxy = pipeline.proxies[i]
        truth_utility = expected_true_value(law, i, true_proxy) - truth_charges[i]
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
            dev_pipeline = Pipeline(reported, config)
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
        asserted=config.q_variant == Q_HALT,
    )
