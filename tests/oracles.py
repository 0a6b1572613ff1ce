"""Independent reference computations used to derive and freeze expected values.

Everything here is deliberately written from the definitions, separate from
the package's own code paths, so a test comparing the two is a genuine
dual-route check.
"""

import json
import math
from fractions import Fraction
from hashlib import shake_256
from itertools import combinations, product
from math import lcm
from typing import Optional, Sequence

from proxyauction.errors import (
    CapacityError,
    ContractViolationError,
    FormatError,
    InfeasibleSolutionError,
)
from proxyauction.itemsets import submasks
from proxyauction.lp import (
    ConfigLP,
    FractionalSolution,
    solve_exact,
)
from proxyauction.mechanism import (
    Q_HALT,
    SOLVER_COLGEN,
    Outcome,
)
from proxyauction.serialize import OUTCOME_SCHEMA, SOLUTION_SCHEMA, _require_exact, parse_value
from proxyauction.simplex import SimplexResult
from proxyauction.valuations import (
    AdditiveValuation,
    ProxyValuation,
    Valuation,
)
from proxyauction.verify import VERTEX_ENUM_CAP

# is_subadditive and is_monotone_normalized scan pairs of bundles, up to 4^m
PAIR_CHECK_CAP = 10


def subsets(mask: int):
    """All submasks of ``mask`` (ascending order by construction)."""
    out = []
    sub = 0
    while True:
        out.append(sub)
        if sub == mask:
            return out
        sub = (sub | ~mask) + 1 & mask


def value_by_definition(v, mask: int) -> Fraction:
    """v(S) from the kind's public fields: Fraction sums and maxes over item sets."""
    items = {j for j in range(v.m) if (mask >> j) & 1}
    if v.kind == "additive":
        return sum((v.weights[j] for j in items), Fraction(0))
    if v.kind == "unit-demand":
        return max((v.weights[j] for j in items), default=Fraction(0))
    if v.kind == "xos":
        sums = (sum((clause[j] for j in items), Fraction(0)) for clause in v.clauses)
        return max(sums, default=Fraction(0))
    if v.kind == "coverage":
        elements = range(len(v.element_weights))
        covered = set()
        for j in items:
            covered |= {e for e in elements if (v.cover_masks[j] >> e) & 1}
        return sum((v.element_weights[e] for e in covered), Fraction(0))
    if v.kind == "explicit":
        return v.table[mask]
    raise ValueError(f"no definition for kind {v.kind!r}")


def proxy_by_enumeration(valuation, mask: int, c) -> Fraction:
    """E[v(T)] with each item of the bundle surviving independently w.p. c."""
    c = Fraction(c)
    size = bin(mask).count("1")
    total = Fraction(0)
    for sub in subsets(mask):
        k = bin(sub).count("1")
        total += c**k * (1 - c) ** (size - k) * valuation._value(sub)
    return total


def mask_of(indices) -> int:
    """The item mask with bit j set for each item j of ``indices``."""
    mask = 0
    for j in indices:
        mask |= 1 << j
    return mask


def index_list(mask: int) -> list:
    """The items of ``mask`` in ascending order, read bit by bit."""
    return [j for j in range(mask.bit_length()) if (mask >> j) & 1]


def text_of(mask: int) -> str:
    """A bundle as written in tables, labels and messages: ``"{0,2}"``."""
    return "{" + ",".join(str(j) for j in index_list(mask)) + "}"


def selection_key(mask: int) -> tuple:
    """Tie-break key for demand queries: fewest items first, then the lexicographic index tuple."""
    items = index_list(mask)
    return (len(items), tuple(items))


def demand_by_scan(valuation, prices) -> int:
    """Argmax bundle mask of v(S) - price(S); ties to the least ``selection_key``."""
    m = valuation.m
    prices = [Fraction(p) for p in prices]

    best_mask, best_profit = 0, Fraction(0)
    for mask in range(1, 1 << m):
        profit = valuation._value(mask) - sum(prices[j] for j in range(m) if (mask >> j) & 1)
        if profit > best_profit or (
            profit == best_profit and selection_key(mask) < selection_key(best_mask)
        ):
            best_mask, best_profit = mask, profit
    return best_mask


def integral_welfare_by_products(instance) -> Fraction:
    """Optimal welfare over every item-to-bidder assignment, via itertools.

    The (n+1)^m enumeration that the subset DP of
    ``proxyauction.verify.optimal_integral_welfare`` replaced: each item goes to one bidder or to nobody, and
    every bidder is valued at its bundle, the empty one included.
    """
    n, m = instance.n, instance.m
    best = Fraction(0)
    for assignment in product(range(n + 1), repeat=m):
        masks = [0] * n
        for j, who in enumerate(assignment):
            if who < n:
                masks[who] |= 1 << j
        welfare = sum(
            (v._value(mask) for v, mask in zip(instance.valuations, masks)), Fraction(0)
        )
        best = max(best, welfare)
    return best


def proxy_bound_violations_by_fractions(
    instance,
    *,
    cs: Sequence = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)),
) -> list:
    """Every (bidder, c, bundle) with proxy_value < c * value, compared as Fractions.

    The loop ``proxyauction.verify.check_proxy_bound`` replaced with integer
    comparisons over the value tables; returns its ``violations`` list.
    """
    violations = []
    for i, v in enumerate(instance.valuations):
        for c in cs:
            proxy = ProxyValuation(v, c)
            for mask in range(1 << instance.m):
                lhs = proxy._value(mask)
                rhs = Fraction(c) * v._value(mask)
                if lhs < rhs:
                    violations.append(
                        {
                            "bidder": i,
                            "c": str(Fraction(c)),
                            "bundle": index_list(mask),
                            "proxy": str(lhs),
                            "scaled_value": str(rhs),
                        }
                    )
    return violations


def additive_lp_optimum(weight_rows) -> Fraction:
    """LP optimum for additive bidders: each item to its highest bidder weight."""
    m = len(weight_rows[0])
    return sum(
        (max(Fraction(row[j]) for row in weight_rows) for j in range(m)), Fraction(0)
    )


def canonical_dumps_by_json(obj) -> str:
    """Canonical JSON from the standard library: sorted keys, two-space indent, UTF-8 text."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def stream_key_by_definition(seed: int, labels) -> bytes:
    """A stream's key built in full: the label text ``repr(seed)|repr(label)|...`` as UTF-8."""
    return "|".join([repr(int(seed)), *map(repr, labels)]).encode("utf-8")


class Stream:
    """Successive exact uniform draws of one stream, as ``rng``'s docstring defines them.

    The package draws only a stream's first draw (``rng.draw``); this is the
    reference for it, and for the samplers below, which draw one stream per
    site as the definitions read.
    """

    def __init__(self, key: bytes):
        self.key = key
        self.counter = 0  # the next block to read

    def randrange(self, den: int) -> int:
        """Uniform integer in [0, den), exactly.

        Block k hashes ``key || k`` (k as 8 big-endian bytes) with SHAKE-256
        and reads b = 8 * ceil((bits of den + 64) / 8) bits as u. A u at or
        above the largest multiple of den up to 2^b is rejected and the draw
        reads the next block. A draw below 1 is 0 and reads no block.
        """
        if den < 1:
            raise ValueError(f"randrange needs den >= 1, got {den}")
        if den == 1:
            return 0
        nbytes = math.ceil((den.bit_length() + 64) / 8)
        limit = 2 ** (8 * nbytes) // den * den
        while True:
            block = shake_256(self.key + self.counter.to_bytes(8, "big")).digest(nbytes)
            self.counter += 1
            u = int.from_bytes(block, "big")
            if u < limit:
                return u % den


def stream_by_definition(seed: int, *labels) -> Stream:
    """The stream of the site ``(seed, *labels)``, from its key built in full."""
    return Stream(stream_key_by_definition(seed, labels))


def bernoulli(rng: Stream, prob) -> bool:
    """True with probability exactly ``prob``."""
    prob = Fraction(prob)
    if not 0 <= prob <= 1:
        raise ValueError(f"probability {prob} outside [0, 1]")
    if prob.denominator == 1:
        return prob == 1
    return rng.randrange(prob.denominator) < prob.numerator


def categorical(rng: Stream, probs: Sequence) -> Optional[int]:
    """Index drawn with the given probabilities; None for the residual mass.

    ``probs`` may sum to less than one; the leftover probability maps to
    None. The draw is a uniform integer below the lcm of denominators, so
    every atom (including the residual) has exactly its stated mass.
    """
    fracs = [Fraction(p) for p in probs]
    if any(p < 0 for p in fracs) or sum(fracs) > 1:
        raise ValueError("probabilities must be nonnegative and sum to at most 1")
    den = lcm(*(p.denominator for p in fracs)) if fracs else 1
    r = rng.randrange(den)
    acc = 0
    for k, p in enumerate(fracs):
        acc += p.numerator * (den // p.denominator)
        if r < acc:
            return k
    return None


def holders_of(bundles: Sequence[int]) -> list:
    """Per item up to the last one held, the bidders whose bundle holds it, in bidder order."""
    m = max((b.bit_length() for b in bundles), default=0)
    return [[i for i, b in enumerate(bundles) if (b >> j) & 1] for j in range(m)]


def sample_by_definition(pipeline, seed: int) -> Outcome:
    """One rounding pass (steps 3-7) composed straight from the definitions.

    Every decision draws from its own (seed, stage, index) stream: bidder i's
    tentative bundle from (seed, "tentative", i), item j's lottery from
    (seed, "lottery", j), bidder i's survival from (seed, "cancel", i). The
    halt test counts holders here rather than calling the package's
    predicate. Only the LP solution and the q values come from ``pipeline``.
    """
    sol, config = pipeline.solution, pipeline.config
    n = sol.n

    tentative = []
    for i in range(n):
        options = sol.bundles_of(i)
        pick = categorical(stream_by_definition(seed, "tentative", i), [x for _, x in options])
        tentative.append(0 if pick is None else options[pick][0])
    tentative = tuple(tentative)

    holders = holders_of(tentative)
    if any(len(h) > config.c.denominator for h in holders):
        empty = (0,) * n
        return Outcome(halted=True, tentative=tentative, kept=empty, final=empty)
    q_values = tuple(pipeline.q(i, tentative[i]) for i in range(n))

    kept = [0] * n
    for j, who in enumerate(holders):
        if who:
            pick = categorical(stream_by_definition(seed, "lottery", j), [config.c] * len(who))
            if pick is not None:
                kept[who[pick]] |= 1 << j

    final = []
    for i, q in enumerate(q_values):
        survives = bernoulli(stream_by_definition(seed, "cancel", i), config.p / (1 - q))
        final.append(kept[i] if survives else 0)
    return Outcome(
        halted=False,
        tentative=tentative,
        kept=tuple(kept),
        final=tuple(final),
        q_values=q_values,
    )


def q_by_assignments(
    solution: FractionalSolution, bidder: int, bundle: int, c: Fraction, variant: str
) -> Fraction:
    """q_i from every joint draw of the other bidders, built as tentative assignments.

    Each other bidder draws one of its ``bundles_of`` entries or the empty
    bundle with the rest of its mass (an atom of mass 0 included); the bidder
    holds ``bundle`` in every draw. A draw counts when some item ("halt") or
    some item of ``bundle`` ("own-items") has more than 1/c holders, counted
    here rather than by the package's step-4 predicate.
    """
    choices = []
    for i in range(solution.n):
        if i == bidder:
            choices.append([(bundle, Fraction(1))])
        else:
            options = solution.bundles_of(i)
            choices.append([*options, (0, 1 - sum(x for _, x in options))])
    total = Fraction(0)
    for draw in product(*choices):
        holders = holders_of([b for b, _ in draw])
        items = range(len(holders)) if variant == Q_HALT else index_list(bundle)
        if any(len(holders[j]) > c.denominator for j in items):
            total += math.prod(x for _, x in draw)
    return total


def item_lottery(bundles: Sequence[int], c: Fraction, seed: int) -> tuple[int, ...]:
    """Step 6: per item, each tentative holder receives it with probability c.

    Requires every holder count to be at most 1/c (the halt check must have
    passed), so the per-item lottery probabilities sum to at most 1. Item j
    draws from its own (seed, "lottery", j) stream: a uniform integer u below
    1/c, and the u-th holder receives the item if there is one, so each holder
    gets it with probability exactly c. At c = 1 the one holder gets the item
    for certain, and no stream is built.
    """
    inv_c = c.denominator
    kept_masks = [0] * len(bundles)
    for j, holders in enumerate(holders_of(bundles)):
        if not holders:
            continue
        if len(holders) > inv_c:
            raise ContractViolationError(
                f"item {j} held {len(holders)} > 1/c = {inv_c} times; halt check must run first"
            )
        k = 0 if inv_c == 1 else stream_by_definition(seed, "lottery", j).randrange(inv_c)
        if k < len(holders):
            kept_masks[holders[k]] |= 1 << j
    return tuple(kept_masks)


def personal_cancel(kept: Sequence[int], survival: Sequence, seed: int) -> tuple:
    """Step 7: bidder i keeps everything with probability survival[i], else nothing.

    A nonempty bundle draws from bidder i's (seed, "cancel", i) stream: a
    survival probability a/b keeps the bundle when a uniform integer below b
    is less than a. An empty bundle, or a survival probability of 1, draws
    nothing, since the outcome is certain.
    """
    final = []
    for i, (bundle, keep) in enumerate(zip(kept, survival)):
        if not bundle:
            final.append(0)
            continue
        survives = keep == 1 if keep.denominator == 1 else (
            stream_by_definition(seed, "cancel", i).randrange(keep.denominator) < keep.numerator
        )
        final.append(bundle if survives else 0)
    return tuple(final)


def sample_by_steps(pipeline, seed: int) -> Outcome:
    """``Pipeline.sample`` composed of the per-step functions, one stream per site.

    Step 3 is the package's ``Pipeline.tentative_sample`` of ``[seed]``; step 4 counts
    holders here rather than calling the package's predicate; steps 6 and 7
    are ``item_lottery`` and ``personal_cancel`` above, each of which builds
    its own ``stream_by_definition(seed, stage, index)`` per draw. As in the
    package, the bound q_i <= 1 - p is checked for every drawn bundle, halted
    or not. The q values and survival probabilities come from ``pipeline``.
    """
    [bundles] = pipeline.tentative_sample([seed])
    survival = [pipeline.survival(i, bundle) for i, bundle in enumerate(bundles)]
    if any(len(who) > pipeline.config.c.denominator for who in holders_of(bundles)):
        empty = (0,) * len(bundles)
        return Outcome(halted=True, tentative=bundles, kept=empty, final=empty)
    kept = item_lottery(bundles, pipeline.config.c, seed)
    return Outcome(
        halted=False,
        tentative=bundles,
        kept=kept,
        final=personal_cancel(kept, survival, seed),
        q_values=tuple(pipeline.q(i, bundle) for i, bundle in enumerate(bundles)),
    )


def charges_by_cold_solves(pipeline) -> tuple:
    """The pipeline's charges with every zeroed LP solved from the slack basis.

    charge_i = p * (OPT with bidder i's objective zeroed - the other bidders'
    proxy value in the pipeline's solution), where the zeroed optimum comes
    from the full solver started cold, or for column generation from
    ``column_generation_by_cold_rounds``: the payment rule as it stood before
    payments started warm.
    """
    instance, config, solution = pipeline.instance, pipeline.config, pipeline.solution
    charges = []
    for i in range(instance.n):
        if config.solver == SOLVER_COLGEN:
            oracles = list(pipeline.proxies)
            oracles[i] = AdditiveValuation([Fraction(0)] * instance.m)
            opt_without = column_generation_by_cold_rounds(instance, oracles)["objective"]
        else:
            opt_without = solve_exact(pipeline.lp.zero_bidder(i)).objective
        others_share = sum(
            (x * pipeline.proxies[j].value(bundle) for j, bundle, x in solution.support() if j != i),
            Fraction(0),
        )
        charges.append(config.p * (opt_without - others_share))
    return tuple(charges)


def column_generation_by_cold_rounds(instance, oracles) -> dict:
    """Column generation that solves every round's master cold with the dense tableau.

    The master starts empty and is kept in (bidder, ``index_list(mask)``)
    order. Each round solves it with ``tableau_simplex`` from the slack basis,
    over the bidder rows then the item rows, all of capacity 1. Each bidder's
    ``demand_by_scan`` bundle at the item duals enters when its value, read
    with ``_value``, exceeds its price plus the bidder dual. The last round's
    solution is returned as ``entries``, ``item_duals``, ``bidder_duals``,
    ``basis`` (each row's basic column as (bidder, mask), or a slack's row)
    and ``objective``. ``pivots`` sums every round's cold pivots, and
    ``unshared_pivots`` counts only those off the previous round's path: a
    round's pivots less the leading ones whose entering variables equal the
    previous round's.
    """
    n, m = instance.n, instance.m
    master: list = []
    pivots = unshared = 0
    previous: list = []
    while True:
        columns = [
            [Fraction(r == i) for r in range(n)] + [Fraction(mask >> j & 1) for j in range(m)]
            for i, mask in master
        ]
        entering: list = []
        res = tableau_simplex(
            columns, [oracles[i]._value(mask) for i, mask in master], [Fraction(1)] * (n + m), entering
        )
        path = [master[j] if j < len(master) else j - len(master) for j in entering]
        shared = 0
        while shared < min(len(path), len(previous)) and path[shared] == previous[shared]:
            shared += 1
        pivots += res.pivots
        unshared += res.pivots - shared
        previous = path
        u, y = res.duals[:n], res.duals[n:]
        added = []
        for i in range(n):
            mask = demand_by_scan(oracles[i], y)
            reduced = oracles[i]._value(mask) - sum(y[j] for j in index_list(mask)) - u[i]
            if mask and (i, mask) not in master and reduced > 0:
                added.append((i, mask))
        if not added:
            break
        master = sorted(master + added, key=lambda key: (key[0], index_list(key[1])))
    return {
        "entries": {master[j]: x for j, x in enumerate(res.x) if x > 0},
        "item_duals": tuple(y),
        "bidder_duals": tuple(u),
        "basis": tuple(master[j] if j < len(master) else j - len(master) for j in res.basis),
        "objective": res.objective,
        "pivots": pivots,
        "unshared_pivots": unshared,
    }


def tableau_simplex(
    columns: Sequence[Sequence], objective: Sequence, rhs: Sequence, path: Optional[list] = None
) -> SimplexResult:
    """The dense Bland tableau that ``proxyauction.simplex`` replaced.

    Maximize objective . x subject to columns-as-matrix x <= rhs, x >= 0.

    ``columns[j]`` is the j-th column of the constraint matrix (length =
    number of rows). Returns the optimal basic solution, the objective value,
    and the dual vector (one multiplier per row), with no solver state as
    ``final``. If ``path`` is given, the entering variable of each pivot is
    appended to it (slack r as ``len(columns) + r``). Every entry of
    ``columns``, ``objective`` and ``rhs`` must be a Fraction: an int entry
    would make the pivot row's ``1 / piv`` a float, so it raises TypeError.
    """
    n_rows = len(rhs)
    n_cols = len(columns)
    zero = Fraction(0)
    for entry in (*(a for col in columns for a in col), *objective, *rhs):
        if not isinstance(entry, Fraction):
            raise TypeError(f"tableau entry {entry!r} is a {type(entry).__name__}, not a Fraction")

    if any(b < zero for b in rhs):
        raise ValueError("canonical form requires a nonnegative right-hand side")

    # Tableau rows over structural columns + slack columns, plus rhs.
    rows = []
    for r in range(n_rows):
        row = [columns[j][r] for j in range(n_cols)]
        row.extend(zero + 1 if s == r else zero for s in range(n_rows))
        row.append(rhs[r] + zero)
        rows.append(row)
    cost = [objective[j] + zero for j in range(n_cols)]
    cost.extend(zero for _ in range(n_rows))

    basis = [n_cols + r for r in range(n_rows)]
    total = n_cols + n_rows
    value = zero
    pivots = 0

    while True:
        entering = -1
        for j in range(total):
            if cost[j] > 0:
                entering = j
                break
        if entering < 0:
            break

        leaving_row = -1
        best_ratio = None
        for r in range(n_rows):
            a = rows[r][entering]
            if a > 0:
                ratio = rows[r][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving_row])
                ):
                    best_ratio = ratio
                    leaving_row = r
        if leaving_row < 0:
            # Unreachable for the configuration LP: bidder constraints bound
            # every structural variable and slacks never improve the cost.
            raise ValueError("LP is unbounded")

        pivots += 1
        if path is not None:
            path.append(entering)

        piv_row = rows[leaving_row]
        piv = piv_row[entering]
        inv = 1 / piv
        for j in range(total + 1):
            piv_row[j] *= inv
        for r in range(n_rows):
            if r == leaving_row:
                continue
            factor = rows[r][entering]
            if factor == zero:
                continue
            row = rows[r]
            for j in range(total + 1):
                row[j] -= factor * piv_row[j]
        factor = cost[entering]
        if factor != zero:
            for j in range(total):
                cost[j] -= factor * piv_row[j]
            value += factor * piv_row[-1]
        basis[leaving_row] = entering

    x = [zero for _ in range(n_cols)]
    for r, b in enumerate(basis):
        if b < n_cols:
            x[b] = rows[r][-1]
    duals = [zero - cost[n_cols + r] for r in range(n_rows)]
    return SimplexResult(x=x, objective=value, duals=duals, basis=list(basis), pivots=pivots, final=None)


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


def vertex_optimum_by_combinations(lp, *, cap: int = VERTEX_ENUM_CAP) -> Fraction:
    """Optimum by enumerating every basic solution of the slack-extended system.

    The enumerator that ``proxyauction.verify.enumerate_vertex_optimum``
    replaced: every basis from ``itertools.combinations``, each solved in full
    by its own elimination.

    Independent of the simplex: for each choice of basis columns the square
    system is solved by exact elimination; feasible solutions (all variables
    nonnegative) are scored directly. Intended for tiny instances.
    """
    [best] = vertex_optima_by_combinations([lp], cap=cap)
    return best


def vertex_optima_by_combinations(lps, *, cap: int = VERTEX_ENUM_CAP) -> list:
    """``vertex_optimum_by_combinations`` of each LP, over one walk of their shared bases.

    The LPs must have the same columns, (bidder, bundle) in the same order,
    and differ only in coefficients, as an LP and its ``zero_bidder`` copies do.
    """
    lp = lps[0]
    keys = {tuple((col.bidder, col.bundle) for col in other.columns) for other in lps}
    if len(keys) != 1:
        raise ValueError("the LPs differ in their columns")
    n_rows = lp.n + lp.m
    n_struct = len(lp.columns)
    total_cols = n_struct + n_rows
    bases = math.comb(total_cols, n_rows)
    if bases > cap:
        raise CapacityError("basic-solution enumeration", bases, cap)

    dense = []
    for col in lp.columns:
        vec = [0] * n_rows
        for j in index_list(col.bundle):
            vec[j] = 1
        vec[lp.m + col.bidder] = 1
        dense.append(vec)
    for s in range(n_rows):
        vec = [0] * n_rows
        vec[s] = 1
        dense.append(vec)

    best = [Fraction(0)] * len(lps)  # x = 0 is always feasible
    for basis in combinations(range(total_cols), n_rows):
        matrix = [[dense[b][r] for b in basis] for r in range(n_rows)]
        values = _solve_unit_system(matrix)
        if values is None or any(v < 0 for v in values):
            continue
        for k, scored in enumerate(lps):
            objective = sum(
                (v * scored.columns[b].coef for b, v in zip(basis, values) if b < n_struct),
                Fraction(0),
            )
            if objective > best[k]:
                best[k] = objective
    return best


# -- structural checks and report readers that only tests call ---------------


def is_subadditive(
    v: Valuation, *, cap: int = PAIR_CHECK_CAP
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Brute-force v(S) + v(T) >= v(S | T) over all bundle pairs.

    Returns (True, None) or (False, first violating pair) scanning pairs in
    increasing mask order. Costs 4^m value evaluations.
    """
    if v.m > cap:
        raise CapacityError("subadditivity pair scan", 1 << (2 * v.m), 1 << (2 * cap))
    table = [v._value(mask) for mask in range(1 << v.m)]
    for s in range(1, 1 << v.m):
        for t in range(1, 1 << v.m):
            if table[s] + table[t] < table[s | t]:
                return False, (s, t)
    return True, None


def is_monotone_normalized(
    v: Valuation, *, cap: int = PAIR_CHECK_CAP
) -> tuple[bool, Optional[str]]:
    """Check v(empty) = 0 and S subset of T implies v(S) <= v(T)."""
    if v.m > cap:
        raise CapacityError("monotonicity scan", 1 << (2 * v.m), 1 << (2 * cap))
    if v._value(0) != 0:
        return False, f"value of the empty bundle is {v._value(0)}, not 0"
    table = [v._value(mask) for mask in range(1 << v.m)]
    for t in range(1, 1 << v.m):
        for s in submasks(t):
            if table[s] > table[t]:
                return False, f"value drops from {text_of(s)} ({table[s]}) to {text_of(t)} ({table[t]})"
    return True, None


def solution_from_dict(data: dict) -> FractionalSolution:
    if data.get("schema") != SOLUTION_SCHEMA:
        raise FormatError(f"expected schema {SOLUTION_SCHEMA}, got {data.get('schema')!r}")
    _require_exact(data)
    entries = {}
    for entry in data.get("entries", []):
        entries[(entry["bidder"], mask_of(entry["bundle"]))] = parse_value(entry["x"])
    duals = data.get("item_duals")
    bduals = data.get("bidder_duals")
    return FractionalSolution(
        n=data["n"],
        m=data["m"],
        entries=entries,
        objective=parse_value(data["objective"]),
        item_duals=None if duals is None else tuple(parse_value(d) for d in duals),
        bidder_duals=None if bduals is None else tuple(parse_value(d) for d in bduals),
    )


def _bundles_from_lists(raw) -> tuple:
    return tuple(mask_of(idxs) for idxs in raw)


def outcome_from_dict(data: dict) -> Outcome:
    if data.get("schema") != OUTCOME_SCHEMA:
        raise FormatError(f"expected schema {OUTCOME_SCHEMA}, got {data.get('schema')!r}")
    q = data.get("q_values")
    payments = data.get("payments")
    return Outcome(
        halted=data["halted"],
        tentative=_bundles_from_lists(data["tentative"]),
        kept=_bundles_from_lists(data["kept"]),
        final=_bundles_from_lists(data["final"]),
        q_values=None if q is None else tuple(parse_value(v) for v in q),
        payments=None if payments is None else tuple(parse_value(v) for v in payments),
    )


# -- the rescans that ``proxyauction.lp.certify_optimal`` replaced -----------


def feasibility_violations(sol: FractionalSolution, n: int, m: int) -> list:
    """Every way ``sol`` leaves the LP's feasible region, rescanning the entries per constraint."""
    violations = []
    for (i, bundle), x in sol.entries.items():
        if x < 0:
            violations.append(f"x[{i},{text_of(bundle)}] = {x} is negative")
        if not bundle < 1 << m:
            violations.append(f"bundle {text_of(bundle)} outside the {m}-item universe")
        if not 0 <= i < n:
            violations.append(f"bidder {i} outside range(0, {n})")
    for j in range(m):
        load = sum((x for (_, b), x in sol.entries.items() if (b >> j) & 1), Fraction(0))
        if load > 1:
            violations.append(f"item {j} over-allocated: total mass {load}")
    for i in range(n):
        mass = sum((x for (k, _), x in sol.entries.items() if k == i), Fraction(0))
        if mass > 1:
            violations.append(f"bidder {i} over-allocated: total mass {mass}")
    return violations


def certify_by_columns(lp: ConfigLP, sol: FractionalSolution) -> None:
    """The per-column certificate that ``proxyauction.lp.certify_optimal`` replaced.

    Raises InfeasibleSolutionError unless ``sol`` is feasible, every entry is
    an LP column, the objective is the entry-weighted coefficient sum, the
    duals are nonnegative, no column of the materialized LP has positive
    reduced cost, the support is tight, every positive dual's constraint
    binds, and the dual objective equals the primal one.
    """
    violations = feasibility_violations(sol, lp.n, lp.m)
    if violations:
        raise InfeasibleSolutionError("; ".join(violations))
    y, u = sol.item_duals, sol.bidder_duals
    if y is None or u is None:
        raise InfeasibleSolutionError("solution carries no duals to certify against")
    if any(d < 0 for d in y) or any(d < 0 for d in u):
        raise InfeasibleSolutionError("negative dual multiplier")
    total, matched = Fraction(0), 0
    for col in lp.columns:
        reduced = col.coef - sum(y[j] for j in index_list(col.bundle)) - u[col.bidder]
        if reduced > 0:
            raise InfeasibleSolutionError(
                f"column (bidder {col.bidder}, {text_of(col.bundle)}) has positive reduced cost {reduced}"
            )
        x = sol.entries.get((col.bidder, col.bundle))
        if x is None:
            continue
        matched += 1
        total += x * col.coef
        if x > 0 and reduced != 0:
            raise InfeasibleSolutionError(
                f"support column (bidder {col.bidder}, {text_of(col.bundle)}) not tight: {reduced}"
            )
    if matched != len(sol.entries):
        raise InfeasibleSolutionError(
            f"{len(sol.entries) - matched} of {len(sol.entries)} entries have no LP column"
        )
    if total != sol.objective:
        raise InfeasibleSolutionError(f"objective {sol.objective} != entry sum {total}")
    for j, d in enumerate(y):
        load = sum((x for (_, b), x in sol.entries.items() if (b >> j) & 1), Fraction(0))
        if d > 0 and load != 1:
            raise InfeasibleSolutionError(f"item {j} dual positive but constraint slack")
    for i, d in enumerate(u):
        mass = sum((x for (k, _), x in sol.entries.items() if k == i), Fraction(0))
        if d > 0 and mass != 1:
            raise InfeasibleSolutionError(f"bidder {i} dual positive but constraint slack")
    if sum(y) + sum(u) != sol.objective:
        raise InfeasibleSolutionError(
            f"dual objective {sum(y) + sum(u)} differs from primal {sol.objective}"
        )
