"""The configuration LP over bidder-bundle variables and its two solvers.

Variables x[i,S] (bidder i receives bundle S) maximize the weighted welfare
sum(x[i,S] * coef(i,S)) subject to

  * item constraints: for each item j, the mass of bundles containing j is <= 1,
  * bidder constraints: each bidder's total mass is <= 1,
  * nonnegativity.

A bundle is an int item mask (``itemsets``). Every constraint is 0/1 with
capacity 1, so the simplex receives each column as its bidder and its mask.
``solve_exact`` solves the fully materialized LP (one column per bidder per
nonempty bundle). ``solve_column_generation`` keeps one restricted master,
sorted as it grows, and prices new columns with per-bidder demand queries at
the current item duals. Both return an optimal basic solution whose support
size is at most n + m, proved optimal by ``certify_optimal``, whose dual check
is the demand query at the item duals, the LP's separation oracle (Blumrosen
and Nisan, SIAM J. Comput. 2009). Both are deterministic: columns are ordered
by (bidder, bundle lexicographic) and the simplex uses Bland's rule. Each
solution carries the simplex pass its solve ended in (``simplex.Pass``), from
which either solver resumes an LP over the same constraints, such as a
payment's LP with one bidder zeroed.
"""

from __future__ import annotations

import copy
from bisect import insort
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    CapacityError,
    ContractViolationError,
    InfeasibleSolutionError,
    ParameterError,
)
from .itemsets import bundle_text, items, subset_sums
from .simplex import Pass, SimplexResult, solve_canonical_max
from .valuations import AdditiveValuation, Instance, Valuation, over_one_denominator

LP_ITEM_CAP = 12


@dataclass(frozen=True)
class Column:
    bidder: int
    bundle: int  # item mask
    coef: Fraction


def column_order(col: Column) -> tuple:
    """The LP's column order: by bidder, then bundle lexicographic."""
    return (col.bidder, items(col.bundle))


@dataclass
class ConfigLP:
    """The configuration LP's columns and the valuations whose values they hold."""

    n: int
    m: int
    columns: tuple[Column, ...]
    objectives: tuple[Valuation, ...] = field(compare=False)

    def __post_init__(self):
        seen = set()
        for col in self.columns:
            if not 0 < col.bundle < 1 << self.m:
                raise ParameterError(f"bundle mask {col.bundle} is empty or outside {self.m} items")
            if not 0 <= col.bidder < self.n:
                raise ParameterError(f"bidder {col.bidder} outside range(0, {self.n})")
            if col.coef < 0:
                raise ParameterError("LP coefficients must be nonnegative")
            key = (col.bidder, col.bundle)
            if key in seen:
                raise ParameterError(f"duplicate column (bidder {col.bidder}, {bundle_text(col.bundle)})")
            seen.add(key)
        object.__setattr__(
            self,
            "columns",
            tuple(sorted(self.columns, key=column_order)),
        )

    def zero_bidder(self, bidder: int) -> "ConfigLP":
        """Same feasible region with one bidder's objective contribution removed.

        A zero coefficient keeps every column valid and in column order, so
        the copy skips the constructor's validation and sort.
        """
        zero = Fraction(0)
        zeroed = copy.copy(self)
        zeroed.columns = tuple(
            Column(bidder, c.bundle, zero) if c.bidder == bidder else c for c in self.columns
        )
        zeroed.objectives = zero_objective(self.objectives, bidder)
        return zeroed


def zero_objective(objectives: Sequence[Valuation], bidder: int) -> tuple:
    """``objectives`` with the bidder's replaced by the zero additive valuation."""
    zero = AdditiveValuation([Fraction(0)] * objectives[bidder].m)
    return tuple(zero if i == bidder else v for i, v in enumerate(objectives))


@dataclass
class FractionalSolution:
    """Sparse feasible point of the configuration LP, with optional duals."""

    n: int
    m: int
    entries: dict  # (bidder, mask) -> value
    objective: object
    item_duals: Optional[tuple] = None
    bidder_duals: Optional[tuple] = None
    # simplex pivots spent finding this point: a work counter, not part of it
    pivots: int = field(default=0, compare=False)
    # the optimum pass the solver ended in, if a solver found this point
    basis: Optional[Pass] = field(default=None, compare=False)

    def support(self) -> list:
        """Sorted (bidder, bundle, x) triples with positive mass."""
        out = [(i, bundle, x) for (i, bundle), x in self.entries.items() if x > 0]
        return sorted(out, key=lambda t: (t[0], items(t[1])))

    def bundles_of(self, bidder: int) -> list:
        return [(bundle, x) for (i, bundle, x) in self.support() if i == bidder]


def build_full_lp(
    instance: Instance, valuations: Optional[Sequence[Valuation]] = None
) -> ConfigLP:
    """One column per bidder per nonempty bundle, coefficients by value query.

    ``valuations`` defaults to the instance's raw valuations; pass proxies to
    build the proxy-objective LP.
    """
    vals = tuple(valuations) if valuations is not None else instance.valuations
    if len(vals) != instance.n:
        raise ParameterError("need exactly one valuation per bidder")
    if instance.m > LP_ITEM_CAP:
        raise CapacityError("full LP column enumeration", 1 << instance.m, 1 << LP_ITEM_CAP)
    columns = []
    for i, v in enumerate(vals):
        for mask in range(1, 1 << instance.m):
            columns.append(Column(i, mask, v.value(mask)))
    return ConfigLP(instance.n, instance.m, tuple(columns), vals)


def _solve_columns(
    lp_cols: Sequence[Column], n: int, m: int, start: Optional[Pass] = None,
    record: Optional[list] = None,
) -> SimplexResult:
    """The simplex result over ``lp_cols``, resuming ``start`` if given.

    ``start`` is a pass of a solve over the same rows; its basic columns are
    found in ``lp_cols`` by key. With ``record``, each pricing pass is
    appended to it; a pass names its columns by (bidder, bundle).
    """
    # Rows are ordered bidder constraints first, then item constraints: on
    # degenerate ratio-test ties Bland then retires bidder slacks first, which
    # keeps gratuitous weight off the item duals and lets demand-query pricing
    # terminate without spurious rounds.
    columns = [(col.bidder, col.bundle) for col in lp_cols]
    n_cols = len(columns)
    if start is not None:
        index = {key: j for j, key in enumerate(columns)}
        start = replace(start, columns=columns, basis=[
            index[key] if isinstance(key, tuple) else n_cols + key
            for key in start.keys
        ])
    return solve_canonical_max(columns, [c.coef for c in lp_cols], n, m, start=start, record=record)


def _split_pass(record: Sequence[Pass], added: Sequence[Column], n: int) -> int:
    """The first pass of ``record`` at which an added column changes Bland's path.

    That is the first pass at which an added column prices positive ahead of
    the variable that entered (after every old column, if a slack entered or
    the pass is the optimum). A cold solve of the master with ``added``
    inserted pivots as ``record`` did up to there: each old column's price
    keeps its sign, and the ratio test reads only the entering column, the
    basic values and the basic variables' order, which insertion keeps.
    Each pass prices at its own objective scale, which the added columns'
    coefficients may have changed since. An added column was never priced at
    any pass, so the walk starts at the first.
    """
    # each added column's order key and item rows, built once for every pass
    keyed = [(col, column_order(col), [n + j for j in items(col.bundle)]) for col in added]
    for t, step in enumerate(record):
        e = step.entering
        if e is not None and e < len(step.columns):
            bidder, bundle = step.columns[e]
            ahead = (bidder, items(bundle))
        else:
            ahead = None
        for col, order, rows in keyed:
            if ahead is not None and order > ahead:
                continue
            price = step.Y[col.bidder] + sum(map(step.Y.__getitem__, rows))
            if col.coef.numerator * step.scale * step.d > price * col.coef.denominator:
                return t
    raise ContractViolationError("no added column prices positive at the optimum it entered against")


def _positive_entries(lp_cols: Sequence[Column], res: SimplexResult) -> dict:
    """The positive basic variables by (bidder, bundle), in column order."""
    basic = sorted(j for j in res.basis if j < len(lp_cols))
    return {(lp_cols[j].bidder, lp_cols[j].bundle): res.x[j] for j in basic if res.x[j] > 0}


def solve_exact(lp: ConfigLP, *, start_basis: Optional[Pass] = None) -> FractionalSolution:
    """Optimal basic solution of the full LP, with duals, certified against ``lp.objectives``.

    The simplex resumes from ``start_basis`` if given (the optimum pass of a
    solve over the same constraints), otherwise it starts from the slack basis.
    """
    res = _solve_columns(lp.columns, lp.n, lp.m, start_basis)
    sol = FractionalSolution(
        n=lp.n,
        m=lp.m,
        entries=_positive_entries(lp.columns, res),
        objective=res.objective,
        item_duals=tuple(res.duals[lp.n :]),
        bidder_duals=tuple(res.duals[: lp.n]),
        pivots=res.pivots,
        basis=res.final,
    )
    certify_optimal(sol, lp.objectives)
    return sol


def certify_optimal(sol: FractionalSolution, objectives: Sequence[Valuation]) -> None:
    """Prove ``sol`` optimal by its duals; raises InfeasibleSolutionError otherwise.

    ``objectives[i]``'s values are bidder i's LP coefficients. One pass over
    the entries checks that each is a positive LP variable on a tight column;
    then no constraint is overfull, the duals are nonnegative and positive only
    on binding constraints, and entry sum, objective and dual objective agree.
    Dual feasibility is one scan per bidder over every bundle: the demand query
    at the item duals, read from the value table, so not counted as a query.
    """
    n, m = sol.n, sol.m
    y, u = sol.item_duals, sol.bidder_duals
    if y is None or u is None:
        raise InfeasibleSolutionError("solution carries no duals to certify against")
    # duals as integers over one denominator; y summed over every bundle mask
    prices, den = over_one_denominator([*y, *u])
    if any(d < 0 for d in prices):
        raise InfeasibleSolutionError("negative dual multiplier")
    item_prices, bidder_prices = subset_sums(prices[:m]), prices[m:]
    tables = [v.value_table for v in objectives]
    mass, load, total = [Fraction(0)] * n, [Fraction(0)] * m, Fraction(0)
    for (i, mask), x in sol.entries.items():
        if not (0 <= i < n and 0 < mask < 1 << m and x > 0):
            raise InfeasibleSolutionError(f"x[{i}, mask {mask}] = {x} is no positive LP variable")
        values, vden = tables[i]
        if values[mask] * den != (item_prices[mask] + bidder_prices[i]) * vden:
            raise InfeasibleSolutionError(f"support column (bidder {i}, {bundle_text(mask)}) not tight")
        mass[i] += x
        for j in items(mask):
            load[j] += x
        total += x * Fraction(values[mask], vden)
    for kind, used, duals in (("bidder", mass, bidder_prices), ("item", load, prices[:m])):
        for k, (d, dual) in enumerate(zip(used, duals)):
            if d > 1:
                raise InfeasibleSolutionError(f"{kind} {k} over-allocated: total mass {d}")
            if dual and d != 1:
                raise InfeasibleSolutionError(f"{kind} {k} dual positive but constraint slack")
    dual_value = sum(y) + sum(u)
    if not total == sol.objective == dual_value:
        raise InfeasibleSolutionError(
            f"entry sum {total}, objective {sol.objective} and dual objective {dual_value} differ"
        )
    for i, (values, vden) in enumerate(tables):
        # v_i(S) - y(S) over every bundle, times den * vden, against u_i
        bound = bidder_prices[i] * vden
        excess = [v * den - p * vden for v, p in zip(values, item_prices)]
        excess[0] = bound  # the empty bundle is no column
        worst = max(excess)
        if worst > bound:
            bundle = bundle_text(excess.index(worst))
            raise InfeasibleSolutionError(f"column (bidder {i}, {bundle}) has positive reduced cost")


def solve_column_generation(
    instance: Instance,
    oracles: Sequence[Valuation],
    *,
    start_basis: Optional[Pass] = None,
) -> FractionalSolution:
    """Restricted-master simplex with demand-query pricing.

    ``oracles[i]`` answers value and demand queries for bidder i's objective
    (typically a proxy valuation). Each round solves the restricted master,
    then asks every bidder for a profit-maximizing bundle at the item duals;
    a bidder's answer enters the master when its reduced cost (against the
    bidder dual) is positive, a sign read on the optimum pass's integer duals
    and objective scale, as ``_split_pass`` reads it. Terminates when no bidder can improve; the
    solution is then certified against ``oracles``. Each round adds a column
    the master lacks or ends the solve, so there are at most n (2^m - 1) + 1
    rounds. The master is kept in ``ConfigLP``'s column order, so each
    round's solve is the one a ``ConfigLP`` of the same columns would get.

    Without ``start_basis`` every round takes the path a cold solve from the
    slack basis would, so the vertex returned is a function of the instance
    alone. It does not re-walk that path: each round resumes from the pass
    of the previous round's path where the new columns first change it, and
    the passes before it carry over (``_split_pass``). With ``start_basis``
    (the optimum pass of a solve over the same constraints, such as a payment
    LP's unzeroed original) the master starts as its basic columns, priced by
    ``oracles``, and every round resumes from the previous round's optimum
    pass: the optimum is the same, in fewer pivots. ``pivots`` counts the
    pivots performed.
    """
    n, m = instance.n, instance.m
    if len(oracles) != n:
        raise ParameterError("need one demand oracle per bidder")

    master: list[Column] = []
    if start_basis is not None:
        for key in start_basis.keys:
            if isinstance(key, tuple):  # a column; a slack's key is its row
                i, bundle = key
                master.append(Column(i, bundle, oracles[i].value(bundle)))
        master.sort(key=column_order)
    have = {(col.bidder, col.bundle) for col in master}
    start = start_basis
    # the passes of the cold path on the current master
    record = [] if start_basis is None else None
    pivots = 0
    while True:
        res = _solve_columns(master, n, m, start, record)
        pivots += res.pivots
        u = res.duals[:n]
        y = res.duals[n:]
        # the duals are Y over d * scale: a reduced cost's sign is read on those integers
        Y, scale = res.final.Y, res.final.d * res.final.scale
        added = []
        for i in range(n):
            bundle = oracles[i].demand(y)
            if not bundle or (i, bundle) in have:
                continue
            coef = oracles[i].value(bundle)
            price = Y[i] + sum(Y[n + j] for j in items(bundle))
            if coef.numerator * scale > price * coef.denominator:
                # res.x indexes the old master, but it is read only when nothing entered
                added.append(Column(i, bundle, coef))
                insort(master, added[-1], key=column_order)
                have.add((i, bundle))
        if not added:
            sol = FractionalSolution(
                n=n,
                m=m,
                entries=_positive_entries(master, res),
                objective=res.objective,
                item_duals=tuple(y),
                bidder_duals=tuple(u),
                pivots=pivots,
                basis=res.final,
            )
            certify_optimal(sol, oracles)
            return sol
        if record is None:
            start = res.final
        else:
            t = _split_pass(record, added, n)
            start = record[t]
            del record[t:]

