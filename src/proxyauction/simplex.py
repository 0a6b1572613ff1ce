"""Fraction-free revised simplex for the configuration LP: max c.x s.t. Ax <= 1, x >= 0.

Every column of A is a configuration-LP column ``(bidder, mask)``: a one in
its bidder's row and in the row of each item of the mask, zeros elsewhere.
Rows are the n bidder rows, then the m item rows, and every row has capacity
1. The basis inverse is kept as an integer matrix ``M`` over one positive
common denominator ``d`` (B^-1 = M / d, where d is the determinant of the
basis). A pivot on row p with entering column alpha = M A_e updates it by
Bareiss's integer-preserving rule (Bareiss 1968)

    M'_r = (alpha_p * M_r - alpha_r * M_p) // d,    M'_p = M_p,    d' = alpha_p,

where every division is exact. The objective is scaled to integers by the
lcm of its denominators; a positive scaling changes no reduced-cost sign and
no ratio-test order, so the pivots are the ones an exact dense tableau would
make. With unit entries, a column's price is its bidder's dual plus the item
duals summed over its mask, and alpha sums the same columns of ``M``.

Pivoting follows Bland's rule (Bland 1977): the entering column is the
lowest-index column with positive reduced cost (structural columns first,
then slacks), found by pricing columns in index order against the dual
numerators ``Y = c_B M`` and stopping at the first improving one; the leaving
row has the minimum ratio, ties to the lowest-index basic variable. This
prevents cycling and makes the returned vertex, duals and pivot count a
deterministic function of the input ordering, identical to the dense Bland
tableau's. The all-slack basis is feasible because every capacity is 1.

Each pivot forms the item-dual sums of the masks it prices in one of two
ways, chosen by the column count. An LP with at least ``2^m`` columns, such
as the full LP, prices from one ``subset_sums`` table of the item duals over
every mask; a smaller one, such as a column-generation master, sums the duals
over each distinct mask's items, which costs less than the table there.

A solve's state is a ``Pass``: the basis inverse, basic values and basic
variables one pricing pass priced, with the duals it priced at and what
entered. A solve returns its optimum pass as ``SimplexResult.final`` and can
resume from any pass over the same rows: ``basis``, ``M``, ``beta`` and ``d``
depend only on the basic columns, not on the costs, so they are a feasible
start for any objective, and only ``Y`` is recomputed from the new costs.
Every pivot, cold or resumed, is one of Bland's, so ``d`` stays positive.
Bland's rule terminates from any feasible basis, so the optimum is the cold
one, though on a degenerate optimum the vertex and duals reached may differ.

A solve can also record its path: one ``Pass`` per pricing pass, the last of
them its optimum. Each pass is itself a start: resumed from pass t, the solve
ends where it did, in t fewer pivots. Resumed from a pass on its path, a
solve over more columns, inserted in the order, pivots exactly as its cold
solve would for as long as no new column prices positive ahead of the pass's
entering variable, which is how column generation replays each round's shared
prefix instead of re-walking it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .itemsets import items, subset_sums


@dataclass(frozen=True)
class Pass:
    """One pricing pass of a solve: the state it priced and what it chose.

    ``columns`` are the solve's columns. ``d``, ``M``, ``beta`` and ``basis``
    are the basis inverse, basic values and basic variables the pass priced,
    a start for a later solve over the same rows. ``Y`` is its dual
    numerators over ``d * scale``, where ``scale`` is the solve's objective
    scale, and ``entering`` the variable that entered, or None at the optimum.
    """

    columns: Sequence[tuple[int, int]]
    d: int
    M: list
    beta: list
    basis: list
    Y: list
    scale: int
    entering: Optional[int]

    @property
    def keys(self) -> tuple:
        """The basic variables by key: a column's (bidder, mask), or a slack's row."""
        n_cols = len(self.columns)
        return tuple(self.columns[j] if j < n_cols else j - n_cols for j in self.basis)


@dataclass
class SimplexResult:
    """An optimal basic solution and its duals, with ``final``, the optimum pass.

    ``final`` is solver state, from which a later solve resumes, not part of
    the solution.
    """

    x: list
    objective: object
    duals: list
    basis: list
    pivots: int
    final: Pass = field(compare=False, repr=False)


def solve_canonical_max(
    columns: Sequence[tuple[int, int]],
    objective: Sequence,
    n: int,
    m: int,
    *,
    start: Optional[Pass] = None,
    record: Optional[list] = None,
) -> SimplexResult:
    """Maximize objective . x subject to A x <= 1, x >= 0 over n bidder and m item rows.

    ``columns[j]`` is ``(bidder, mask)``: column j of A has a one in row
    ``bidder`` and in row ``n + i`` for each item i of ``mask``, and zeros
    elsewhere. Returns the optimal basic solution, the objective value, and
    the dual vector (one multiplier per row), all as Fractions, with the
    optimum pass. ``start`` is a pass of an earlier solve over the same rows
    whose ``basis`` indexes these columns (slack r as column
    ``len(columns) + r``); the solve resumes from it and leaves it unchanged.
    The default is the all-slack basis. If ``record`` is given, each pricing
    pass is appended to it.
    """
    n_cols, n_rows = len(columns), n + m
    obj_scale = lcm(*(c.denominator for c in objective))
    cost = [c.numerator * (obj_scale // c.denominator) for c in objective]
    # a full LP prices from one table of item-dual sums over every mask; a
    # smaller one sums the item duals over each column's item rows
    by_table = n_cols >= 1 << m
    if not by_table:
        item_rows = [[n + i for i in items(mask)] for _, mask in columns]

    if start is None:
        d = 1
        M = [[1 if k == r else 0 for k in range(n_rows)] for r in range(n_rows)]
        beta = [1] * n_rows  # d * B^-1 1: the basic values over d
        basis = [n_cols + r for r in range(n_rows)]
    else:
        # rows of M are replaced, never changed in place, so the start's stay as they are
        d, M, beta, basis = start.d, list(start.M), list(start.beta), list(start.basis)
    Y = [0] * n_rows  # c_B M: the scaled duals over d
    for row, j in zip(M, basis):
        if j < n_cols and cost[j]:
            Y = [y + cost[j] * u for y, u in zip(Y, row)]
    pivots = 0

    while True:
        dual = Y.__getitem__
        if by_table:
            sums = subset_sums(Y[n:])
        entering = -1
        for j, (bidder, mask) in enumerate(columns):
            gain = cost[j] * d - Y[bidder] - (
                sums[mask] if by_table else sum(map(dual, item_rows[j]))
            )
            if gain > 0:
                entering = j
                break
        else:
            for r, y in enumerate(Y):
                if y < 0:
                    entering, gain = n_cols + r, -y
                    break
        if record is not None:
            # rows of M are replaced, never changed in place, so a shallow copy keeps them
            record.append(Pass(
                columns, d, list(M), list(beta), list(basis), Y, obj_scale,
                entering if entering >= 0 else None,
            ))
        if entering < 0:
            break

        if entering < n_cols:
            bidder, mask = columns[entering]
            rows = [n + i for i in items(mask)] if by_table else item_rows[entering]
            alpha = [row[bidder] + sum(map(row.__getitem__, rows)) for row in M]
        else:
            alpha = [row[entering - n_cols] for row in M]

        leaving = -1
        for r, a in enumerate(alpha):
            if a > 0 and (
                leaving < 0
                or beta[r] * alpha[leaving] < beta[leaving] * a
                or (
                    beta[r] * alpha[leaving] == beta[leaving] * a
                    and basis[r] < basis[leaving]
                )
            ):
                leaving = r
        if leaving < 0:
            # Unreachable: each column's bidder row bounds it, and slacks
            # never improve the cost.
            raise ValueError("LP is unbounded")

        pivots += 1
        piv = alpha[leaving]
        piv_row, piv_beta = M[leaving], beta[leaving]
        for r in range(n_rows):
            if r != leaving:
                a = alpha[r]
                M[r] = [(piv * u - a * v) // d for u, v in zip(M[r], piv_row)]
                beta[r] = (piv * beta[r] - a * piv_beta) // d
        # the objective row is one more row of the update, with entry -gain
        Y = [(piv * y + gain * v) // d for y, v in zip(Y, piv_row)]
        d = piv
        basis[leaving] = entering

    x = [Fraction(0)] * n_cols
    for r, j in enumerate(basis):
        if j < n_cols:
            x[j] = Fraction(beta[r], d)
    scale = d * obj_scale
    duals = [Fraction(y, scale) for y in Y]
    final = Pass(columns, d, M, beta, basis, Y, obj_scale, None)
    return SimplexResult(x, Fraction(sum(Y), scale), duals, basis, pivots, final)
