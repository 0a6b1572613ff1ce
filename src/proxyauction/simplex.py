"""Fraction-free revised simplex for the configuration LP: max c.x s.t. Ax <= 1, x >= 0.

Every column of A is 0/1: it is given as its support, the rows where it has
a one, and every row has capacity 1. The basis inverse is kept as an integer
matrix ``M`` over one positive common denominator ``d`` (B^-1 = M / d, where d
is the determinant of the basis). A pivot on row p with entering column
alpha = M A_e updates it by Bareiss's integer-preserving rule (Bareiss 1968)

    M'_r = (alpha_p * M_r - alpha_r * M_p) // d,    M'_p = M_p,    d' = alpha_p,

where every division is exact. The objective is scaled to integers by the
lcm of its denominators; a positive scaling changes no reduced-cost sign and
no ratio-test order, so the pivots are the ones an exact dense tableau would
make. With unit entries, pricing a column and forming alpha are sums over its
support.

Pivoting follows Bland's rule (Bland 1977): the entering column is the
lowest-index column with positive reduced cost (structural columns first,
then slacks), found by pricing columns in index order against the dual
numerators ``Y = c_B M`` and stopping at the first improving one; the leaving
row has the minimum ratio, ties to the lowest-index basic variable. This
prevents cycling and makes the returned vertex, duals and pivot count a
deterministic function of the input ordering, identical to the dense Bland
tableau's. The all-slack basis is feasible because every capacity is 1.

A start basis replaces that slack basis: its structural columns enter first
as forced pivots of the same update, each into a row that holds a slack not
in the start set, and Bland's loop continues from there. A forced pivot may
be negative, and then ``M``, ``beta``, ``Y`` and ``d`` are all negated so that
``d`` stays positive, as the ratio test assumes. Bland's rule terminates from
any feasible basis, so the optimum is the cold one, though on a degenerate
optimum the vertex and duals reached may differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence


@dataclass
class SimplexResult:
    x: list
    objective: object
    duals: list
    basis: list
    pivots: int


def solve_canonical_max(
    supports: Sequence[Sequence[int]],
    objective: Sequence,
    n_rows: int,
    *,
    start_basis: Sequence[int] = (),
) -> SimplexResult:
    """Maximize objective . x subject to A x <= 1, x >= 0 over ``n_rows`` rows.

    ``supports[j]`` lists the distinct rows where column j of A has a one;
    every other entry is zero. Returns the optimal basic solution, the
    objective value, and the dual vector (one multiplier per row), all as
    Fractions. ``start_basis`` lists the columns of a feasible start basis
    (slack r as column ``len(supports) + r``; slacks not listed fill the
    remaining rows); the default is the all-slack basis. A start basis that
    is singular or infeasible raises ValueError. ``pivots`` counts the
    forced start pivots too.
    """
    n_cols = len(supports)
    obj_scale = lcm(*(c.denominator for c in objective))
    cost = [c.numerator * (obj_scale // c.denominator) for c in objective]

    d = 1
    M = [[1 if k == r else 0 for k in range(n_rows)] for r in range(n_rows)]
    beta = [1] * n_rows  # d * B^-1 1: the basic values over d
    Y = [0] * n_rows  # c_B M: the scaled duals over d
    basis = [n_cols + r for r in range(n_rows)]
    pivots = 0

    start = iter([j for j in start_basis if j < n_cols])
    kept = set(start_basis)
    replaying = True
    while True:
        dual = Y.__getitem__
        entering = next(start, -1) if replaying else -1
        if entering >= 0:
            # a start column enters whatever its reduced cost
            gain = cost[entering] * d - sum(map(dual, supports[entering]))
        else:
            if replaying:
                replaying = False
                if any(b < 0 for b in beta):
                    raise ValueError("start basis is infeasible")
            for j, support in enumerate(supports):
                gain = cost[j] * d - sum(map(dual, support))
                if gain > 0:
                    entering = j
                    break
            else:
                for r, y in enumerate(Y):
                    if y < 0:
                        entering, gain = n_cols + r, -y
                        break
            if entering < 0:
                break

        if entering < n_cols:
            support = supports[entering]
            alpha = [sum(map(row.__getitem__, support)) for row in M]
        else:
            alpha = [row[entering - n_cols] for row in M]

        leaving = -1
        if replaying:
            # the row of a slack outside the start set; none means a singular start
            for r, a in enumerate(alpha):
                if a and basis[r] not in kept:
                    leaving = r
                    break
            if leaving < 0:
                raise ValueError("start basis is singular")
        else:
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
                # Unreachable for the configuration LP: bidder constraints bound
                # every structural variable and slacks never improve the cost.
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
        if d < 0:  # only a forced pivot can be negative
            d = -d
            M = [[-u for u in row] for row in M]
            beta = [-b for b in beta]
            Y = [-y for y in Y]

    x = [Fraction(0)] * n_cols
    for r, j in enumerate(basis):
        if j < n_cols:
            x[j] = Fraction(beta[r], d)
    scale = d * obj_scale
    return SimplexResult(
        x=x,
        objective=Fraction(sum(Y), scale),
        duals=[Fraction(y, scale) for y in Y],
        basis=list(basis),
        pivots=pivots,
    )
