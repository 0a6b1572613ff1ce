"""Fraction-free revised simplex for max c.x s.t. Ax <= b, x >= 0 with b >= 0.

The basis inverse is kept as an integer matrix ``M`` over one positive common
denominator ``d`` (B^-1 = M / d, where d is the determinant of the basis).
A pivot on row p with entering column alpha = M A_e updates it by Bareiss's
integer-preserving rule (Bareiss 1968)

    M'_r = (alpha_p * M_r - alpha_r * M_p) // d,    M'_p = M_p,    d' = alpha_p,

where every division is exact. The entries are ints or Fractions; the
objective and each row of [A | b] are first scaled to integers. Positive
scalings change no reduced-cost sign and no ratio-test order, so the pivots
are the ones an exact dense tableau would make.

Pivoting follows Bland's rule (Bland 1977): the entering column is the
lowest-index column with positive reduced cost (structural columns first,
then slacks), found by pricing columns in index order against the dual
numerators ``Y = c_B M`` and stopping at the first improving one; the leaving
row has the minimum ratio, ties to the lowest-index basic variable. This
prevents cycling and makes the returned vertex, duals and pivot count a
deterministic function of the input ordering, identical to the dense Bland
tableau's.

The right-hand side must be nonnegative so the all-slack basis is feasible;
the configuration LP always satisfies this (every constraint bound is 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence


@dataclass
class SimplexResult:
    x: list
    objective: object
    duals: list
    basis: list
    pivots: int


def _scaled(value, scale: int) -> int:
    """``value * scale`` for an int or Fraction whose denominator divides ``scale``."""
    return value.numerator * (scale // value.denominator)


def solve_canonical_max(
    columns: Sequence[Sequence], objective: Sequence, rhs: Sequence
) -> SimplexResult:
    """Maximize objective . x subject to columns-as-matrix x <= rhs, x >= 0.

    ``columns[j]`` is the j-th column of the constraint matrix (length =
    number of rows). Returns the optimal basic solution, the objective value,
    and the dual vector (one multiplier per row), all as Fractions.
    """
    n_rows = len(rhs)
    n_cols = len(columns)

    if any(b < 0 for b in rhs):
        raise ValueError("canonical form requires a nonnegative right-hand side")

    # sparse columns: (row, entry) pairs over the nonzero entries
    sparse = [[(r, a) for r, a in enumerate(col) if a] for col in columns]
    row_scale = [v.denominator for v in rhs]
    for col in sparse:
        for r, a in col:
            row_scale[r] = lcm(row_scale[r], a.denominator)
    b = [_scaled(v, s) for v, s in zip(rhs, row_scale)]
    sparse = [[(r, _scaled(a, row_scale[r])) for r, a in col] for col in sparse]
    obj_scale = lcm(*(c.denominator for c in objective))
    cost = [_scaled(c, obj_scale) for c in objective]
    cols = [([r for r, _ in col], [a for _, a in col]) for col in sparse]

    d = 1
    M = [[1 if k == r else 0 for k in range(n_rows)] for r in range(n_rows)]
    beta = list(b)  # d * B^-1 b: the basic values over d
    Y = [0] * n_rows  # c_B M: the scaled duals over d
    basis = [n_cols + r for r in range(n_rows)]
    pivots = 0

    while True:
        dual = Y.__getitem__
        entering = -1
        for j, (support, entries) in enumerate(cols):
            gain = cost[j] * d - sum(map(mul, entries, map(dual, support)))
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
            support, entries = cols[entering]
            alpha = [sum(map(mul, entries, map(row.__getitem__, support))) for row in M]
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

    x = [Fraction(0)] * n_cols
    for r, j in enumerate(basis):
        if j < n_cols:
            x[j] = Fraction(beta[r], d)
    duals = [Fraction(y * s, d * obj_scale) for y, s in zip(Y, row_scale)]
    return SimplexResult(
        x=x,
        objective=Fraction(sum(map(mul, Y, b)), d * obj_scale),
        duals=duals,
        basis=list(basis),
        pivots=pivots,
    )
