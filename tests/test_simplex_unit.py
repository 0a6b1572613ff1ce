from fractions import Fraction as F

import pytest

from proxyauction.simplex import solve_canonical_max


def test_simple_two_variable_lp():
    # max x0/2 + 2 x1/3  s.t.  x0 <= 1, x1 <= 1, x0 + x1 <= 1
    res = solve_canonical_max([[0, 2], [1, 2]], [F(1, 2), F(2, 3)], 3)
    assert res.objective == F(2, 3)
    assert res.x == [F(0), F(1)]
    # dual feasibility and strong duality under unit capacities
    assert all(d >= 0 for d in res.duals)
    assert res.duals[0] + res.duals[2] >= F(1, 2)
    assert res.duals[1] + res.duals[2] >= F(2, 3)
    assert sum(res.duals) == F(2, 3)


def test_zero_objective_stays_at_origin():
    res = solve_canonical_max([[0], [0]], [F(0), F(0)], 1)
    assert res.objective == 0 and res.pivots == 0
    assert res.x == [F(0), F(0)]


def test_degenerate_ties_resolve_deterministically():
    # two identical columns: Bland must pick the first
    res = solve_canonical_max([[0], [0]], [F(2), F(2)], 1)
    assert res.objective == 2
    assert res.x == [F(1), F(0)]


def test_unbounded_is_detected():
    # no constraint touches the variable
    with pytest.raises(ValueError):
        solve_canonical_max([[]], [F(1)], 1)


def test_fractional_vertex():
    # pairwise-overlap structure whose optimum is half-integral
    # max x0 + x1 + x2 s.t. x0+x1 <= 1, x1+x2 <= 1, x0+x2 <= 1
    res = solve_canonical_max([[0, 2], [0, 1], [1, 2]], [F(1)] * 3, 3)
    assert res.objective == F(3, 2)
    assert res.x == [F(1, 2), F(1, 2), F(1, 2)]


def test_start_basis_with_a_negative_forced_pivot():
    # max x0 + x1 + x2  s.t.  x0 + x1 <= 1, x0 + x2 <= 1, from the basis {x0, x1}.
    # x0 enters row 0; then x1's column is (1, -1) against the basis {x0, slack 1},
    # and the only row it may replace is row 1, so it enters on the pivot -1.
    supports, objective = [[0, 1], [0], [1]], [F(1)] * 3
    res = solve_canonical_max(supports, objective, 2, start_basis=[0, 1])
    cold = solve_canonical_max(supports, objective, 2)
    assert res.objective == cold.objective == 2
    assert res.x == [F(0), F(1), F(1)]
    assert res.duals == [F(1), F(1)]
    assert sorted(res.basis) == [1, 2]
    assert res.pivots == 3  # two forced pivots, then x2 replaces x0


def test_start_basis_at_the_optimum_needs_only_the_forced_pivots():
    lp = ([[0, 2], [1, 2]], [F(1, 2), F(2, 3)], 3)
    cold = solve_canonical_max(*lp)
    # the cold optimum's basis: x1 and the slacks of rows 0 and 1 (columns 2 and 3)
    res = solve_canonical_max(*lp, start_basis=[1, 2, 3])
    assert (res.x, res.objective, res.duals, res.basis) == (
        cold.x, cold.objective, cold.duals, cold.basis,
    )
    assert (res.pivots, cold.pivots) == (1, 3)


@pytest.mark.parametrize(
    "supports, start, reason",
    [
        # x2 = x0 + x1, so the three columns span only two rows
        ([[0], [1], [0, 1]], [0, 1, 2], "singular"),
        # the same column twice
        ([[0], [1]], [0, 0], "singular"),
        # x1 = x2 = 1 forces x0 = -1 in row 0
        ([[0], [0, 1], [0, 2]], [0, 1, 2], "infeasible"),
    ],
    ids=["dependent-columns", "repeated-column", "negative-values"],
)
def test_bad_start_basis_is_rejected(supports, start, reason):
    with pytest.raises(ValueError, match=reason):
        solve_canonical_max(supports, [F(1)] * len(supports), 3, start_basis=start)
