from fractions import Fraction as F

import pytest

from proxyauction.simplex import solve_canonical_max

# Columns are (bidder, item mask) over n bidder rows, then m item rows.


def test_simple_two_variable_lp():
    # max x0/2 + 2 x1/3  s.t.  x0 <= 1, x1 <= 1, x0 + x1 <= 1: two bidders, one item
    res = solve_canonical_max([(0, 0b1), (1, 0b1)], [F(1, 2), F(2, 3)], 2, 1)
    assert res.objective == F(2, 3)
    assert res.x == [F(0), F(1)]
    # dual feasibility and strong duality under unit capacities
    assert all(d >= 0 for d in res.duals)
    assert res.duals[0] + res.duals[2] >= F(1, 2)
    assert res.duals[1] + res.duals[2] >= F(2, 3)
    assert sum(res.duals) == F(2, 3)


def test_zero_objective_stays_at_origin():
    res = solve_canonical_max([(0, 0b1), (0, 0b1)], [F(0), F(0)], 1, 1)
    assert res.objective == 0 and res.pivots == 0
    assert res.x == [F(0), F(0)]


def test_degenerate_ties_resolve_deterministically():
    # two identical columns: Bland must pick the first
    res = solve_canonical_max([(0, 0b1), (0, 0b1)], [F(2), F(2)], 1, 1)
    assert res.objective == 2
    assert res.x == [F(1), F(0)]


def test_every_column_is_bounded_by_its_bidder_row():
    # a column with no item still has its bidder row, so its mass stops at 1
    res = solve_canonical_max([(0, 0)], [F(1)], 1, 1)
    assert (res.x, res.objective, res.duals) == ([F(1)], 1, [F(1), F(0)])


def test_fractional_vertex():
    # max x0 + x1 + x2 over bidder 0 taking {0} or {1} and bidder 1 taking
    # {0,1}: every pair of columns shares a row, so the optimum is half-integral
    res = solve_canonical_max([(0, 0b01), (0, 0b10), (1, 0b11)], [F(1)] * 3, 2, 2)
    assert res.objective == F(3, 2)
    assert res.x == [F(1, 2), F(1, 2), F(1, 2)]


def state(res):
    """What a later solve resumes from: the optimum pass's basis and basis inverse state."""
    final = res.final
    return final.basis, [list(row) for row in final.M], list(final.beta), final.d


@pytest.mark.parametrize(
    "lp",
    [
        ([(0, 0b1), (1, 0b1)], [F(1, 2), F(2, 3)], 2, 1),
        ([(0, 0b11), (0, 0b01), (1, 0b10)], [F(1)] * 3, 2, 2),
        ([(0, 0b01), (0, 0b10), (1, 0b11)], [F(1)] * 3, 2, 2),
    ],
    ids=["two-variable", "overlapping-pairs", "fractional-vertex"],
)
def test_resuming_an_optimum_takes_no_pivots(lp):
    cold = solve_canonical_max(*lp)
    res = solve_canonical_max(*lp, start=cold.final)
    assert (res.x, res.objective, res.duals, res.basis) == (
        cold.x, cold.objective, cold.duals, cold.basis,
    )
    assert res.pivots == 0 < cold.pivots
    assert state(res) == state(cold)


def test_two_solves_from_one_start_are_equal_and_leave_it_unchanged():
    # max x0 + x1 + x2  s.t.  x0 + x1 <= 1 (bidder 0), x2 <= 1 (bidder 1),
    # x0 + x2 <= 1 (item 0); first with x0 worth 3
    columns = [(0, 0b1), (0, 0), (1, 0b1)]
    start = solve_canonical_max(columns, [F(3), F(1), F(1)], 2, 1)
    assert start.x == [F(1), F(0), F(0)]
    before = state(start)
    first, second = (
        solve_canonical_max(columns, [F(1)] * 3, 2, 1, start=start.final) for _ in "ab"
    )
    assert first == second and state(first) == state(second)
    assert state(start) == before
    cold = solve_canonical_max(columns, [F(1)] * 3, 2, 1)
    assert (first.x, first.objective, first.duals) == ([F(0), F(1), F(1)], 2, [F(1), F(0), F(1)])
    assert (first.x, first.objective, first.duals) == (cold.x, cold.objective, cold.duals)
    # the start's basis is {x0, bidder 1's slack, x2} (x2 at zero), so x1
    # replacing x0 is all it takes
    assert start.basis == [0, 4, 2]
    assert (first.basis, first.pivots, cold.pivots) == ([1, 4, 2], 1, 3)
