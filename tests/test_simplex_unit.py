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
