from fractions import Fraction as F

import pytest

from proxyauction.simplex import solve_canonical_max


def test_simple_two_variable_lp():
    # max x0 + x1  s.t.  x0 <= 1, x1 <= 1, x0 + x1 <= 3/2
    columns = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    res = solve_canonical_max(columns, [F(1), F(1)], [F(1), F(1), F(3, 2)])
    assert res.objective == F(3, 2)
    assert sum(res.x) == F(3, 2)
    # dual feasibility and strong duality
    assert all(d >= 0 for d in res.duals)
    assert sum(d * b for d, b in zip(res.duals, [F(1), F(1), F(3, 2)])) == F(3, 2)


def test_zero_objective_stays_at_origin():
    columns = [[F(1)], [F(1)]]
    res = solve_canonical_max(columns, [F(0), F(0)], [F(1)])
    assert res.objective == 0 and res.pivots == 0
    assert res.x == [F(0), F(0)]


def test_degenerate_ties_resolve_deterministically():
    # two identical columns: Bland must pick the first
    columns = [[F(1)], [F(1)]]
    res = solve_canonical_max(columns, [F(2), F(2)], [F(1)])
    assert res.objective == 2
    assert res.x == [F(1), F(0)]


def test_unbounded_is_detected():
    # no constraint touches the variable
    with pytest.raises(ValueError):
        solve_canonical_max([[F(0)]], [F(1)], [F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        solve_canonical_max([[F(1)]], [F(1)], [F(-1)])


def test_fractional_vertex():
    # pairwise-overlap structure whose optimum is half-integral
    # max x0 + x1 + x2 s.t. x0+x1 <= 1, x1+x2 <= 1, x0+x2 <= 1
    columns = [[F(1), F(0), F(1)], [F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    res = solve_canonical_max(columns, [F(1)] * 3, [F(1)] * 3)
    assert res.objective == F(3, 2)
    assert res.x == [F(1, 2), F(1, 2), F(1, 2)]
