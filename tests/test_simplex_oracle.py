"""The revised simplex against the dense Bland tableau in ``oracles``.

The simplex takes (bidder, item mask) columns under unit capacities; the
tableau takes the same LP densified. Both must return equal SimplexResults
(x, objective, duals, basis and pivot count).
"""

from copy import deepcopy
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fixtures import AUCTION_SHAPES
from oracles import tableau_simplex
from proxyauction import lp as lpmod, simplex
from proxyauction.generators import generate
from proxyauction.itemsets import subset_sums
from proxyauction.lp import build_full_lp, solve_exact
from proxyauction.mechanism import default_params
from proxyauction.simplex import solve_canonical_max


def simplex_inputs(monkeypatch, lps):
    """The (args, kwargs) that ``solve_exact`` hands the simplex for each LP."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return solve_canonical_max(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(lpmod, "solve_canonical_max", record)
        for lp in lps:
            solve_exact(lp)
    assert len(calls) == len(lps)
    return calls


def dense(columns, objective, n, m, start=None, record=None):
    """The same LP as the tableau takes it: dense 0/1 columns, unit right-hand side."""
    assert start is None  # the tableau starts from the slack basis only
    assert record is None  # and a full solve records no path
    one, zero = Fraction(1), Fraction(0)
    rows = range(n + m)
    matrix = [
        [one if r == bidder or (r >= n and mask >> (r - n) & 1) else zero for r in rows]
        for bidder, mask in columns
    ]
    return matrix, list(objective), [one] * (n + m)


def proxy_lps(instance, c):
    """The proxy-objective full LP and its zeroed-bidder (payment) variants."""
    lp = build_full_lp(instance, instance.proxies(c))
    return [lp] + [lp.zero_bidder(i) for i in range(lp.n)]


def corpus_lps(*corpora):
    return [
        lp for items in corpora for item in items for lp in proxy_lps(item.instance, item.config.c)
    ]


def test_matches_tableau_on_corpus_lps(monkeypatch, corpus, truthful_corpus):
    lps = corpus_lps(corpus, truthful_corpus)
    for args, kwargs in simplex_inputs(monkeypatch, lps):
        assert solve_canonical_max(*args, **kwargs) == tableau_simplex(*dense(*args, **kwargs))


def test_matches_tableau_on_auction_lps(monkeypatch):
    lps = []
    for kind, n, m in AUCTION_SHAPES:
        lps.extend(proxy_lps(generate(kind, n, m, 1), default_params(m)[0]))
    pivots = 0
    for args, kwargs in simplex_inputs(monkeypatch, lps):
        res = solve_canonical_max(*args, **kwargs)
        assert res == tableau_simplex(*dense(*args, **kwargs))
        pivots += res.pivots
    assert pivots > len(lps)  # the comparison covers real pivoting, not slack bases


rationals = st.fractions(min_value=-1, max_value=3, max_denominator=6)


def by_table(lp):
    """Whether the simplex prices ``lp`` from the subset-sum table of the item duals."""
    columns, _, _, m = lp
    return len(columns) >= 1 << m


@st.composite
def unit_lps(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    column = st.tuples(st.integers(0, n - 1), st.integers(0, (1 << m) - 1))
    # at least as many columns as masks are priced from the table, fewer by sums
    if draw(st.booleans()):
        size = draw(st.integers(1 << m, (1 << m) + 8))
    else:
        size = draw(st.integers(1, (1 << m) - 1))
    base = draw(st.lists(column, min_size=1, max_size=size))
    # repeated columns make degenerate ratio and pricing ties
    extra = size - len(base)
    columns = base + draw(st.lists(st.sampled_from(base), min_size=extra, max_size=extra))
    objective = draw(st.lists(rationals, min_size=size, max_size=size))
    return columns, objective, n, m


def pricing_tables(lp):
    """The simplex's result on ``lp`` and how many subset-sum tables it built."""
    built = []

    def counted(weights):
        built.append(weights)
        return subset_sums(weights)

    real, simplex.subset_sums = simplex.subset_sums, counted
    try:
        return solve_canonical_max(*lp), len(built)
    finally:
        simplex.subset_sums = real


@settings(max_examples=300, deadline=None)
@given(unit_lps())
# one pivoting example of each pricing path, whatever the draws
@example(([(0, 0b01), (0, 0b10), (1, 0b11)], [Fraction(1)] * 3, 2, 2))
@example(([(0, 0b1), (1, 0b1)], [Fraction(1, 2), Fraction(2, 3)], 2, 1))
def test_matches_tableau_on_random_rational_lps(lp):
    res, tables = pricing_tables(lp)
    assert res == tableau_simplex(*dense(*lp))
    # the table is built once per pricing pass on its path, never on the other
    assert tables == (res.pivots + 1 if by_table(lp) else 0)


def state(step):
    """The state a pass priced and resumes from."""
    return step.d, step.M, step.beta, step.basis, step.Y


@settings(max_examples=300, deadline=None)
@given(unit_lps())
def test_each_recorded_pass_resumes_to_the_cold_result(lp):
    # each pass of a cold solve's path is a start: resumed from pass t, the
    # solve ends at the cold result in t fewer pivots
    record = []
    res = solve_canonical_max(*lp, record=record)
    assert len(record) == res.pivots + 1
    assert state(res.final) == state(record[-1])
    before = deepcopy(list(map(state, record)))
    for t, step in enumerate(record):
        assert solve_canonical_max(*lp, start=step) == replace(res, pivots=res.pivots - t)
    assert list(map(state, record)) == before


@pytest.mark.parametrize("part", ["columns", "objective", "rhs"])
def test_tableau_refuses_int_entries(part):
    # int entries would pivot in floats, so the oracle takes Fractions only
    one, zero = Fraction(1), Fraction(0)
    lp = {"columns": [[one, zero, one]], "objective": [one], "rhs": [one] * 3}
    lp[part] = {"columns": [[1, 0, 1]], "objective": [1], "rhs": [1] * 3}[part]
    with pytest.raises(TypeError):
        tableau_simplex(**lp)


@settings(max_examples=150, deadline=None)
@given(unit_lps(), st.data())
def test_warm_start_reaches_the_cold_optimum(lp, data):
    # solve objective A, then objective B resuming A's final basis: the same
    # feasible region, so A's basis is a feasible start for B
    columns, _, n, m = lp
    objective_b = data.draw(st.lists(rationals, min_size=len(columns), max_size=len(columns)))
    first = solve_canonical_max(*lp).final
    before = (list(first.basis), [list(row) for row in first.M], list(first.beta), first.d)
    lp_b = (columns, objective_b, n, m)
    warm = solve_canonical_max(*lp_b, start=first)
    cold = solve_canonical_max(*lp_b)
    assert warm.objective == cold.objective == tableau_simplex(*dense(*lp_b)).objective
    assert (first.basis, first.M, first.beta, first.d) == before
    # the warm optimum's own state resumes to itself
    again = solve_canonical_max(*lp_b, start=warm.final)
    assert again == replace(warm, pivots=0)
