"""The revised simplex against the dense Bland tableau in ``oracles``.

The simplex takes 0/1 column supports under unit capacities; the tableau
takes the same LP densified. Both must return equal SimplexResults (x,
objective, duals, basis and pivot count).
"""

from dataclasses import replace
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from fixtures import AUCTION_SHAPES
from oracles import tableau_simplex
from proxyauction import lp as lpmod
from proxyauction.generators import generate
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


def dense(supports, objective, n_rows, start=None):
    """The same LP as the tableau takes it: dense 0/1 columns, unit right-hand side."""
    assert start is None  # the tableau starts from the slack basis only
    one, zero = Fraction(1), Fraction(0)
    columns = [[one if r in support else zero for r in range(n_rows)] for support in supports]
    return columns, list(objective), [one] * n_rows


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


def outcome(solver, *lp):
    try:
        return solver(*lp)
    except ValueError as exc:  # unbounded
        return type(exc)


rationals = st.fractions(min_value=-1, max_value=3, max_denominator=6)


@st.composite
def unit_lps(draw):
    n_rows = draw(st.integers(1, 6))
    support = st.lists(
        st.integers(0, n_rows - 1), unique=True, min_size=1, max_size=n_rows
    ).map(sorted)
    base = draw(st.lists(support, min_size=1, max_size=8))
    # repeated columns make degenerate ratio and pricing ties
    repeats = draw(st.lists(st.integers(0, len(base) - 1), max_size=3))
    supports = base + [list(base[j]) for j in repeats]
    # an empty column is unbounded when its cost is positive
    if draw(st.booleans()):
        supports.insert(draw(st.integers(0, len(supports))), [])
    objective = draw(st.lists(rationals, min_size=len(supports), max_size=len(supports)))
    return supports, objective, n_rows


@settings(max_examples=300, deadline=None)
@given(unit_lps())
def test_matches_tableau_on_random_rational_lps(lp):
    assert outcome(solve_canonical_max, *lp) == outcome(tableau_simplex, *dense(*lp))


@settings(max_examples=150, deadline=None)
@given(unit_lps(), st.data())
def test_warm_start_reaches_the_cold_optimum(lp, data):
    # solve objective A, then objective B resuming A's final basis: the same
    # feasible region, so A's basis is a feasible start for B
    supports, objective_a, n_rows = lp
    objective_b = data.draw(st.lists(rationals, min_size=len(supports), max_size=len(supports)))
    first = outcome(solve_canonical_max, *lp)
    assume(first is not ValueError)
    before = (list(first.basis), [list(row) for row in first.M], list(first.beta), first.d)

    def warm(*args):
        return solve_canonical_max(*args, start=first)

    results = [
        outcome(warm, supports, objective_b, n_rows),
        outcome(solve_canonical_max, supports, objective_b, n_rows),
        outcome(tableau_simplex, *dense(supports, objective_b, n_rows)),
    ]
    objectives = [r if r is ValueError else r.objective for r in results]
    assert objectives[0] == objectives[1] == objectives[2]
    assert (first.basis, first.M, first.beta, first.d) == before
    if results[0] is not ValueError:
        # the warm optimum's own state resumes to itself
        again = solve_canonical_max(supports, objective_b, n_rows, start=results[0])
        assert again == replace(results[0], pivots=0)
