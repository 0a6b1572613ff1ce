"""The revised simplex against the dense Bland tableau in ``oracles``.

Both routines take the same dense input and must return equal
SimplexResults (x, objective, duals, basis and pivot count).
"""

from hypothesis import given, settings, strategies as st

from oracles import tableau_simplex
from proxyauction import lp as lpmod
from proxyauction.generators import generate
from proxyauction.lp import build_full_lp, solve_exact
from proxyauction.mechanism import default_params
from proxyauction.simplex import solve_canonical_max

# the benchmark's auction instances, generated at seed 1
AUCTION_SHAPES = (("xos", 3, 6), ("coverage", 3, 6), ("mixed", 3, 7), ("mixed", 4, 7))


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
        assert solve_canonical_max(*args, **kwargs) == tableau_simplex(*args, **kwargs)


def test_matches_tableau_on_auction_lps(monkeypatch):
    lps = []
    for kind, n, m in AUCTION_SHAPES:
        lps.extend(proxy_lps(generate(kind, n, m, 1), default_params(m)[0]))
    pivots = 0
    for args, kwargs in simplex_inputs(monkeypatch, lps):
        res = solve_canonical_max(*args, **kwargs)
        assert res == tableau_simplex(*args, **kwargs)
        pivots += res.pivots
    assert pivots > len(lps)  # the comparison covers real pivoting, not slack bases


def outcome(solver, columns, objective, rhs):
    try:
        return solver(columns, objective, rhs)
    except ValueError as exc:  # unbounded
        return type(exc)


rationals = st.fractions(min_value=-2, max_value=3, max_denominator=4)


@st.composite
def dense_lps(draw):
    n_rows = draw(st.integers(1, 4))
    column = st.lists(rationals, min_size=n_rows, max_size=n_rows)
    base = draw(st.lists(column, min_size=1, max_size=5))
    # repeated columns make degenerate ratio and pricing ties
    repeats = draw(st.lists(st.integers(0, len(base) - 1), max_size=3))
    columns = base + [list(base[j]) for j in repeats]
    objective = draw(st.lists(rationals, min_size=len(columns), max_size=len(columns)))
    rhs = draw(
        st.lists(
            st.fractions(min_value=0, max_value=3, max_denominator=4),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return columns, objective, rhs


@settings(max_examples=300, deadline=None)
@given(dense_lps())
def test_matches_tableau_on_random_rational_lps(lp):
    assert outcome(solve_canonical_max, *lp) == outcome(tableau_simplex, *lp)
