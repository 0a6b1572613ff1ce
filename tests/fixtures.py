"""Feasible points of the configuration LP built without the simplex, the
prepared mechanism the verifier's checks take, and hypothesis strategies for
valuations and instances, for tests."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from proxyauction.lp import ConfigLP, FractionalSolution
from proxyauction.mechanism import MechanismConfig, Pipeline
from proxyauction.rng import derive_seed
from proxyauction.valuations import (
    AdditiveValuation,
    CoverageValuation,
    ExplicitValuation,
    Instance,
    UnitDemandValuation,
    XOSValuation,
)
from proxyauction.verify import OutcomeDistribution, exact_distribution

from oracles import mask_of


# the benchmark's auction instances, generated at seed 1
AUCTION_SHAPES = (("xos", 3, 6), ("coverage", 3, 6), ("mixed", 3, 7), ("mixed", 4, 7))


def prepared(
    instance: Instance, config: MechanismConfig, **kwargs
) -> tuple[Pipeline, OutcomeDistribution]:
    """A Pipeline (``kwargs`` as for Pipeline, e.g. ``solution=``) and its exact law."""
    pipeline = Pipeline(instance, config, **kwargs)
    return pipeline, exact_distribution(pipeline)


def config_lp(n: int, m: int, columns) -> ConfigLP:
    """A ConfigLP over ``columns`` whose objectives value every other bundle at 0.

    A zero column never improves the objective, so these objectives give the
    LP of just ``columns`` its optimum and certify its optimal solutions.
    """
    tables = [{mask: Fraction(0) for mask in range(1 << m)} for _ in range(n)]
    for col in columns:
        tables[col.bidder][col.bundle] = col.coef
    return ConfigLP(n, m, tuple(columns), tuple(ExplicitValuation(m, t) for t in tables))


def rows_against_columns() -> Instance:
    """Two unit-weight XOS bidders over the 2 x 2 grid of items 0..3.

    Bidder 0's clauses are the rows {0,1} and {2,3}, bidder 1's the columns
    {0,2} and {1,3}. At c = 1 the LP puts 1/2 on each clause bundle
    (objective 4), and every tentative assignment makes a row meet a column,
    so every run halts and every support entry has q_i = 1.
    """
    rows = XOSValuation(4, [[1, 1, 0, 0], [0, 0, 1, 1]])
    columns = XOSValuation(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    return Instance(4, (rows, columns))


def affine_plane(n: int) -> Instance:
    """n XOS bidders over the 9 points of the affine plane over Z/3, item 3x + y at (x, y).

    Bidders 0..n-2 take the lines of slopes 0..n-2, {(x, (a*x + b) mod 3)},
    and the last bidder the vertical lines {(b, y)}; each bidder has one
    clause per line, in order of b. Every point of a clause draws its weight
    ``randint(4, 6) / 5`` from one ``random.Random(1)`` shared by the bidders.
    Two lines of different slopes meet in exactly one point, so every pair of
    bidders contends for items.
    """
    rng = random.Random(1)
    valuations = []
    for i in range(n):
        if i < n - 1:
            lines = [[3 * x + (i * x + b) % 3 for x in range(3)] for b in range(3)]
        else:
            lines = [[3 * b + y for y in range(3)] for b in range(3)]
        clauses = []
        for line in lines:
            weights = [Fraction(0)] * 9
            for point in line:
                weights[point] = Fraction(rng.randint(4, 6), 5)
            clauses.append(weights)
        valuations.append(XOSValuation(9, clauses))
    return Instance(9, tuple(valuations))


def random_feasible_solution(
    n: int,
    m: int,
    seed: int,
    *,
    bundles_per_bidder: int = 3,
    max_bundle_items: int = 4,
) -> FractionalSolution:
    """A feasible fractional point with overlapping supports, not an LP optimum.

    Used to exercise the halting-probability bound and the rounding stages on
    solution shapes the simplex would not necessarily produce. Masses are
    scaled so that every item and bidder constraint holds exactly.
    """
    rng = random.Random(derive_seed(seed, "feasible", n, m))
    entries: dict = {}
    for i in range(n):
        chosen = set()
        for _ in range(bundles_per_bidder):
            size = rng.randint(1, min(max_bundle_items, m))
            bundle = mask_of(rng.sample(range(m), size))
            if bundle in chosen:
                continue
            chosen.add(bundle)
            entries[(i, bundle)] = Fraction(rng.randint(1, 6), 12)
    return scaled_to_feasible(n, m, entries)


def scaled_to_feasible(n: int, m: int, entries: dict) -> FractionalSolution:
    """The point of ``entries`` scaled down until every item and bidder constraint holds."""
    worst = Fraction(1)
    for j in range(m):
        load = sum((x for (i, b), x in entries.items() if (b >> j) & 1), Fraction(0))
        worst = max(worst, load)
    for i in range(n):
        mass = sum((x for (k, _), x in entries.items() if k == i), Fraction(0))
        worst = max(worst, mass)
    if worst > 1:
        entries = {key: x / worst for key, x in entries.items()}
    return FractionalSolution(n=n, m=m, entries=entries, objective=Fraction(0))


def overlap_demo() -> tuple[Instance, FractionalSolution]:
    """Three bidders, two items, with a hand-built feasible solution.

    Bidder 0 tentatively draws item 0 with mass 1/2; bidders 1 and 2 each
    draw item 1 with mass 1/2, so the run halts exactly when both of them
    collide (probability 1/4 at c = 1). Because that collision involves an
    item outside bidder 0's bundle, the "own-items" q variant undercounts
    bidder 0's halting risk and its survival marginal falls strictly below
    p * x; the "halt" variant is exact. Pair with c = 1 and any small p.
    """
    instance = Instance(
        2,
        (
            AdditiveValuation([2, 3]),
            UnitDemandValuation([1, 4]),
            AdditiveValuation([0, 5]),
        ),
        metadata={"generator": "overlap-demo", "seed": 0, "n": 3, "m": 2},
    )
    entries = {
        (0, 0b01): Fraction(1, 2),
        (1, 0b10): Fraction(1, 2),
        (2, 0b10): Fraction(1, 2),
    }
    # objective under c = 1 proxies (identity): sum of x * v(S)
    objective = Fraction(1, 2) * 2 + Fraction(1, 2) * 4 + Fraction(1, 2) * 5
    solution = FractionalSolution(n=3, m=2, entries=entries, objective=objective)
    return instance, solution


@st.composite
def any_kind_valuations(draw, m=None):
    """A valuation of any of the five kinds over ``m`` items (drawn <= 6 if None).

    XOS may have no clause and coverage no ground element; explicit tables
    may put value on the empty bundle and need not be monotone.
    """
    value = st.fractions(min_value=0, max_value=10, max_denominator=6)
    if m is None:
        m = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["additive", "unit-demand", "xos", "coverage", "explicit"]))
    if kind in ("additive", "unit-demand"):
        weights = draw(st.lists(value, min_size=m, max_size=m))
        return AdditiveValuation(weights) if kind == "additive" else UnitDemandValuation(weights)
    if kind == "xos":
        clause = st.lists(value, min_size=m, max_size=m)
        return XOSValuation(m, draw(st.lists(clause, max_size=3)))
    if kind == "coverage":
        elements = draw(st.lists(value, max_size=5))
        cover = st.lists(st.integers(0, len(elements) - 1), max_size=5) if elements else st.just([])
        covers = draw(st.lists(cover, min_size=m, max_size=m))
        return CoverageValuation(elements, covers)
    values = draw(st.lists(value, min_size=1 << m, max_size=1 << m))
    return ExplicitValuation(m, dict(enumerate(values)))


@st.composite
def any_kind_instances(draw):
    """An instance of 1 to 3 bidders over 1 to 4 items, of mixed kinds."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=3))
    return Instance(m, tuple(draw(any_kind_valuations(m)) for _ in range(n)))


@st.composite
def feasible_solutions(draw, max_n=4, max_m=4):
    """A hand-built feasible point: up to 3 bundles per bidder, scaled to feasibility."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    entries = {}
    for i in range(n):
        for mask in draw(st.lists(st.integers(1, (1 << m) - 1), max_size=3, unique=True)):
            entries[(i, mask)] = Fraction(draw(st.integers(1, 12)), 12)
    return scaled_to_feasible(n, m, entries)
