"""Feasible points of the configuration LP built without the simplex, for tests."""

import random
from fractions import Fraction

from proxyauction.itemsets import ItemSet
from proxyauction.lp import FractionalSolution
from proxyauction.rng import derive_seed
from proxyauction.valuations import AdditiveValuation, Instance, UnitDemandValuation


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
            bundle = ItemSet.from_indices(rng.sample(range(m), size))
            if bundle.mask in chosen:
                continue
            chosen.add(bundle.mask)
            entries[(i, bundle)] = Fraction(rng.randint(1, 6), 12)
    # scale down to feasibility
    worst = Fraction(1)
    for j in range(m):
        load = sum((x for (i, b), x in entries.items() if j in b), Fraction(0))
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
        (0, ItemSet.from_indices([0])): Fraction(1, 2),
        (1, ItemSet.from_indices([1])): Fraction(1, 2),
        (2, ItemSet.from_indices([1])): Fraction(1, 2),
    }
    # objective under c = 1 proxies (identity): sum of x * v(S)
    objective = Fraction(1, 2) * 2 + Fraction(1, 2) * 4 + Fraction(1, 2) * 5
    solution = FractionalSolution(n=3, m=2, entries=entries, objective=objective)
    return instance, solution
