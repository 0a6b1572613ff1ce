"""Deterministic instance generators and the bundled verification corpora.

All randomness flows through seeds; the same (kind, n, m, seed) always yields
the same instance. Every generated valuation is normalized, non-decreasing,
and subadditive: the structured kinds guarantee this by construction, and
explicit tables are repaired to the greatest monotone subadditive minorant of
the raw random table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, ParameterError
from .itemsets import submasks
from .mechanism import MechanismConfig, Q_HALT
from .rng import derive_seed
from .valuations import (
    INSTANCE_ITEM_CAP,
    AdditiveValuation,
    CoverageValuation,
    ExplicitValuation,
    Instance,
    UnitDemandValuation,
    Valuation,
    XOSValuation,
)

EXPLICIT_ITEM_CAP = 8
# bidders of one generated instance: each costs generate time and output in proportion
GENERATED_COUNT_CAP = 1000
GENERATOR_KINDS = ("additive", "unit-demand", "xos", "coverage", "explicit-subadditive", "mixed")

DEFAULT_CORPUS_SEED = 20260810


def _rand_value(rng: random.Random, top: int = 10) -> Fraction:
    return Fraction(rng.randint(0, top), rng.choice((1, 1, 2, 4)))


def _additive(m: int, rng: random.Random) -> AdditiveValuation:
    return AdditiveValuation([_rand_value(rng) for _ in range(m)])


def _unit_demand(m: int, rng: random.Random) -> UnitDemandValuation:
    return UnitDemandValuation([_rand_value(rng) for _ in range(m)])


def _xos(m: int, rng: random.Random) -> XOSValuation:
    rows = []
    for _ in range(3):
        rows.append(
            [Fraction(0) if rng.random() < 0.34 else _rand_value(rng) for _ in range(m)]
        )
    return XOSValuation(m, rows)


def _coverage(m: int, rng: random.Random) -> CoverageValuation:
    u = m + rng.randint(0, 2)
    weights = [_rand_value(rng) for _ in range(u)]
    covers = [[e for e in range(u) if rng.random() < 0.5] for _ in range(m)]
    return CoverageValuation(weights, covers)


def repair_monotone_subadditive(raw: dict[int, Fraction], m: int) -> dict[int, Fraction]:
    """Greatest monotone subadditive minorant of a raw nonnegative table.

    Two capping passes. First every bundle is capped by the cheapest superset
    (monotone repair from above). Then, in increasing cardinality order, each
    bundle is capped by the cheapest two-part split, which propagates to the
    cheapest partition into any number of parts. The result is the largest
    table below the input that is normalized, non-decreasing, and
    subadditive, and a table already satisfying all three is unchanged.
    """
    size = 1 << m
    capped = [min(raw[sup] for sup in range(size) if sup & mask == mask) for mask in range(size)]
    capped[0] = Fraction(0)
    order = sorted(range(size), key=lambda mask: mask.bit_count())
    for mask in order:
        if mask == 0 or mask.bit_count() == 1:
            continue
        low = mask & -mask
        # the part containing the lowest item runs over the proper submasks including it
        parts = [sub for sub in submasks(mask) if sub & low and sub != mask]
        capped[mask] = min(capped[mask], *(capped[sub] + capped[mask ^ sub] for sub in parts))
    return {mask: capped[mask] for mask in range(size)}


def _explicit_subadditive(m: int, rng: random.Random) -> ExplicitValuation:
    if m > EXPLICIT_ITEM_CAP:
        raise CapacityError("explicit table generation", 1 << m, 1 << EXPLICIT_ITEM_CAP)
    raw = {
        mask: Fraction(rng.randint(0, 4 * max(1, mask.bit_count())), rng.choice((1, 2)))
        for mask in range(1 << m)
    }
    raw[0] = Fraction(0)
    return ExplicitValuation(m, repair_monotone_subadditive(raw, m))


_BUILDERS = {
    "additive": _additive,
    "unit-demand": _unit_demand,
    "xos": _xos,
    "coverage": _coverage,
    "explicit-subadditive": _explicit_subadditive,
}


def generate(kind: str, n: int, m: int, seed: int) -> Instance:
    """Deterministic n-bidder, m-item instance of the requested kind.

    ``mixed`` draws each bidder's kind independently (explicit tables only
    when m allows them). More than ``GENERATED_COUNT_CAP`` bidders raise
    ``CapacityError`` before any valuation is built.
    """
    if kind not in GENERATOR_KINDS:
        raise ParameterError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")
    if n < 1 or m < 1:
        raise ParameterError("need n >= 1 bidders and m >= 1 items")
    if m > INSTANCE_ITEM_CAP:
        raise CapacityError("items of one instance", m, INSTANCE_ITEM_CAP)
    if n > GENERATED_COUNT_CAP:
        raise CapacityError("generated bidders", n, GENERATED_COUNT_CAP)
    valuations: list[Valuation] = []
    for i in range(n):
        rng = random.Random(derive_seed(seed, "bidder", kind, n, m, i))
        if kind == "mixed":
            pool = [k for k in _BUILDERS if k != "explicit-subadditive" or m <= EXPLICIT_ITEM_CAP]
            bidder_kind = rng.choice(sorted(pool))
            valuations.append(_BUILDERS[bidder_kind](m, rng))
        else:
            valuations.append(_BUILDERS[kind](m, rng))
    return Instance(
        m,
        tuple(valuations),
        metadata={"generator": kind, "seed": seed, "n": n, "m": m},
    )


# The instance both corpora end with, as ``generate``'s arguments, and its
# config: the LP optimum shares one item among all three bidders, so the halt
# event has positive probability (exactly 1/27 at c = 1/2) and the q
# machinery is exercised non-trivially.
CONTENDED = ("xos", 3, 4, 27)
CONTENDED_CONFIG = MechanismConfig(c=Fraction(1, 2), p=Fraction(1, 20), q_variant=Q_HALT, seed=27)


@dataclass(frozen=True)
class CorpusInstance:
    label: str
    instance: Instance
    config: MechanismConfig


def standard_corpus(seed: int = DEFAULT_CORPUS_SEED) -> list[CorpusInstance]:
    """The bundled mixed-kind corpus used by the identity and bound checks.

    Twenty-plus instances with n <= 3, m <= 5. Keep probabilities are 1/2 or
    1/3 so halting stays possible on the three-bidder instances while the
    cancellation bound q_i <= 1 - p holds structurally for every feasible
    solution at this scale.
    """
    shapes = [
        ("additive", 1, 4, Fraction(1, 2), Fraction(1, 20)),
        ("additive", 2, 3, Fraction(1, 2), Fraction(1, 20)),
        ("additive", 3, 4, Fraction(1, 2), Fraction(1, 20)),
        ("unit-demand", 2, 3, Fraction(1, 2), Fraction(1, 20)),
        ("unit-demand", 3, 2, Fraction(1, 2), Fraction(1, 20)),
        ("unit-demand", 3, 5, Fraction(1, 3), Fraction(1, 8)),
        ("xos", 2, 4, Fraction(1, 2), Fraction(1, 20)),
        ("xos", 3, 3, Fraction(1, 2), Fraction(1, 20)),
        ("xos", 3, 4, Fraction(1, 2), Fraction(1, 10)),
        ("coverage", 2, 4, Fraction(1, 2), Fraction(1, 20)),
        ("coverage", 3, 3, Fraction(1, 2), Fraction(1, 20)),
        ("coverage", 3, 5, Fraction(1, 3), Fraction(1, 20)),
        ("explicit-subadditive", 2, 2, Fraction(1, 2), Fraction(1, 20)),
        ("explicit-subadditive", 2, 3, Fraction(1, 2), Fraction(1, 20)),
        ("explicit-subadditive", 3, 3, Fraction(1, 2), Fraction(1, 20)),
        ("explicit-subadditive", 3, 2, Fraction(1, 2), Fraction(1, 4)),
        ("mixed", 2, 4, Fraction(1, 2), Fraction(1, 20)),
        ("mixed", 3, 4, Fraction(1, 2), Fraction(1, 20)),
        ("mixed", 3, 5, Fraction(1, 2), Fraction(1, 20)),
        ("mixed", 3, 3, Fraction(1, 3), Fraction(1, 20)),
        ("mixed", 2, 5, Fraction(1, 2), Fraction(1, 20)),
        ("mixed", 3, 2, Fraction(1, 2), Fraction(1, 20)),
    ]
    corpus = []
    for idx, (kind, n, m, c, p) in enumerate(shapes):
        inst = generate(kind, n, m, derive_seed(seed, "corpus", idx))
        config = MechanismConfig(c=c, p=p, q_variant=Q_HALT, seed=derive_seed(seed, "run", idx))
        corpus.append(CorpusInstance(f"{idx:02d}-{kind}-n{n}-m{m}", inst, config))
    label = f"{len(shapes):02d}-xos-n3-m4-contended"
    corpus.append(CorpusInstance(label, generate(*CONTENDED), CONTENDED_CONFIG))
    return corpus


def truthfulness_corpus(seed: int = DEFAULT_CORPUS_SEED) -> list[CorpusInstance]:
    """Explicit-table instances for the misreport certification (>= 10).

    The final entry is ``CONTENDED`` converted to explicit tables: its
    optimum puts three bidders on one item, so the certification also covers
    runs where halting and the q correction are live rather than identically
    zero.
    """
    shapes = [(2, 2), (2, 2), (2, 3), (2, 3), (2, 3), (3, 2), (3, 2), (2, 3), (3, 3), (2, 2), (3, 2), (2, 3)]
    corpus = []
    for idx, (n, m) in enumerate(shapes):
        inst = generate("explicit-subadditive", n, m, derive_seed(seed, "truthful", idx))
        config = MechanismConfig(
            c=Fraction(1, 2), p=Fraction(1, 20), q_variant=Q_HALT,
            seed=derive_seed(seed, "truthful-run", idx),
        )
        corpus.append(CorpusInstance(f"T{idx:02d}-explicit-n{n}-m{m}", inst, config))
    contended = generate(*CONTENDED)
    explicit = Instance(
        contended.m,
        tuple(ExplicitValuation.from_valuation(v) for v in contended.valuations),
        metadata={**contended.metadata, "generator": "explicit-contended"},
    )
    label = f"T{len(shapes):02d}-explicit-n3-m4-contended"
    corpus.append(CorpusInstance(label, explicit, CONTENDED_CONFIG))
    return corpus
