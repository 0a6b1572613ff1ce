"""Bidder valuations, demand oracles, and the keep-probability proxy transform.

A valuation maps bundles of items, each an int item mask, to nonnegative
exact rationals. Five structured kinds are supported (explicit table,
additive, unit-demand, XOS, coverage). A kind is its constructor, which
checks and keeps its parameters, and its ``_table()``, which builds one
integer table of its values over all ``2^m`` bundles, indexed by mask over
one denominator; every valuation answers value queries and demand queries
from that table, and a mask outside ``0 <= mask < 2^m`` raises
``MalformedValuationError``. The instance file format, which stores each
kind's parameters, belongs to ``serialize``.
Queries are tallied in a per-valuation :class:`QueryCounter`, the artifact's
stand-in for communication cost.

``ProxyValuation`` wraps a base valuation ``v`` with a keep probability ``c``
(``1/c`` integral) and evaluates the expected value of a bundle after each of
its items survives independently with probability ``c``. Its table is the
subset-sum (zeta) transform of the base table over exact integers, so
``TABLE_CAP`` bounds ``m``, not the bundle: past it, every bundle raises.

Demand queries scan the ``2^m`` bundles as integer numerators over one
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .errors import CapacityError, MalformedValuationError, ParameterError
from .itemsets import subset_sums

# Value tables, base and proxy, and with them every value and demand query,
# cover all 2^m bundles.
TABLE_CAP = 20
# items of one instance: past it, a cap over 2^m bundles could not print its count
INSTANCE_ITEM_CAP = 1000

Value = Fraction


def as_value(x) -> Fraction:
    v = x if type(x) is Fraction else Fraction(x)
    if v.numerator < 0:
        raise MalformedValuationError(f"values must be nonnegative, got {v}")
    return v


def over_one_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


@dataclass
class QueryCounter:
    """Monotone per-session tallies of oracle queries."""

    value_queries: int = 0
    demand_queries: int = 0
    proxy_value_queries: int = 0


class Valuation:
    """Base class: a set function over bundles of items 0..m-1.

    Subclasses implement ``_table()``: every bundle's value as integer
    numerators indexed by mask over one denominator. This class alone answers
    queries from that table; the public ``value``/``demand`` entry points
    validate inputs and update the query counter. Valuations are immutable
    after construction (the counter and the caches are the only mutable
    attachments), so they are safe to share across concurrent readers.
    """

    kind = "abstract"

    def __init__(self, m: int):
        if m < 1:
            raise MalformedValuationError("a valuation needs at least one item")
        self.m = m
        self.counter = QueryCounter()
        self._cache: dict[int, Value] = {}

    # -- queries ---------------------------------------------------------

    def value(self, mask: int) -> Value:
        """v(mask); counted as one value query."""
        self._check_universe(mask)
        self.counter.value_queries += 1
        return self._value(mask)

    def demand(self, prices: Sequence) -> int:
        """The mask of a profit-maximizing bundle at the given item prices.

        Maximizes v(S) - sum of prices over S. Ties resolve to the fewest
        items, then to the lexicographically smallest index tuple, so the
        answer is deterministic. Counted as one demand query.
        """
        prices = self._check_prices(prices)
        self.counter.demand_queries += 1
        values, den = self.value_table
        # profit(S) * den * pden as an integer, with prices over pden
        pden = lcm(*(p.denominator for p in prices))
        costs = subset_sums([p.numerator * (pden // p.denominator) * den for p in prices])
        profits = [v * pden - cost for v, cost in zip(values, costs)]
        profits[0] = 0  # the empty bundle is the zero-profit fallback, whatever v(empty)
        best = max(profits)
        if profits.count(best) == 1:
            return profits.index(best)
        tied = [mask for mask, profit in enumerate(profits) if profit == best]
        fewest = min(mask.bit_count() for mask in tied)
        chosen, *others = [mask for mask in tied if mask.bit_count() == fewest]
        for mask in others:
            # of two sets of one size, the lexicographically smaller index
            # tuple holds the lowest item of their symmetric difference
            diff = mask ^ chosen
            if mask & diff & -diff:
                chosen = mask
        return chosen

    # -- internals -------------------------------------------------------

    def _value(self, mask: int) -> Value:
        """v(mask) read from the value table, one cached Fraction per mask."""
        got = self._cache.get(mask)
        if got is None:
            values, den = self.value_table
            got = self._cache[mask] = Fraction(values[mask], den)
        return got

    @cached_property
    def value_table(self) -> tuple[list[int], int]:
        """Every bundle's value as (numerators indexed by mask, one denominator).

        Built on first use and kept: valuations are immutable. Needs
        ``m <= TABLE_CAP``. Not counted as queries.
        """
        if self.m > TABLE_CAP:
            raise CapacityError("value table over all bundles", 1 << self.m, 1 << TABLE_CAP)
        return self._table()

    def _table(self) -> tuple[list[int], int]:
        raise NotImplementedError

    def _check_universe(self, mask: int) -> None:
        if not 0 <= mask < 1 << self.m:
            raise MalformedValuationError(f"bundle mask {mask} is outside the {self.m}-item universe")

    def _check_prices(self, prices: Sequence) -> tuple[Fraction, ...]:
        if len(prices) != self.m:
            raise ParameterError(f"expected {self.m} prices, got {len(prices)}")
        out = tuple(p if type(p) is Fraction else Fraction(p) for p in prices)
        if any(p.numerator < 0 for p in out):
            raise ParameterError("item prices must be nonnegative")
        return out


class AdditiveValuation(Valuation):
    """v(S) = sum of per-item weights over S."""

    kind = "additive"

    def __init__(self, weights: Iterable):
        ws = tuple(as_value(w) for w in weights)
        super().__init__(len(ws))
        self.weights = ws

    def _table(self) -> tuple[list[int], int]:
        nums, den = over_one_denominator(self.weights)
        return subset_sums(nums), den


class UnitDemandValuation(Valuation):
    """v(S) = max per-item weight in S (0 for the empty bundle)."""

    kind = "unit-demand"

    def __init__(self, weights: Iterable):
        ws = tuple(as_value(w) for w in weights)
        super().__init__(len(ws))
        self.weights = ws

    def _table(self) -> tuple[list[int], int]:
        # subset_sums' doubling with max in place of +
        nums, den = over_one_denominator(self.weights)
        best = [0]
        for w in nums:
            best += [max(b, w) for b in best]
        return best, den


class XOSValuation(Valuation):
    """v(S) = max over additive clauses of the clause's weight sum on S."""

    kind = "xos"

    def __init__(self, m: int, clauses: Iterable[Iterable]):
        super().__init__(m)
        parsed = []
        for clause in clauses:
            ws = tuple(as_value(w) for w in clause)
            if len(ws) != m:
                raise MalformedValuationError(
                    f"xos clause has {len(ws)} weights for a {m}-item universe"
                )
            parsed.append(ws)
        self.clauses = tuple(parsed)

    def _table(self) -> tuple[list[int], int]:
        # the elementwise max of each clause's subset sums; zero without clauses
        nums, den = over_one_denominator([w for clause in self.clauses for w in clause])
        best = [0] * (1 << self.m)
        for start in range(0, len(nums), self.m):
            best = list(map(max, best, subset_sums(nums[start : start + self.m])))
        return best, den


class CoverageValuation(Valuation):
    """Items cover weighted ground elements; v(S) = weight covered by S.

    ``covers[j]`` lists the ground elements item j covers; ``element_weights``
    gives each element's weight. Coverage valuations are submodular, hence XOS
    and subadditive.
    """

    kind = "coverage"

    def __init__(self, element_weights: Iterable, covers: Sequence[Iterable[int]]):
        ws = tuple(as_value(w) for w in element_weights)
        super().__init__(len(covers))
        self.element_weights = ws
        masks = []
        for cover in covers:
            mask = 0
            for e in cover:
                if not (0 <= e < len(ws)):
                    raise MalformedValuationError(
                        f"coverage element {e} outside universe of {len(ws)} elements"
                    )
                mask |= 1 << e
            masks.append(mask)
        self.cover_masks = tuple(masks)

    def _table(self) -> tuple[list[int], int]:
        # the covered-element mask of every bundle by doubling, then its weight
        nums, den = over_one_denominator(self.element_weights)
        covered = [0]
        for cover in self.cover_masks:
            covered += [c | cover for c in covered]
        weight = {c: sum(w for e, w in enumerate(nums) if c >> e & 1) for c in set(covered)}
        return [weight[c] for c in covered], den


class ExplicitValuation(Valuation):
    """Full table over every bundle of the universe.

    The table may violate normalization or monotonicity. Missing entries are
    a malformed valuation.
    """

    kind = "explicit"

    def __init__(self, m: int, table: dict):
        super().__init__(m)
        full = {}
        for key, raw in table.items():
            mask = int(key)
            if not 0 <= mask < (1 << m):
                raise MalformedValuationError(f"table bundle {mask} outside 2^{m} universe")
            full[mask] = as_value(raw)
        missing = (1 << m) - len(full)
        if missing:
            raise MalformedValuationError(
                f"explicit table is missing {missing} of {1 << m} bundles"
            )
        self.table = full

    @classmethod
    def from_valuation(cls, v: Valuation) -> "ExplicitValuation":
        return cls(v.m, {mask: v._value(mask) for mask in range(1 << v.m)})

    def _table(self) -> tuple[list[int], int]:
        return over_one_denominator([self.table[mask] for mask in range(1 << self.m)])


class ProxyValuation(Valuation):
    """Expected value of a bundle after independent per-item survival.

    ``value(S)`` returns E[v(T)] where T keeps each item of S independently
    with probability ``c``, counted as a proxy value query. With c = 1 this
    is the base valuation itself. The table covers all ``2^m`` bundles at
    once, which needs ``m <= TABLE_CAP``: past the cap every query raises
    ``CapacityError``, however small its bundle.
    """

    kind = "proxy"

    def __init__(self, base: Valuation, c):
        if isinstance(base, ProxyValuation):
            raise ParameterError("proxy valuations do not nest")
        c = Fraction(c)
        if not (0 < c <= 1) or c.numerator != 1:
            raise ParameterError(f"keep probability must be a reciprocal integer in (0,1], got {c}")
        super().__init__(base.m)
        self.base = base
        self.c = c
        self.counter = base.counter  # shared: proxy answers come from the same bidder

    def value(self, mask: int) -> Value:
        self._check_universe(mask)
        self.counter.proxy_value_queries += 1
        return self._value(mask)

    def _table(self) -> tuple[list[int], int]:
        """All ``2^m`` proxy values over one denominator, by the zeta transform.

        With k = 1/c, v'(S) = sum over T subset of S of (k-1)^|S-T| v(T) / k^|S|.
        Starting from h = v scaled to integers over D, one in-place pass per
        item j, h[S] += (k-1) h[S - j] for every S holding j, leaves
        v'(S) = h[S] / (D k^|S|) (Yates; Bjorklund, Husfeldt, Kaski and
        Koivisto, STOC 2007); the table returns it over D k^m.
        """
        size = 1 << self.m
        values, den = self.base.value_table
        h = list(values)  # transformed in place; the base keeps its table
        k = self.c.denominator
        for j in range(self.m):
            bit = 1 << j
            for mask in range(size):
                if mask & bit:
                    h[mask] += (k - 1) * h[mask ^ bit]
        scale = [k ** (self.m - t) for t in range(self.m + 1)]
        return [x * scale[mask.bit_count()] for mask, x in enumerate(h)], den * k**self.m


@dataclass(frozen=True)
class Instance:
    """An auction universe: m items and one valuation per bidder."""

    m: int
    valuations: tuple[Valuation, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError("an instance needs at least one item")
        if not self.valuations:
            raise ParameterError("an instance needs at least one bidder")
        for i, v in enumerate(self.valuations):
            if v.m != self.m:
                raise ParameterError(
                    f"bidder {i} valuation is over {v.m} items, instance has {self.m}"
                )

    @property
    def n(self) -> int:
        return len(self.valuations)

    def query_totals(self) -> dict:
        """Each query tally summed over the bidders."""
        return {
            name: sum(getattr(v.counter, name) for v in self.valuations)
            for name in ("value_queries", "demand_queries", "proxy_value_queries")
        }

    def proxies(self, c) -> tuple[ProxyValuation, ...]:
        return tuple(ProxyValuation(v, c) for v in self.valuations)
