"""Item bundles as immutable dense bit-sets.

Items are integers 0..m-1; a bundle is the set bits of ``mask``. Equality and
hashing are purely by membership, so bundles over different universes compare
equal when their members coincide.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class ItemSet:
    """Immutable set of item indices backed by an int bitmask."""

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        if mask < 0:
            raise ValueError("item-set mask must be nonnegative")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("ItemSet is immutable")

    def __reduce__(self):
        return (ItemSet, (self.mask,))

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "ItemSet":
        mask = 0
        for j in indices:
            if j < 0:
                raise ValueError("item indices must be nonnegative")
            mask |= 1 << j
        return cls(mask)

    @classmethod
    def singleton(cls, j: int) -> "ItemSet":
        return cls(1 << j)

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, j: int) -> bool:
        return j >= 0 and (self.mask >> j) & 1 == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, ItemSet) and other.mask == self.mask

    def __hash__(self) -> int:
        return hash(("ItemSet", self.mask))

    def __or__(self, other: "ItemSet") -> "ItemSet":
        return ItemSet(self.mask | other.mask)

    def fits_universe(self, m: int) -> bool:
        return self.mask < (1 << m)

    def lex_key(self) -> tuple[int, ...]:
        """Sorted index tuple; lexicographic comparison of these orders bundles."""
        return self.indices()

    def __repr__(self) -> str:
        return "{" + ",".join(str(j) for j in self) + "}"


EMPTY_SET = ItemSet(0)


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def subset_sums(weights: Sequence) -> list:
    """The sum of ``weights[j]`` over the items of every mask, indexed by mask.

    Built by doubling: once items 0..j-1 are in, the masks that add item j
    are the masks below ``1 << j`` plus ``weights[j]``, so the table costs one
    addition per mask.
    """
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums
