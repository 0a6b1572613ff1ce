"""Item bundles as int masks.

Items are integers 0..m-1, and a bundle is the int whose set bits are its
items: item j is in ``mask`` when ``mask >> j & 1``. Every layer takes and
returns the mask itself; the functions below read it at the edges.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def items(mask: int) -> tuple[int, ...]:
    """The items of ``mask`` in ascending order.

    Lexicographic comparison of these tuples is the bundle order of the LP's
    columns and of a solution's support. A negative mask, whose set bits never
    run out, raises ``ValueError``.
    """
    if mask < 0:
        raise ValueError(f"an item mask is nonnegative, got {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def bundle_text(mask: int) -> str:
    """The bundle as ``"{0,2}"``, for table cells, labels and messages."""
    return "{" + ",".join(map(str, items(mask))) + "}"


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
