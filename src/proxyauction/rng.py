"""Seed-derived per-site counter streams of exact uniform integers.

Every random decision in the pipeline draws from its own stream, named by
the master seed together with a (stage, index) label path. Adding new
instrumentation or reordering independent draws therefore never perturbs the
outcome of existing stages. A site's key is its seed's root key followed by
the site's label bytes (``site``), so a sampler lists each site once as a
``draw_site`` and draws it under any seed's root key with one hash:
``draw(stream(seed).key, at)`` is ``stream(seed, *labels).randrange(den)``.

A stream is counter based (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11): it holds no generator state beyond its key and a block
counter k. The key is the label text ``repr(seed)|repr(label)|...`` encoded
as UTF-8, so ``1`` and ``"1"`` name different sites. Block k hashes
``key || k`` (k as 8 big-endian bytes; the key is everything before those
last 8 bytes, so no two (key, k) pairs share an input) with SHAKE-256 and
reads ``b = 8 * ceil((den.bit_length() + 64) / 8)`` bits as an integer u. A
u at or above ``floor(2^b / den) * den`` is rejected and the draw moves to
block k + 1, so the accepted ``u mod den`` is exactly uniform below ``den``
for every ``den``, however wide. A rejection happens with probability below
2^-64. A draw with ``den = 1`` is certain: it returns 0, reads no block and
leaves the counter as it was.

The block size and the rejection limit of each denominator are cached.
``derive_seeds`` derives a run of child seeds, one per index, from one shared
key prefix; a run longer than ``SAMPLE_CAP`` raises ``CapacityError`` before
any seed is hashed.
"""

from __future__ import annotations

from functools import lru_cache
from hashlib import sha256, shake_256

from .errors import CapacityError

# child seeds of one derive_seeds call: run --replications, verify --trials
SAMPLE_CAP = 100_000


def derive_seed(seed: int, *labels) -> int:
    """Deterministic child seed from a master seed and a label path."""
    digest = sha256(_key(seed, labels)).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seeds(seed: int, label, count: int) -> list[int]:
    """``[derive_seed(seed, label, r) for r in range(count)]``, from one key prefix."""
    if count > SAMPLE_CAP:
        raise CapacityError("derived seeds", count, SAMPLE_CAP)
    prefix = _key(seed, (label,)) + b"|"
    return [
        int.from_bytes(sha256(prefix + repr(r).encode("utf-8")).digest()[:8], "big")
        for r in range(count)
    ]


class Stream:
    """Exact uniform draws for one labeled decision site."""

    __slots__ = ("key", "counter")

    def __init__(self, key: bytes):
        self.key = key
        self.counter = 0

    def randrange(self, den: int) -> int:
        """Uniform integer in [0, den), exactly."""
        if den < 1:
            raise ValueError(f"randrange needs den >= 1, got {den}")
        if den == 1:
            return 0
        u, self.counter = _accept(self.key, self.counter, *_block_bounds(den))
        return u % den


def _accept(key: bytes, counter: int, size: int, limit: int) -> tuple[int, int]:
    """The first block from ``counter`` on that reads below ``limit``, and the counter past it."""
    while True:
        block = shake_256(key + counter.to_bytes(8, "big")).digest(size)
        counter += 1
        u = int.from_bytes(block, "big")
        if u < limit:
            return u, counter


@lru_cache(maxsize=256)
def _block_bounds(den: int) -> tuple[int, int]:
    """(bytes per block, first rejected value) for uniform draws below ``den``."""
    size = (den.bit_length() + 71) // 8
    return size, (1 << (8 * size)) // den * den


def draw_site(den: int, *labels) -> tuple[bytes, int, int, int]:
    """(``site(*labels)`` and block counter 0, den, block size, rejection limit) for den >= 2."""
    return (site(*labels) + bytes(8), den, *_block_bounds(den))


def draw(key: bytes, at: tuple) -> int:
    """``Stream(key + site).randrange(den)`` for ``at = draw_site(den, site's labels)``.

    One hash of block 0; only a rejected block reads on, as ``randrange`` does.
    """
    suffix, den, size, limit = at
    u = int.from_bytes(shake_256(key + suffix).digest(size), "big")
    if u >= limit:
        u = _accept(key + suffix[:-8], 1, size, limit)[0]
    return u % den


def site(*labels) -> bytes:
    """The label text ``|repr(label)|...`` as UTF-8."""
    return "".join("|" + repr(label) for label in labels).encode("utf-8")


def _key(seed: int, labels) -> bytes:
    """The label text ``repr(seed)|repr(label)|...`` as UTF-8."""
    return "|".join(map(repr, (int(seed), *labels))).encode("utf-8")


def stream(seed: int, *labels) -> Stream:
    """Independent stream for one labeled decision site."""
    return Stream(_key(seed, labels))
