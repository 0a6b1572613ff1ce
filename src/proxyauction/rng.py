"""Seed-derived per-site counter streams of exact uniform integers.

Every random decision in the pipeline draws from its own stream, named by
the master seed together with a (stage, index) label path. Adding new
instrumentation or reordering independent draws therefore never perturbs the
outcome of existing stages. A site's key is its seed's root key followed by
the site's label bytes (``site``), so a sampler that builds ``stream(seed)``
once can draw each site from ``root.child(site)`` with the same key as
``stream(seed, *labels)``, and can list its sites' bytes once for many seeds.

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

The key is assembled from two bounded caches, one of ``repr(seed)`` parts and
one of ``|repr(label)`` parts, and has the same bytes as the text built in
full. A label part is cached only for an ``int`` or a ``str`` and is keyed with
its type, so ``1``, ``True``, ``1.0`` and ``"1"`` never share a part. The
block size and the rejection limit of each denominator are cached too.
``derive_seeds`` derives a run of child seeds, one per index, from one shared
key prefix, since a run's indices reach past the label cache.
"""

from __future__ import annotations

from functools import lru_cache
from hashlib import sha256, shake_256

# entries per cache: the draws of one sample share a seed and a few labels
_CACHE_SIZE = 256


def derive_seed(seed: int, *labels) -> int:
    """Deterministic child seed from a master seed and a label path."""
    digest = sha256(_key(seed, labels)).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seeds(seed: int, label, count: int) -> list[int]:
    """``[derive_seed(seed, label, r) for r in range(count)]``, from one key prefix."""
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

    def child(self, site: bytes) -> "Stream":
        """The stream keyed by this stream's key followed by ``site`` (from ``site()``)."""
        return Stream(self.key + site)

    def randrange(self, den: int) -> int:
        """Uniform integer in [0, den), exactly."""
        if den < 1:
            raise ValueError(f"randrange needs den >= 1, got {den}")
        if den == 1:
            return 0
        size, limit = _block_bounds(den)
        while True:
            block = shake_256(self.key + self.counter.to_bytes(8, "big")).digest(size)
            self.counter += 1
            u = int.from_bytes(block, "big")
            if u < limit:
                return u % den


@lru_cache(maxsize=_CACHE_SIZE)
def _block_bounds(den: int) -> tuple[int, int]:
    """(bytes per block, first rejected value) for uniform draws below ``den``."""
    size = (den.bit_length() + 71) // 8
    return size, (1 << (8 * size)) // den * den


@lru_cache(maxsize=_CACHE_SIZE)
def _seed_part(seed: int) -> bytes:
    return repr(int(seed)).encode("utf-8")


@lru_cache(maxsize=_CACHE_SIZE)
def _label_part(kind: type, label) -> bytes:
    # kind is read only as part of the cache key: 1 and True are equal keys
    return b"|" + repr(label).encode("utf-8")


def site(*labels) -> bytes:
    """The label text ``|repr(label)|...`` as UTF-8, from cached parts."""
    text = b""
    for label in labels:
        kind = type(label)
        # equal ints, or equal strs, share their repr; equal floats may not (0.0, -0.0)
        if kind is int or kind is str:
            text += _label_part(kind, label)
        else:
            text += b"|" + repr(label).encode("utf-8")
    return text


def _key(seed: int, labels) -> bytes:
    """The label text ``repr(seed)|repr(label)|...`` as UTF-8, from cached parts."""
    return _seed_part(seed) + site(*labels)


def stream(seed: int, *labels) -> Stream:
    """Independent stream for one labeled decision site."""
    return Stream(_key(seed, labels))
