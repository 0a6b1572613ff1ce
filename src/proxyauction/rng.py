"""Seed-derived per-site counter streams of exact uniform integers.

Every random decision in the pipeline draws from its own stream, named by
the master seed together with a (stage, index) label path. Adding new
instrumentation or reordering independent draws therefore never perturbs the
outcome of existing stages. A stream is its key, ``stream(seed, *labels)``:
the label text ``repr(seed)|repr(label)|...`` encoded as UTF-8, so ``1`` and
``"1"`` name different sites. A site's key is its seed's root key followed by
the site's label bytes (``site``), so a sampler lists each site once as a
``draw_site`` and draws it under any seed's root key with one hash,
``draw(stream(seed), at)``; ``draws(keys, at)`` draws one site under each of
a run's root keys.

A stream is counter based (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11): it holds no generator state beyond its key and a block
counter k, which starts at 0. Block k hashes ``key || k`` (k as 8 big-endian
bytes; the key is everything before those last 8 bytes, so no two (key, k)
pairs share an input) with SHAKE-256 and reads
``b = 8 * ceil((den.bit_length() + 64) / 8)`` bits as an integer u. A u at
or above ``floor(2^b / den) * den`` is rejected and the draw moves to block
k + 1; the accepted ``u mod den`` is the draw, exactly uniform below ``den``
for every ``den``, however wide, and the stream's next draw starts at the
block after it. A rejection happens with probability below 2^-64. A draw with
``den = 1`` is certain: it returns 0, reads no block and leaves the counter
as it was. Every site of the package draws once, so ``draw`` is a stream's
first draw. Since a draw is a pure function of its key and site, a run's
draws can be made in any order, site by site over all of its keys, and each
returns the same integer.

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


@lru_cache(maxsize=256)
def _block_bounds(den: int) -> tuple[int, int]:
    """(bytes per block, first rejected value) for uniform draws below ``den``."""
    size = (den.bit_length() + 71) // 8
    return size, (1 << (8 * size)) // den * den


def draw_site(den: int, *labels) -> tuple[bytes, int, int, int]:
    """(``site(*labels)`` and block counter 0, den, block size, rejection limit) for den >= 2."""
    return (site(*labels) + bytes(8), den, *_block_bounds(den))


def draw(key: bytes, at: tuple) -> int:
    """The first draw below den of the stream ``key + site(*labels)``, for
    ``at = draw_site(den, *labels)``: ``draws([key], at)[0]``."""
    return draws((key,), at)[0]


def draws(keys, at: tuple) -> list[int]:
    """``[draw(key, at) for key in keys]``: one site's draw under each root key.

    One hash of block 0 per key; only a rejected block reads on to blocks 1, 2, ...
    """
    suffix, den, size, limit = at
    shake, from_bytes = shake_256, int.from_bytes
    return [
        u % den
        if (u := from_bytes(shake(key + suffix).digest(size), "big")) < limit
        else _read_on(key + suffix[:-8], den, size, limit)
        for key in keys
    ]


def _read_on(prefix: bytes, den: int, size: int, limit: int) -> int:
    """The draw of a stream ``prefix`` whose block 0 was rejected: its first
    accepted block from block 1 on."""
    block = 1
    while True:
        u = int.from_bytes(shake_256(prefix + block.to_bytes(8, "big")).digest(size), "big")
        if u < limit:
            return u % den
        block += 1


def site(*labels) -> bytes:
    """The label text ``|repr(label)|...`` as UTF-8."""
    return "".join("|" + repr(label) for label in labels).encode("utf-8")


def _key(seed: int, labels) -> bytes:
    """The label text ``repr(seed)|repr(label)|...`` as UTF-8: the root key, then ``site``."""
    root = repr(int(seed)).encode("utf-8")
    return root + site(*labels) if labels else root


def stream(seed: int, *labels) -> bytes:
    """The key of the stream of one labeled decision site: ``repr(seed)|repr(label)|...``."""
    return _key(seed, labels)
