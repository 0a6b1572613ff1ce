"""Seed-derived exact uniform draws: one SHAKE-256 read per sample.

Every random decision of a sample is a site, named by a (stage, index)
label path. A key is the label text ``stream(seed, *labels)``,
``repr(seed)|repr(label)|...`` as UTF-8, so ``1`` and ``"1"`` name different
sites; a sample's root key is ``stream(seed)`` and ``site(*labels)`` the rest.

Layout. A sample reads its root key's XOF once,
``shake_256(stream(seed)).digest(16 * (2n + m))`` for n bidders and m items,
and each site owns one 16-byte word of it: bidder i's step-3 (tentative)
draw word i, item j's step-6 lottery word n + j, bidder i's step-7 cancel
word n + m + i (``SAMPLE_STREAM`` names this in run reports). SHAKE's output
is prefix-stable (FIPS 202), so each draw is a pure function of (root key,
site), as in a counter-based generator (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11): a run's draws can be made in any
order, site by site over all of its samples, and each is the same integer.

Draw rule. A draw below ``den >= 2`` reads ``size = ceil((den.bit_length()
+ 64) / 8)`` bytes as a big-endian integer u and accepts u below the
rejection limit ``floor(2^(8 size) / den) * den``; the draw is ``u mod den``.
A site reads u from the front of its word, which holds ``size`` bytes for
every den below 2^64. A rejected word (probability below 2^-64), or a den
of 2^64 or more, falls back to the site's labelled stream
``stream(seed, stage, index)``: block k, from k = 0, hashes the stream's key
followed by k as 8 big-endian bytes with SHAKE-256 and reads u by the same
rule, moving to block k + 1 on a rejection. A root key holds no ``|`` and a
labelled key does, so no block's input is a sample's XOF input.

Why it is exact. Given acceptance, u is uniform below the limit, a multiple
of den, so ``u mod den`` is uniform below den. A rejected word moves to a
stream that is independent of every word and of every other site's stream
and accepts with probability 1, so the draw is uniform either way; distinct
sites read disjoint words and distinct streams, so they are independent. A
draw with ``den = 1`` is certain: it is 0 and no site is listed for it.

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
# bytes per site word of a sample's XOF read
WORD = 16
SAMPLE_STREAM = "shake256 root-key XOF, 16-byte words: tentative i, lottery n+j, cancel n+m+i"


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


def sample_words(keys, n: int, m: int) -> list[tuple[bytes, bytes]]:
    """Each root key with its one XOF read of the 2n + m words of an auction
    with n bidders and m items: the samples ``word_draws`` reads."""
    size = WORD * (2 * n + m)
    return [(key, shake_256(key).digest(size)) for key in keys]


def word_site(den: int, n: int, m: int, stage: str, index: int) -> tuple:
    """The site (stage, index) of an auction with n bidders and m items, drawing
    below ``den >= 2``: (word start, block end, den, word rejection limit,
    labelled ``draw_site``).

    A den whose block is wider than a word has word limit 0: it always falls back.
    """
    size, limit = _block_bounds(den)
    start = WORD * (index + {"tentative": 0, "lottery": n, "cancel": n + m}[stage])
    if size > WORD:
        size, limit = WORD, 0
    return (start, start + size, den, limit, draw_site(den, stage, index))


def word_draws(samples, at: tuple) -> list[int]:
    """One site's draw in each of ``samples``, ``sample_words`` pairs, for ``at = word_site(...)``.

    Only a rejected word reads the site's labelled stream (``draw``).
    """
    start, end, den, limit, labelled = at
    from_bytes = int.from_bytes
    return [
        u % den if (u := from_bytes(words[start:end], "big")) < limit else draw(key, labelled)
        for key, words in samples
    ]


def draw_site(den: int, *labels) -> tuple[bytes, int, int, int]:
    """(``site(*labels)``, den, block size, rejection limit) for den >= 2."""
    return (site(*labels), den, *_block_bounds(den))


def draw(key: bytes, at: tuple) -> int:
    """The first draw below den of the labelled stream ``key + site(*labels)``,
    for ``at = draw_site(den, *labels)``: its first accepted block from block 0 on."""
    suffix, den, size, limit = at
    prefix = key + suffix
    block = 0
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
    """The key of a sample's root (no labels) or of one site's labelled stream:
    ``repr(seed)|repr(label)|...``."""
    return _key(seed, labels)
