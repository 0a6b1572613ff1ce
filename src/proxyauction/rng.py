"""Seed-derived per-site counter streams of exact uniform integers.

Every random decision in the pipeline draws from its own stream, named by
the master seed together with a (stage, index) label path. Adding new
instrumentation or reordering independent draws therefore never perturbs the
outcome of existing stages.

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
2^-64.
"""

from __future__ import annotations

from hashlib import sha256, shake_256


def _label_text(seed: int, labels) -> str:
    return "|".join([repr(int(seed)), *map(repr, labels)])


def derive_seed(seed: int, *labels) -> int:
    """Deterministic child seed from a master seed and a label path."""
    digest = sha256(_label_text(seed, labels).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


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
        size = (den.bit_length() + 71) // 8
        limit = (1 << (8 * size)) // den * den
        while True:
            block = shake_256(self.key + self.counter.to_bytes(8, "big")).digest(size)
            self.counter += 1
            u = int.from_bytes(block, "big")
            if u < limit:
                return u % den


def stream(seed: int, *labels) -> Stream:
    """Independent stream for one labeled decision site."""
    return Stream(_label_text(seed, labels).encode("utf-8"))
