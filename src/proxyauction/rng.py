"""Seed-derived per-stage random streams.

Every random decision in the pipeline draws from its own stream, derived by
hashing the master seed together with a (stage, index) label. Adding new
instrumentation or reordering independent draws therefore never perturbs the
outcome of existing stages.
"""

from __future__ import annotations

import hashlib
import random

SEED_BITS = 64


def derive_seed(seed: int, *labels) -> int:
    """Deterministic child seed from a master seed and a label path."""
    text = repr(int(seed)) + "".join(f"|{label!r}" for label in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream(seed: int, *labels) -> random.Random:
    """Independent generator for one labeled decision site."""
    return random.Random(derive_seed(seed, *labels))
