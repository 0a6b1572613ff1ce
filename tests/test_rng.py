import math
from collections import Counter
from fractions import Fraction as F
from hashlib import sha256, shake_256

import oracles
import pytest
from hypothesis import given, strategies as st

from oracles import bernoulli, categorical, stream_by_definition, stream_key_by_definition
from proxyauction import rng as rngmod
from proxyauction.errors import CapacityError
from proxyauction.rng import derive_seed, derive_seeds, draw, draw_site, site, stream

# labels that compare equal across types but are rendered differently
EQUAL_LABELS = (1, True, 1.0, "1", 0, False, 0.0, -0.0, -3, -3.0, "-3")
LABELS = st.one_of(
    st.sampled_from(EQUAL_LABELS), st.integers(-(2**70), 2**70), st.text(max_size=4)
)


@given(
    seed=st.integers(0, 2**64 - 1),
    labels=st.lists(LABELS, max_size=4),
    warm=st.permutations(EQUAL_LABELS),
)
def test_stream_key_is_the_label_text(seed, labels, warm):
    # labels equal to, but not the same as, the ones checked are keyed
    # first: 1.0 and True before 1, -0.0 before 0.0, ...
    for label in warm:
        stream(seed, "warm", label)
    for label in [*warm, *labels]:
        assert stream(seed, "warm", label) == stream_key_by_definition(seed, ["warm", label])
    key = stream_key_by_definition(seed, labels)
    assert stream(seed, *labels) == key
    # a site under the seed's root stream has the key of the full label path
    assert stream(seed) + site(*labels) == key
    assert derive_seed(seed, *labels) == int.from_bytes(sha256(key).digest()[:8], "big")


@given(
    seed=st.integers(0, 2**64 - 1),
    pairs=st.lists(st.tuples(st.text(max_size=3), st.integers()), max_size=3),
)
def test_stream_key_of_str_int_pairs(seed, pairs):
    labels = [part for pair in pairs for part in pair]
    assert stream(seed, *labels) == stream_key_by_definition(seed, labels)
    # the same text and number, swapped in type, name another site
    swapped = [str(x) if isinstance(x, int) else x for x in labels]
    if swapped != labels:
        assert stream(seed, *swapped) != stream(seed, *labels)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("label", ["replication", "halt-trial", 3])
def test_derive_seeds_equals_derive_seed_for_every_index(seed, label):
    # 1000 is the replicate count
    got = derive_seeds(seed, label, 1300)
    assert got == [derive_seed(seed, label, r) for r in range(1300)]
    assert derive_seeds(seed, label, 0) == []


def test_derive_seeds_refuses_a_count_past_the_cap_before_hashing(monkeypatch):
    assert len(derive_seeds(0, "replication", rngmod.SAMPLE_CAP)) == rngmod.SAMPLE_CAP

    def no_hash(data):
        raise AssertionError("a refused count hashed a seed")

    monkeypatch.setattr(rngmod, "sha256", no_hash)
    with pytest.raises(CapacityError) as info:
        derive_seeds(0, "replication", rngmod.SAMPLE_CAP + 1)
    assert (info.value.what, info.value.required, info.value.cap) == (
        "derived seeds", 100_001, 100_000,
    )


def test_derive_seed_is_deterministic_and_label_sensitive():
    assert derive_seed(7, "tentative", 0) == derive_seed(7, "tentative", 0)
    assert derive_seed(7, "tentative", 0) != derive_seed(7, "tentative", 1)
    assert derive_seed(7, "tentative", 0) != derive_seed(7, "lottery", 0)
    assert derive_seed(7, "tentative", 0) != derive_seed(8, "tentative", 0)


def draws(seed, *labels, k=5, den=2**64):
    """``rng.draw`` at the sites (*labels, 0) to (*labels, k - 1) under the seed's root key."""
    key = stream(seed)
    return [draw(key, draw_site(den, *labels, r)) for r in range(k)]


def test_streams_reproduce():
    first = draws(42, "stage", 3)
    assert draws(42, "stage", 3) == first
    assert len(set(first)) == len(first)  # each site draws its own value
    for other in (draws(42, "stage", 4), draws(42, "other", 3), draws(43, "stage", 3),
                  draws(42, "stage", "3")):
        assert other != first


def all_ones_first(inputs: list, rejected: int = 1):
    """A stand-in for ``shake_256`` that records each input in ``inputs`` and
    reads its first ``rejected`` blocks as all ones."""

    class AllOnesFirst:
        def __init__(self, data):
            inputs.append(data)
            self.data = data

        def digest(self, size):
            return b"\xff" * size if len(inputs) <= rejected else shake_256(self.data).digest(size)

    return AllOnesFirst


def test_randrange_rejects_a_block_past_the_last_whole_multiple(monkeypatch):
    # the reference stream of tests/oracles.py: 2^72 = 1 mod 3, so an all-ones
    # 9-byte block is the one value rejected for den 3
    inputs = []
    monkeypatch.setattr(oracles, "shake_256", all_ones_first(inputs))
    s = stream_by_definition(3, "reject")
    got = s.randrange(3)
    second = s.key + (1).to_bytes(8, "big")
    assert inputs == [s.key + (0).to_bytes(8, "big"), second]
    assert got == int.from_bytes(shake_256(second).digest(9), "big") % 3
    assert s.counter == 2


# 3^700 has 1,110 bits: wider than one SHAKE-256 block of 1,088
DENOMINATORS = st.one_of(st.integers(2, 2**70), st.sampled_from([3, 2**64, 3**300, 3**700]))


@given(seed=st.integers(0, 2**64 - 1), labels=st.lists(LABELS, max_size=3), den=DENOMINATORS)
def test_a_site_draw_is_the_site_streams_first_draw(seed, labels, den):
    at = draw_site(den, *labels)
    assert at[0] == site(*labels) + bytes(8)
    assert draw(stream(seed), at) == stream_by_definition(seed, *labels).randrange(den)


def test_a_site_draw_reads_on_after_a_rejected_first_block(monkeypatch):
    # as in the reference's test: all ones is the value rejected for den 3
    key = stream(3) + site("reject")
    for rejected in (1, 2):
        package, reference = [], []
        monkeypatch.setattr(rngmod, "shake_256", all_ones_first(package, rejected))
        monkeypatch.setattr(oracles, "shake_256", all_ones_first(reference, rejected))
        got = draw(stream(3), draw_site(3, "reject"))
        assert package == [key + k.to_bytes(8, "big") for k in range(rejected + 1)]
        assert got == stream_by_definition(3, "reject").randrange(3)
        assert reference == package


@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), max_size=12),
    labels=st.lists(LABELS, max_size=3),
    den=DENOMINATORS,
)
def test_a_sites_draws_over_many_keys_are_its_draws_key_by_key(seeds, labels, den):
    at = draw_site(den, *labels)
    keys = [stream(seed) for seed in seeds]
    assert rngmod.draws(keys, at) == [draw(key, at) for key in keys]


def test_draws_over_many_keys_read_on_after_a_rejected_first_block(monkeypatch):
    # the first blocks hashed read as all ones, the value rejected for den 3:
    # the first key's draw reads on to its next blocks, the others' their block 0
    at = draw_site(3, "reject")
    keys = [stream(seed) for seed in range(4)]
    first = keys[0] + site("reject")
    for rejected in (1, 2):
        batch, one_by_one = [], []
        monkeypatch.setattr(rngmod, "shake_256", all_ones_first(batch, rejected))
        got = rngmod.draws(keys, at)
        monkeypatch.setattr(rngmod, "shake_256", all_ones_first(one_by_one, rejected))
        assert got == [draw(key, at) for key in keys]
        assert batch == one_by_one
        assert batch[: rejected + 1] == [first + k.to_bytes(8, "big") for k in range(rejected + 1)]
        assert len(batch) == rejected + len(keys)  # no block is hashed twice


def test_randrange_wider_than_one_sha_block():
    den = 3**300  # 476 bits, wider than a 256-bit digest
    a, b = draws(11, "wide", k=3, den=den), draws(11, "wide", k=3, den=den)
    assert a == b
    assert all(0 <= u < den for u in a)
    assert len(set(a)) == 3
    assert max(a).bit_length() > 256


def test_randrange_edge_denominators():
    # the reference stream's edges; the package draws only below den >= 2
    s = stream_by_definition(0, "one")
    assert [s.randrange(1) for _ in range(5)] == [0] * 5
    for den in (0, -1):
        with pytest.raises(ValueError):
            stream_by_definition(0, "zero").randrange(den)


def test_a_certain_draw_reads_no_block(monkeypatch):
    def no_block(data):
        raise AssertionError("a draw below 1 hashed a block")

    monkeypatch.setattr(oracles, "shake_256", no_block)
    s = stream_by_definition(5, "certain")
    assert [s.randrange(1) for _ in range(3)] == [0, 0, 0]
    assert s.counter == 0


@pytest.mark.parametrize("den", [3, 7, 360])
def test_randrange_frequency(den):
    trials = 30_000
    key = stream(13)
    counts = Counter(draw(key, draw_site(den, "uniform", den, k)) for k in range(trials))
    assert set(counts) <= set(range(den))
    p = 1 / den
    # 4.5 sigma per value, so a false alarm over all 370 values tested stays rare
    for value in range(den):
        freq = counts[value] / trials
        assert abs(freq - p) <= 4.5 * math.sqrt(p * (1 - p) / trials), value


def test_label_types_matter():
    # "1" and 1 are different decision sites
    assert derive_seed(0, "s", 1) != derive_seed(0, "s", "1")


def test_bernoulli_boundaries():
    r = stream_by_definition(1, "b")
    assert bernoulli(r, F(1)) is True
    assert bernoulli(r, F(0)) is False
    with pytest.raises(ValueError):
        bernoulli(r, F(3, 2))


def test_bernoulli_frequency_exact_third():
    trials = 30_000
    hits = sum(bernoulli(stream_by_definition(5, "bern", k), F(1, 3)) for k in range(trials))
    p = 1 / 3
    assert abs(hits / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_categorical_law_with_residual():
    probs = [F(1, 3), F(1, 6)]  # residual mass 1/2 maps to None
    trials = 30_000
    counts = Counter(categorical(stream_by_definition(9, "cat", k), probs) for k in range(trials))
    for key, prob in ((0, 1 / 3), (1, 1 / 6), (None, 1 / 2)):
        freq = counts[key] / trials
        assert abs(freq - prob) <= 3 * math.sqrt(prob * (1 - prob) / trials), key


def test_categorical_validates_mass():
    with pytest.raises(ValueError):
        categorical(stream_by_definition(0, "x"), [F(3, 4), F(1, 2)])
    with pytest.raises(ValueError):
        categorical(stream_by_definition(0, "x"), [F(-1, 4)])


def test_categorical_empty_support_is_residual():
    assert categorical(stream_by_definition(0, "e"), []) is None
