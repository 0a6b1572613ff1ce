import math
from collections import Counter
from fractions import Fraction as F

import pytest

from oracles import bernoulli, categorical
from proxyauction.rng import derive_seed, stream


def test_derive_seed_is_deterministic_and_label_sensitive():
    assert derive_seed(7, "tentative", 0) == derive_seed(7, "tentative", 0)
    assert derive_seed(7, "tentative", 0) != derive_seed(7, "tentative", 1)
    assert derive_seed(7, "tentative", 0) != derive_seed(7, "lottery", 0)
    assert derive_seed(7, "tentative", 0) != derive_seed(8, "tentative", 0)


def test_streams_reproduce():
    a = stream(42, "stage", 3)
    b = stream(42, "stage", 3)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_label_types_matter():
    # "1" and 1 are different decision sites
    assert derive_seed(0, "s", 1) != derive_seed(0, "s", "1")


def test_bernoulli_boundaries():
    r = stream(1, "b")
    assert bernoulli(r, F(1)) is True
    assert bernoulli(r, F(0)) is False
    with pytest.raises(ValueError):
        bernoulli(r, F(3, 2))


def test_bernoulli_frequency_exact_third():
    trials = 30_000
    hits = sum(bernoulli(stream(5, "bern", k), F(1, 3)) for k in range(trials))
    p = 1 / 3
    assert abs(hits / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_categorical_law_with_residual():
    probs = [F(1, 3), F(1, 6)]  # residual mass 1/2 maps to None
    trials = 30_000
    counts = Counter(categorical(stream(9, "cat", k), probs) for k in range(trials))
    for key, prob in ((0, 1 / 3), (1, 1 / 6), (None, 1 / 2)):
        freq = counts[key] / trials
        assert abs(freq - prob) <= 3 * math.sqrt(prob * (1 - prob) / trials), key


def test_categorical_validates_mass():
    with pytest.raises(ValueError):
        categorical(stream(0, "x"), [F(3, 4), F(1, 2)])
    with pytest.raises(ValueError):
        categorical(stream(0, "x"), [F(-1, 4)])


def test_categorical_empty_support_is_residual():
    assert categorical(stream(0, "e"), []) is None
