"""Tests for seeded random streams."""

import pytest

from repro.sim import SeededRng


def test_same_seed_same_sequence():
    a, b = SeededRng(1), SeededRng(1)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a, b = SeededRng(1), SeededRng(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_substream_independent_of_creation_order():
    root1 = SeededRng(9)
    x1 = root1.substream("x")
    y1 = root1.substream("y")
    root2 = SeededRng(9)
    y2 = root2.substream("y")
    x2 = root2.substream("x")
    assert x1.random() == x2.random()
    assert y1.random() == y2.random()


def test_substream_paths_nest():
    a = SeededRng(3).substream("net").substream("latency")
    b = SeededRng(3).substream("net").substream("latency")
    c = SeededRng(3).substream("latency")
    assert a.random() == b.random()
    assert a.name == "root/net/latency"
    assert c.name != a.name


def test_exponential_positive_and_mean_reasonable():
    rng = SeededRng(4)
    draws = [rng.exponential(10.0) for _ in range(2000)]
    assert all(d > 0 for d in draws)
    mean = sum(draws) / len(draws)
    assert 8.0 < mean < 12.0


def test_exponential_rejects_bad_mean():
    with pytest.raises(ValueError):
        SeededRng(1).exponential(0.0)


def test_chance_bounds():
    rng = SeededRng(5)
    assert not any(rng.chance(0.0) for _ in range(100))
    assert all(rng.chance(1.0 - 1e-12) for _ in range(100))
    with pytest.raises(ValueError):
        rng.chance(1.5)


def test_uniform_within_bounds():
    rng = SeededRng(6)
    for _ in range(100):
        v = rng.uniform(2.0, 3.0)
        assert 2.0 <= v <= 3.0


def test_shuffled_does_not_mutate_input():
    rng = SeededRng(7)
    original = [1, 2, 3, 4, 5]
    shuffled = rng.shuffled(original)
    assert original == [1, 2, 3, 4, 5]
    assert sorted(shuffled) == original


def test_choice_picks_from_the_population():
    rng = SeededRng(8)
    population = list(range(20))
    assert rng.choice(population) in population
