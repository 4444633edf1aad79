"""Tests for time units and the seeded RNG."""

import pytest

from repro.sim import MS, SEC, US, SeededRng


def test_unit_constants_ratio():
    assert US == 1_000
    assert MS == 1_000 * US
    assert SEC == 1_000 * MS


def test_rng_is_deterministic():
    a = SeededRng(42)
    b = SeededRng(42)
    assert [a.uniform_int(0, 100) for _ in range(20)] == [
        b.uniform_int(0, 100) for _ in range(20)]


def test_rng_different_seeds_differ():
    a = SeededRng(1)
    b = SeededRng(2)
    assert [a.uniform_int(0, 10**9) for _ in range(5)] != [
        b.uniform_int(0, 10**9) for _ in range(5)]


def test_fork_is_deterministic_and_independent():
    parent1 = SeededRng(7)
    parent2 = SeededRng(7)
    child1 = parent1.fork("flow-a")
    child2 = parent2.fork("flow-a")
    other = parent1.fork("flow-b")
    seq1 = [child1.random() for _ in range(5)]
    seq2 = [child2.random() for _ in range(5)]
    seq_other = [other.random() for _ in range(5)]
    assert seq1 == seq2
    assert seq1 != seq_other


def test_exponential_mean_zero_is_zero():
    rng = SeededRng(0)
    assert rng.exponential(0.0) == 0.0


def test_exponential_positive():
    rng = SeededRng(0)
    draws = [rng.exponential(100.0) for _ in range(100)]
    assert all(d >= 0 for d in draws)
    mean = sum(draws) / len(draws)
    assert 50 < mean < 200  # loose sanity bound


def test_zipf_index_bounds():
    rng = SeededRng(3)
    for _ in range(200):
        idx = rng.zipf_index(100)
        assert 0 <= idx < 100


def test_zipf_index_skews_to_low_indices():
    rng = SeededRng(3)
    draws = [rng.zipf_index(1000, skew=0.99) for _ in range(2000)]
    low = sum(1 for d in draws if d < 100)
    assert low > len(draws) // 2


def test_zipf_index_single_item():
    rng = SeededRng(0)
    assert rng.zipf_index(1) == 0


def test_zipf_index_invalid_n():
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        rng.zipf_index(0)
