"""Tests for repro.common: RNG determinism, units, errors."""

import random

import pytest

from repro.common import (
    ConfigurationError,
    DeterministicRng,
    ProgrammingError,
    QueueFullError,
    ReproError,
    SimulationError,
    align_down,
    align_up,
    derive_seed,
    words_in_range,
)

#: randbelow bounds at bit-length edges: powers of two and one past them,
#: where the rejection loop's acceptance rate is highest and lowest.
BIT_LENGTH_EDGES = (1, 2, 8, 9, 23, 31, 65537)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_labels_matter(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_seed_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_boundaries_are_not_ambiguous(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")


class TestDeterministicRng:
    def test_same_labels_same_stream(self):
        a = DeterministicRng(5, "x")
        b = DeterministicRng(5, "x")
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_different_labels_diverge(self):
        a = DeterministicRng(5, "x")
        b = DeterministicRng(5, "y")
        assert [a.randint(0, 1000) for _ in range(10)] != [
            b.randint(0, 1000) for _ in range(10)
        ]

    def test_child_streams_are_independent_of_parent_consumption(self):
        parent = DeterministicRng(5, "p")
        child = parent.child("c")
        first = [child.randint(0, 1000) for _ in range(5)]
        # A fresh child from an identically-consumed parent matches.
        parent2 = DeterministicRng(5, "p")
        child2 = parent2.child("c")
        assert first == [child2.randint(0, 1000) for _ in range(5)]

    def test_chance_extremes(self):
        rng = DeterministicRng(1)
        assert not rng.chance(0.0)
        assert rng.chance(1.0)
        assert not rng.chance(-0.5)
        assert rng.chance(1.5)

    def test_chance_edges_consume_no_draw(self):
        rng = DeterministicRng(9, "edges")
        reference = random.Random(derive_seed(9, "edges"))
        for probability in (0.0, 1.0, -0.5, 1.5):
            rng.chance(probability)
        assert rng.random() == reference.random()
        # Interior probabilities draw exactly one random().
        assert rng.chance(0.3) == (reference.random() < 0.3)
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("n", BIT_LENGTH_EDGES)
    def test_randbelow_matches_stdlib_draw_for_draw(self, n):
        rng = DeterministicRng(3, "below", n)
        reference = random.Random(derive_seed(3, "below", n))
        for _ in range(200):
            assert rng.randbelow(n) == reference.randrange(n)
        assert rng.random() == reference.random()  # Same stream position.

    @pytest.mark.parametrize("n", BIT_LENGTH_EDGES)
    def test_randint_matches_stdlib_draw_for_draw(self, n):
        rng = DeterministicRng(4, "int", n)
        reference = random.Random(derive_seed(4, "int", n))
        for low in (0, 1, -24, 9):
            for _ in range(50):
                assert rng.randint(low, low + n - 1) == reference.randint(
                    low, low + n - 1
                )
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("n", BIT_LENGTH_EDGES)
    def test_choice_matches_stdlib_draw_for_draw(self, n):
        rng = DeterministicRng(5, "choice", n)
        reference = random.Random(derive_seed(5, "choice", n))
        items = list(range(100, 100 + n))
        for _ in range(200):
            assert rng.choice(items) == reference.choice(items)
        assert rng.random() == reference.random()

    def test_empty_ranges_raise(self):
        rng = DeterministicRng(1)
        with pytest.raises(ValueError):
            rng.randint(5, 4)
        with pytest.raises(ValueError):
            rng.randbelow(0)
        with pytest.raises(IndexError):
            rng.choice([])

    def test_geometric_mean_is_roughly_right(self):
        rng = DeterministicRng(3, "geo")
        samples = [rng.geometric(8.0) for _ in range(3000)]
        mean = sum(samples) / len(samples)
        assert 6.5 < mean < 9.5

    def test_geometric_minimum(self):
        rng = DeterministicRng(3)
        assert rng.geometric(0.5) == 1

    def test_pareto_int_minimum(self):
        rng = DeterministicRng(4)
        assert all(rng.pareto_int(16) >= 16 for _ in range(100))


class TestUnits:
    def test_align_down(self):
        assert align_down(13, 4) == 12
        assert align_down(12, 4) == 12
        assert align_down(0, 8) == 0

    def test_align_up(self):
        assert align_up(13, 4) == 16
        assert align_up(12, 4) == 12

    def test_words_in_range_covers_partial_words(self):
        words = list(words_in_range(5, 6))  # Bytes 5..10 span words 4 and 8.
        assert words == [4, 8]

    def test_words_in_range_empty(self):
        assert list(words_in_range(16, 0)) == []

    def test_words_in_range_exact(self):
        assert list(words_in_range(8, 8)) == [8, 12]


class TestErrors:
    @pytest.mark.parametrize(
        "error",
        [ConfigurationError, ProgrammingError, QueueFullError, SimulationError],
    )
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)
