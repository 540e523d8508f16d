"""Bulk-seeded noise streams must equal ``SeedSequence``-seeded ones.

``NoiseModel.streams`` seeds a whole block of experiments with one
vectorized reimplementation of ``SeedSequence``'s entropy pool.  The
stream definition ``default_rng(SeedSequence((|seed|, experiment +
1_000_003)))`` stays frozen API, so every stream the fast path builds is
checked against it draw for draw: the first normal, two uniforms and a
poisson — the draws the noise process takes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.noise import NoiseModel, seed_states

EXPERIMENTS = range(-1, 201)

#: The 32-bit edges and seeds past them (the ``SeedSequence`` fallback).
EDGE_SEEDS = [0, 2**31 - 2, 2**32 - 1, 2**32, 2**40 + 7, 2**70]


def _draws(rng):
    return (
        rng.standard_normal(),
        rng.random(),
        rng.random(),
        rng.poisson(37.5),
    )


def _reference(seed, experiment):
    return np.random.default_rng(
        np.random.SeedSequence((abs(seed), experiment + 1_000_003))
    )


def _assert_streams_exact(seed, experiments):
    streams = NoiseModel(seed=seed).streams(experiments)
    assert tuple(streams) == tuple(experiments)
    for e, rng in zip(experiments, streams.generators()):
        assert _draws(rng) == _draws(_reference(seed, e)), (seed, e)


class TestBulkSeeding:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seeds(self, seed):
        _assert_streams_exact(seed, EXPERIMENTS)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        first=st.integers(min_value=-1, max_value=200),
        count=st.integers(min_value=1, max_value=70),
    )
    def test_campaign_seeds(self, seed, first, count):
        _assert_streams_exact(seed, range(first, min(first + count, 201)))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=-(2**31), max_value=2**31 - 1),
        experiment=st.integers(min_value=-1, max_value=200),
    )
    def test_rng_for_is_the_frozen_stream(self, seed, experiment):
        rng = NoiseModel(seed=seed).rng_for(experiment)
        assert _draws(rng) == _draws(_reference(seed, experiment))

    @pytest.mark.parametrize("seed", [0, 12345, 2**32 - 1, 2**32 + 1])
    def test_state_words_match_generate_state(self, seed):
        words = [0, 1, 2**31, 2**32 - 1] + [e + 1_000_003 for e in EXPERIMENTS]
        for row, word in zip(seed_states(seed, words), words):
            expected = np.random.SeedSequence((seed, word)).generate_state(
                4, np.uint64
            )
            assert row.tolist() == expected.tolist()

    def test_slices_share_the_block(self):
        model = NoiseModel(seed=77)
        block = model.streams(range(-1, 16))
        part = block[3:9]
        assert tuple(part) == tuple(range(2, 8))
        assert model.streams(part) is part
        assert np.shares_memory(part.states, block.states)
        for e, rng in zip(part, part.generators()):
            assert _draws(rng) == _draws(_reference(77, e))

    def test_other_models_streams_are_reseeded(self):
        block = NoiseModel(seed=1).streams(range(4))
        other = NoiseModel(seed=2)
        assert other.streams(block) is not block
        for e, rng in zip(block, other.streams(block).generators()):
            assert _draws(rng) == _draws(_reference(2, e))

    def test_negative_entropy_still_rejected(self):
        """Out-of-range words take the ``SeedSequence`` path and its errors."""
        with pytest.raises(ValueError):
            NoiseModel(seed=3).rng_for(-2_000_000)

    def test_campaign_seeds_take_the_vectorized_path(self, monkeypatch):
        """Seeds under 2**32 never build a ``SeedSequence``."""
        expected = [
            _draws(rng)
            for rng in NoiseModel(seed=2**31 - 1).streams(range(-1, 65)).generators()
        ]
        monkeypatch.setattr(np.random, "SeedSequence", None)
        block = NoiseModel(seed=2**31 - 1).streams(range(-1, 65))
        assert [_draws(rng) for rng in block.generators()] == expected
