"""Each shot's stream, seeded for all shots in one vectorized pass, against numpy's own.

`backends._shot_streams(seed, shots)` must hand every shot the very stream
`default_rng([seed, shot])` builds: the same PCG64 state, and so the same
`integers(0, 2)` bits, scalar or batched, and the same `random()` floats,
one by one or batched.
"""

import numpy as np
import pytest

from bladesim.backends import _pcg64_words, _shot_streams, _words_sequence
from oracles import _shot_rng

SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**130)


def _assert_same_stream(rng, ref, draws: int, where):
    assert rng.bit_generator.state == ref.bit_generator.state, where
    scalar = [int(rng.integers(0, 2)) for _ in range(draws)]
    assert scalar == [int(ref.integers(0, 2)) for _ in range(draws)], where
    assert np.array_equal(rng.integers(0, 2, size=draws), ref.integers(0, 2, size=draws)), where
    assert rng.random() == ref.random(), where
    assert rng.bit_generator.state == ref.bit_generator.state, where


def test_streams_equal_default_rng_for_every_shot():
    for seed in SEEDS:
        streams = list(_shot_streams(seed, 301))
        assert len(streams) == 301
        for shot, rng in enumerate(streams):
            _assert_same_stream(rng, _shot_rng(seed, shot), 1 + shot % 130, (seed, shot))


def test_streams_equal_default_rng_at_high_shot_indices():
    shots = (2**31, 2**32 - 1)
    for seed in SEEDS:
        for shot, words in zip(shots, _pcg64_words(seed, np.array(shots))):
            rng = np.random.Generator(np.random.PCG64(_words_sequence()(words)))
            _assert_same_stream(rng, _shot_rng(seed, shot), 130, (seed, shot))


def test_batched_random_equals_scalar_draws():
    # the dense backends read a shot's m-th random() from one rng.random(measure_count)
    for seed in (0, 3, 2**64 + 3):
        for shot in (0, 1, 499):
            for k in range(1, 131):
                rng = _shot_rng(seed, shot)
                assert _shot_rng(seed, shot).random(k).tolist() == [rng.random() for _ in range(k)], (seed, shot, k)


def test_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError, match="non-negative"):
        _shot_rng(-1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        next(_shot_streams(-1, 1))
