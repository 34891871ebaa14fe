"""Each shot's stream, on both of `_shot_words`' paths, against numpy's own.

`backends._shot_words(seed, shots, count)` must give every shot the raw
PCG64 outputs of `default_rng([seed, shot])`.  Runs of more than
`_PER_SHOT_MAX` shots take the array pass, which hashes every shot at once
(`_pcg64_words`) and jumps the LCG ahead to each output; fewer take
`_per_shot_words`, the same hash and LCG on Python ints, one shot at a time.
From those words the stabilizer backend reads its `integers(0, 2)` draws (the
top bit of each 32-bit half, low half first) and the dense backends their
`random()` floats (the top 53 bits); both must equal numpy's scalar draws.
These tests catch numpy changing its seeding, its PCG64 or its `integers`
algorithm, and either path drifting from the other.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bladesim.backends
from bladesim import parse, run
from bladesim.backends import _PER_SHOT_MAX, BACKENDS, _pcg64_words, _shot_words
from bladesim.circuit import MAX_SHOTS
from oracles import _shot_rng

SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**130)
SHOTS = 301
MAX_DRAWS = 130
ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "circuits").glob("*.qc"))


def test_streams_equal_default_rng_for_every_shot():
    for seed in SEEDS:
        words = _shot_words(seed, SHOTS, MAX_DRAWS // 2)
        assert words.shape == (SHOTS, MAX_DRAWS // 2) and words.dtype == np.uint64
        for shot, row in enumerate(words):
            rng = _shot_rng(seed, shot)
            assert np.array_equal(row, rng.bit_generator.random_raw(MAX_DRAWS // 2)), (seed, shot)
            draws = 1 + shot % MAX_DRAWS
            halves = [int(row[r // 2]) >> (32 * (r % 2)) & 0xFFFFFFFF for r in range(draws)]
            rng = _shot_rng(seed, shot)
            assert [h >> 31 for h in halves] == [int(rng.integers(0, 2)) for _ in range(draws)], (seed, shot)


def test_batched_random_equals_scalar_draws():
    # the dense backends read a shot's m-th random() as the top 53 bits of its m-th output
    for seed in SEEDS:
        u = (_shot_words(seed, SHOTS, MAX_DRAWS) >> 11) * 2.0**-53
        for shot, row in enumerate(u):
            rng, k = _shot_rng(seed, shot), 1 + shot % MAX_DRAWS
            assert row[:k].tolist() == [rng.random() for _ in range(k)], (seed, shot)


def test_streams_equal_default_rng_at_high_shot_indices():
    # PCG64 is seeded from these four words alone, so equal words give equal streams
    shots = (2**31, 2**32 - 1)
    for seed in SEEDS:
        for shot, words in zip(shots, _pcg64_words(seed, np.array(shots))):
            want = _shot_rng(seed, shot).bit_generator.seed_seq.generate_state(4, np.uint64)
            assert np.array_equal(words, want), (seed, shot)


@pytest.mark.parametrize("limit", [1, 7, 64])
def test_chunks_equal_the_unchunked_array(monkeypatch, limit):
    want = {count: _shot_words(2**64 + 3, SHOTS, count) for count in (1, 3, 65)}
    monkeypatch.setattr(bladesim.backends, "MAX_SHOTS", limit)
    for count, words in want.items():
        assert np.array_equal(_shot_words(2**64 + 3, SHOTS, count), words), (limit, count)


def test_streams_cross_a_chunk_boundary():
    # 4096 outputs per shot make a chunk of 2^20 // 4096 = 256 shots, so 300 shots take two
    count, shots = 4096, 300
    assert bladesim.backends.MAX_SHOTS // count == 256
    for seed in (0, 2**64 + 3):
        words = _shot_words(seed, shots, count)
        assert words.shape == (shots, count) and words.dtype == np.uint64
        for shot in range(shots):
            assert np.array_equal(words[shot], _shot_rng(seed, shot).bit_generator.random_raw(count)), (seed, shot)


@pytest.mark.parametrize("limit", [0, MAX_SHOTS], ids=["array-pass", "per-shot"])
def test_both_paths_equal_default_rng_across_the_crossover(monkeypatch, limit):
    # every seed's word layout, the 2^130 seed's extra entropy words included
    monkeypatch.setattr(bladesim.backends, "_PER_SHOT_MAX", limit)
    for seed in SEEDS:
        for shots in range(1, _PER_SHOT_MAX + 3):
            for count in (1, 2, 19, 65, 500):
                words = _shot_words(seed, shots, count)
                assert words.shape == (shots, count) and words.dtype == np.uint64
                for shot, row in enumerate(words):
                    want = _shot_rng(seed, shot).bit_generator.random_raw(count)
                    assert np.array_equal(row, want), (seed, shots, count, shot)


@pytest.mark.parametrize(
    "shots, count, hashed",
    [(2, 1, False), (24, 22, True), (2000, 1, True), (400, 3, True), (500, 2, True)],
    ids=["wide-gates", "wide-measure", "many-shots", "dense", "validate"],
)
def test_benchmark_shapes_take_their_faster_path(monkeypatch, shots, count, hashed):
    hashed_shots = []

    def counted(seed, indices):
        hashed_shots.extend(indices.tolist())
        return _pcg64_words(seed, indices)

    monkeypatch.setattr(bladesim.backends, "_pcg64_words", counted)
    assert _shot_words(3, shots, count).shape == (shots, count)
    assert hashed_shots == (list(range(shots)) if hashed else [])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_few_shot_runs_are_prefixes_of_a_64_shot_run(backend, path):
    # shot s's record depends on (seed, s) alone, whichever path drew its stream
    circuit = parse(path.read_text(encoding="utf-8"))
    for seed in range(4):
        want = run(circuit, backend, shots=64, seed=seed)["records"]
        for k in range(1, _PER_SHOT_MAX + 2):
            assert np.array_equal(run(circuit, backend, shots=k, seed=seed)["records"], want[:k]), (seed, k)


def test_nothing_to_draw_hashes_nothing(monkeypatch):
    def no_hash(*args):
        raise AssertionError("seed words hashed with nothing to draw")

    monkeypatch.setattr(bladesim.backends, "_pcg64_words", no_hash)
    monkeypatch.setattr(bladesim.backends, "_per_shot_words", no_hash)
    assert _shot_words(5, 3, 0).shape == (3, 0)
    assert _shot_words(5, 1000, 0).shape == (1000, 0)
    certain = parse("qubits 2\nx 0\ncnot 0 1\nmeasure 0\nmeasure 1\n")
    assert run(certain, "stabilizer", shots=4, seed=5)["records"].tolist() == [[1, 1]] * 4
    unmeasured = parse("qubits 2\nh 0\ncnot 0 1\n")
    for backend in ("dense-clifford", "statevector"):
        assert run(unmeasured, backend, shots=4, seed=5)["records"].tolist() == [[]] * 4


def test_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError, match="non-negative"):
        _shot_rng(-1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        _shot_words(-1, 1, 1)


def test_runs_do_not_import_numpy_random():
    script = (
        "import sys\n"
        "from bladesim import parse, run, validate\n"
        "c = parse(open('circuits/teleport_like.qc').read())\n"
        "for backend in ('stabilizer', 'dense-clifford', 'statevector'):\n"
        "    run(c, backend, shots=100, seed=3)\n"
        "assert validate(c, shots=100, seed=3)['passed']\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
