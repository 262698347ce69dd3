"""The sessions' variate stream, mubqkd.stream.Draws: numpy's PCG64 words
and Generator draws, draw for draw, and skip(k) against k pops."""

import numpy as np
import pytest

from mubqkd.stream import _BLOCK_WORDS, Draws, _seed_state

DRAW_HIGHS = [1, 2, 3, 7, 243, 244, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 1, 2 ** 32]


def test_draws_match_generator():
    for seed in range(100):
        draws, gen = Draws(seed), np.random.default_rng(seed)
        calls = np.random.default_rng(10_000 + seed).integers(len(DRAW_HIGHS) + 1, size=500)
        for k in calls.tolist():
            if k == len(DRAW_HIGHS):
                assert draws.random() == gen.random()
            else:
                high = DRAW_HIGHS[k]
                assert draws.integers(high) == int(gen.integers(high)), (seed, high)
    with pytest.raises(ValueError):
        Draws(0).integers(2 ** 32 + 1)


STREAM_SEEDS = [*range(100), 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 128 + 1, 10 ** 40]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_draws_words_match_pcg64(seed):
    bits = np.random.PCG64(seed)
    assert _seed_state(seed) == (bits.state["state"]["state"], bits.state["state"]["inc"])
    draws = Draws(seed)
    words = draws.words[::-1]
    for _ in range(3):
        words.append(draws.refill())
        words += draws.words[::-1]
    assert words == bits.random_raw(4 * _BLOCK_WORDS).tolist()


def test_draws_match_generator_across_blocks():
    pending_refills = 0
    for seed in (0, 5, 2 ** 64, 10 ** 40):
        draws, gen = Draws(seed), np.random.default_rng(seed)
        calls = np.random.default_rng(20_000 + seed).integers(len(DRAW_HIGHS) + 1, size=20_000)
        for k in calls.tolist():
            pending_refills += not draws.words and draws._half is not None
            if k == len(DRAW_HIGHS):
                assert draws.random() == gen.random()
            else:
                high = DRAW_HIGHS[k]
                assert draws.integers(high) == int(gen.integers(high)), (seed, high)
    assert pending_refills > 0


def test_draws_refuse_bad_seeds():
    with pytest.raises(ValueError, match="non-negative"):
        Draws(-1)
    for seed in (None, 1.0, np.zeros(2, dtype=np.uint32), np.random.SeedSequence(0)):
        with pytest.raises(TypeError):
            Draws(seed)


@pytest.mark.parametrize("d, seed", [(9, 0), (81, 9), (125, 2 ** 40), (125, 3)])
def test_draws_match_sized_generator_draws_in_verify_order(d, seed):
    draws, gen = Draws(seed), np.random.default_rng(seed)
    for width in (4, 3, 4):
        assert gen.integers(0, d, size=(201, width)).tolist() == [
            [draws.integers(d) for _ in range(width)] for _ in range(201)]
    for _ in range(20):
        assert [draws.integers(d), draws.integers(d), draws.random(), draws.random()] == [
            int(gen.integers(d)), int(gen.integers(d)), gen.random(), gen.random()]


OUTCOME_DS = [1, 2, 3, 7, 243, 59_049, 1_048_573]


def test_outcome_takes_the_word_random_takes():
    """outcome(d) equals floor(random() * 2**53) * d >> 53 on a Draws of the
    same seed, across block refills and with a kept 32-bit half pending, and
    leaves the same next draws."""
    pending = 0
    for seed in (0, 7, 2 ** 64):
        draws, ref, refills = Draws(seed), Draws(seed), 0
        gen = np.random.default_rng(30_000 + seed)
        for kind, d in zip(gen.integers(3, size=12_000).tolist(),
                           gen.choice(OUTCOME_DS, size=12_000).tolist()):
            left = len(draws.words)
            if kind == 0:
                assert draws.integers(d) == ref.integers(d)
            elif kind == 1:
                assert draws.random() == ref.random()
            else:
                pending += draws._half is not None
                assert draws.outcome(d) == int(ref.random() * (1 << 53)) * d >> 53, (seed, d)
            refills += len(draws.words) > left
        assert [draws.integers(7), draws.integers(7), draws.random()] == [
            ref.integers(7), ref.integers(7), ref.random()]
        assert refills >= 2, seed
    assert pending > 0


def _pops(draws, k):
    return [draws.words.pop() if draws.words else draws.refill() for _ in range(k)]


@pytest.mark.parametrize("seed", [0, 7, 2 ** 70])
def test_skip_equals_pops(seed):
    """skip(k) leaves the same next integers(7), from the kept 32-bit half
    of an odd number of 32-bit draws, and the same next 5,000 words as k
    pops: within the block, one past it, ending on a block boundary and
    over whole blocks.  It empties and fills words in place."""
    left = len(Draws(seed).words) - 3       # the five 32-bit draws below take three words
    for k in (0, 1, left, left + 1, left + _BLOCK_WORDS, 3 * _BLOCK_WORDS + 17, 10 ** 5):
        skipped, popped = Draws(seed), Draws(seed)
        for draws in (skipped, popped):
            for _ in range(5):
                draws.integers(2 ** 32)     # one 32-bit half each, never redrawn
            assert draws._half is not None and len(draws.words) == left
        held = skipped.words
        skipped.skip(k)
        _pops(popped, k)
        assert skipped.words is held, k
        assert skipped.integers(7) == popped.integers(7), k
        assert _pops(skipped, 5000) == _pops(popped, 5000), k
    with pytest.raises(ValueError, match="non-negative"):
        Draws(seed).skip(-1)
