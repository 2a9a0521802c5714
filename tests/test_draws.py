"""The seeded-draw helpers reproduce the `random` calls they replace, value
for value and with the same generator state afterwards.  On a Python whose
`random` draws differently these tests fail before any seeded output
changes silently."""

import random

import pytest

from fiidlab import randbelows, shuffle

SEEDS = [0, 1, 12345, 2**64 + 3]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [0, 1, 1000])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 255, 256, 2**31, 2**32 + 1])
def test_randbelows_equals_randrange(n, count, seed):
    want_rng, got_rng = random.Random(seed), random.Random(seed)
    want = [want_rng.randrange(n) for _ in range(count)]
    got = randbelows(got_rng, n, count)
    assert got == want
    assert got_rng.getstate() == want_rng.getstate()


def test_randbelows_empty_range():
    assert randbelows(random.Random(0), 0, 0) == []
    with pytest.raises(ValueError):
        randbelows(random.Random(0), 0, 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 17, 1000])
def test_shuffle_equals_random_shuffle(length, seed):
    want_rng, got_rng = random.Random(seed), random.Random(seed)
    want, got = list(range(length)), list(range(length))
    want_rng.shuffle(want)
    shuffle(got_rng, got)
    assert got == want
    assert got_rng.getstate() == want_rng.getstate()
