"""The seeded-draw helpers reproduce the `random` calls they replace, value
for value and with the same generator state afterwards.  On a Python whose
`random` draws differently these tests fail before any seeded output
changes silently.

The whole-word fast paths (bulk `randbelows`, the search's windowed witness
reservoir and the chunked alphabet Monte Carlo) are also held to the
per-call loops they replaced, which are kept here as references."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiidlab
from fiidlab import entropy, graphs, homsearch, randbelows, rules, shuffle

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


def per_call_randbelows(rng, n, count):
    """One getrandbits call per draw, as randrange makes them."""
    k = n.bit_length()
    out = []
    while len(out) < count:
        j = rng.getrandbits(k)
        if j < n:
            out.append(j)
    return out


@pytest.mark.parametrize("n", range(1, 257))
def test_bulk_randbelows_equals_the_per_call_draws(n):
    for seed in (n, 2**40 + n):
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        for count in (0, 1, 7, 300):
            assert randbelows(got_rng, n, count) == per_call_randbelows(want_rng, n, count)
            assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("n", range(1, 256))
def test_randbelow_bytes_are_the_per_call_draws(n):
    for seed in (n, 2**40 + n):
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        for count in (0, 1, 7, 300):
            got = fiidlab.randbelow_bytes(got_rng, n, count)
            assert type(got) is bytearray
            assert list(got) == per_call_randbelows(want_rng, n, count)
            assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("n", [1, 3, 129, 255])
def test_bulk_randbelows_across_bulk_calls(n):
    # more values than one bulk call draws words, so the draw runs in batches
    count = 3 * fiidlab._BULK_WORDS + 5
    want_rng, got_rng = random.Random(n), random.Random(n)
    assert randbelows(got_rng, n, count) == per_call_randbelows(want_rng, n, count)
    assert got_rng.getstate() == want_rng.getstate()


def test_draw_words_are_the_per_call_words():
    want_rng, got_rng = random.Random(5), random.Random(5)
    words = fiidlab.draw_words(got_rng, 100)
    want = [want_rng.getrandbits(32) for _ in range(100)]
    assert [int.from_bytes(words[4 * i : 4 * i + 4], "little") for i in range(100)] == want
    assert list(words[3::4]) == [w >> 24 for w in want]
    assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 17, 1000])
def test_shuffle_equals_random_shuffle(length, seed):
    want_rng, got_rng = random.Random(seed), random.Random(seed)
    want, got = list(range(length)), list(range(length))
    want_rng.shuffle(want)
    shuffle(got_rng, got)
    assert got == want
    assert got_rng.getstate() == want_rng.getstate()


# ---------------------------------------------------------------------------
# the witness reservoir


def peek_word(rng):
    """The generator's next 32-bit output, leaving rng as it is."""
    copy = random.Random()
    copy.setstate(rng.getstate())
    return copy.getrandbits(32)


def plain_reservoir(seed, cap, calls):
    """Algorithm R over the (lo, hi) calls, one getrandbits call per draw.
    Yields, after each call, the stored rule indices and the next word of
    the generator, which shows how many words the draws took."""
    rng = random.Random(seed)
    stored = []
    for lo, hi in calls:
        stored.extend(range(lo, min(hi, cap)))
        for i in range(max(lo, cap), hi):
            k = (i + 1).bit_length()
            j = rng.getrandbits(k)
            while j > i:
                j = rng.getrandbits(k)
            if j < cap:
                stored[j] = i
        yield list(stored), peek_word(rng)


def windowed_reservoir(seed, cap, total, calls):
    """As plain_reservoir, for the search's reservoir: its next word is the
    first buffered word not read, or the generator's next one."""
    reservoir = homsearch._Reservoir(seed, cap, total)
    for lo, hi in calls:
        reservoir.refute(lo, hi)
        if reservoir.pos < len(reservoir.tops):
            word = reservoir.values[reservoir.pos]
        else:
            word = peek_word(reservoir.rng)
        yield list(reservoir.stored), word


def blocks(seed, total, sizes):
    """(lo, hi) calls covering 0..total-1 in blocks of sizes drawn from `sizes`."""
    rng = random.Random(seed)
    lo, calls = 0, []
    while lo < total:
        hi = min(total, lo + rng.choice(sizes))
        calls.append((lo, hi))
        lo = hi
    return calls


def test_plain_reservoir_is_one_randrange_per_rule():
    cap, total = 50, 5000
    rng = random.Random(8)
    stored = list(range(cap))
    for i in range(cap, total):
        j = rng.randrange(i + 1)
        if j < cap:
            stored[j] = i
    assert list(plain_reservoir(8, cap, [(0, total)]))[-1][0] == stored


@pytest.mark.parametrize(
    "seed,cap,sizes",
    [
        (1, 1000, [1, 24, 576, 13824]),
        (2, 1000, [5, 4096, 78125]),
        (3, 0, [1000, 30000]),
        (4, 1, [3, 300, 3000]),
        # lo < cap inside the windowed widths: values below cap are slots
        (5, 50000, [700, 9000, 40000]),
    ],
)
def test_windowed_reservoir_equals_the_plain_loop(seed, cap, sizes):
    # widths 14 to 20; the state after each call is compared, as a Found
    # outcome may end the search after any call
    total = 1 << 20
    calls = blocks(seed, total, sizes)
    assert list(windowed_reservoir(seed, cap, total, calls)) == list(
        plain_reservoir(seed, cap, calls)
    )


@pytest.mark.parametrize("total", [2**32 - 2, 2**32 + 8])
def test_reservoir_at_the_widest_draws(total):
    # rules of width 32 (one whole word) and, in a class of 2**32 - 1 or
    # more rules, of width 33 (two words); stored already holds the first
    # cap rules, so the calls may skip ahead
    calls = [(0, 1000), (total - 3000, total - 1000), (total - 1000, total)]
    assert list(windowed_reservoir(6, 1000, total, calls)) == list(
        plain_reservoir(6, 1000, calls)
    )


def randrange_reservoir(seed, cap, n):
    """Algorithm R over rules 0..n-1 by one randrange call per refuted rule
    past the cap: the stored rules and the generator's next word."""
    rng = random.Random(seed)
    stored = list(range(min(n, cap)))
    for i in range(cap, n):
        j = rng.randrange(i + 1)
        if j < cap:
            stored[j] = i
    return stored, peek_word(rng)


def _near(points):
    return st.sampled_from(points).flatmap(lambda p: st.integers(p - 2, p + 2))


# rule indices where the draws change: the first rule of each bit width
# from 14 bits on (2**15 - 1 is the first of width 16), and the first rule
# of a window of width k, c << (k - 8), for the windowed widths
_CUTS = st.one_of(
    st.integers(0, 1 << 18),
    _near([(1 << k) - 1 for k in range(13, 18)]),
    st.integers(15, 18).flatmap(
        lambda k: _near([c << (k - 8) for c in range(128, 256)])
    ),
)


@settings(max_examples=30, deadline=None)
@given(
    n=st.one_of(st.integers(0, 1 << 18), _CUTS),
    cap=st.sampled_from([1, 2, 1000]),
    seed=st.integers(0, 2**64),
    cuts=st.lists(_CUTS, max_size=40),
)
def test_any_split_of_the_reservoir_calls_changes_nothing(n, cap, seed, cuts):
    # refute calls over consecutive blocks of 0..n-1 draw as one call does,
    # and as one randrange per rule does
    bounds = sorted({0, n, *(x for x in cuts if 0 < x < n)})
    calls = list(zip(bounds, bounds[1:])) or [(0, 0)]
    want = randrange_reservoir(seed, cap, n)
    assert list(windowed_reservoir(seed, cap, n, [(0, n)]))[-1] == want
    assert list(windowed_reservoir(seed, cap, n, calls))[-1] == want


def test_search_of_many_rules_stores_the_plain_loop_witnesses():
    C5 = graphs.named_graph("C5")
    budget = homsearch.SearchBudget(rng_seed=11)
    out = homsearch.search(C5, 3, 1, rules.alphabet(2), budget, force_enumeration=True)
    assert out.kind == "ExhaustedNone" and out.rules_examined == 5**8 > 2**16
    want, _ = list(plain_reservoir(11, homsearch.WITNESS_CAP, [(0, out.rules_examined)]))[-1]
    assert [i for i, _ in out.witnesses] == want


# ---------------------------------------------------------------------------
# chunked alphabet Monte Carlo


def per_sample_pair_counts(rule, n, rng):
    """One configuration per sample, drawn by randrange, counted in order."""
    code_u, code_v = rules.edge_coders(rule.d, rule.t, rule.model)
    size = rules.edge_ball_layout(rule.d, rule.t).size
    counts = {}
    for _ in range(n):
        config = [rng.randrange(rule.model.q) for _ in range(size)]
        key = (rule.table[code_u(config)], rule.table[code_v(config)])
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize(
    "d,t,q,labels",
    [(3, 1, 2, (0, 1, 2)), (3, 2, 3, (0, 1)), (1, 1, 200, (0, 1, 2)), (1, 1, 256, (0, 1))],
)
def test_chunked_alphabet_monte_carlo_equals_per_sample_draws(d, t, q, labels):
    rule = rules.random_rule(d, t, rules.alphabet(q), labels, 9)
    chunk = entropy._MC_CHUNK
    for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        want_rng, got_rng = random.Random(n), random.Random(n)
        got = entropy._mc_pair_counts_generic(rule, n, got_rng)
        want = per_sample_pair_counts(rule, n, want_rng)
        assert list(got.items()) == list(want.items())
        assert got_rng.getstate() == want_rng.getstate()
