"""Finite-radius local rules on regular trees: label marginals, entropy
audits, homomorphism rule search, and emulation on finite graphs."""

import math
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, repeat

__version__ = "0.1.0"

# version of the JSON envelope every CLI run prints; payloads carry none
SCHEMA_VERSION = 3


def jsonable(x):
    """The JSON form of a result value: a dataclass instance becomes the dict
    of its fields, Fractions {"exact", "float"}, infinite floats "Infinite",
    bytes hex, dict keys strings."""
    if is_dataclass(x):
        return jsonable(asdict(x))
    if isinstance(x, Fraction):
        return {"exact": str(x), "float": float(x)}
    if isinstance(x, float) and math.isinf(x):
        return "Infinite"
    if isinstance(x, bytes):
        return x.hex()
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


# Graph and rule files are read and written line by line, in blocks of
# whole lines: a file's text is never held at once, and the text wrapper is
# called once per block, not once per line.
_BLOCK_CHARS = 1 << 16
_BLOCK_LINES = 4096


def read_lines(fh):
    """The lines of an open text file, split as str.splitlines splits its
    whole text: a form feed inside a file line still ends a line."""
    blocks = iter(lambda: fh.read(_BLOCK_CHARS) + fh.readline(), "")
    return chain.from_iterable(map(str.splitlines, blocks))


def write_lines(fh, lines):
    """Write lines, each ending in a newline, to an open text file."""
    lines = iter(lines)
    fh.writelines(iter(lambda: "".join(islice(lines, _BLOCK_LINES)), ""))


# Seeded draws.  Random.randrange(n) is getrandbits(n.bit_length()) drawn
# again while the result is >= n, and Random.shuffle(x) makes that draw with
# n = i + 1 for i from len(x) - 1 down to 1.  The helpers below give the same
# values in the same order, without randrange's per-call Python frames, so
# every seed gives the same values and the same generator state afterwards.
#
# They rest on two properties of CPython's Mersenne Twister: getrandbits(k)
# for k <= 32 is the top k bits of the generator's next 32-bit output, and
# getrandbits(32 * m) is its next m outputs, the first in the low bits.  So
# m draws of at most 32 bits each can be taken as one getrandbits(32 * m)
# call: the top bits of word i are draw i, and the generator ends in the
# state the m single draws leave.  randbelows stops at the word of its last
# value, so the generator ends where randrange would leave it.
# tests/test_draws.py holds the helpers to the library functions and to the
# per-call loops they replace.

_BULK_WORDS = 1 << 14


def draw_words(rng, m):
    """The next m 32-bit outputs of rng as 4m little-endian bytes: word i's
    top byte, the value of getrandbits(8) for the i-th draw, is byte 4i + 3."""
    return rng.getrandbits(32 * m).to_bytes(4 * m, "little")


@lru_cache(maxsize=None)
def _top_byte_tables(n):
    """(table, delete) for bytes.translate at 1 <= n <= 255: a word's top
    byte b gives getrandbits(k) = b >> (8 - k), k = n.bit_length(), and the
    bytes whose value is >= n, the draws randrange rejects, are deleted."""
    shift = 8 - n.bit_length()
    table = bytes(b >> shift for b in range(256))
    delete = bytes(b for b in range(256) if b >> shift >= n)
    return table, delete


def randbelows(rng, n, count):
    """[rng.randrange(n) for _ in range(count)]."""
    if n < 1:
        if count:
            raise ValueError("empty range for randrange()")
        return []
    # each accepted draw fills one place, so a batch of as many draws as
    # places left never draws past the last value
    if n > 255:
        k = n.bit_length()
        out = []
        while len(out) < count:
            out += filter(n.__gt__, map(rng.getrandbits, repeat(k, count - len(out))))
        return out
    return list(randbelow_bytes(rng, n, count))


def randbelow_bytes(rng, n, count):
    """randbelows(rng, n, count) as a bytearray, for 1 <= n <= 255."""
    table, delete = _top_byte_tables(n)
    out = bytearray()
    while len(out) < count:
        m = min(count - len(out), _BULK_WORDS)
        out += draw_words(rng, m)[3::4].translate(table, delete)
    return out


def shuffle(rng, x):
    """rng.shuffle(x): the bit width is fixed over each power-of-two run of i."""
    getrandbits = rng.getrandbits
    i = len(x) - 1
    while i > 0:
        k = (i + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the least i with (i + 1).bit_length() == k
        for i in range(i, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        i = low - 1


# the CLI is left out, so `python -m fiidlab.cli` does not find it imported
from . import entropy, graphs, homsearch, rules, simulate  # noqa: E402, F401
