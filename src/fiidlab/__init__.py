"""Finite-radius local rules on regular trees: label marginals, entropy
audits, homomorphism rule search, and emulation on finite graphs."""

import math
from dataclasses import asdict, is_dataclass
from fractions import Fraction
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
# n = i + 1 for i from len(x) - 1 down to 1.  The helpers below make the same
# getrandbits calls in the same order, without randrange's per-call Python
# frames, so every seed gives the same values and the same generator state
# afterwards.  tests/test_draws.py holds them to the library functions.


def randbelows(rng, n, count):
    """[rng.randrange(n) for _ in range(count)]."""
    if n < 1 and count:
        raise ValueError("empty range for randrange()")
    k = n.bit_length()
    out = []
    # each accepted draw fills one place, so a batch of as many draws as
    # places left never draws past the last value
    while len(out) < count:
        out += filter(n.__gt__, map(rng.getrandbits, repeat(k, count - len(out))))
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
