"""Finite-radius local rules on regular trees: label marginals, entropy
audits, homomorphism rule search, and emulation on finite graphs."""

import math
from fractions import Fraction

__version__ = "0.1.0"

# version of the JSON envelope every CLI run prints; payloads carry none
SCHEMA_VERSION = 2


def jsonable(x):
    """The JSON form of a report value: Fractions become {"exact", "float"},
    infinite floats "Infinite", bytes hex, dict keys strings."""
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


# the CLI is left out, so `python -m fiidlab.cli` does not find it imported
from . import entropy, graphs, homsearch, rules, simulate  # noqa: E402, F401
