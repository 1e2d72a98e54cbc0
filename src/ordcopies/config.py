"""Runtime size caps.

The single knob is the ``ORDCOPIES_NMAX`` environment variable (default 4).
It bounds the dimension of cube sets and, doubled, the explicit prefix
length of layered sets: every layered value, inputs and results alike,
measured on its canonical prefix.  Caps exist because representation sizes
grow multiplicatively with cycle alignment, not because anything overflows.
"""

import os

from .errors import InputFormatError

ENV_VAR = "ORDCOPIES_NMAX"
_DEFAULT_NMAX = 4


def nmax() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return _DEFAULT_NMAX
    try:
        value = int(raw)
    except ValueError:
        raise InputFormatError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    if value < 1:
        raise InputFormatError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def dim_cap() -> int:
    """Largest allowed cube-set dimension."""
    return nmax()


def prefix_cap() -> int:
    """Largest allowed layered-set prefix length."""
    return 2 * nmax()
