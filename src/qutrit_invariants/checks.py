"""The one rule for integer arguments: counts, degrees, dimensions and seeds."""

from operator import index


def integer(value, what, least=None):
    """``value`` as an int: a Python or numpy integer, at least ``least`` when
    given.  Anything else (a bool, any float, None) raises ValueError naming ``what``."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    n = index(value)
    if least is not None and n < least:
        raise ValueError(f"{what} must be at least {least}, got {value!r}")
    return n
