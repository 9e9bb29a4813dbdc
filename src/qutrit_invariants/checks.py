"""The one rule for integer arguments: counts, degrees, dimensions and seeds."""

from functools import lru_cache, wraps
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


def integer_cache(what):
    """Decorator: an unbounded lru_cache of a function whose first argument,
    named ``what``, goes through `integer` before the lookup, so that a numpy
    integer and the equal int share one entry.  ``cache_info`` and
    ``cache_clear`` are those of the cache."""
    def decorate(fn):
        cached = lru_cache(maxsize=None)(fn)

        @wraps(fn)
        def call(first, *args, **kwargs):
            return cached(integer(first, what), *args, **kwargs)

        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return call
    return decorate
