"""The one registry of the package's function memos.

`memo(maxsize)` memoises a function with `functools.lru_cache` (None:
unbounded) and lists it in `MEMOS` under its module and name, with its
bound, `cache_info()` and `cache_clear()`.  A value is frozen when it is
computed: every array in it, also inside a returned plain tuple or dict, is
made read-only and a dict is returned as a read-only view, so no caller can
change what a later call returns.  Other containers (a named tuple such as a
parsed netlist, a compiled chip) are not walked: they hold no array, or
freeze their own when built.  A hit costs an `lru_cache` hit, errors
are never cached, and no numpy is imported.
"""

import functools
import sys
from types import MappingProxyType

__all__ = ["memo", "MEMOS"]

MEMOS = {}


def _freeze(value):
    if type(value) is tuple:
        return tuple(_freeze(item) for item in value)
    if type(value) is dict:
        return MappingProxyType({key: _freeze(item) for key, item in value.items()})
    if (np := sys.modules.get("numpy")) is not None and isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


def memo(maxsize: int | None = None):
    """Decorator: the function memoised, frozen and registered."""
    def decorate(fn):
        cached = functools.lru_cache(maxsize)(
            functools.wraps(fn)(lambda *args, **kwargs: _freeze(fn(*args, **kwargs))))
        MEMOS[f"{fn.__module__}.{fn.__qualname__}"] = cached
        return cached
    return decorate
