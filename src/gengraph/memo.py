"""One memo for everything derived from a `Group` or a `Graph`.

Both types are immutable, so a value computed from one can be kept on it.
`cached` keeps each such value in the object's `_cache` slot, a dict made
on first use.
"""

from __future__ import annotations

import functools
import inspect

_MISSING = object()


def cached(fn):
    """Memoise `fn(obj, *args)` in `obj._cache`.

    The key is fn's name and its positional arguments, omitted trailing
    arguments filled from fn's defaults first, so `f(x)` and
    `f(x, default)` share one entry.  Keyword arguments, when given, are
    first moved to their positions, so `f(x, budget=b)` shares the entry
    of `f(x, b)`.
    """
    name, arity, defaults = fn.__name__, fn.__code__.co_argcount - 1, fn.__defaults__ or ()

    @functools.wraps(fn)
    def memoised(obj, *args, **kwargs):
        if kwargs:
            bound = inspect.signature(fn).bind(obj, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        if len(args) < arity:
            args += defaults[len(args) - arity:]
        key = (name, *args)
        try:
            memo = obj._cache
        except AttributeError:
            memo = obj._cache = {}
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = fn(obj, *args)
        return value
    return memoised
