"""Record classes: the part of ``dataclasses`` this package uses.

``dataclasses`` imports ``inspect`` and compiles generated source for every
class, which costs a short CLI process about 30 ms before any work starts;
``record`` builds the same methods from closures instead:

- the fields are the class's own annotations, in order;
- ``__init__`` takes them positionally or by keyword, fills defaults and
  ``field(default_factory=...)`` values, then calls ``__post_init__``;
- ``__repr__`` reads ``Name(a=1, b=2)`` and ``__eq__`` compares the field
  tuples of two instances of the same class;
- a ``frozen=True`` record hashes its field tuple and refuses assignment with
  ``AttributeError`` (``__post_init__`` may still set fields through
  ``object.__setattr__``); other records are unhashable.
"""

from __future__ import annotations

_MISSING = object()


class _Factory:
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def field(*, default_factory) -> _Factory:
    """A field whose default is a fresh ``default_factory()`` per instance."""
    return _Factory(default_factory)


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator, used as ``@record`` or ``@record(frozen=True)``."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__annotations__)
    defaults, factories = {}, {}
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, _Factory):
            factories[name] = value.make
            delattr(cls, name)
        elif value is not _MISSING:
            defaults[name] = value
    title = cls.__qualname__
    post = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} positional arguments but {len(args)} were given")
        state = self.__dict__
        state.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in defaults:
                state[name] = defaults[name]
            elif name in factories:
                state[name] = factories[name]()
            else:
                raise TypeError(f"{title}() missing required argument: {name!r}")
        for name in kwargs:
            how = "got multiple values for argument" if name in names else "got an unexpected keyword argument"
            raise TypeError(f"{title}() {how} {name!r}")
        if post is not None:
            post(self)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)

    def __hash__(self):
        return hash(tuple(getattr(self, n) for n in names))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = [__init__, __repr__, __eq__]
    methods += [__hash__, __setattr__, __delattr__] if frozen else []
    for method in methods:
        method.__qualname__ = f"{title}.{method.__name__}"
        setattr(cls, method.__name__, method)
    if not frozen:
        cls.__hash__ = None
    cls.__record_fields__ = names
    return cls


def replace(obj, **changes):
    """A new record like ``obj`` with some fields changed; ``__post_init__``
    runs again, so the new values are validated."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj.__record_fields__}, **changes})
