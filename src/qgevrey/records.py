"""Record classes: the package's one way to declare a plain data type.

``@record`` (or ``@record(frozen=True)``) reads a class's annotated
fields, in order, and gives it ``__init__`` (positional or keyword
arguments, defaults, ``field(default_factory=...)`` called once per
instance, then ``__post_init__``), ``__eq__`` within the class, the
``Name(a=1, b=2)`` ``__repr__`` and, when frozen, ``__hash__`` over the
compared fields and an ``__setattr__``/``__delattr__`` that raise
``AttributeError``; a mutable record is unhashable.  :func:`replace`
copies a record with some fields changed.

Every method is a closure defined here, over the class's field names:
nothing is generated from source text, so nothing is compiled when a
class is made.  ``dataclasses`` (and ``typing.NamedTuple``) compile each
class's methods with ``exec``: that took about two thirds of a fresh
``import qgevrey.cli`` with bytecode cached, and a third without
(``import_ms`` in ``tools/bench_check.py``).
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class field:  # lower case, as the dataclasses function it replaces
    """One field's declaration: its default (a value or a zero-argument
    factory) and whether ``==``, ``hash`` and ``repr`` read it."""

    def __init__(self, *, default=_MISSING, default_factory=None,
                 compare=True, repr=True):
        self.default, self.default_factory = default, default_factory
        self.compare, self.repr = compare, repr


def record(cls=None, *, frozen=False):
    """Class decorator; see the module docstring."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names, defaults, factories = [], {}, {}
    compared, shown = [], []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, field):
            spec = field(default=spec)
        elif spec.default is _MISSING:
            delattr(cls, name)  # no default: no class attribute
        else:
            setattr(cls, name, spec.default)
        names.append(name)
        if spec.default is not _MISSING:
            defaults[name] = spec.default
        elif spec.default_factory is not None:
            factories[name] = spec.default_factory
        if spec.compare:
            compared.append(name)
        if spec.repr:
            shown.append(name)
    names, title = tuple(names), cls.__qualname__
    n, known = len(names), frozenset(names).issuperset
    post = getattr(cls, "__post_init__", None)
    key = attrgetter(*compared)
    if len(compared) == 1:
        key = lambda self, get=key: (get(self),)  # noqa: E731

    def fill(args, kwargs):
        """The field values of a call that does not give every field once,
        all by position or all by keyword; or its ``TypeError``: too many,
        unknown, repeated or missing arguments."""
        if not known(kwargs) or args and (
                len(args) > n or kwargs
                and not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError("%s() got %d positional argument(s) and the "
                            "keyword(s) %s; its fields are %s"
                            % (title, len(args), ", ".join(kwargs) or "none",
                               ", ".join(names)))
        values = dict(defaults)
        if args:
            values.update(zip(names, args))
        values.update(kwargs)
        for name, factory in factories.items():
            if name not in values:
                values[name] = factory()
        if len(values) != n:
            raise TypeError("%s() is missing field(s): %s" % (title, ", ".join(
                name for name in names if name not in values)))
        return values

    # the values become the instance's __dict__ in one call; filling
    # self.__dict__ instead (reading it builds a dict from the instance's
    # inline values) left a dict on which every attribute read took about
    # three times as long, and setting fields one by one costs a call each
    def __init__(self, *args, **kwargs):
        if not args and len(kwargs) == n and known(kwargs):
            values = kwargs  # a new dict on every call
        elif len(args) == n and not kwargs:
            values = dict(zip(names, args))
        else:
            values = fill(args, kwargs)
        object.__setattr__(self, "__dict__", values)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        return "%s(%s)" % (title, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in shown))

    def _frozen(self, name, *value):
        raise AttributeError("cannot assign to field %r of a frozen %s"
                             % (name, title))

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls._record_fields = names
    if frozen:
        cls.__hash__ = lambda self: hash(key(self))
        cls.__setattr__ = cls.__delattr__ = _frozen
    else:
        cls.__hash__ = None
    return cls


def replace(obj, **changes):
    """A new record of ``obj``'s class with ``changes`` applied to its
    fields; ``__init__`` and ``__post_init__`` run again."""
    return obj.__class__(**{**{name: getattr(obj, name)
                               for name in obj._record_fields}, **changes})
