"""The record helper (``qgevrey.records``) and the import cost it keeps
down: every semantic the package's record classes rely on, and no method
of a package class compiled from a source string."""

import functools
import os
import subprocess
import sys

import pytest

import qgevrey
from qgevrey.config import _field
from qgevrey.errors import ConfigError
from qgevrey.qgeometry import QBase
from qgevrey.qlaplace import QuadSettings
from qgevrey.records import field, record, replace


@record(frozen=True)
class Point:
    x: float
    y: float = 0.0

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("x must be nonnegative")


@record(frozen=True)
class Twin:  # Point's fields, another class
    x: float
    y: float = 0.0


@record
class Bag:
    name: str
    items: list = field(default_factory=list)
    note: object = field(default=None, compare=False, repr=False)


def defaults():
    assert Point(1.0).y == 0.0 and Point(1.0, 2.0).y == 2.0
    assert Point(y=2.0, x=1.0) == Point(1.0, 2.0) == Point(1.0, y=2.0)
    assert Bag("a").note is None and "items" not in vars(Bag)


def fresh_factory_object():
    a, b = Bag("a"), Bag("a")
    assert a.items == b.items == [] and a.items is not b.items
    a.items.append(1)
    assert Bag("a").items == []


def not_compared_not_shown():
    assert Bag("a", note=1) == Bag("a", note=2)
    assert repr(Bag("a", [1], note=3)) == "Bag(name='a', items=[1])"
    assert repr(Point(1.0)) == "Point(x=1.0, y=0.0)"


def post_init_error_propagates():
    with pytest.raises(ValueError, match="nonnegative"):
        Point(-1.0)


def frozen_assignment_and_deletion():
    p = Point(1.0)
    with pytest.raises(AttributeError):
        p.x = 2.0
    with pytest.raises(AttributeError):
        del p.y
    with pytest.raises(AttributeError):
        p.z = 0.0
    with pytest.raises(AttributeError):
        QBase(2.0).log_q = 0j
    assert p == Point(1.0, 0.0)


def equal_frozen_records_hash_equal():
    assert hash(Point(1.0)) == hash(Point(1.0, 0.0))
    assert hash(QBase(2.0)) == hash(QBase(2.0 + 0j))

    @functools.lru_cache(maxsize=2)
    def keyed(base):
        return object()

    assert keyed(QBase(2.0)) is keyed(QBase(2.0))
    assert keyed.cache_info().hits == 1


def other_class_never_equal():
    assert Point(1.0) != Twin(1.0) and not Point(1.0) == Twin(1.0)
    assert Point(1.0, 0.0) != (1.0, 0.0)


def mutable_records_unhashable():
    with pytest.raises(TypeError):
        hash(Bag("a"))
    bag = Bag("a")
    bag.name = "b"
    assert bag == Bag("b")


def replace_reruns_post_init():
    assert replace(Point(1.0), y=3.0) == Point(1.0, 3.0)
    with pytest.raises(ValueError, match="nonnegative"):
        replace(Point(1.0), x=-1.0)
    assert replace(QuadSettings(), abs_tol=1e-8).max_halvings == 14


def bad_arguments_raise_type_error():
    for call in (lambda: Point(), lambda: Point(y=1.0),
                 lambda: Point(1.0, z=2.0), lambda: Point(1.0, 2.0, 3.0),
                 lambda: Point(1.0, x=2.0), lambda: Bag(items=[]),
                 lambda: replace(Point(1.0), z=1.0)):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(TypeError, match="missing field.*x"):
        Point(y=1.0)
    with pytest.raises(ConfigError, match="^quad: "):
        with _field("quad"):
            QuadSettings(abs_tol=1e-8, step=0.1)


SEMANTICS = [defaults, fresh_factory_object, not_compared_not_shown,
             post_init_error_propagates, frozen_assignment_and_deletion,
             equal_frozen_records_hash_equal, other_class_never_equal,
             mutable_records_unhashable, replace_reruns_post_init,
             bad_arguments_raise_type_error]


@pytest.mark.parametrize("check", SEMANTICS, ids=lambda f: f.__name__)
def test_record_semantics(check):
    check()


# in a fresh process: numpy, then the whole package; prints whether
# dataclasses was imported and the package's methods whose code object was
# compiled from a source string (dataclasses and NamedTuple make such
# methods; co_filename is "<string>")
IMPORT_PROBE = """
import sys
import numpy
import qgevrey.cli
generated = [cls.__qualname__ + "." + name
             for module in list(sys.modules.values())
             if module.__name__.partition(".")[0] == "qgevrey"
             for cls in vars(module).values()
             if isinstance(cls, type) and cls.__module__ == module.__name__
             for name, fn in vars(cls).items()
             if getattr(fn, "__code__", None) is not None
             and fn.__code__.co_filename.startswith("<")]
print("dataclasses" in sys.modules, generated)
"""


def test_package_import_generates_no_code():
    src = os.path.dirname(os.path.dirname(qgevrey.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False []"
