"""Differential test: a ``model.Record`` class behaves as ``typing.NamedTuple`` builds it.

Each class body below is built twice, once on ``typing.NamedTuple``, the oracle, and once
on ``Record``: a body with defaults, a method, a property and a docstring, and a
validating subclass with ``__slots__ = ()`` and its own ``__new__``, as
``gateway.ChatTurn`` is. The two must agree on the fields, defaults, docstring, repr,
equality, hashing, ``_replace``, ``_make``, ``_asdict``, a pickle round trip and
immutability; only the annotations differ, strings as written against ``ForwardRef``s.
"""

from __future__ import annotations

import pickle
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penheal.model import Record

BASES = {"oracle": typing.NamedTuple, "record": Record}


def _build(base: type) -> types.SimpleNamespace:
    class Point(base):
        """A labelled point."""

        x: int
        y: int = 0
        label: str = "origin"

        def manhattan(self) -> int:
            return abs(self.x) + abs(self.y)

        @property
        def swapped(self) -> Point:
            return self._replace(x=self.y, y=self.x)

    class _TurnFields(base):
        tag: str
        content: str

    class Turn(_TurnFields):
        """A message that must not be empty."""

        __slots__ = ()

        def __new__(cls, tag: str, content: str):
            if not content:
                raise ValueError("empty content")
            return tuple.__new__(cls, (tag, content))

    return types.SimpleNamespace(Point=Point, _TurnFields=_TurnFields, Turn=Turn)


# Module-level homes, so that pickle finds each class by its qualified name.
oracle, record = _build(typing.NamedTuple), _build(Record)
for _home in ("oracle", "record"):
    for _name, _cls in vars(globals()[_home]).items():
        _cls.__qualname__ = f"{_home}.{_name}"


@pytest.mark.parametrize("name", ["Point", "_TurnFields", "Turn"])
def test_classes_agree(name):
    want, got = getattr(oracle, name), getattr(record, name)
    for attr in ("_fields", "_field_defaults", "__doc__", "__match_args__", "__module__"):
        assert getattr(got, attr) == getattr(want, attr), attr
    assert [c.__name__ for c in got.__mro__] == [c.__name__ for c in want.__mro__]
    assert got.__mro__[-2:] == (tuple, object) and type(got) is type(want) is type
    annotations = vars(want).get("__annotations__", {})
    assert vars(got).get("__annotations__", {}) == {
        field: hint.__forward_arg__ for field, hint in annotations.items()}


def _same(want, got) -> None:
    assert type(got).__name__ == type(want).__name__
    assert repr(got) == repr(want)
    assert got == want and tuple(got) == tuple(want) and hash(got) == hash(want)
    assert got._asdict() == want._asdict()


@settings(max_examples=50, deadline=None)
@given(x=st.integers(), y=st.integers(), label=st.text(max_size=8))
def test_points_agree(x, y, label):
    want, got = oracle.Point(x), record.Point(x)
    _same(want, got)
    want, got = oracle.Point(x, y, label), record.Point(x, y=y, label=label)
    _same(want, got)
    assert got.manhattan() == want.manhattan()
    _same(want.swapped, got.swapped)
    _same(want._replace(label="moved"), got._replace(label="moved"))
    _same(oracle.Point._make([y, x, label]), record.Point._make([y, x, label]))
    _same(want, pickle.loads(pickle.dumps(got)))
    assert type(pickle.loads(pickle.dumps(got))) is record.Point


@settings(max_examples=50, deadline=None)
@given(tag=st.sampled_from(["system", "user"]), content=st.text(min_size=1, max_size=8))
def test_validating_subclasses_agree(tag, content):
    want, got = oracle.Turn(tag, content), record.Turn(tag, content)
    _same(want, got)
    _same(want._replace(content="other"), got._replace(content="other"))
    _same(oracle.Turn._make([tag, content]), record.Turn._make([tag, content]))
    _same(want, pickle.loads(pickle.dumps(got)))
    for cls in (oracle.Turn, record.Turn):
        with pytest.raises(ValueError, match="empty content"):
            cls(tag, "")


@pytest.mark.parametrize("home", [oracle, record], ids=["oracle", "record"])
def test_instances_are_immutable(home):
    for value in (home.Point(1, 2), home.Turn("user", "hi")):
        with pytest.raises(AttributeError):
            value.x = 3
        with pytest.raises(TypeError):
            value[0] = 3
    assert not hasattr(home.Turn("user", "hi"), "__dict__")


@pytest.mark.parametrize("base", BASES.values(), ids=BASES.keys())
def test_a_field_without_a_default_after_one_with_a_default_is_refused(base):
    with pytest.raises(TypeError):
        class Bad(base):
            a: int = 0
            b: int
