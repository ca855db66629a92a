"""Payload sizing: ``message_size_bits`` against its ``isinstance`` definition.

The transport sizes every message it delivers, so ``message_size_bits``
sizes an ``int`` and a flat tuple of scalars by exact class, in one loop,
before its ``isinstance`` chain.  ``_reference_size_bits`` below is that
chain alone, as it stood before the fast path: every payload must get the
same size, or raise the same ``TypeError``, from both.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.message import message_size_bits


def _reference_int_bits(value):
    if value == 0:
        return 1
    magnitude_bits = abs(value).bit_length()
    sign_bit = 1 if value < 0 else 0
    return magnitude_bits + sign_bit


def _reference_size_bits(payload):
    """``message_size_bits`` without its exact-class fast path."""
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return _reference_int_bits(payload)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return max(1, 8 * len(payload))
    if isinstance(payload, (tuple, list, set, frozenset)):
        return max(1, sum(2 + _reference_size_bits(item) for item in payload))
    if isinstance(payload, dict):
        return max(
            1,
            sum(
                2 + _reference_size_bits(key) + _reference_size_bits(value)
                for key, value in payload.items()
            ),
        )
    raise TypeError(
        f"unsupported message payload type {type(payload).__name__!r}; "
        "send ints, strings, or nested tuples/lists/dicts of those"
    )


class Level(enum.IntEnum):
    LOW = 0
    MID = 5
    HIGH = 2**40
    NEGATIVE = -3


class Label(str):
    """A ``str`` subclass: sized as a ``str`` by the ``isinstance`` chain."""


Pair = namedtuple("Pair", "tag value")

SCALARS = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2, 2**63, -(2**63)]),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.none(),
)

#: Scalars of subclasses, which the fast path hands to the chain.
SUBCLASSED = st.one_of(
    st.sampled_from(list(Level)),
    st.text(max_size=6).map(Label),
    st.builds(Pair, SCALARS, SCALARS),
)

HASHABLE = st.one_of(SCALARS, st.lists(SCALARS, max_size=3).map(tuple))

PAYLOADS = st.recursive(
    st.one_of(SCALARS, SUBCLASSED),
    lambda children: st.one_of(
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5),
        st.dictionaries(HASHABLE, children, max_size=4),
        st.sets(HASHABLE, max_size=4),
        st.frozensets(HASHABLE, max_size=4),
        st.builds(Pair, children, children),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(SCALARS)
def test_scalars_match_the_reference(payload):
    assert message_size_bits(payload) == _reference_size_bits(payload)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(SCALARS, SUBCLASSED), max_size=10).map(tuple))
def test_flat_tuples_match_the_reference(payload):
    assert message_size_bits(payload) == _reference_size_bits(payload)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_nested_containers_and_subclasses_match_the_reference(payload):
    assert message_size_bits(payload) == _reference_size_bits(payload)


@pytest.mark.parametrize(
    "payload",
    [None, True, 7, -7, 3.14, math.nan, -math.inf, "abc", "", (), [], {}, set(),
     frozenset(), ("bfs", 5), ("w", 3, 17), [1, (2, "x")], {"a": 1},
     (("a", 2),), (("a", 2.0),), ("w", [1]), Level.HIGH, (Level.MID, 1),
     Label("ab"), ("t", Label("ab")), Pair("m", 3), (2**300, -(2**300))],
    ids=repr,
)
def test_known_payloads_match_the_reference(payload):
    assert message_size_bits(payload) == _reference_size_bits(payload)


def test_equal_payloads_of_different_types_keep_their_sizes():
    # 2 == 2.0 == True (and hash alike), but they cost 2, 64 and 1 bits.
    assert [message_size_bits(value) for value in (2, 2.0, True)] == [2, 64, 1]
    assert [message_size_bits(value) for value in ((2,), (2.0,), (True,))] == [
        4, 66, 3,
    ]
    assert message_size_bits((("a", 2),)) == 16
    assert message_size_bits((("a", 2.0),)) == 78


@pytest.mark.parametrize(
    "payload",
    [object(), (1, object()), ("a", object(), 2), (1, [object()]), {"k": object()},
     [object()], (Pair("m", object()),)],
    ids=["object", "tuple", "tuple-middle", "nested", "dict", "list", "namedtuple"],
)
def test_unsupported_items_raise_the_same_type_error(payload):
    with pytest.raises(TypeError) as reference:
        _reference_size_bits(payload)
    with pytest.raises(TypeError) as current:
        message_size_bits(payload)
    assert str(current.value) == str(reference.value)
