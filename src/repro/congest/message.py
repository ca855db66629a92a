"""Message size accounting.

The CONGEST model measures communication in *bits per edge per round*.  The
simulator lets algorithms exchange ordinary Python values (ints, tuples,
short strings, ...) and charges them a bit size computed by
:func:`message_size_bits`.  The encoding is deliberately simple and
conservative -- it only needs to be *consistent*, so that a message carrying
a constant number of node identifiers and counters costs ``Theta(log n)``
bits, which is what the model's bandwidth budget is expressed in.
"""

from __future__ import annotations

from typing import Any


def _int_bits(value: int) -> int:
    """Bits needed to encode ``value`` (two's-complement-ish, at least 1)."""
    if value == 0:
        return 1
    magnitude_bits = abs(value).bit_length()
    sign_bit = 1 if value < 0 else 0
    return magnitude_bits + sign_bit


def message_size_bits(payload: Any) -> int:
    """Return the size, in bits, charged for ``payload``.

    Supported payloads: ``None`` (1 bit -- the message still exists),
    ``bool`` (1), ``int`` (bit length), ``float`` (64), ``str`` (8 per
    character), and arbitrarily nested tuples / lists / dicts / sets /
    frozensets of supported payloads (2 bits of framing per element).

    Raises ``TypeError`` for unsupported payload types so that algorithm
    bugs (e.g. accidentally sending a whole adjacency list object) surface
    immediately instead of silently costing 0 bits.

    The transport sizes every message it delivers, so the paper's usual
    payloads -- an ``int`` and a flat tuple of scalars such as
    ``("bfs", d)`` or ``("w", tag, delta)`` -- are sized first, by exact
    class, in one loop; anything else (subclasses, nested containers,
    unsupported items) goes through the ``isinstance`` chain below,
    which is the definition.
    """
    cls = payload.__class__
    if cls is int:
        return payload.bit_length() + (payload < 0) if payload else 1
    if cls is tuple:
        # Two bits of framing per item, then each item's own size.
        size = 2 * len(payload)
        for item in payload:
            item_cls = item.__class__
            if item_cls is int:
                size += item.bit_length() + (item < 0) if item else 1
            elif item_cls is str:
                size += 8 * len(item) or 1
            elif item_cls is float:
                size += 64
            elif item_cls is bool or item is None:
                size += 1
            else:
                break
        else:
            return size or 1
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return _int_bits(payload)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return max(1, 8 * len(payload))
    if isinstance(payload, (tuple, list, set, frozenset)):
        return max(1, sum(2 + message_size_bits(item) for item in payload))
    if isinstance(payload, dict):
        return max(
            1,
            sum(
                2 + message_size_bits(key) + message_size_bits(value)
                for key, value in payload.items()
            ),
        )
    raise TypeError(
        f"unsupported message payload type {type(payload).__name__!r}; "
        "send ints, strings, or nested tuples/lists/dicts of those"
    )
