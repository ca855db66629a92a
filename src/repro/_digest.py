"""The digest that names a grid: sha256 over its task keys.

Run headers stamp :func:`repro.analysis.sweep.grid_signature` and every
dispatched batch stamps its shard-store headers with the same digest of
its own keys, so both call :func:`key_digest`.  ``sha256`` comes from
CPython's builtin module (``_sha2`` from 3.12, ``_sha256`` before), as
:mod:`random` takes ``sha512``: :mod:`hashlib` would load OpenSSL through
``_hashlib`` on every grid command.  :mod:`hashlib` is the fallback for
an interpreter built without the builtin module.
"""

from __future__ import annotations

from typing import Iterable

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def key_digest(keys: Iterable[str]) -> str:
    """The first 16 hex digits of sha256 over the ``"\\n"``-joined keys."""
    return sha256("\n".join(keys).encode("utf-8")).hexdigest()[:16]
