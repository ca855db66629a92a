"""Public names of a package that load their submodule on first use.

A package ``__init__`` that imported every submodule would make each
``import repro.<package>`` pay for numpy, sockets or the HTTP server even
when the caller needs none of them.  Instead, ``__init__`` lists each
public name with the module that defines it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "StateVector": "repro.quantum.state",
    })

``from repro.quantum import StateVector`` then imports
:mod:`repro.quantum.state` at that moment (PEP 562 module ``__getattr__``).
A name that maps to the package's own submodule of that name (``"generators":
"repro.graphs.generators"``) resolves to the submodule itself.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` of a package with lazy ``exports``.

    ``exports`` maps each public name to the module that defines it, and
    its keys, in order, are the package's ``__all__``.  The first access
    imports that module and caches the value in the package namespace, so
    later accesses are plain attribute lookups.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module)
        if module != f"{package}.{name}":
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, list(exports)
