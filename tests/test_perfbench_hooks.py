"""perfbench's span hooks name code that exists.

``perfbench/traced_cli.py`` times each layer by wrapping the methods its
``SPAN_HOOKS`` table names, and reports a hook it cannot find only after
a traced run.  This test reads that table -- loading the file by path,
installing nothing -- and resolves every entry against the package, so a
moved or renamed entry point fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

TRACED_CLI = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "traced_cli.py",
)


def _span_hooks():
    spec = importlib.util.spec_from_file_location("_perfbench_traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_HOOKS


def test_every_span_hook_resolves():
    hooks = _span_hooks()
    assert hooks
    for module_name, class_name, method, _span in hooks:
        owner = getattr(importlib.import_module(module_name), class_name, None)
        assert owner is not None, (module_name, class_name)
        assert callable(getattr(owner, method, None)), (module_name, class_name, method)
