"""Every record type is built by one constructor contract.

A record (:class:`repro._record.Record` or :class:`FrozenRecord`
subclass) declares its fields once, in ``__slots__``, and is built by the
shared ``Record.__init__`` -- or by one of the few constructors that
check and normalise their arguments first.  Either way it behaves like
the dataclass it replaces: positional and keyword arguments build equal
instances; a missing, unknown, duplicated or surplus argument is a
``TypeError``; and no default is one mutable object shared by every
instance.

This module imports only the modules that define records, none of which
needs numpy, so it also runs on an install without numpy.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pickle
from pathlib import Path

import pytest

import repro
from repro._record import FrozenRecord, Record
from repro.runner.algorithms import EXACT, classical_exact

#: Every module that defines a record type.
RECORD_MODULES = (
    "repro.algorithms.bfs",
    "repro.algorithms.broadcast",
    "repro.algorithms.dfs_traversal",
    "repro.algorithms.diameter_approx",
    "repro.algorithms.diameter_exact",
    "repro.algorithms.eccentricity",
    "repro.algorithms.evaluation",
    "repro.algorithms.leader_election",
    "repro.algorithms.multi_source_bfs",
    "repro.algorithms.resilient",
    "repro.algorithms.waves",
    "repro.congest.metrics",
    "repro.congest.network",
    "repro.core.approx_diameter",
    "repro.core.exact_diameter",
    "repro.core.radius",
    "repro.core.source_ecc",
    "repro.faults",
    "repro.qcongest.framework",
    "repro.quantum.amplitude_amplification",
    "repro.quantum.cost_model",
    "repro.quantum.maximum_finding",
    "repro.runner.algorithms",
    "repro.service.gridspec",
    "repro.store.records",
)

for _name in RECORD_MODULES:
    importlib.import_module(_name)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(
    {
        cls for cls in _subclasses(Record)
        if cls is not FrozenRecord and cls.__module__.startswith("repro.")
    },
    key=lambda cls: cls.__qualname__,
)

#: Valid field values for the constructors that check their arguments.
_CHECKED_VALUES = {
    "FaultModel": (0.1, 0.2, 2, 0.3, 4, 5, 0.4, 6, 7),
    "GridRequest": (("cycle",), (8,), ("two_approx",), "quantum", 3, 4, 2, None),
    "SweepAlgorithmInfo": (classical_exact, EXACT, True, None),
}


def _values(cls):
    """A valid value for every field, in field order; all distinct."""
    return _CHECKED_VALUES.get(cls.__name__, tuple(range(len(cls._fields))))


def _parameters(cls):
    return list(inspect.signature(cls.__init__).parameters.values())[1:]


def _is_generic(cls):
    """Whether ``cls`` takes its fields through ``Record.__init__``'s
    ``*args, **kwargs`` (with or without a post-construction step)."""
    return any(param.kind is param.VAR_POSITIONAL for param in _parameters(cls))


def _required(cls):
    if _is_generic(cls):
        return [name for name in cls._fields if name not in cls._defaults]
    return [param.name for param in _parameters(cls) if param.default is param.empty]


def _defaults(cls):
    if _is_generic(cls):
        return dict(cls._defaults)
    return {
        param.name: param.default
        for param in _parameters(cls) if param.default is not param.empty
    }


def _keywords(cls):
    return dict(zip(cls._fields, _values(cls)))


def test_every_record_in_the_package_is_checked():
    """Scan the package source for record classes (a base that is
    ``Record``, ``FrozenRecord`` or another record), so a new record in
    a module missing from :data:`RECORD_MODULES` fails here."""
    bases = {}
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {ast.unparse(base) for base in node.bases}
    records = set()
    known = {"Record", "FrozenRecord"}
    while True:
        found = {name for name, names in bases.items() if names & known}
        if found <= records:
            break
        records |= found
        known |= found
    records.discard("FrozenRecord")
    assert records == {cls.__name__ for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestConstructor:
    def test_positional_and_keyword_build_equal_instances(self, cls):
        by_position = cls(*_values(cls))
        by_name = cls(**_keywords(cls))
        assert by_position == by_name
        assert by_position._values() == by_name._values()
        assert pickle.loads(pickle.dumps(by_name)) == by_name

    def test_omitted_fields_take_their_defaults(self, cls):
        keywords = {name: _keywords(cls)[name] for name in _required(cls)}
        built = cls(**keywords)
        for name, default in _defaults(cls).items():
            value = getattr(built, name)
            assert value == default or (default is None and value == {})

    def test_missing_required_field(self, cls):
        for name in _required(cls):
            keywords = _keywords(cls)
            del keywords[name]
            with pytest.raises(TypeError):
                cls(**keywords)

    def test_unknown_keyword(self, cls):
        with pytest.raises(TypeError):
            cls(**_keywords(cls), not_a_field=1)

    def test_field_given_twice(self, cls):
        values = _values(cls)
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: values[0]})

    def test_too_many_positionals(self, cls):
        with pytest.raises(TypeError):
            cls(*_values(cls), 99)

    def test_no_shared_mutable_default(self, cls):
        for name, default in _defaults(cls).items():
            assert isinstance(
                default, (type(None), bool, int, float, str, tuple, frozenset)
            ), (name, default)
        keywords = {name: _keywords(cls)[name] for name in _required(cls)}
        first, second = cls(**keywords), cls(**keywords)
        for name in _defaults(cls):
            value = getattr(first, name)
            if isinstance(value, (list, dict, set)):
                assert value is not getattr(second, name), name


class TestDeclaration:
    def test_defaults_name_the_last_fields(self):
        with pytest.raises(TypeError):
            class Gap(Record):
                __slots__ = ("first", "second")
                _defaults = {"first": 0}

    def test_defaults_name_fields(self):
        with pytest.raises(TypeError):
            class Stray(Record):
                __slots__ = ("first",)
                _defaults = {"other": 0}

    def test_subclass_fields_and_defaults_extend_the_base(self):
        class Base(Record):
            __slots__ = ("first", "second")
            _defaults = {"second": 2}

        with pytest.raises(TypeError):
            class Required(Base):
                __slots__ = ("third",)

        class Extended(Base):
            __slots__ = ("third",)
            _defaults = {"third": 3}

        assert Extended._fields == ("first", "second", "third")
        assert Extended(1) == Extended(first=1, second=2, third=3)
        assert repr(Extended(1, third=4)).endswith(
            ".Extended(first=1, second=2, third=4)"
        )
