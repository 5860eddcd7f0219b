"""The value semantics every record of towerlim shares (exactlat.Record)."""

import importlib
import pkgutil

import pytest

import towerlim
from towerlim import limits
from towerlim.exactlat import (
    IntMatrix,
    MutableRecord,
    Record,
    cyclic_group,
    free_group,
    hom_make,
)
from towerlim.towers import FiniteTower, PeriodicTower, StreamedTower

MUTABLE = {"TowerFile", "LabReport"}


def _modules():
    return [importlib.import_module("towerlim." + m.name)
            for m in pkgutil.iter_modules(towerlim.__path__)]


def _records():
    found = []
    for mod in _modules():
        for obj in vars(mod).values():
            if (isinstance(obj, type) and issubclass(obj, Record)
                    and obj not in (Record, MutableRecord)
                    and obj.__module__ == mod.__name__):
                found.append(obj)
    return sorted(found, key=lambda cls: cls.__name__)


RECORDS = _records()


def _build(cls, values):
    # the field values are placeholders, so the record is made without
    # its __init__, which would check them
    record = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(record, name, value)
    return record


def test_every_record_is_found_and_no_dataclass_is_left():
    assert len(RECORDS) >= 29
    assert {cls.__name__ for cls in RECORDS if issubclass(cls, MutableRecord)} == MUTABLE
    for mod in _modules():
        for obj in vars(mod).values():
            assert not hasattr(obj, "__dataclass_fields__"), obj


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    # its own __init__ takes the fields, in order
    code = cls.__dict__["__init__"].__code__
    assert code.co_varnames[1:code.co_argcount] == cls._fields

    # equal field values that are distinct objects
    values = tuple((name, i) for i, name in enumerate(cls._fields))
    a, b = _build(cls, values), _build(cls, tuple((name, i) for name, i in values))
    assert not any(getattr(a, name) is getattr(b, name) for name in cls._fields)
    assert a == b and not a != b
    other = _build(cls, values[:-1] + (("changed",),))
    assert a != other

    base = MutableRecord if cls.__name__ in MUTABLE else Record
    twin = _build(type("Twin", (base,), {"_fields": cls._fields}), values)
    assert a != twin and twin != a

    if cls.__repr__ is Record.__repr__:
        assert repr(a) == "%s(%s)" % (cls.__name__, ", ".join(
            "%s=%r" % (name, value) for name, value in zip(cls._fields, values)))

    if cls.__name__ in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, cls._fields[0], "new")
        assert getattr(a, cls._fields[0]) == "new"
        return
    assert hash(a) == hash(b) == hash(values)
    for name in cls._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(a, name, "new")
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_tower_reprs_match_the_dataclass_reprs():
    # lab._fail dumps repr(tower) for a tower the file format cannot hold
    z4, z2 = cyclic_group(4), cyclic_group(2)
    tower = FiniteTower((z4, z2), (hom_make(z4, z2, [[1]]),))
    assert repr(tower) == ("FiniteTower(groups=(FgAbGroup(Z/4), FgAbGroup(Z/2)), "
                           "bonds=(Homomorphism(Z/4 -> Z/2, [[1]]),))")
    assert repr(StreamedTower("finite_sets", (), 2)) == (
        "StreamedTower(family='finite_sets', params=(), offset=2)")
    assert repr(StreamedTower("adic_quotient", (3,))) == (
        "StreamedTower(family='adic_quotient', params=(3,), offset=0)")


def _pure_tower(entries):
    group = free_group(len(entries))
    return PeriodicTower((), (), group, hom_make(group, group, IntMatrix.from_rows(entries)),
                         None)


def test_tail_analysis_memo_hits_on_a_rebuilt_tower():
    entries = [[2, 1], [1, 7]]
    first, again = _pure_tower(entries), _pure_tower(entries)
    assert first is not again and first == again and hash(first) == hash(again)
    limits._tail_analysis.cache_clear()
    limits.limit(first)
    hits = limits._tail_analysis.cache_info().hits
    limits.limit(again)
    assert limits._tail_analysis.cache_info().hits == hits + 1
    assert (limits._tail_analysis(again.tail_group, again.tail_endo)
            is limits._tail_analysis(first.tail_group, first.tail_endo))
