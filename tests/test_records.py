"""Every value type is a record: an immutable tuple of named fields.

A record equals exactly the records of its own type with equal fields, and
never a bare tuple; equal records hash equal, as the tuple of their hashed
fields; no field can be assigned and no record has a ``__dict__``;
``_replace``, ``copy.deepcopy`` and ``repr`` give back what they were given.
Importing the command line loads neither ``dataclasses`` nor ``inspect``.
"""

import copy
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ovmrbac
from ovmrbac import cli, session
from ovmrbac.model import (
    AltGroup,
    Constraint,
    ConstraintKind,
    Dependency,
    EndpointRef,
    Model,
    Record,
    Snapshot,
    Universe,
    VariabilityKind,
    VariationPoint,
    Variant,
    Violation,
)
from ovmrbac.rbac import (
    Category,
    Decision,
    KindObjects,
    ObjectId,
    Permission,
    Policy,
    ViewModel,
)
from ovmrbac.session import (
    OPERATIONS,
    ArgKind,
    LogEntry,
    OpRequest,
    OpSpec,
    OperationFilter,
    Outcome,
    OutcomeStatus,
)

# Small pools, so that two draws are often equal.
names = st.sampled_from(["a", "b", "c d"])
operations = st.sampled_from(["read", "writeManDep"])
endpoints = st.builds(EndpointRef, st.sampled_from(Universe), names)
object_ids = st.builds(ObjectId, st.sampled_from([
    "set:MAN_VP", "set:OBJECTS", "vp:a", "variant:b", "dep:a->b", "altgroup:a",
    "constraint:requires:variant:a:vp:b",
]))
permissions = st.builds(Permission, object_ids, operations)


def sets(elements):
    return st.frozensets(elements, max_size=2)


ELEMENTS = {
    VariationPoint: st.builds(VariationPoint, names, st.sampled_from(VariabilityKind)),
    Variant: st.builds(Variant, names),
    Dependency: st.builds(Dependency, names, names, st.sampled_from(VariabilityKind)),
    AltGroup: st.builds(AltGroup, sets(names), st.integers(0, 2), st.integers(0, 2), names),
    Constraint: st.builds(Constraint, st.sampled_from(ConstraintKind), endpoints, endpoints),
}
components = [sets(elements) for elements in ELEMENTS.values()]
models = st.builds(Model, *components)
requests = st.one_of(
    st.builds(lambda name: OpRequest("addManVP", (name,)), names),
    st.builds(lambda kind, source, target: OpRequest("addConstraint", (kind, source, target)),
              st.sampled_from(ConstraintKind), endpoints, endpoints),
)
# an error compares by identity, so a copied outcome holds none
outcomes = st.builds(Outcome, st.sampled_from(OutcomeStatus), st.none() | models, st.none())

# One strategy per record type in the package.
RECORDS = {
    **ELEMENTS,
    EndpointRef: endpoints,
    Model: models,
    Violation: st.builds(Violation, names, names, names),
    ObjectId: object_ids,
    Permission: permissions,
    Policy: st.builds(
        Policy, sets(names), sets(names), sets(operations),
        sets(st.tuples(names, names)), sets(st.tuples(permissions, names)),
    ),
    ViewModel: st.builds(
        ViewModel, *components, sets(names),
        st.dictionaries(names, sets(permissions), max_size=2).map(MappingProxyType),
    ),
    KindObjects: st.builds(
        KindObjects, st.sampled_from(Category), st.sampled_from(Category), operations
    ),
    ArgKind: st.sampled_from([session.NAME, session.NAMES, session.INT,
                              session.ENDPOINT]),
    OpSpec: st.sampled_from(list(OPERATIONS.values())[:3]),
    OpRequest: requests,
    Outcome: outcomes,
    LogEntry: st.builds(LogEntry, requests, st.sampled_from(Decision), outcomes),
    OperationFilter: st.builds(OperationFilter, st.none() | sets(operations)),
    cli.Reply: st.builds(cli.Reply, st.integers(0, 3), names,
                         st.just(()) | st.tuples(st.tuples(names, names))),
}
records = st.sampled_from(list(RECORDS)).flatmap(RECORDS.get)


def _record_types(*bases):
    for base in bases:
        for cls in base.__subclasses__():
            yield cls
            yield from _record_types(cls)


def fields(record):
    return [getattr(record, name) for name in record._fields]


def hashed(record):
    """What a record's hash covers: a view's provenance and an object id's
    parse are compared but not hashed."""
    if type(record) is ViewModel:
        return tuple(record)[:6]
    return tuple(fields(record))


def test_every_record_type_has_a_strategy():
    assert set(_record_types(Record, Snapshot)) == set(RECORDS)


@settings(max_examples=300, deadline=None)
@given(records, records)
def test_equal_exactly_when_same_type_and_fields(a, b):
    same = type(a) is type(b) and fields(a) == fields(b)
    assert (a == b, b == a, a != b, b != a) == (same, same, not same, not same)
    if same:
        assert hash(a) == hash(b) == hash(hashed(a))


@settings(max_examples=200, deadline=None)
@given(records)
def test_never_equal_to_a_bare_tuple(record):
    bare = tuple(record)
    assert record != bare and bare != record
    assert not (record == bare or bare == record)
    alike = hashed(record)  # a tuple of equal hash is still not equal
    assert record not in {alike} and alike not in {record}


@settings(max_examples=200, deadline=None)
@given(records)
def test_fields_cannot_be_assigned(record):
    assert not hasattr(record, "__dict__") and type(record).__slots__ == ()
    assert len(tuple(record)) == len(record._fields) + len(record._derived)
    for name in (*record._fields, *record._derived, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    if isinstance(record, Snapshot):  # callers may track snapshots by weak reference
        assert weakref.ref(record)() is record


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(RECORDS)).flatmap(
    lambda cls: st.tuples(RECORDS[cls], RECORDS[cls], st.sampled_from(cls._fields))
))
def test_replace_changes_the_named_field_alone(case):
    a, b, name = case
    assert a._replace() == a
    assert a._replace(**dict(zip(b._fields, fields(b)))) == b
    values = [getattr(b if n == name else a, n) for n in a._fields]
    try:
        type(a)(*values)
    except ValueError:  # a request's arguments must fit its operation
        with pytest.raises(ValueError):
            a._replace(**{name: getattr(b, name)})
    else:
        changed = a._replace(**{name: getattr(b, name)})
        assert (type(changed), fields(changed)) == (type(a), values)
    with pytest.raises(TypeError):
        a._replace(no_such_field=None)


@settings(max_examples=200, deadline=None)
@given(records)
def test_deepcopy_and_repr_give_back_the_value(record):
    if type(record) is not ViewModel:  # provenance is read-only, so not copied
        copied = copy.deepcopy(record)
        assert (copied, type(copied)) == (record, type(record))
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, record))
    assert repr(record) == f"{type(record).__qualname__}({shown})"


def test_an_object_id_keeps_its_parse_out_of_its_value():
    named, spelled = ObjectId("set:MAN_VP"), ObjectId("variant:b")
    assert (named.category, named.is_category, named._category) == (
        Category.MAN_VP, True, Category.MAN_VP)
    assert (spelled.category, spelled.is_category, spelled._category) == (
        None, False, Category.VARIANT)
    assert repr(spelled) == "ObjectId(text='variant:b')"
    assert hash(spelled) == hash(("variant:b",))
    assert spelled._replace(text="set:MAN_VP") == named


def test_a_view_is_not_its_model_and_hashes_without_provenance():
    model = Model(variants=frozenset({Variant("a")}))
    view = ViewModel(variants=frozenset({Variant("a")}))
    assert model != view and view != model
    assert hash(view) == hash((*model, frozenset()))
    other = view._replace(provenance=MappingProxyType({"variant:a": frozenset()}))
    assert view != other and hash(view) == hash(other)


@pytest.mark.parametrize(
    "record, name, value",
    [
        (VariationPoint("a", VariabilityKind.MANDATORY), "kind", "mandatory"),
        (Dependency("a", "b", VariabilityKind.OPTIONAL), "kind", "optional"),
        (EndpointRef(Universe.VP, "a"), "universe", "vp"),
        (Constraint(ConstraintKind.REQUIRES, EndpointRef(Universe.VP, "a"),
                    EndpointRef(Universe.VARIANT, "b")), "kind", "requires"),
        (Constraint(ConstraintKind.REQUIRES, EndpointRef(Universe.VP, "a"),
                    EndpointRef(Universe.VARIANT, "b")), "target", "variant:b"),
        (Permission(ObjectId("vp:a"), "read"), "object", "vp:a"),
    ],
    ids=["vp-kind", "dependency-kind", "endpoint-universe", "constraint-kind",
         "constraint-target", "permission-object"],
)
def test_replace_refuses_a_wrong_typed_field(record, name, value):
    with pytest.raises(ValueError, match="^expected a "):
        record._replace(**{name: value})


def test_missing_and_unknown_fields_are_refused():
    with pytest.raises(TypeError):
        Permission(ObjectId("vp:a"))
    with pytest.raises(TypeError):
        Model(frozenset(), no_such_field=frozenset())
    with pytest.raises(TypeError):
        Violation("a", "b", "c", "d")
    assert Outcome(OutcomeStatus.DENIED) == Outcome(OutcomeStatus.DENIED, None, None)


def test_violations_sort_by_code_subject_and_detail():
    found = [Violation("b", "a", "a"), Violation("a", "b", "b"), Violation("a", "b", "a")]
    assert sorted(found) == [found[2], found[1], found[0]]


def test_importing_the_command_line_loads_no_dataclasses_or_inspect():
    # both cost start-up time in every CLI process
    src = Path(ovmrbac.__file__).resolve().parent.parent
    code = ("import sys, ovmrbac.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
