"""The twelve request operations: CLI parsing, RBAC resolution, validation.

Every operation appears once below with a command-line spelling, the request
built directly as ``OpRequest(op, args)``, the (operation, target) the access
check sees, its usage message, and arguments of the wrong arity or type that
``OpRequest`` must refuse.
"""

import pytest

from ovmrbac import ConstraintKind, EndpointRef, InvalidName, Universe, VariabilityKind
from ovmrbac.cli import request_from_args
from ovmrbac.session import (
    REQUEST_OPS,
    OpRequest,
    resolve_request,
)

MAN = VariabilityKind.MANDATORY
OPT = VariabilityKind.OPTIONAL
REQUIRES = ConstraintKind.REQUIRES
EXCLUDES = ConstraintKind.EXCLUDES


def variant(name):
    return EndpointRef(Universe.VARIANT, name)


def vp(name):
    return EndpointRef(Universe.VP, name)


# (argv after --op, library request, rbac operation, target text)
CASES = [
    (["addManVP", "New VP"], OpRequest("addManVP", ("New VP",)),
     "add_Variation_Point", "set:MAN_VP"),
    (["addOptVP", "New VP"], OpRequest("addOptVP", ("New VP",)),
     "add_Variation_Point", "set:OPT_VP"),
    (["removeManVP", "CPU VP"], OpRequest("removeManVP", ("CPU VP",)),
     "remove_Variation_Point", "vp:CPU VP"),
    (["removeOptVP", "Library Required VP"],
     OpRequest("removeOptVP", ("Library Required VP",)),
     "remove_Variation_Point", "vp:Library Required VP"),
    (["addVariant", "Octave"], OpRequest("addVariant", ("Octave",)),
     "add_Variant", "set:VARIANT"),
    (["removeVariant", "Matlab"], OpRequest("removeVariant", ("Matlab",)),
     "remove_Variant", "variant:Matlab"),
    (["addDependency", "a", "P", "mandatory"],
     OpRequest("addDependency", ("a", "P", MAN)),
     "writeManDep", "set:MAN"),
    (["addDependency", "a", "P", "optional"],
     OpRequest("addDependency", ("a", "P", OPT)),
     "writeOptDep", "set:OPT"),
    (["removeDependency", "CPU", "Processor VP"],
     OpRequest("removeDependency", ("CPU", "Processor VP")),
     "writeManDep", "dep:CPU->Processor VP"),
    (["removeDependency", "GPU", "Processor VP"],
     OpRequest("removeDependency", ("GPU", "Processor VP")),
     "writeOptDep", "dep:GPU->Processor VP"),
    # a dependency the model does not hold resolves as optional
    (["removeDependency", "a", "P"], OpRequest("removeDependency", ("a", "P")),
     "writeOptDep", "dep:a->P"),
    (["addAltGroup", "P", "1", "2", "a", "b"],
     OpRequest("addAltGroup", ({"a", "b"}, 1, 2, "P")),
     "add_AltGroup", "altgroup:P"),
    (["removeAltGroup", "CPU VP"], OpRequest("removeAltGroup", ("CPU VP",)),
     "remove_AltGroup", "altgroup:CPU VP"),
    (["addConstraint", "requires", "variant:a", "vp:P"],
     OpRequest("addConstraint", (REQUIRES, variant("a"), vp("P"))),
     "add_Constraint", "constraint:requires:variant:a:vp:P"),
    (["addConstraint", "excludes", "vp:P", "vp:Q"],
     OpRequest("addConstraint", (EXCLUDES, vp("P"), vp("Q"))),
     "add_Constraint", "constraint:excludes:vp:P:vp:Q"),
    (["removeConstraint", "excludes", "variant:Matlab", "variant:Sc.Linux"],
     OpRequest("removeConstraint",
               (EXCLUDES, variant("Matlab"), variant("Sc.Linux"))),
     "remove_Constraint", "constraint:excludes:variant:Matlab:variant:Sc.Linux"),
    (["removeConstraint", "requires", "vp:P", "variant:a"],
     OpRequest("removeConstraint", (REQUIRES, vp("P"), variant("a"))),
     "remove_Constraint", "constraint:requires:vp:P:variant:a"),
]

# (op, args) pairs OpRequest must refuse, with the error each raises
BAD_ARGS = [
    *[(op, (), ValueError) for op in REQUEST_OPS],
    *[(op, ("a", "b", "c", "d", "e"), ValueError) for op in REQUEST_OPS],
    ("addManVP", (42,), InvalidName),
    ("removeOptVP", ("",), InvalidName),
    ("addDependency", ("a", "P", "mandatory"), ValueError),
    ("removeDependency", ("a", 7), InvalidName),
    ("addAltGroup", ({"a", "b"}, "1", 1, "P"), ValueError),
    ("addAltGroup", ({"a", "b"}, 1, 1.5, "P"), ValueError),
    ("addAltGroup", ({"a", 3}, 1, 1, "P"), InvalidName),
    ("addConstraint", ("requires", variant("a"), vp("P")), ValueError),
    ("addConstraint", (REQUIRES, "variant:a", vp("P")), ValueError),
    ("removeConstraint", (EXCLUDES, vp("P"), "vp:Q"), ValueError),
    ("addManVP", (name for name in ["a"]), ValueError),
    ("addManVP", None, ValueError),
    # a string is not a set of names, nor is a non-iterable
    ("addAltGroup", ("ab", 1, 1, "P"), ValueError),
    ("addAltGroup", (5, 1, 1, "P"), ValueError),
    ("addAltGroup", (None, 1, 1, "P"), ValueError),
]

_CONSTRAINT_USAGE = "requires|excludes variant:NAME|vp:NAME variant:NAME|vp:NAME"

# what the command line prints for each op given no arguments
USAGE = {
    "addManVP": "NAME",
    "addOptVP": "NAME",
    "removeManVP": "NAME",
    "removeOptVP": "NAME",
    "addVariant": "NAME",
    "removeVariant": "NAME",
    "addDependency": "NAME NAME mandatory|optional",
    "removeDependency": "NAME NAME",
    "addAltGroup": "VP MIN MAX VARIANT VARIANT...",
    "removeAltGroup": "NAME",
    "addConstraint": _CONSTRAINT_USAGE,
    "removeConstraint": _CONSTRAINT_USAGE,
}


def _shown(arg):
    """An argument's repr, with set members sorted so no hash seed shows."""
    if isinstance(arg, set):
        return "{" + ", ".join(map(repr, sorted(arg, key=str))) + "}"
    return repr(arg)


def bad_args_id(op, args):
    if not isinstance(args, tuple):
        return f"{op}-{type(args).__name__}"
    return f"{op}-({', '.join(map(_shown, args))}{',' if len(args) == 1 else ''})"


def test_every_op_has_a_case():
    assert {argv[0] for argv, *_ in CASES} == set(REQUEST_OPS)
    assert len(REQUEST_OPS) == 12


@pytest.mark.parametrize(
    "argv, request_, operation, target", CASES, ids=[" ".join(c[0]) for c in CASES]
)
def test_cli_library_and_resolution_agree(
    example_model, argv, request_, operation, target
):
    assert request_from_args(argv[0], argv[1:]) == request_
    got_operation, got_target = resolve_request(request_, example_model)
    assert (got_operation, got_target.text) == (operation, target)


@pytest.mark.parametrize("op", REQUEST_OPS)
def test_cli_rejects_missing_arguments(op):
    with pytest.raises(ValueError) as info:
        request_from_args(op, [])
    assert str(info.value) == f"--op {op} expects {USAGE[op]}"


@pytest.mark.parametrize(
    "op, args, error",
    BAD_ARGS,
    ids=[bad_args_id(op, args) for op, args, _ in BAD_ARGS],
)
def test_request_rejects_bad_arity_and_types(op, args, error):
    with pytest.raises(error):
        OpRequest(op, args)
