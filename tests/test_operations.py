"""The twelve request operations: CLI parsing, RBAC resolution, validation.

Every operation appears once below with a command-line spelling, the request
the library helper builds, the (operation, target) the access check sees,
and arguments of the wrong arity or type that ``OpRequest`` must refuse.
"""

import pytest

from ovmrbac import ConstraintKind, EndpointRef, InvalidName, Universe, VariabilityKind
from ovmrbac.cli import request_from_args
from ovmrbac.session import (
    REQUEST_OPS,
    OpRequest,
    add_alt_group_request,
    add_constraint_request,
    add_dependency_request,
    add_man_vp_request,
    add_opt_vp_request,
    add_variant_request,
    remove_alt_group_request,
    remove_constraint_request,
    remove_dependency_request,
    remove_man_vp_request,
    remove_opt_vp_request,
    remove_variant_request,
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
    (["addManVP", "New VP"], add_man_vp_request("New VP"),
     "add_Variation_Point", "set:MAN_VP"),
    (["addOptVP", "New VP"], add_opt_vp_request("New VP"),
     "add_Variation_Point", "set:OPT_VP"),
    (["removeManVP", "CPU VP"], remove_man_vp_request("CPU VP"),
     "remove_Variation_Point", "vp:CPU VP"),
    (["removeOptVP", "Library Required VP"],
     remove_opt_vp_request("Library Required VP"),
     "remove_Variation_Point", "vp:Library Required VP"),
    (["addVariant", "Octave"], add_variant_request("Octave"),
     "add_Variant", "set:VARIANT"),
    (["removeVariant", "Matlab"], remove_variant_request("Matlab"),
     "remove_Variant", "variant:Matlab"),
    (["addDependency", "a", "P", "mandatory"], add_dependency_request("a", "P", MAN),
     "writeManDep", "set:MAN"),
    (["addDependency", "a", "P", "optional"], add_dependency_request("a", "P", OPT),
     "writeOptDep", "set:OPT"),
    (["removeDependency", "CPU", "Processor VP"],
     remove_dependency_request("CPU", "Processor VP"),
     "writeManDep", "dep:CPU->Processor VP"),
    (["removeDependency", "GPU", "Processor VP"],
     remove_dependency_request("GPU", "Processor VP"),
     "writeOptDep", "dep:GPU->Processor VP"),
    # a dependency the model does not hold resolves as optional
    (["removeDependency", "a", "P"], remove_dependency_request("a", "P"),
     "writeOptDep", "dep:a->P"),
    (["addAltGroup", "P", "1", "2", "a", "b"],
     add_alt_group_request({"a", "b"}, 1, 2, "P"),
     "add_AltGroup", "altgroup:P"),
    (["removeAltGroup", "CPU VP"], remove_alt_group_request("CPU VP"),
     "remove_AltGroup", "altgroup:CPU VP"),
    (["addConstraint", "requires", "variant:a", "vp:P"],
     add_constraint_request(REQUIRES, variant("a"), vp("P")),
     "add_Constraint", "constraint:requires:variant:a:vp:P"),
    (["addConstraint", "excludes", "vp:P", "vp:Q"],
     add_constraint_request(EXCLUDES, vp("P"), vp("Q")),
     "add_Constraint", "constraint:excludes:vp:P:vp:Q"),
    (["removeConstraint", "excludes", "variant:Matlab", "variant:Sc.Linux"],
     remove_constraint_request(EXCLUDES, variant("Matlab"), variant("Sc.Linux")),
     "remove_Constraint", "constraint:excludes:variant:Matlab:variant:Sc.Linux"),
    (["removeConstraint", "requires", "vp:P", "variant:a"],
     remove_constraint_request(REQUIRES, vp("P"), variant("a")),
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
]


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
    with pytest.raises(ValueError, match="expects"):
        request_from_args(op, [])


@pytest.mark.parametrize(
    "op, args, error",
    BAD_ARGS,
    ids=[
        f"{op}-{args!r}" if isinstance(args, tuple) else f"{op}-{type(args).__name__}"
        for op, args, _ in BAD_ARGS
    ],
)
def test_request_rejects_bad_arity_and_types(op, args, error):
    with pytest.raises(error):
        OpRequest(op, args)
