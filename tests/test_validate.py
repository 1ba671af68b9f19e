"""Structural checks over hand-built models the guarded operations forbid."""

import pytest

from ovmrbac import (
    AltGroup,
    Constraint,
    ConstraintKind,
    Dependency,
    EndpointRef,
    Model,
    Universe,
    VariabilityKind,
    VariationPoint,
    Variant,
    check_structure,
    validate_model,
)

MAN = VariabilityKind.MANDATORY
OPT = VariabilityKind.OPTIONAL
V = Universe.VARIANT
VP = Universe.VP


def codes(violations):
    return [v.code for v in violations]


def test_valid_fixture_is_clean(example_model):
    assert validate_model(example_model) == []


def test_vp_kind_overlap():
    model = Model(
        variation_points=frozenset(
            {VariationPoint("X", MAN), VariationPoint("X", OPT)}
        )
    )
    assert codes(check_structure(model)) == ["vp-kind-overlap"]


def test_dangling_dependency_endpoints():
    model = Model(dependencies=frozenset({Dependency("a", "P", MAN)}))
    found = check_structure(model)
    assert codes(found) == ["dangling-reference", "dangling-reference"]


def test_variant_bound_twice_by_dependencies():
    model = Model(
        variation_points=frozenset(
            {VariationPoint("P", MAN), VariationPoint("Q", MAN)}
        ),
        variants=frozenset({Variant("a")}),
        dependencies=frozenset(
            {Dependency("a", "P", MAN), Dependency("a", "Q", OPT)}
        ),
    )
    assert "variant-multiply-bound" in codes(check_structure(model))


def test_variant_in_dependency_and_group():
    model = Model(
        variation_points=frozenset({VariationPoint("P", MAN)}),
        variants=frozenset({Variant("a"), Variant("b")}),
        dependencies=frozenset({Dependency("a", "P", MAN)}),
        alt_groups=frozenset({AltGroup(frozenset({"a", "b"}), 1, 1, "P")}),
    )
    assert "variant-multiply-bound" in codes(check_structure(model))


def test_group_too_small_and_bad_cardinality():
    model = Model(
        variation_points=frozenset({VariationPoint("P", MAN)}),
        variants=frozenset({Variant("a")}),
        alt_groups=frozenset({AltGroup(frozenset({"a"}), 2, 1, "P")}),
    )
    found = codes(check_structure(model))
    assert "group-too-small" in found
    assert "group-cardinality" in found


def test_two_groups_on_one_vp():
    model = Model(
        variation_points=frozenset({VariationPoint("P", MAN)}),
        variants=frozenset({Variant(n) for n in "abcd"}),
        alt_groups=frozenset(
            {
                AltGroup(frozenset({"a", "b"}), 1, 1, "P"),
                AltGroup(frozenset({"c", "d"}), 1, 1, "P"),
            }
        ),
    )
    assert "duplicate-group-target" in codes(check_structure(model))


def test_excludes_asymmetry():
    model = Model(
        variants=frozenset({Variant("Matlab"), Variant("Sc.Linux")}),
        constraints=frozenset(
            {
                Constraint(
                    ConstraintKind.EXCLUDES,
                    EndpointRef(V, "Matlab"),
                    EndpointRef(V, "Sc.Linux"),
                )
            }
        ),
    )
    assert codes(check_structure(model)) == ["excludes-asymmetry"]


def test_constraint_exclusivity():
    pair = (EndpointRef(V, "a"), EndpointRef(V, "b"))
    model = Model(
        variants=frozenset({Variant("a"), Variant("b")}),
        constraints=frozenset(
            {
                Constraint(ConstraintKind.REQUIRES, *pair),
                Constraint(ConstraintKind.EXCLUDES, *pair),
                Constraint(ConstraintKind.EXCLUDES, pair[1], pair[0]),
            }
        ),
    )
    assert "constraint-exclusivity" in codes(check_structure(model))


def test_self_constraint():
    ref = EndpointRef(V, "a")
    model = Model(
        variants=frozenset({Variant("a")}),
        constraints=frozenset({Constraint(ConstraintKind.REQUIRES, ref, ref)}),
    )
    assert "self-constraint" in codes(check_structure(model))


def test_dangling_constraint_endpoint():
    model = Model(
        variants=frozenset({Variant("a")}),
        constraints=frozenset(
            {
                Constraint(
                    ConstraintKind.REQUIRES,
                    EndpointRef(V, "a"),
                    EndpointRef(VP, "ghost"),
                )
            }
        ),
    )
    assert "dangling-reference" in codes(check_structure(model))


def test_completeness_reported_only_by_validate():
    model = Model(variants=frozenset({Variant("Stray")}))
    assert check_structure(model) == []
    found = validate_model(model)
    assert codes(found) == ["variant-without-dependency"]
    assert found[0].subject == "Stray"


def test_violations_sorted_and_rendered():
    model = Model(
        variation_points=frozenset(
            {VariationPoint("X", MAN), VariationPoint("X", OPT)}
        ),
        variants=frozenset({Variant("z"), Variant("a")}),
    )
    found = validate_model(model)
    assert found == sorted(found)
    assert str(found[0]).count(":") >= 2


# --- exact violation texts -------------------------------------------------------

REQUIRES = ConstraintKind.REQUIRES
EXCLUDES = ConstraintKind.EXCLUDES


def points(*pairs):
    return frozenset(VariationPoint(name, kind) for name, kind in pairs)


def variants(names):
    return frozenset(Variant(name) for name in names)


def constraint(kind, source, target):
    return Constraint(kind, EndpointRef(*source), EndpointRef(*target))


# (model, every str(Violation) that validate_model reports, in order); the
# rows cover each violation code and each owner and universe of a dangling
# reference.
VIOLATION_TEXTS = {
    "vp-kind-overlap": (
        Model(variation_points=points(("X", MAN), ("X", OPT))),
        ["vp-kind-overlap: X: listed as both mandatory and optional"],
    ),
    "dangling-dependency": (
        Model(dependencies=frozenset({Dependency("a", "P", MAN)})),
        [
            "dangling-reference: a -> P: dependency names unknown variant 'a'",
            "dangling-reference: a -> P: dependency names unknown variation point 'P'",
        ],
    ),
    "dangling-group": (
        Model(
            variants=variants("b"),
            alt_groups=frozenset({AltGroup(frozenset({"a", "b"}), 1, 1, "P")}),
        ),
        [
            "dangling-reference: group at P: group names unknown variant 'a'",
            "dangling-reference: group at P: group names unknown variation point 'P'",
        ],
    ),
    "dangling-constraint": (
        Model(
            variation_points=points(("P", MAN)),
            variants=variants("a"),
            dependencies=frozenset({Dependency("a", "P", OPT)}),
            constraints=frozenset({
                constraint(REQUIRES, (V, "a"), (VP, "ghost")),
                constraint(REQUIRES, (V, "ghost"), (VP, "P")),
            }),
        ),
        [
            "dangling-reference: constraint requires variant:a -> vp:ghost: "
            "constraint names unknown vp 'ghost'",
            "dangling-reference: constraint requires variant:ghost -> vp:P: "
            "constraint names unknown variant 'ghost'",
        ],
    ),
    "variant-multiply-bound": (
        Model(
            variation_points=points(("P", MAN), ("Q", OPT)),
            variants=variants("abc"),
            dependencies=frozenset(
                {Dependency("a", "P", MAN), Dependency("a", "Q", OPT)}
            ),
            alt_groups=frozenset({
                AltGroup(frozenset({"a", "b"}), 1, 1, "P"),
                AltGroup(frozenset({"b", "c"}), 1, 2, "Q"),
            }),
        ),
        [
            "variant-multiply-bound: a: bound by 3 variability dependencies",
            "variant-multiply-bound: b: bound by 2 variability dependencies",
        ],
    ),
    "group-shape": (
        Model(
            variation_points=points(("P", MAN)),
            variants=variants("a"),
            alt_groups=frozenset({AltGroup(frozenset({"a"}), 2, 1, "P")}),
        ),
        [
            "group-cardinality: group at P: need min <= max <= 1, got (2, 1)",
            "group-too-small: group at P: fewer than two member variants",
        ],
    ),
    "duplicate-group-target": (
        Model(
            variation_points=points(("P", MAN)),
            variants=variants("abcd"),
            alt_groups=frozenset({
                AltGroup(frozenset({"a", "b"}), 1, 1, "P"),
                AltGroup(frozenset({"c", "d"}), 0, 2, "P"),
            }),
        ),
        [
            "duplicate-group-target: P: "
            "more than one alternative group targets this variation point"
        ],
    ),
    "excludes-asymmetry": (
        Model(
            variation_points=points(("P", OPT)),
            variants=variants("a"),
            dependencies=frozenset({Dependency("a", "P", OPT)}),
            constraints=frozenset({constraint(EXCLUDES, (VP, "P"), (V, "a"))}),
        ),
        [
            "excludes-asymmetry: constraint excludes vp:P -> variant:a: "
            "excludes pair present in one direction only"
        ],
    ),
    "constraint-exclusivity": (
        Model(
            variation_points=points(("P", MAN)),
            variants=variants("a"),
            dependencies=frozenset({Dependency("a", "P", MAN)}),
            constraints=frozenset({
                constraint(REQUIRES, (V, "a"), (VP, "P")),
                constraint(EXCLUDES, (V, "a"), (VP, "P")),
                constraint(EXCLUDES, (VP, "P"), (V, "a")),
            }),
        ),
        [
            "constraint-exclusivity: variant:a -> vp:P: "
            "ordered pair claimed by both requires and excludes"
        ],
    ),
    "self-constraint": (
        Model(
            variation_points=points(("P", MAN)),
            variants=variants("a"),
            dependencies=frozenset({Dependency("a", "P", MAN)}),
            constraints=frozenset({constraint(REQUIRES, (V, "a"), (V, "a"))}),
        ),
        ["self-constraint: constraint requires variant:a -> variant:a: "
         "endpoints are identical"],
    ),
    "variant-without-dependency": (
        Model(variants=variants(["z", "a b"])),
        [
            "variant-without-dependency: a b: "
            "variant is not part of any variability dependency",
            "variant-without-dependency: z: "
            "variant is not part of any variability dependency",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(VIOLATION_TEXTS))
def test_violation_texts(case):
    model, texts = VIOLATION_TEXTS[case]
    assert [str(v) for v in validate_model(model)] == texts
    structural = [t for t in texts if not t.startswith("variant-without-dependency")]
    assert [str(v) for v in check_structure(model)] == structural
