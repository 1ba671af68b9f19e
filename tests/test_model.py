"""Guarded model operations: preconditions, effects, and error taxonomy."""

import pytest

from ovmrbac import (
    AltGroup,
    CardinalityInvalid,
    ConstraintConflict,
    ConstraintKind,
    DuplicateElement,
    ElementInUse,
    EndpointRef,
    GroupExists,
    InvalidName,
    NotFound,
    OvmRbacError,
    SelfConstraint,
    Universe,
    VariabilityKind,
    VariantAlreadyBound,
    add_alt_group,
    add_constraint,
    add_dependency,
    add_man_vp,
    add_opt_vp,
    add_variant,
    list_alt_groups,
    list_constraints,
    list_dependencies,
    list_variants,
    list_vps,
    new_empty_model,
    remove_alt_group,
    remove_constraint,
    remove_dependency,
    remove_man_vp,
    remove_opt_vp,
    remove_variant,
    validate_model,
)

MAN = VariabilityKind.MANDATORY
OPT = VariabilityKind.OPTIONAL


def variant_ref(name):
    return EndpointRef(Universe.VARIANT, name)


def vp_ref(name):
    return EndpointRef(Universe.VP, name)


class TestEmptyModel:
    def test_all_sets_empty(self):
        model = new_empty_model()
        assert list_vps(model) == []
        assert list_variants(model) == []
        assert list_dependencies(model) == []
        assert list_alt_groups(model) == []
        assert list_constraints(model) == []

    def test_empty_model_validates(self):
        assert validate_model(new_empty_model()) == []

    def test_add_to_empty(self):
        model = add_man_vp(new_empty_model(), "Authentication VP")
        assert list_vps(model, MAN) == ["Authentication VP"]


class TestVariationPoints:
    def test_add_man_vp(self):
        model = add_man_vp(new_empty_model(), "Authentication VP")
        assert list_vps(model, MAN) == ["Authentication VP"]
        assert list_vps(model, OPT) == []

    def test_add_duplicate_same_kind(self):
        model = add_man_vp(new_empty_model(), "X")
        with pytest.raises(DuplicateElement):
            add_man_vp(model, "X")

    def test_add_duplicate_across_kinds(self):
        model = add_opt_vp(new_empty_model(), "Linux VP")
        with pytest.raises(DuplicateElement):
            add_man_vp(model, "Linux VP")
        model = add_man_vp(new_empty_model(), "OS VP")
        with pytest.raises(DuplicateElement):
            add_opt_vp(model, "OS VP")

    def test_add_opt_vp(self):
        model = add_opt_vp(new_empty_model(), "Linux VP")
        assert list_vps(model, OPT) == ["Linux VP"]
        with pytest.raises(DuplicateElement):
            add_opt_vp(model, "Linux VP")

    def test_remove_unreferenced(self):
        model = add_man_vp(new_empty_model(), "Lonely VP")
        assert list_vps(remove_man_vp(model, "Lonely VP")) == []
        model = add_opt_vp(new_empty_model(), "Spare VP")
        assert list_vps(remove_opt_vp(model, "Spare VP")) == []

    def test_remove_blocked_by_group(self, example_model):
        with pytest.raises(ElementInUse) as exc:
            remove_man_vp(example_model, "CPU VP")
        assert any("alternative group" in b for b in exc.value.blockers)

    def test_remove_blocked_by_group_and_constraints(self, example_model):
        # Authentication VP carries the three-variant group and two requires
        # constraints, so every blocker class is reported.
        with pytest.raises(ElementInUse) as exc:
            remove_man_vp(example_model, "Authentication VP")
        blockers = " ".join(exc.value.blockers)
        assert "alternative group" in blockers
        assert "requires" in blockers

    def test_remove_opt_blocked_by_constraint(self, example_model):
        with pytest.raises(ElementInUse) as exc:
            remove_opt_vp(example_model, "Linux VP")
        assert any("requires" in b for b in exc.value.blockers)

    def test_remove_wrong_kind_is_not_found(self, example_model):
        with pytest.raises(NotFound):
            remove_opt_vp(example_model, "Processor VP")
        with pytest.raises(NotFound):
            remove_man_vp(example_model, "Linux VP")

    def test_remove_blocked_by_dependency(self):
        model = add_man_vp(new_empty_model(), "P")
        model = add_variant(model, "a")
        model = add_dependency(model, "a", "P", OPT)
        with pytest.raises(ElementInUse) as exc:
            remove_man_vp(model, "P")
        assert any("dependency" in b for b in exc.value.blockers)

    def test_invalid_names_rejected(self):
        for bad in ("", " padded ", "a:b", "a->b", None):
            with pytest.raises(InvalidName):
                add_man_vp(new_empty_model(), bad)

    def test_names_are_text_that_utf8_can_encode(self):
        for good in ("Größe VP", "名前", "rocket \U0001f680"):
            assert list_vps(add_man_vp(new_empty_model(), good)) == [good]
        # lone surrogates, as a JSON escape or an undecodable argv byte gives
        for bad in ("\ud800", "a\udfffb", "X\udcff", "\ud83d\ude80"):
            with pytest.raises(InvalidName) as exc:
                add_man_vp(new_empty_model(), bad)
            assert str(exc.value) == f"element name {bad!r} cannot be encoded as UTF-8"
        with pytest.raises(InvalidName):
            add_variant(new_empty_model(), "B\ud800")


class TestVariants:
    def test_add_variant(self):
        model = add_variant(new_empty_model(), "Kerberos")
        assert list_variants(model) == ["Kerberos"]

    def test_add_duplicate(self):
        model = add_variant(new_empty_model(), "Matlab")
        with pytest.raises(DuplicateElement):
            add_variant(model, "Matlab")

    def test_unbound_variant_fails_completeness_only(self):
        model = add_variant(new_empty_model(), "Kerberos")
        violations = validate_model(model)
        assert [v.code for v in violations] == ["variant-without-dependency"]
        assert violations[0].subject == "Kerberos"

    def test_remove_stray(self):
        model = add_variant(new_empty_model(), "Stray")
        assert list_variants(remove_variant(model, "Stray")) == []

    def test_remove_blocked_by_constraints(self, example_model):
        # Matlab sits in the excludes pair, two requires edges, and an
        # optional dependency.
        with pytest.raises(ElementInUse) as exc:
            remove_variant(example_model, "Matlab")
        blockers = " ".join(exc.value.blockers)
        assert "excludes" in blockers and "requires" in blockers

    def test_remove_blocked_by_group_membership(self, example_model):
        with pytest.raises(ElementInUse) as exc:
            remove_variant(example_model, "Kerberos")
        assert any("alternative group" in b for b in exc.value.blockers)

    def test_remove_missing(self):
        with pytest.raises(NotFound):
            remove_variant(new_empty_model(), "ghost")


def small_model():
    model = new_empty_model()
    model = add_man_vp(model, "Grid Deployment Node VP")
    model = add_man_vp(model, "Processor VP")
    model = add_variant(model, "Authentication")
    model = add_variant(model, "GPU")
    return model


class TestDependencies:
    def test_add_mandatory(self):
        model = add_dependency(
            small_model(), "Authentication", "Grid Deployment Node VP", MAN
        )
        deps = list_dependencies(model)
        assert [(d.variant, d.vp, d.kind) for d in deps] == [
            ("Authentication", "Grid Deployment Node VP", MAN)
        ]

    def test_variant_bound_once_across_kinds(self):
        model = add_dependency(small_model(), "GPU", "Processor VP", OPT)
        with pytest.raises(VariantAlreadyBound):
            add_dependency(model, "GPU", "Grid Deployment Node VP", MAN)

    def test_group_member_cannot_take_dependency(self, example_model):
        with pytest.raises(VariantAlreadyBound):
            add_dependency(example_model, "Kerberos", "OS VP", OPT)

    def test_missing_endpoints(self):
        with pytest.raises(NotFound):
            add_dependency(small_model(), "nope", "Processor VP", MAN)
        with pytest.raises(NotFound):
            add_dependency(small_model(), "GPU", "nope", MAN)

    def test_remove(self, example_model):
        model = remove_dependency(example_model, "GPU", "Processor VP")
        assert all(
            d.variant != "GPU" for d in list_dependencies(model)
        )
        # GPU itself stays and now fails completeness
        assert "GPU" in list_variants(model)
        assert any(
            v.code == "variant-without-dependency" and v.subject == "GPU"
            for v in validate_model(model)
        )

    def test_remove_missing(self):
        with pytest.raises(NotFound):
            remove_dependency(new_empty_model(), "a", "b")


class TestAltGroups:
    def test_add_then_remove_restores(self, example_model):
        without = remove_alt_group(example_model, "Authentication VP")
        assert len(list_alt_groups(without)) == 1
        rebuilt = add_alt_group(
            without, {"Kerberos", "Password", "SSLAuth"}, 1, 1, "Authentication VP"
        )
        assert rebuilt == example_model

    def test_too_few_members(self, example_model):
        with pytest.raises(CardinalityInvalid):
            add_alt_group(example_model, {"x32"}, 1, 1, "CPU VP")

    def test_min_greater_than_max(self, example_model):
        # Cardinality is vetted before membership, so the bound members of
        # the existing CPU group still report the cardinality error.
        with pytest.raises(CardinalityInvalid):
            add_alt_group(example_model, {"x32", "x64"}, 2, 1, "CPU VP")

    def test_boolean_cardinality(self, example_model):
        without = remove_alt_group(example_model, "CPU VP")
        with pytest.raises(CardinalityInvalid):
            add_alt_group(without, {"x32", "x64"}, True, True, "CPU VP")

    def test_max_beyond_size(self, example_model):
        without = remove_alt_group(example_model, "CPU VP")
        with pytest.raises(CardinalityInvalid):
            add_alt_group(without, {"x32", "x64"}, 1, 3, "CPU VP")

    def test_one_group_per_vp(self, example_model):
        without = remove_alt_group(example_model, "CPU VP")
        model = add_alt_group(without, {"x32", "x64"}, 1, 1, "CPU VP")
        with pytest.raises(VariantAlreadyBound):
            add_alt_group(model, {"x32", "x64"}, 1, 2, "Authentication VP")
        free = remove_dependency(model, "GPU", "Processor VP")
        free = remove_dependency(free, "File Size Limit", "Grid Deployment Node VP")
        with pytest.raises(GroupExists):
            add_alt_group(free, {"GPU", "File Size Limit"}, 1, 1, "CPU VP")

    def test_remove_missing_group(self, example_model):
        with pytest.raises(NotFound):
            remove_alt_group(example_model, "OS VP")

    def test_vp_removable_after_group_and_constraints_go(self, example_model):
        model = remove_alt_group(example_model, "CPU VP")
        # the dependency CPU -> Processor VP targets a different point, so
        # only the requires edge still pins CPU VP down
        with pytest.raises(ElementInUse):
            remove_man_vp(model, "CPU VP")
        model = remove_constraint(
            model, ConstraintKind.REQUIRES, variant_ref("CPU"), vp_ref("CPU VP")
        )
        model = remove_man_vp(model, "CPU VP")
        assert "CPU VP" not in list_vps(model)


class TestConstraints:
    def test_excludes_closes_both_directions(self, example_model):
        base = remove_constraint(
            example_model,
            ConstraintKind.EXCLUDES,
            variant_ref("Matlab"),
            variant_ref("Sc.Linux"),
        )
        assert list_constraints(base, ConstraintKind.EXCLUDES) == []
        model = add_constraint(
            base,
            ConstraintKind.EXCLUDES,
            variant_ref("Matlab"),
            variant_ref("Sc.Linux"),
        )
        pairs = {
            (c.source.name, c.target.name)
            for c in list_constraints(model, ConstraintKind.EXCLUDES)
        }
        assert pairs == {("Matlab", "Sc.Linux"), ("Sc.Linux", "Matlab")}

    def test_requires_is_directed(self):
        model = add_opt_vp(new_empty_model(), "Linux VP")
        model = add_variant(model, "Linux")
        model = add_constraint(
            model, ConstraintKind.REQUIRES, variant_ref("Linux"), vp_ref("Linux VP")
        )
        constraints = list_constraints(model, ConstraintKind.REQUIRES)
        assert [(c.source.name, c.target.name) for c in constraints] == [
            ("Linux", "Linux VP")
        ]

    def test_pair_claimed_by_other_kind(self):
        model = add_opt_vp(new_empty_model(), "Linux VP")
        model = add_variant(model, "Linux")
        model = add_constraint(
            model, ConstraintKind.REQUIRES, variant_ref("Linux"), vp_ref("Linux VP")
        )
        with pytest.raises(ConstraintConflict):
            add_constraint(
                model,
                ConstraintKind.EXCLUDES,
                variant_ref("Linux"),
                vp_ref("Linux VP"),
            )

    def test_excludes_blocked_by_reverse_requires(self):
        model = add_variant(add_variant(new_empty_model(), "a"), "b")
        model = add_constraint(
            model, ConstraintKind.REQUIRES, variant_ref("b"), variant_ref("a")
        )
        with pytest.raises(ConstraintConflict):
            add_constraint(
                model, ConstraintKind.EXCLUDES, variant_ref("a"), variant_ref("b")
            )

    def test_duplicate_pair_same_kind(self, example_model):
        with pytest.raises(ConstraintConflict):
            add_constraint(
                example_model,
                ConstraintKind.REQUIRES,
                variant_ref("Linux"),
                vp_ref("Linux VP"),
            )

    def test_self_constraint_rejected(self):
        model = add_variant(new_empty_model(), "a")
        with pytest.raises(SelfConstraint):
            add_constraint(
                model, ConstraintKind.REQUIRES, variant_ref("a"), variant_ref("a")
            )

    def test_same_text_different_universe_is_not_self(self):
        model = add_man_vp(new_empty_model(), "Authentication")
        model = add_variant(model, "Authentication")
        model = add_constraint(
            model,
            ConstraintKind.REQUIRES,
            variant_ref("Authentication"),
            vp_ref("Authentication"),
        )
        assert len(list_constraints(model)) == 1

    def test_missing_endpoint(self):
        with pytest.raises(NotFound):
            add_constraint(
                new_empty_model(),
                ConstraintKind.REQUIRES,
                variant_ref("a"),
                variant_ref("b"),
            )

    def test_remove_excludes_either_direction(self, example_model):
        one = remove_constraint(
            example_model,
            ConstraintKind.EXCLUDES,
            variant_ref("Matlab"),
            variant_ref("Sc.Linux"),
        )
        other = remove_constraint(
            example_model,
            ConstraintKind.EXCLUDES,
            variant_ref("Sc.Linux"),
            variant_ref("Matlab"),
        )
        assert one == other
        assert list_constraints(one, ConstraintKind.EXCLUDES) == []

    def test_remove_missing(self):
        with pytest.raises(NotFound):
            remove_constraint(
                new_empty_model(),
                ConstraintKind.REQUIRES,
                variant_ref("a"),
                variant_ref("b"),
            )


class TestQueries:
    def test_list_vps_by_kind(self, example_model):
        mandatory = list_vps(example_model, MAN)
        assert len(mandatory) == 6
        assert "Authentication VP" in mandatory
        assert list_vps(example_model, OPT) == ["Library Required VP", "Linux VP"]

    def test_list_vps_empty(self):
        assert list_vps(new_empty_model()) == []

    def test_list_constraints_excludes(self, example_model):
        assert len(list_constraints(example_model, ConstraintKind.EXCLUDES)) == 2

    def test_orders_are_sorted(self, example_model):
        names = list_variants(example_model)
        assert names == sorted(names)
        deps = list_dependencies(example_model)
        assert deps == sorted(deps, key=lambda d: (d.variant, d.vp))


# --- exact precondition texts --------------------------------------------------

REQ = ConstraintKind.REQUIRES
EXC = ConstraintKind.EXCLUDES


def pinned_model():
    """P, Q mandatory and O optional; a -> P, d -> Q, the group {b, c} at Q,
    a requires Q and a excludes d; variants e and f are free."""
    model = add_opt_vp(add_man_vp(add_man_vp(new_empty_model(), "P"), "Q"), "O")
    for name in "abcdef":
        model = add_variant(model, name)
    model = add_dependency(model, "a", "P", MAN)
    model = add_dependency(model, "d", "Q", OPT)
    model = add_alt_group(model, ["b", "c"], 1, 1, "Q")
    model = add_constraint(model, REQ, variant_ref("a"), vp_ref("Q"))
    return add_constraint(model, EXC, variant_ref("a"), variant_ref("d"))


NON_EMPTY = "element name must be a non-empty string"
NOT_NATURAL = "group cardinalities must be natural numbers"

# (operation, arguments, error class, str(error)); rows of one operation are
# in the order its guard checks them, and a row whose arguments break several
# preconditions pins which of them is reported.
PRECONDITION_TEXTS = [
    (add_man_vp, ("",), InvalidName, NON_EMPTY),
    (add_man_vp, (None,), InvalidName, NON_EMPTY),
    (add_man_vp, (" X",), InvalidName,
     "element name ' X' has leading or trailing whitespace"),
    (add_man_vp, ("a:b",), InvalidName, "element name 'a:b' may not contain ':'"),
    (add_man_vp, ("a->b",), InvalidName, "element name 'a->b' may not contain '->'"),
    (add_man_vp, ("P",), DuplicateElement, "variation point 'P' already exists"),
    (add_man_vp, ("O",), DuplicateElement, "variation point 'O' already exists"),
    (add_opt_vp, ("",), InvalidName, NON_EMPTY),
    (add_opt_vp, ("P",), DuplicateElement, "variation point 'P' already exists"),
    (remove_man_vp, ("",), NotFound, "no mandatory variation point named ''"),
    (remove_man_vp, (None,), NotFound, "no mandatory variation point named None"),
    (remove_man_vp, ("O",), NotFound, "no mandatory variation point named 'O'"),
    (remove_man_vp, ("P",), ElementInUse,
     "variation point 'P' is still referenced by: dependency a -> P"),
    (remove_opt_vp, ("",), NotFound, "no optional variation point named ''"),
    (remove_opt_vp, ("P",), NotFound, "no optional variation point named 'P'"),
    (add_variant, ("",), InvalidName, NON_EMPTY),
    (add_variant, ("a\n",), InvalidName,
     "element name 'a\\n' has leading or trailing whitespace"),
    (add_variant, ("a",), DuplicateElement, "variant 'a' already exists"),
    (remove_variant, ("",), NotFound, "no variant named ''"),
    (remove_variant, (None,), NotFound, "no variant named None"),
    (remove_variant, ("ghost",), NotFound, "no variant named 'ghost'"),
    (remove_variant, ("b",), ElementInUse,
     "variant 'b' is still referenced by: alternative group at Q"),
    (add_dependency, ("", "P", MAN), InvalidName, NON_EMPTY),
    (add_dependency, ("ghost", "", MAN), InvalidName, NON_EMPTY),
    (add_dependency, ("ghost", "nowhere", MAN), NotFound, "no variant named 'ghost'"),
    (add_dependency, ("e", "nowhere", OPT), NotFound,
     "no variation point named 'nowhere'"),
    (add_dependency, ("a", "Q", MAN), VariantAlreadyBound,
     "variant 'a' already depends on 'P'"),
    (add_dependency, ("b", "P", OPT), VariantAlreadyBound,
     "variant 'b' is a member of the group at 'Q'"),
    (remove_dependency, ("a", "Q"), NotFound, "no dependency 'a' -> 'Q'"),
    (remove_dependency, ("", ""), NotFound, "no dependency '' -> ''"),
    (add_alt_group, (["e", ""], 1, 1, "O"), InvalidName, NON_EMPTY),
    (add_alt_group, (["e", "f"], 1, 1, ""), InvalidName, NON_EMPTY),
    (add_alt_group, (["zz", "e", "ghost"], 1, 1, "nowhere"), NotFound,
     "no variant named 'ghost'"),
    (add_alt_group, (["e", "f"], 1, 1, "nowhere"), NotFound,
     "no variation point named 'nowhere'"),
    (add_alt_group, (["e"], 5, 1, "O"), CardinalityInvalid,
     "an alternative group needs at least two variants"),
    (add_alt_group, (["a", "e"], 2, 1, "Q"), CardinalityInvalid,
     "need 0 <= min <= max <= 2, got (2, 1)"),
    (add_alt_group, (["e", "f"], -1, 1, "O"), CardinalityInvalid,
     "need 0 <= min <= max <= 2, got (-1, 1)"),
    (add_alt_group, (["e", "f"], 1, 3, "O"), CardinalityInvalid,
     "need 0 <= min <= max <= 2, got (1, 3)"),
    (add_alt_group, (["e", "a", "b"], 1, 1, "Q"), VariantAlreadyBound,
     "variant 'a' already has a dependency"),
    (add_alt_group, (["e", "b"], 1, 1, "O"), VariantAlreadyBound,
     "variant 'b' is already in the group at 'Q'"),
    (add_alt_group, (["e", "f"], 1, 1, "Q"), GroupExists,
     "variation point 'Q' already has an alternative group"),
    (add_alt_group, (["a", "e"], True, True, "O"), VariantAlreadyBound,
     "variant 'a' already has a dependency"),
    (add_alt_group, (["e", "f"], True, True, "Q"), GroupExists,
     "variation point 'Q' already has an alternative group"),
    (add_alt_group, (["e", "f"], True, 1, "O"), CardinalityInvalid, NOT_NATURAL),
    (add_alt_group, (["e", "f"], 1, 1.0, "O"), CardinalityInvalid, NOT_NATURAL),
    (remove_alt_group, ("P",), NotFound, "no alternative group at 'P'"),
    (remove_alt_group, ("",), NotFound, "no alternative group at ''"),
    (add_constraint, (REQ, variant_ref("ghost"), vp_ref("nowhere")), NotFound,
     "no variant named 'ghost'"),
    (add_constraint, (REQ, variant_ref("e"), vp_ref("nowhere")), NotFound,
     "no vp named 'nowhere'"),
    (add_constraint, (EXC, vp_ref("nowhere"), variant_ref("ghost")), NotFound,
     "no vp named 'nowhere'"),
    (add_constraint, (REQ, variant_ref("ghost"), variant_ref("ghost")), NotFound,
     "no variant named 'ghost'"),
    (add_constraint, (REQ, variant_ref("e"), variant_ref("e")), SelfConstraint,
     "constraint endpoints are identical: 'e'"),
    (add_constraint, (EXC, variant_ref("a"), vp_ref("Q")), ConstraintConflict,
     "the pair 'a' -> 'Q' is already constrained"),
    (add_constraint, (EXC, vp_ref("Q"), variant_ref("a")), ConstraintConflict,
     "the pair 'a' -> 'Q' is already constrained"),
    (add_constraint, (REQ, variant_ref("d"), variant_ref("a")), ConstraintConflict,
     "the pair 'd' -> 'a' is already constrained"),
    (remove_constraint, (REQ, variant_ref("a"), variant_ref("d")), NotFound,
     "no requires constraint 'a' -> 'd'"),
    (remove_constraint, (EXC, variant_ref("a"), vp_ref("Q")), NotFound,
     "no excludes constraint 'a' -> 'Q'"),
]


@pytest.mark.parametrize(
    "operation, args, error, text",
    PRECONDITION_TEXTS,
    ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(PRECONDITION_TEXTS)],
)
def test_precondition_failure_texts(operation, args, error, text):
    model = pinned_model()
    with pytest.raises(OvmRbacError) as exc:
        operation(model, *args)
    assert type(exc.value) is error
    assert str(exc.value) == text


@pytest.mark.parametrize(
    "operation, name, blockers",
    [
        (remove_man_vp, "Q", (
            "dependency d -> Q",
            "alternative group at Q",
            "constraint requires variant:a -> vp:Q",
        )),
        (remove_variant, "a", (
            "dependency a -> P",
            "constraint excludes variant:a -> variant:d",
            "constraint excludes variant:d -> variant:a",
            "constraint requires variant:a -> vp:Q",
        )),
    ],
)
def test_element_in_use_lists_every_blocker(operation, name, blockers):
    with pytest.raises(ElementInUse) as exc:
        operation(pinned_model(), name)
    assert exc.value.blockers == blockers
    what = "variation point" if operation is remove_man_vp else "variant"
    assert str(exc.value) == (
        f"{what} {name!r} is still referenced by: " + "; ".join(blockers)
    )


# Inputs that used to be split into characters or to raise TypeError.
@pytest.mark.parametrize(
    "build, error, text",
    [
        (lambda m: add_alt_group(m, "ef", 1, 1, "O"), InvalidName,
         "group variants must be a collection of names, got 'ef'"),
        (lambda m: add_alt_group(m, 5, 1, 1, "O"), InvalidName,
         "group variants must be a collection of names, got 5"),
        (lambda m: add_alt_group(m, None, 1, 1, "O"), InvalidName,
         "group variants must be a collection of names, got None"),
        (lambda m: add_alt_group(m, [["e"], "f"], 1, 1, "O"), InvalidName, NON_EMPTY),
        (lambda m: AltGroup("ef", 1, 1, "O"), InvalidName,
         "group variants must be a collection of names, got 'ef'"),
        (lambda m: AltGroup(5, 1, 1, "O"), InvalidName,
         "group variants must be a collection of names, got 5"),
        (lambda m: AltGroup(None, 1, 1, "O"), InvalidName,
         "group variants must be a collection of names, got None"),
        (lambda m: add_alt_group(m, ["e", "f"], "1", 1, "O"), CardinalityInvalid,
         NOT_NATURAL),
        (lambda m: add_alt_group(m, ["e", "f"], 1, None, "O"), CardinalityInvalid,
         NOT_NATURAL),
        (lambda m: add_alt_group(m, ["e", "f"], None, None, "O"), CardinalityInvalid,
         NOT_NATURAL),
        (lambda m: add_alt_group(m, ["e"], "1", 1, "O"), CardinalityInvalid,
         "an alternative group needs at least two variants"),
        (lambda m: add_alt_group(m, ["e", "f"], -1, "1", "O"), CardinalityInvalid,
         "need 0 <= min <= max <= 2, got (-1, '1')"),
    ],
    ids=[
        "add-string", "add-int", "add-none", "add-unhashable-member",
        "new-string", "new-int", "new-none",
        "str-min", "none-max", "none-both", "size-before-type", "negative-before-type",
    ],
)
def test_alt_group_refuses_malformed_inputs(build, error, text):
    with pytest.raises(OvmRbacError) as exc:
        build(pinned_model())
    assert type(exc.value) is error
    assert str(exc.value) == text


# A field of the wrong type is refused where the value is made; kept, it
# would fail far from the call, when the model is written or the endpoint shown.
@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda m: add_constraint(m, "requires", variant_ref("e"), variant_ref("f")),
         "ConstraintKind"),
        (lambda m: add_constraint(m, REQ, "variant:e", variant_ref("f")), "EndpointRef"),
        (lambda m: add_constraint(m, REQ, variant_ref("e"), "variant:f"), "EndpointRef"),
        (lambda m: remove_constraint(m, "excludes", variant_ref("a"), variant_ref("d")),
         "ConstraintKind"),
        (lambda m: add_dependency(m, "e", "O", "mandatory"), "VariabilityKind"),
        (lambda m: str(EndpointRef("variant", "e")), "Universe"),
    ],
    ids=["add-constraint-kind", "add-constraint-source", "add-constraint-target",
         "remove-constraint-kind", "add-dependency-kind", "endpoint-universe"],
)
def test_wrong_typed_fields_are_refused_at_the_call(build, expected):
    model = pinned_model()
    with pytest.raises(ValueError, match=f"^expected a {expected}, got ") as exc:
        build(model)
    assert type(exc.value) is ValueError
    assert model == pinned_model()
