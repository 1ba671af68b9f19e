"""Policy administration, object identifiers, and access decisions."""

import pytest

from ovmrbac import (
    AlreadyAssigned,
    Category,
    Decision,
    DuplicateId,
    NotAssigned,
    NotGranted,
    OPERATION_CATALOG,
    ObjectId,
    ParseError,
    Permission,
    UnknownOperation,
    UnknownRole,
    UnknownUser,
    add_man_vp,
    add_role,
    add_user,
    assign_user,
    category_object,
    check_access,
    deassign_user,
    grant_permission2,
    new_empty_model,
    new_empty_policy,
    parse_object_id,
    revoke_permission,
    role_permissions,
)
from ovmrbac.rbac import (
    alt_group_object,
    category_members,
    dependency_object,
    element_object_ids,
    variant_object,
    vp_object,
)

ALLOW = Decision.ALLOW
DENY = Decision.DENY


# Every object-id shape: its text, the category it names (``set:`` ids only),
# and the category it spells (variant, alt-group and constraint ids only),
# which is what a creation operation's category grant matches on.
ID_SHAPES = [
    ("set:OBJECTS", Category.OBJECTS, None),
    ("set:MAN_VP", Category.MAN_VP, None),
    ("set:EXCLUDES_VP_V", Category.EXCLUDES_VP_V, None),
    ("vp:CPU VP", None, None),
    ("variant:Sc.Linux", None, Category.VARIANT),
    ("dep:Matlab->Library Required VP", None, None),
    ("altgroup:Authentication VP", None, Category.ALTGROUP),
    ("constraint:requires:variant:Linux:variant:Grid", None, Category.REQUIRES_V_V),
    ("constraint:requires:variant:Linux:vp:Linux VP", None, Category.REQUIRES_V_VP),
    ("constraint:requires:vp:OS VP:variant:Linux", None, Category.REQUIRES_VP_V),
    ("constraint:requires:vp:OS VP:vp:CPU VP", None, Category.REQUIRES_VP_VP),
    ("constraint:excludes:variant:Matlab:variant:Sc.Linux", None, Category.EXCLUDES_V_V),
    ("constraint:excludes:variant:Matlab:vp:GPU VP", None, Category.EXCLUDES_V_VP),
    ("constraint:excludes:vp:GPU VP:variant:Matlab", None, Category.EXCLUDES_VP_V),
    ("constraint:excludes:vp:GPU VP:vp:OS VP", None, Category.EXCLUDES_VP_VP),
]


# Malformed object-id texts and the exact error each raises.
MALFORMED_IDS = [
    ("", "malformed object id ''"),
    ("plainname", "malformed object id 'plainname'"),
    (None, "malformed object id None"),
    (5, "malformed object id 5"),
    ("set:NOT_A_SET", "unknown category 'NOT_A_SET' in object id"),
    (
        "vp:",
        "malformed object id 'vp:': element name must be a non-empty string",
    ),
    ("dep:onlyvariant", "malformed dependency id 'dep:onlyvariant'"),
    ("dep:a->b->c", "malformed dependency id 'dep:a->b->c'"),
    (
        "constraint:requires:variant:a",
        "malformed constraint id 'constraint:requires:variant:a'",
    ),
    (
        "constraint:sometimes:variant:a:variant:b",
        "malformed object id 'constraint:sometimes:variant:a:variant:b': "
        "'sometimes' is not a valid ConstraintKind",
    ),
    (
        "constraint:requires:planet:a:variant:b",
        "malformed object id 'constraint:requires:planet:a:variant:b': "
        "'planet' is not a valid Universe",
    ),
    ("what:ever", "unknown object id prefix 'what'"),
    # Two faults at once: the first check in parse order reports.
    (
        "constraint:sometimes:planet:a:variant:b",
        "malformed object id 'constraint:sometimes:planet:a:variant:b': "
        "'sometimes' is not a valid ConstraintKind",
    ),
    (
        "constraint:requires:planet::variant:b",
        "malformed object id 'constraint:requires:planet::variant:b': "
        "'planet' is not a valid Universe",
    ),
    (
        "constraint:requires:variant::planet:b",
        "malformed object id 'constraint:requires:variant::planet:b': "
        "element name must be a non-empty string",
    ),
    (
        "dep:->x",
        "malformed object id 'dep:->x': element name must be a non-empty string",
    ),
]


class TestObjectIds:
    @pytest.mark.parametrize(
        "text, named, spelled", ID_SHAPES, ids=[text for text, _, _ in ID_SHAPES]
    )
    def test_canonical_texts_round_trip(self, text, named, spelled):
        obj = parse_object_id(text)
        assert obj.text == text
        assert (obj.is_category, obj.category) == (named is not None, named)

    @pytest.mark.parametrize(
        "text, message", MALFORMED_IDS, ids=[str(text) for text, _ in MALFORMED_IDS]
    )
    def test_malformed_texts_rejected(self, text, message):
        with pytest.raises(ParseError) as raised:
            parse_object_id(text)
        assert str(raised.value) == message

    @pytest.mark.parametrize("granted", list(Category), ids=lambda c: c.value)
    def test_creation_grants_match_the_spelled_category(self, granted):
        """On an empty model only the creation rule, an exact id or
        ``set:OBJECTS`` can allow; the rule reads the id's spelled category."""
        policy = assign_user(add_user(add_role(new_empty_policy(), "R"), "u"), "u", "R")
        for operation in ("add_Constraint", "add_AltGroup", "remove_Constraint"):
            policy = grant_permission2(policy, [category_object(granted)], operation, "R")
        model = new_empty_model()
        for text, named, spelled in ID_SHAPES:
            for operation in ("add_Constraint", "add_AltGroup", "remove_Constraint"):
                creation = operation != "remove_Constraint"
                expected = (
                    granted is Category.OBJECTS
                    or named is granted
                    or (creation and spelled is granted)
                )
                got = check_access(policy, model, "u", operation, ObjectId(text))
                assert got is (ALLOW if expected else DENY), (text, operation)

    def test_ids_are_value_objects(self):
        assert ObjectId("vp:OS VP") == vp_object("OS VP")
        assert len({ObjectId("variant:a"), variant_object("a")}) == 1


class TestAdministration:
    def test_user_and_role_registration(self):
        policy = add_user(new_empty_policy(), "Alice")
        assert policy.users == frozenset({"Alice"})
        with pytest.raises(DuplicateId):
            add_user(policy, "Alice")
        policy = add_role(policy, "Grid Node Expert")
        with pytest.raises(DuplicateId):
            add_role(policy, "Grid Node Expert")

    def test_fixture_registry_sizes(self, example_policy):
        assert len(example_policy.users) == 3
        assert len(example_policy.roles) == 3
        assert len(example_policy.user_assignments) == 3
        assert example_policy.operations == frozenset(OPERATION_CATALOG)

    def test_assign_requires_registered_ids(self):
        policy = add_role(add_user(new_empty_policy(), "Alice"), "Image Expert")
        with pytest.raises(UnknownUser):
            assign_user(policy, "Mallory", "Image Expert")
        with pytest.raises(UnknownRole):
            assign_user(policy, "Alice", "Nobody")
        policy = assign_user(policy, "Alice", "Image Expert")
        with pytest.raises(AlreadyAssigned):
            assign_user(policy, "Alice", "Image Expert")

    def test_deassign(self, example_policy, example_model):
        policy = deassign_user(example_policy, "Alice", "Grid Node Expert")
        assert all(u != "Alice" for u, _ in policy.user_assignments)
        target = category_object(Category.MAN_VP)
        assert check_access(policy, example_model, "Alice", "read", target) is DENY
        with pytest.raises(NotAssigned):
            deassign_user(policy, "Alice", "Grid Node Expert")

    def test_grant_validates_role_and_operation(self):
        policy = add_role(new_empty_policy(), "R")
        with pytest.raises(UnknownRole):
            grant_permission2(policy, [vp_object("X")], "read", "Nobody")
        with pytest.raises(UnknownOperation):
            grant_permission2(policy, [vp_object("X")], "levitate", "R")

    def test_grant_is_idempotent_and_set_valued(self):
        policy = add_role(new_empty_policy(), "R")
        objects = [vp_object("X"), variant_object("y")]
        once = grant_permission2(policy, objects, "read", "R")
        twice = grant_permission2(once, objects, "read", "R")
        assert once == twice
        assert len(role_permissions(once, "R")) == 2

    def test_revoke_round_trip(self, example_model):
        policy = add_user(add_role(new_empty_policy(), "R"), "u")
        policy = assign_user(policy, "u", "R")
        base = policy
        policy = grant_permission2(policy, [category_object(Category.OBJECTS)], "read", "R")
        obj = vp_object("OS VP")
        model = add_man_vp(new_empty_model(), "OS VP")
        assert check_access(policy, model, "u", "read", obj) is ALLOW
        policy = revoke_permission(policy, category_object(Category.OBJECTS), "read", "R")
        assert policy == base
        assert check_access(policy, model, "u", "read", obj) is DENY
        with pytest.raises(NotGranted):
            revoke_permission(policy, category_object(Category.OBJECTS), "read", "R")

    def test_regrant_restores_allow(self, example_model, example_policy):
        obj = category_object(Category.MAN_VP)
        policy = revoke_permission(
            example_policy, obj, "remove_Variation_Point", "Grid Node Expert"
        )
        assert (
            check_access(policy, example_model, "Alice", "remove_Variation_Point", obj)
            is DENY
        )
        policy = grant_permission2(
            policy, [obj], "remove_Variation_Point", "Grid Node Expert"
        )
        assert (
            check_access(policy, example_model, "Alice", "remove_Variation_Point", obj)
            is ALLOW
        )


class TestRolePermissions:
    def test_grid_node_expert_rows(self, example_policy):
        rows = {
            (p.object.text, p.operation)
            for p in role_permissions(example_policy, "Grid Node Expert")
        }
        assert rows == {
            ("set:OBJECTS", "read"),
            ("set:MAN_VP", "add_Variation_Point"),
            ("set:MAN_VP", "remove_Variation_Point"),
        }

    def test_security_expert_rows(self, example_policy):
        rows = role_permissions(example_policy, "Security Expert")
        assert rows == frozenset(
            {
                Permission(alt_group_object("Authentication VP"), "readAltGroup"),
                Permission(alt_group_object("Authentication VP"), "writeAltGroup"),
            }
        )

    def test_unknown_role(self, example_policy):
        with pytest.raises(UnknownRole):
            role_permissions(example_policy, "Nobody")


class TestCheckAccess:
    def test_decision_matrix(self, example_model, example_policy):
        cases = [
            ("Alice", "add_Variation_Point", "set:MAN_VP", ALLOW),
            ("Alice", "remove_Variation_Point", "set:MAN_VP", ALLOW),
            ("Bob", "writeAltGroup", "altgroup:Authentication VP", ALLOW),
            ("Helen", "writeOptDep", "dep:Matlab->Library Required VP", ALLOW),
            ("Helen", "remove_Variation_Point", "set:MAN_VP", DENY),
            ("Bob", "read", "vp:OS VP", DENY),
            ("Nobody", "read", "set:OBJECTS", DENY),
        ]
        for user, operation, obj, expected in cases:
            got = check_access(
                example_policy, example_model, user, operation, ObjectId(obj)
            )
            assert got is expected, (user, operation, obj)

    def test_fail_closed_on_empty_policy(self, example_model):
        policy = new_empty_policy()
        for obj in ("set:OBJECTS", "vp:OS VP", "variant:Matlab"):
            assert (
                check_access(policy, example_model, "Alice", "read", ObjectId(obj))
                is DENY
            )

    def test_universal_grant_reaches_every_element(self, example_model, example_policy):
        for obj in element_object_ids(example_model):
            assert (
                check_access(example_policy, example_model, "Alice", "read", obj)
                is ALLOW
            )

    def test_category_grant_covers_element_dynamically(
        self, example_model, example_policy
    ):
        target = vp_object("Brand New VP")
        # not a member yet: the MAN_VP grant does not cover it
        assert (
            check_access(
                example_policy, example_model, "Alice", "remove_Variation_Point", target
            )
            is DENY
        )
        grown = add_man_vp(example_model, "Brand New VP")
        assert (
            check_access(
                example_policy, grown, "Alice", "remove_Variation_Point", target
            )
            is ALLOW
        )

    def test_category_grant_never_covers_other_category(
        self, example_model, example_policy
    ):
        assert (
            check_access(
                example_policy,
                example_model,
                "Alice",
                "add_Variation_Point",
                category_object(Category.OPT_VP),
            )
            is DENY
        )

    def test_creation_targets_match_syntactically(self, example_model):
        policy = add_user(add_role(new_empty_policy(), "R"), "u")
        policy = assign_user(policy, "u", "R")
        policy = grant_permission2(
            policy, [category_object(Category.EXCLUDES_V_V)], "add_Constraint", "R"
        )
        target = ObjectId("constraint:excludes:variant:a:variant:b")
        # the constraint does not exist yet, the grant still covers creation
        assert check_access(policy, example_model, "u", "add_Constraint", target) is ALLOW
        # but a read of that nonexistent constraint is not covered
        assert check_access(policy, example_model, "u", "read", target) is DENY

    def test_incompatible_grants_are_inert(self, example_model):
        policy = add_user(add_role(new_empty_policy(), "R"), "u")
        policy = assign_user(policy, "u", "R")
        policy = grant_permission2(
            policy, [variant_object("Matlab")], "readAltGroup", "R"
        )
        assert (
            check_access(
                policy, example_model, "u", "readAltGroup", variant_object("Matlab")
            )
            is ALLOW
        )
        assert (
            check_access(
                policy,
                example_model,
                "u",
                "readAltGroup",
                alt_group_object("Authentication VP"),
            )
            is DENY
        )


class TestCategoryMembers:
    def test_fixture_membership_counts(self, example_model):
        sizes = {
            Category.MAN_VP: 6,
            Category.OPT_VP: 2,
            Category.VARIANT: 17,
            Category.MAN: 5,
            Category.OPT: 7,
            Category.ALTGROUP: 2,
            Category.EXCLUDES_V_V: 2,
            Category.REQUIRES_V_VP: 6,
            Category.REQUIRES_VP_V: 2,
            Category.REQUIRES_V_V: 0,
            Category.EXCLUDES_VP_VP: 0,
        }
        for category, expected in sizes.items():
            assert len(category_members(example_model, category)) == expected, category

    def test_objects_category_is_everything(self, example_model):
        everything = category_members(example_model, Category.OBJECTS)
        assert everything == element_object_ids(example_model)
        assert dependency_object("GPU", "Processor VP") in everything
